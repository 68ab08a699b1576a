"""Oriented triangle meshes with per-vertex constraint classes.

A mesh stands for a surface-with-boundary inside a convex polyhedral cone.
Each vertex carries a constraint class: free interior point, free-boundary
point on a face of the cone, or point clamped to the sphere of radius
``clamp_radius``.  A free-boundary vertex's face is a facet plane, or a cone
edge where two facets meet.  Wavefront text export keeps the classes and
faces in a JSON sidecar keyed by vertex index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import (PolyhedralCone, _cross_into, _dots_into, _edge_rows,
                       _split, row_dots, row_norms)

AREA_TOL = 1e-14
PLANE_TOL = 1e-9


class VertexClass(IntEnum):
    INTERIOR = 0
    FREE_BOUNDARY = 1
    CLAMPED = 2


@dataclass
class TriMesh:
    """Triangle mesh with constraint classes.

    vertices: (n, 3) float array.
    triangles: (m, 3) int array, consistent counter-clockwise orientation,
        kept as the transpose of a contiguous (3, m) index for the gathers.
    vertex_class: (n,) int array of VertexClass values.
    facet, facet2: (n,) int arrays, the face of a FREE_BOUNDARY vertex:
        (i, -1) on facet i, (i, j) on the edge of facets i < j (a row of
        cone.face_table's faces); -1 for the other classes.
    clamp_radius: sphere radius for CLAMPED vertices, or None.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    vertex_class: np.ndarray
    facet: np.ndarray = None
    facet2: np.ndarray = None
    clamp_radius: float | None = None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        n = self.vertices.shape[0]
        for name in ("triangles", "vertex_class", "facet", "facet2"):
            x = getattr(self, name)
            if x is None and name in ("facet", "facet2"):
                x = np.full(n, -1)
            x = np.asarray(x)
            if x.dtype.kind not in "biu":  # integer arrays pass unchecked
                x = np.asarray(x, dtype=float)
                bad = ~(np.isfinite(x) & (np.trunc(x) == x))
                if bad.any():  # the cast to int64 would truncate it
                    raise ValueError(f"{name}: {float(x[bad][0])!r} is not "
                                     "an integer")
            setattr(self, name, np.ascontiguousarray(
                x.astype(np.int64, copy=False).T).T)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) array")
        if self.vertex_class.shape != (n,):
            raise ValueError("vertex_class must have one entry per vertex")
        if self.facet.shape != (n,) or self.facet2.shape != (n,):
            raise ValueError("facet arrays must have one entry per vertex")
        if self.clamp_radius is not None:
            self.clamp_radius = float(self.clamp_radius)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def copy(self) -> "TriMesh":
        return TriMesh(
            self.vertices.copy(),
            self.triangles.copy(order="K"),
            self.vertex_class.copy(),
            self.facet.copy(),
            self.facet2.copy(),
            self.clamp_radius,
        )


class TriangleGeometry(NamedTuple):
    """One mesh state's triangles (a, b, c).  edges[k] is the edge opposite
    corner k in the triangle's orientation (c - b, a - c, b - a), each a
    (tri, coordinate) view of contiguous coordinate planes; normals is
    n = ab x ac, laid out the same way, and norms is |n|."""

    edges: np.ndarray
    normals: np.ndarray
    norms: np.ndarray

    @property
    def areas(self) -> np.ndarray:
        return 0.5 * self.norms

    @property
    def area(self) -> float:
        return float(self.areas.sum())

    def gram(self):
        """The per-triangle Gram terms (|ab|², |ca|², |bc|², ab . ca), each
        an (m,) array of row_dots of the edges."""
        bc, ca, ab = self.edges
        return tuple(row_dots(x, y) for x, y in
                     ((ab, ab), (ca, ca), (bc, bc), (ab, ca)))


def triangle_geometry(mesh: TriMesh) -> TriangleGeometry:
    """Edges and normals of every triangle from coordinate-major np.take
    gathers, one coordinate's corners at a time; no corner is kept.
    ValueError names the first triangle with a vertex index out of range."""
    _check_indices(mesh)
    m = mesh.n_triangles
    return _geometry_into(mesh, _empty_geometry(m),
                          _aligned_empty(3 * (m + mesh.n_vertices)))


def _empty_geometry(m: int) -> TriangleGeometry:
    """Uninitialized arrays of m triangles in triangle_geometry's layout:
    (coordinate, corner, tri) edge planes and (coordinate, tri) normal
    planes, each array _aligned_empty."""
    return TriangleGeometry(
        _aligned_empty(9 * m).reshape(3, 3, m).transpose(1, 2, 0),
        _aligned_empty(3 * m).reshape(3, m).T, _aligned_empty(m))


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialized flat float array of size entries whose data starts
    on a 64-byte boundary, as does each of its planes of a multiple of 8
    entries.  numpy's vector loops store faster into an out array so
    aligned: on a 2-core x86-64 VM, np.multiply of two 4,096-entry arrays
    took 2.4 us into an aligned out and 3.8-4.3 us into any other."""
    raw = np.empty(size + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + size]


def _geometry_into(mesh: TriMesh, out: TriangleGeometry,
                   work: np.ndarray) -> TriangleGeometry:
    """triangle_geometry(mesh) written into out, an _empty_geometry of the
    mesh's triangle count (or an earlier state's geometry); returns out.
    The mesh's vertex indices must be in range (edge_table checks them).

    work is a flat float array of at least 3(m + n) entries: the n
    vertices' coordinate planes, copied to its tail so that each gather
    reads a contiguous column, and the gathers, the rows [lo, hi) of a
    _split into the contiguous (3, hi - lo) block work[3 lo:3 hi], with
    np.take's "clip" mode, which writes into a contiguous out without a
    buffer copy (all corners at once on the whole range, one corner at a
    time on a half, whose rows of the index are strided); the block is
    then the products' scratch.  The body that fills the rows [lo, hi)
    goes through geometry._split, which runs the two halves of a large
    mesh on two cores, the first on a worker thread; each triangle's
    edges, normal and norm come from its own corners alone, so the split
    changes no bit, and the sums across triangles (the area, the
    gradient's np.bincount, which holds the interpreter lock) stay with
    the caller, in index order.  A run that passes the same work to every
    call allocates no whole-mesh array here."""
    m, n = mesh.n_triangles, mesh.n_vertices
    t = mesh.triangles.T
    planes = work[3 * m:3 * (m + n)].reshape(3, n)
    np.copyto(planes, mesh.vertices.T)
    edges = out.edges.transpose(2, 0, 1)  # (coordinate, corner, tri) planes

    def fill(lo, hi):
        p = work[3 * lo:3 * hi].reshape(3, hi - lo)
        for x, ex in zip(planes, edges):
            if hi - lo == m:  # the whole (3, m) index in one gather
                np.take(x, t, out=p, mode="clip")
            else:  # a half's rows of it are strided: one corner at a time
                for k in range(3):
                    np.take(x, t[k, lo:hi], out=p[k], mode="clip")
            for k in range(3):
                np.subtract(p[k - 1], p[(k + 1) % 3], out=ex[k, lo:hi])
        # (a - c) x (b - a) is ab x ac from the same products and
        # differences, so the same bits up to the sign of a zero component
        normals = _cross_into(out.edges[1, lo:hi], out.edges[2, lo:hi],
                              out.normals[lo:hi], p[0])
        norms = _dots_into(normals, normals, out.norms[lo:hi], p[0])
        np.sqrt(norms, out=norms)

    _split(fill, m)
    return out


def surface_area(mesh: TriMesh) -> float:
    return triangle_geometry(mesh).area


@dataclass(frozen=True)
class EdgeTable:
    """The (k, 2) boundary edges, each as its one triangle walks it, in
    directed-edge order (all (0, 1) edges, then (1, 2), then (2, 0)); the
    triangle owning each; and whether an undirected edge is walked twice one
    way (inconsistent orientation, or 3+ owners)."""

    edges: np.ndarray
    owner: np.ndarray
    repeated_direction: bool


def edge_table(mesh: TriMesh) -> EdgeTable:
    """One stable np.argsort of the directed edge keys (min * n + max) * 2 +
    (i > j), faster than the default on their sorted runs: a repeated
    directed edge, the only tie, is an equal neighbour in sorted order, and
    a boundary edge a run of one undirected key.  The keys need every index
    in [0, n): ValueError names the first triangle with one outside."""
    _check_indices(mesh)
    t, n = mesh.triangles, mesh.n_vertices
    i, j = t.T.ravel(), np.roll(t.T, -1, axis=0).ravel()
    key = 2 * (np.minimum(i, j) * n + np.maximum(i, j)) + (i > j)
    order = np.argsort(key, kind="stable")
    key = key[order]
    # starts[p]: sorted key p opens a run of one undirected key, or p = end
    starts = np.ones(len(key) + 1, dtype=bool)
    starts[1:-1] = (key[1:] >> 1) != (key[:-1] >> 1)
    rows = np.sort(order[starts[:-1] & starts[1:]])
    return EdgeTable(np.stack([i[rows], j[rows]], axis=1), rows % len(t),
                     bool(np.any(key[1:] == key[:-1])))


def _check_indices(mesh: TriMesh) -> None:
    """Raise ValueError naming the first triangle with a vertex index
    outside [0, n)."""
    t, n = mesh.triangles, mesh.n_vertices
    bad = (t < 0) | (t >= n)
    if bad.any():
        k, c = np.argwhere(bad)[0]
        raise ValueError(f"triangle {k}: vertex index {t[k, c]} out of range "
                         f"for {n} vertices")


def _check_finite(mesh: TriMesh) -> None:
    """Raise ValueError naming the first vertex with a non-finite
    coordinate: every bound and kernel downstream would drop its triangles
    without a word."""
    bad = ~np.isfinite(mesh.vertices)
    if bad.any():
        raise ValueError(f"vertex {int(np.argmax(bad)) // 3} is not finite")


def validate(mesh: TriMesh, cone: PolyhedralCone) -> None:
    """Raise ValueError on the first violated mesh invariant; an edge of
    three or more triangles fails the orientation check."""
    _check_finite(mesh)
    m = mesh.n_triangles  # edge_table, the first argument, checks indices
    _validate(mesh, cone, edge_table(mesh).repeated_direction, _geometry_into(
        mesh, _empty_geometry(m), _aligned_empty(3 * (m + mesh.n_vertices))
    ).areas)


def _validate(mesh: TriMesh, cone: PolyhedralCone, repeated_direction: bool,
              areas: np.ndarray) -> None:
    """validate of the mesh whose edge_table (which checks the indices) has
    the given repeated_direction and whose triangles have the given areas;
    neither the table nor the geometry is built here."""
    if not mesh.n_triangles:
        raise ValueError("the mesh has no triangles")
    if np.any(areas <= AREA_TOL):
        bad = int(np.argmin(areas))
        raise ValueError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")
    if repeated_direction:
        raise ValueError("inconsistent orientation: repeated directed edge")

    # per-class checks, each on its class's rows alone; the lowest-indexed
    # offending vertex is reported, with its class's first failed check
    normals, v, cls = cone.normals, mesh.vertices, mesh.vertex_class
    f, g, radius = mesh.facet, mesh.facet2, mesh.clamp_radius
    is_fb, is_cl = (cls == VertexClass.FREE_BOUNDARY,
                    cls == VertexClass.CLAMPED)
    fb, cl = np.flatnonzero(is_fb), np.flatnonzero(is_cl)
    ff, gg, x = f[fb], g[fb], v[fb]
    on_edge = gg >= 0
    f_ok = (ff >= 0) & (ff < len(normals))
    edge_ok = _edge_rows(cone, ff, gg) >= 0
    # out-of-range facet indices are masked before they index the normals;
    # their vertices fail the index checks below instead
    off_f = np.abs(row_dots(normals[np.where(f_ok, ff, 0)], x)) > PLANE_TOL
    off_g = np.abs(row_dots(normals[np.where(edge_ok, gg, 0)], x)) > PLANE_TOL
    if radius is None:
        no_radius, off_sphere = cl, cl[:0]
    else:
        no_radius = cl[:0]
        off_sphere = cl[np.abs(row_norms(v[cl]) - radius) > PLANE_TOL]
    checks = (
        (fb[~on_edge & ~f_ok],
         lambda i: f"vertex {i}: invalid facet index {f[i]}"),
        (fb[~on_edge & f_ok & off_f],
         lambda i: f"vertex {i} off its facet plane"),
        (fb[on_edge & ~edge_ok],
         lambda i: f"vertex {i}: facets ({f[i]}, {g[i]}) are not a cone edge"),
        (fb[on_edge & edge_ok & (off_f | off_g)],
         lambda i: f"vertex {i} off its cone edge"),
        (no_radius, lambda i: "clamped vertices but no clamp_radius"),
        (off_sphere, lambda i: f"vertex {i} off the clamp sphere"),
        (np.flatnonzero(~(is_fb | is_cl | (cls == VertexClass.INTERIOR))),
         lambda i: f"vertex {i}: unknown class {cls[i]}"),
    )
    bad = [(int(at[0]), message) for at, message in checks if len(at)]
    if bad:
        i, message = min(bad, key=lambda im: im[0])
        raise ValueError(message(i))


def save_obj(mesh: TriMesh, path) -> None:
    """Write vertices/faces as Wavefront text plus a JSON class sidecar."""
    path = Path(path)
    path.write_text(
        ("v %.17g %.17g %.17g\n" * mesh.n_vertices)
        % tuple(mesh.vertices.ravel().tolist())
        + ("f %d %d %d\n" * mesh.n_triangles)
        % tuple((mesh.triangles + 1).ravel().tolist()))

    # the bytes of json.dumps(sidecar, indent=1, sort_keys=True): one text
    # template per distinct (class, facet, facet2) record, filled in with
    # each vertex key in the string order sort_keys puts them in
    fb = mesh.vertex_class == VertexClass.FREE_BOUNDARY
    record = list(zip(mesh.vertex_class.tolist(),
                      np.where(fb, mesh.facet, -1).tolist(),
                      np.where(fb, mesh.facet2, -1).tolist()))
    templates = {}
    for cls, f, g in set(record):
        text = '"class": "%s"' % VertexClass(cls).name.lower()
        if cls == VertexClass.FREE_BOUNDARY:
            text += ',\n   "facet": %d' % f
            if g >= 0:
                text += ',\n   "facet2": %d' % g
        templates[cls, f, g] = '  "%%d": {\n   %s\n  }' % text
    records = ",\n".join([templates[record[i]] % i
                          for i in sorted(range(mesh.n_vertices), key=str)])
    records = "{\n%s\n }" % records if records else "{}"
    path.with_suffix(path.suffix + ".json").write_text(
        '{\n "clamp_radius": %s,\n "classes": %s\n}\n'
        % (json.dumps(mesh.clamp_radius), records))
