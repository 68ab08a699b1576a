"""Oriented triangle meshes with per-vertex constraint classes.

A mesh stands for a surface-with-boundary inside a convex polyhedral cone.
Each vertex carries a constraint class: free interior point, point confined
to one cone facet plane, point pinned to the line where two facets meet, or
point clamped to the sphere of radius ``clamp_radius``.  Wavefront text
export keeps the classes in a JSON sidecar keyed by vertex index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import PolyhedralCone, row_cross, row_norms

AREA_TOL = 1e-14
PLANE_TOL = 1e-9


class VertexClass(IntEnum):
    INTERIOR = 0
    FREE_BOUNDARY = 1
    EDGE_PINNED = 2
    CLAMPED = 3


@dataclass
class TriMesh:
    """Triangle mesh with constraint classes.

    vertices: (n, 3) float array.
    triangles: (m, 3) int array, consistent counter-clockwise orientation.
    vertex_class: (n,) int array of VertexClass values.
    facet: (n,) int array; facet index for FREE_BOUNDARY and first facet for
        EDGE_PINNED vertices, -1 elsewhere.
    facet2: (n,) int array; second facet for EDGE_PINNED vertices, -1 else.
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
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) array")
        n = self.vertices.shape[0]
        self.vertex_class = np.ascontiguousarray(self.vertex_class, dtype=np.int64)
        if self.vertex_class.shape != (n,):
            raise ValueError("vertex_class must have one entry per vertex")
        if self.facet is None:
            self.facet = np.full(n, -1, dtype=np.int64)
        else:
            self.facet = np.ascontiguousarray(self.facet, dtype=np.int64)
        if self.facet2 is None:
            self.facet2 = np.full(n, -1, dtype=np.int64)
        else:
            self.facet2 = np.ascontiguousarray(self.facet2, dtype=np.int64)
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
            self.triangles.copy(),
            self.vertex_class.copy(),
            self.facet.copy(),
            self.facet2.copy(),
            self.clamp_radius,
        )

    def triangle_corners(self):
        """Corner position arrays (a, b, c), each of shape (m, 3)."""
        v, t = self.vertices, self.triangles
        return tuple(np.take(v, t[:, k], axis=0) for k in range(3))


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


def triangle_geometry(mesh: TriMesh) -> TriangleGeometry:
    """Edges and normals of every triangle from one coordinate-major
    np.take gather; the corners are not kept."""
    # (coordinate, corner, tri) planes
    p = np.take(mesh.vertices.T, mesh.triangles.T, axis=1)
    e = np.empty_like(p)
    for k in range(3):
        np.subtract(p[:, k - 1], p[:, (k + 1) % 3], out=e[:, k])
    e = np.moveaxis(e, 0, -1)
    # (a - c) x (b - a) is ab x ac from the same products and differences,
    # so the same bits up to the sign of a zero component
    n = row_cross(e[1], e[2])
    return TriangleGeometry(e, n, row_norms(n))


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    return triangle_geometry(mesh).areas


def triangle_normals(mesh: TriMesh) -> np.ndarray:
    """Unit normals; degenerate triangles yield zero vectors."""
    _, n, lens = triangle_geometry(mesh)
    return n / np.where(lens > 0, lens, 1.0)[:, None]


def surface_area(mesh: TriMesh) -> float:
    return triangle_geometry(mesh).area


@dataclass(frozen=True)
class EdgeTable:
    """The (3m, 2) directed edges of the triangles, all (0, 1) edges, then
    all (1, 2), then all (2, 0); the triangle owning each; the multiplicity
    of its undirected edge (1 on the boundary); and whether an undirected
    edge is walked twice one way (inconsistent orientation, or 3+ owners)."""

    edges: np.ndarray
    owner: np.ndarray
    multiplicity: np.ndarray
    repeated_direction: bool


def edge_table(mesh: TriMesh) -> EdgeTable:
    """One sorting pass over the undirected edge keys min * n + max."""
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    key = edges.min(axis=1) * mesh.n_vertices + edges.max(axis=1)
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    up = np.bincount(inv[edges[:, 0] < edges[:, 1]], minlength=counts.size)
    return EdgeTable(edges, np.tile(np.arange(t.shape[0]), 3), counts[inv],
                     bool(np.any(np.maximum(up, counts - up) > 1)))


def validate(mesh: TriMesh, cone: PolyhedralCone) -> None:
    """Raise ValueError on the first violated mesh invariant; an edge of
    three or more triangles fails the orientation check."""
    n, t = mesh.n_vertices, mesh.triangles
    if t.size and (t.min() < 0 or t.max() >= n):
        raise ValueError("triangle index out of range")
    areas = triangle_areas(mesh)
    if np.any(areas <= AREA_TOL):
        bad = int(np.argmin(areas))
        raise ValueError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")
    if edge_table(mesh).repeated_direction:
        raise ValueError("inconsistent orientation: repeated directed edge")

    # per-class checks; the lowest-indexed offending vertex is reported,
    # with its class's first failed check
    normals, v, cls = cone.normals, mesh.vertices, mesh.vertex_class
    f, g, k = mesh.facet, mesh.facet2, len(normals)
    fb = cls == VertexClass.FREE_BOUNDARY
    ep = cls == VertexClass.EDGE_PINNED
    cl = cls == VertexClass.CLAMPED
    f_ok = (f >= 0) & (f < k)
    g_ok = (g >= 0) & (g < k)
    # out-of-range facet indices are masked before they index the normals;
    # their vertices fail the index checks below instead
    off_f = np.abs(np.einsum("ij,ij->i", normals[np.where(f_ok, f, 0)], v)) > PLANE_TOL
    off_g = np.abs(np.einsum("ij,ij->i", normals[np.where(g_ok, g, 0)], v)) > PLANE_TOL
    if mesh.clamp_radius is None:
        no_radius, off_sphere = cl, np.zeros(n, dtype=bool)
    else:
        no_radius = np.zeros(n, dtype=bool)
        off_sphere = cl & (np.abs(np.linalg.norm(v, axis=1) - mesh.clamp_radius)
                           > PLANE_TOL)
    checks = (
        (fb & ~f_ok, lambda i: f"vertex {i}: invalid facet index {f[i]}"),
        (fb & f_ok & off_f, lambda i: f"vertex {i} off its facet plane"),
        (ep & ~(f_ok & g_ok),
         lambda i: f"vertex {i}: invalid facet pair ({f[i]}, {g[i]})"),
        (ep & f_ok & g_ok & (off_f | off_g),
         lambda i: f"vertex {i} off its pinned edge line"),
        (no_radius, lambda i: "clamped vertices but no clamp_radius"),
        (off_sphere, lambda i: f"vertex {i} off the clamp sphere"),
        (~(fb | ep | cl | (cls == VertexClass.INTERIOR)),
         lambda i: f"vertex {i}: unknown class {cls[i]}"),
    )
    bad = [(int(np.argmax(mask)), message) for mask, message in checks
           if mask.any()]
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

    names = {c: c.name.lower() for c in VertexClass}
    on_facet = (VertexClass.FREE_BOUNDARY, VertexClass.EDGE_PINNED)
    classes = {}
    for i, (cls, f, g) in enumerate(zip(mesh.vertex_class.tolist(),
                                        mesh.facet.tolist(),
                                        mesh.facet2.tolist())):
        rec = {"class": names[cls]}
        if cls in on_facet:
            rec["facet"] = f
        if cls == VertexClass.EDGE_PINNED:
            rec["facet2"] = g
        classes[str(i)] = rec
    # the bytes of json.dumps(sidecar, indent=1, sort_keys=True), whose
    # indent runs the pure-Python encoder: the C encoder puts each record's
    # fields on lines of their own, and three replacements lay out the rest
    # (no key or value holds a brace)
    records = json.dumps(classes, sort_keys=True,
                         separators=(",\n   ", ": "))
    if classes:
        records = "{\n  %s\n }" % (records[1:-1].replace("}", "\n  }")
                                   .replace('{"class"', '{\n   "class"')
                                   .replace('},\n   "', '},\n  "'))
    path.with_suffix(path.suffix + ".json").write_text(
        '{\n "clamp_radius": %s,\n "classes": %s\n}\n'
        % (json.dumps(mesh.clamp_radius), records))
