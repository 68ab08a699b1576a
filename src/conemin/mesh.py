"""Oriented triangle meshes with per-vertex constraint classes.

A mesh stands for a surface-with-boundary inside a convex polyhedral cone.
Each vertex carries a constraint class: free interior point, point confined
to one cone facet plane, point pinned to the line where two facets meet, or
point clamped to the sphere of radius ``clamp_radius``.  Wavefront text
import/export keeps the classes in a JSON sidecar keyed by vertex index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .geometry import PolyhedralCone

AREA_TOL = 1e-14
PLANE_TOL = 1e-9


class VertexClass(IntEnum):
    INTERIOR = 0
    FREE_BOUNDARY = 1
    EDGE_PINNED = 2
    CLAMPED = 3


_CLASS_NAMES = {
    VertexClass.INTERIOR: "interior",
    VertexClass.FREE_BOUNDARY: "free_boundary",
    VertexClass.EDGE_PINNED: "edge_pinned",
    VertexClass.CLAMPED: "clamped",
}
_NAME_CLASSES = {v: k for k, v in _CLASS_NAMES.items()}


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


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    a, b, c = mesh.triangle_corners()
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def triangle_normals(mesh: TriMesh) -> np.ndarray:
    """Unit normals; degenerate triangles yield zero vectors."""
    a, b, c = mesh.triangle_corners()
    n = np.cross(b - a, c - a)
    lens = np.linalg.norm(n, axis=1)
    safe = np.where(lens > 0, lens, 1.0)
    return n / safe[:, None]


def surface_area(mesh: TriMesh) -> float:
    return float(triangle_areas(mesh).sum())


def _edge_keys(mesh: TriMesh):
    """Directed edges of every triangle, (3m, 2): all (0, 1) edges, then all
    (1, 2), then all (2, 0); and the key min*n + max that is the same for
    both directions of an undirected edge."""
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    return edges, edges.min(axis=1) * mesh.n_vertices + edges.max(axis=1)


def validate(mesh: TriMesh, cone: PolyhedralCone) -> None:
    """Raise ValueError on the first violated mesh invariant."""
    n, t = mesh.n_vertices, mesh.triangles
    if t.size and (t.min() < 0 or t.max() >= n):
        raise ValueError("triangle index out of range")
    areas = triangle_areas(mesh)
    if np.any(areas <= AREA_TOL):
        bad = int(np.argmin(areas))
        raise ValueError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")

    edges, undirected = _edge_keys(mesh)
    directed = edges[:, 0] * n + edges[:, 1]
    if np.unique(directed).size != directed.size:
        raise ValueError("inconsistent orientation: repeated directed edge")
    _, counts = np.unique(undirected, return_counts=True)
    if np.any(counts > 2):
        raise ValueError("non-manifold edge: more than two incident triangles")

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


def euler_characteristic(mesh: TriMesh) -> int:
    n_edges = np.unique(_edge_keys(mesh)[1]).size
    used = np.unique(mesh.triangles)
    return int(used.size - n_edges + mesh.n_triangles)


def save_obj(mesh: TriMesh, path) -> None:
    """Write vertices/faces as Wavefront text plus a JSON class sidecar."""
    path = Path(path)
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for tri in mesh.triangles:
        lines.append(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}")
    path.write_text("\n".join(lines) + "\n")

    classes = {}
    for i in range(mesh.n_vertices):
        cls = VertexClass(mesh.vertex_class[i])
        rec = {"class": _CLASS_NAMES[cls]}
        if cls in (VertexClass.FREE_BOUNDARY, VertexClass.EDGE_PINNED):
            rec["facet"] = int(mesh.facet[i])
        if cls == VertexClass.EDGE_PINNED:
            rec["facet2"] = int(mesh.facet2[i])
        classes[str(i)] = rec
    sidecar = {"clamp_radius": mesh.clamp_radius, "classes": classes}
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True) + "\n")


def load_obj(path) -> TriMesh:
    """Read a Wavefront triangle mesh; classes come from the sidecar when
    present, otherwise every vertex is interior."""
    path = Path(path)
    verts, tris = [], []
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
            if len(idx) != 3:
                raise ValueError("only triangle faces are supported")
            tris.append(idx)
    vertices = np.array(verts, dtype=float).reshape(len(verts), 3)
    triangles = np.array(tris, dtype=np.int64).reshape(len(tris), 3)

    n = len(verts)
    vertex_class = np.zeros(n, dtype=np.int64)
    facet = np.full(n, -1, dtype=np.int64)
    facet2 = np.full(n, -1, dtype=np.int64)
    clamp_radius = None
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
        clamp_radius = sidecar.get("clamp_radius")
        for key, rec in sidecar.get("classes", {}).items():
            i = int(key)
            cls = _NAME_CLASSES[rec["class"]]
            vertex_class[i] = cls
            if "facet" in rec:
                facet[i] = rec["facet"]
            if "facet2" in rec:
                facet2[i] = rec["facet2"]
    return TriMesh(vertices, triangles, vertex_class, facet, facet2, clamp_radius)
