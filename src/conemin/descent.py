"""Projected gradient descent for free-boundary area minimization.

The mesh lives inside a convex polyhedral cone; free-boundary vertices slide
in the span of their face, a facet plane or the line of a cone edge, clamped
vertices stay on the sphere of radius R.  A vertex that a step carries out of
the cone returns to its nearest point of the cone, geometry.nearest_point,
and a free-boundary one takes that point's face.  Descent uses Armijo
backtracking on the post-projection area, so the recorded area history
is monotone by construction.

Both projections read a face plan: the free-boundary vertices on a facet
with their normals, those on an edge with its direction, and the clamped
and movable ones.  minimize builds it once, after the jitter's projection,
and builds it anew only when nearest_point gives a free-boundary vertex a
different face.  Each Armijo trial goes into a second mesh, with the
same triangles and classes, that swaps with the accepted state when
accepted: that state is never written during a line search, so a rejected
trial leaves nothing to restore.  The public project_gradient and
project_to_constraints build a plan per call and run the same kernels.

Each accepted state's triangle_geometry (one gather per coordinate, one
cross product per triangle) serves three uses: the Armijo test that
accepted it, the bound that prunes its triangles for its vertex distance
and the next step's gradient.  So do its Gram terms (TriangleGeometry.gram,
one pass): the pruning bound reads all four, and the gradient's
flat-triangle test reads |ab|² and |ca|².  The final state's Gram terms,
the only array of the loop held past it, serve the post-run ball audits
too (a stalled run's audits build their own).  One contiguous (3, m)
corner index, TriMesh's layout of the triangles, serves every gather and
the gradient's np.bincount.  No trial copies the whole mesh: _project
keeps only the free-boundary rows.

Nothing in the loop reads a vertex distance, so the loop keeps only the
pruned triangles' corners, and one exact pass after it measures every
accepted state (or one pass per DISTANCE_CHUNK kept triangles, so a long
run holds bounded memory).  The post-run ball audits of the final state
are closed forms from one clip pass: p(r) from exact clipped areas, and
the conical deviation from the solid angles of whole and clipped
triangles (Van Oosterom & Strackee 1983).  The triangles never change, so
one edge table serves the whole run: the validation of the start state
and, through its boundary rows, the boundary angle audit of the final one.

The area gradient scatters its per-corner terms onto the vertices with
np.bincount, which sums in index order, so results are bit-identical from
run to run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (CONTAIN_TOL, PolyhedralCone, _edge_rows, is_vertex,
                       nearest_point, row_cross, row_dots, row_norms)
from .mesh import (TriMesh, VertexClass, _check_finite, _validate,
                   edge_table, triangle_geometry)
from .diagnostics import (_ball_audits, _boundary_angle_audit, _corners,
                          _near_corners, _nearest_distances)

MAX_HALVINGS = 60
DEGENERATE_REL_TOL = 1e-9  # |cross| below this multiple of the longest
# squared edge means the triangle is numerically flat

RADII_FRACTIONS = np.linspace(0.15, 0.95, 10)
DEVIATION_WINDOWS = ((0.1, 0.5), (0.2, 0.9))
DISTANCE_CHUNK = 262144  # kept triangles per exact vertex-distance pass


@dataclass
class MinimizeConfig:
    max_iters: int = 2000
    grad_tol: float = 1e-6
    initial_step: float = 0.25
    armijo_c: float = 0.3
    clamp_radius: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # the CLI config check reuses these range checks for its minimize
        # fields, so each message names its field
        for name in ("max_iters", "seed"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0 and int(val) == val):
                raise ValueError(f"field '{name}' must be a nonnegative integer")
            setattr(self, name, int(val))
        for name in ("grad_tol", "initial_step", "clamp_radius"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"field '{name}' must be a finite number")
            if not val > 0:
                raise ValueError(f"field '{name}' must be > 0")
        if not 0 < self.armijo_c < 1:
            raise ValueError("field 'armijo_c' must lie in (0, 1)")


@dataclass
class Diagnostics:
    """Everything the descent loop and the post-run audits produce."""

    area_history: list = field(default_factory=list)
    vertex_distance_history: list = field(default_factory=list)
    p_ratios: list = field(default_factory=list)
    conical_deviation: list = field(default_factory=list)
    boundary_angle_stats: object = None
    status: str = ""
    accepted_steps: int = 0
    # vertices whose face became a cone edge during the run
    pinned_vertices: list = field(default_factory=list)
    armijo_margins: list = field(default_factory=list)
    # each accepted step's length, and the trials rejected before it
    step_history: list = field(default_factory=list)
    halvings_history: list = field(default_factory=list)
    # wall-clock seconds of each phase: "descent" (the start state's checks
    # and the loop), "vertex_distance" (the exact passes), "ball_audits"
    # and "angle_audit"; four parts of "descent": "start" (everything
    # before the loop) and, timed inside it, "gradient" (the projected
    # gradient), "line_search" (the trials) and "vertex_prune" (the
    # accepted state's Gram terms and kept corners)
    phase_seconds: dict = field(default_factory=dict)


def _sector_rays(cone: PolyhedralCone):
    """Edge rays of the 2D sector cut by {x1 = 0}, as ((dir2d, facet), ...)
    plus the in-plane unit normals of all facets."""
    normals = cone.normals
    planar = normals.copy()
    planar[:, 0] = 0.0
    lens = np.linalg.norm(planar, axis=1)
    if np.any(lens <= 1e-12):
        raise ValueError("plane {x1 = 0} lies in a cone facet: no interior section")
    u = planar[:, 1:] / lens[:, None]
    rays = []
    for i in range(u.shape[0]):
        for s in (1.0, -1.0):
            d = s * np.array([-u[i, 1], u[i, 0]])
            if float(np.max(u @ d)) <= 1e-9:
                if not any(float(d @ r) > 1.0 - 1e-10 for r, _ in rays):
                    rays.append((d, i))
    if len(rays) != 2:
        raise ValueError("section of the cone by {x1 = 0} is not a sector")
    (d1, f1), (d2, f2) = rays
    if float(d1 @ d2) <= -1.0 + 1e-9:
        raise ValueError("section of the cone by {x1 = 0} is a half-plane")
    w = d1 + d2
    w = w / np.linalg.norm(w)
    if float(np.max(u @ w)) >= -1e-9:
        raise ValueError("plane {x1 = 0} misses the cone interior")
    t = np.array([-w[1], w[0]])
    if float(d2 @ t) < 0.0:
        (d1, f1), (d2, f2) = (d2, f2), (d1, f1)
    return (d1, f1), (d2, f2), w, t


def make_initial_plane(cone: PolyhedralCone, R: float, resolution: int) -> TriMesh:
    """Triangulated {x1 = 0} section of the cone inside the ball of radius R.

    Ring k of the fan carries k+1 vertices; ray vertices are tagged
    free-boundary on their facet, outer-ring vertices are clamped.  In a
    cone with a genuine vertex the apex node is pulled to distance
    delta0 = R/(4*resolution) along the sector bisector and left free; in a
    wedge-like cone it stays at the origin, free-boundary on the cone edge
    where the two sector facets meet.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError("R must be a finite number > 0")
    if int(resolution) != resolution or resolution < 1:
        raise ValueError("resolution must be a positive integer")
    resolution = int(resolution)
    (d1, f1), (d2, f2), w, t = _sector_rays(cone)
    phi_max = math.atan2(float(d2 @ t), float(d2 @ w))

    def embed(r, theta):
        """Points (0, r (cos theta w + sin theta t)); math.cos and math.sin,
        since numpy's may differ from them in the last bit."""
        cos = np.array([math.cos(x) for x in theta.tolist()])
        sin = np.array([math.sin(x) for x in theta.tolist()])
        y = r[:, None] * (cos[:, None] * w + sin[:, None] * t)
        return np.column_stack([np.zeros(len(y)), y])

    # vertex 0 is the apex node, then ring k = 1..resolution holds the
    # vertices j = 0..k at radius R k / resolution, from index first[k - 1]
    ring = np.arange(1, resolution + 1)
    first = 1 + (ring - 1) * (ring + 2) // 2
    k = np.repeat(ring, ring + 1)
    j = np.arange(1, 1 + k.size) - np.repeat(first, ring + 1)
    n = 1 + k.size
    vertices = np.zeros((n, 3))
    vertices[1:] = embed(R * k / resolution,
                         -phi_max + 2.0 * phi_max * j / k)
    classes = np.full(n, VertexClass.INTERIOR, dtype=np.int64)
    facet = np.full(n, -1, dtype=np.int64)
    facet2 = np.full(n, -1, dtype=np.int64)
    if is_vertex(cone):
        vertices[0] = embed(np.array([R / (4.0 * resolution)]),
                            np.zeros(1))[0]
    else:
        edge = (min(f1, f2), max(f1, f2))
        if cone.face_table[3][edge] < 0:
            raise ValueError(f"sector rays lie on facets {f1} and {f2}, which "
                             "meet in no cone edge: cannot place the apex")
        classes[0] = VertexClass.FREE_BOUNDARY
        facet[0], facet2[0] = edge
    # views of the ring vertices' entries
    ring_classes, ring_facet = classes[1:], facet[1:]
    ring_classes[(j == 0) | (j == k)] = VertexClass.FREE_BOUNDARY
    ring_facet[j == 0] = f1
    ring_facet[j == k] = f2
    ring_classes[k == resolution] = VertexClass.CLAMPED
    ring_facet[k == resolution] = -1

    # between rings k and k+1, from a0 = first[k - 1] and b0 = first[k]:
    # the k+1 triangles (a0+j, b0+j, b0+j+1), then the k triangles
    # (a0+j, b0+j+1, a0+j+1)
    inner = ring[:-1]
    kk = np.repeat(inner, 2 * inner + 1)
    q = np.arange(kk.size) - np.repeat(inner * inner - 1, 2 * inner + 1)
    up = q <= kk
    jj = np.where(up, q, q - kk - 1)
    a0, b0 = first[kk - 1] + jj, first[kk] + jj
    triangles = np.concatenate([[[0, 1, 2]], np.column_stack(
        [a0, np.where(up, b0, b0 + 1), np.where(up, b0, a0) + 1])])
    # orient every triangle counter-clockwise in the (x2, x3) chart
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    signed = (b[:, 1] - a[:, 1]) * (c[:, 2] - a[:, 2]) \
        - (b[:, 2] - a[:, 2]) * (c[:, 1] - a[:, 1])
    flip = signed < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    return TriMesh(vertices, triangles, classes, facet, facet2,
                   clamp_radius=float(R))


def area_gradient(mesh: TriMesh) -> np.ndarray:
    """Per-vertex gradient of surface_area, shape (n, 3).

    Corner k of a triangle with unit normal nu contributes nu x e_k / 2,
    e_k the opposite edge in the triangle's orientation; np.bincount sums
    the corner terms per vertex, one coordinate at a time.
    """
    geometry = triangle_geometry(mesh)
    return _area_gradient(mesh, geometry, _flat_scale(geometry.gram()))


def _flat_scale(gram) -> np.ndarray:
    """max(|ab|², |ca|²) of each triangle, from its Gram terms: the scale
    below which _area_gradient takes a triangle for flat."""
    return np.maximum(gram[0], gram[1])


def _area_gradient(mesh: TriMesh, geometry, scale) -> np.ndarray:
    """area_gradient of the mesh whose triangle_geometry and _flat_scale
    are given."""
    e, n, lens = geometry
    # a triangle squeezed flat has no usable normal; its |area| sits at a
    # kink where the zero branch is the valid descent choice, so drop it
    # rather than inject a roundoff-signed slope
    good = lens > DEGENERATE_REL_TOL * scale
    half = np.where(good, 0.5, 0.0) / np.where(lens > 0, lens, 1.0)
    u = n * half[:, None]
    corner = mesh.triangles.T.ravel()
    grad = np.empty_like(mesh.vertices)
    # the corner terms u x e as row_cross forms them, one coordinate at a time
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        terms = u[:, i] * e[..., j]
        terms -= u[:, j] * e[..., i]
        grad[:, k] = np.bincount(corner, terms.ravel(),
                                 minlength=mesh.n_vertices)
    return grad


class _FacePlan(NamedTuple):
    """The rows that each constraint projection of a mesh touches, from its
    classes and faces: the free-boundary mask and indices; the ones on a
    facet with their facet normals, and those on a cone edge with their
    edge directions (indices, (k, 3) rows); the clamped vertices (indices);
    and the mask of the others, the ones that may leave the cone."""

    free: np.ndarray
    free_rows: np.ndarray
    on_facet: np.ndarray
    facet_normals: np.ndarray
    on_edge: np.ndarray
    edge_directions: np.ndarray
    clamped: np.ndarray
    movable: np.ndarray


def _face_plan(mesh: TriMesh, cone: PolyhedralCone) -> _FacePlan:
    """The _FacePlan of the mesh's classes and faces."""
    cls = mesh.vertex_class
    free = cls == VertexClass.FREE_BOUNDARY
    on_facet = np.nonzero(free & (mesh.facet2 < 0))[0]
    on_edge = np.nonzero(free & (mesh.facet2 >= 0))[0]
    rows = _edge_rows(cone, mesh.facet[on_edge], mesh.facet2[on_edge])
    if np.any(rows < 0):
        bad = int(on_edge[np.argmax(rows < 0)])
        raise ValueError(f"vertex {bad}: facets ({mesh.facet[bad]}, "
                         f"{mesh.facet2[bad]}) are not a cone edge")
    directions = cone.face_table[0][rows - len(cone.normals)]
    clamped = cls == VertexClass.CLAMPED
    return _FacePlan(free, np.flatnonzero(free), on_facet,
                     cone.normals[mesh.facet[on_facet]],
                     on_edge, directions, np.nonzero(clamped)[0], ~clamped)


def _onto_faces(plan: _FacePlan, x: np.ndarray):
    """Project in place the rows of x at free-boundary vertices onto the
    linear span of each one's face, its facet plane or its edge's line."""
    on_facet, nf = plan.on_facet, plan.facet_normals
    x[on_facet] -= np.einsum("ij,ij->i", x[on_facet], nf)[:, None] * nf
    if plan.on_edge.size:
        d = plan.edge_directions
        x[plan.on_edge] = row_dots(x[plan.on_edge], d)[:, None] * d


def _tangent(plan: _FacePlan, g: np.ndarray) -> np.ndarray:
    """project_gradient in place, under the mesh's face plan."""
    _onto_faces(plan, g)
    g[plan.clamped] = 0.0
    return g


def project_gradient(mesh: TriMesh, cone: PolyhedralCone,
                     grad: np.ndarray) -> np.ndarray:
    """Project the raw gradient onto the span of each vertex's constraint:
    a facet plane or a cone edge's line, zero at clamped vertices."""
    return _tangent(_face_plan(mesh, cone), grad.copy())


def project_to_constraints(mesh: TriMesh, cone: PolyhedralCone) -> TriMesh:
    """Restore per-vertex constraints in place and return the mesh.

    Clamped vertices are scaled back to the clamp sphere.  A free-boundary
    vertex goes to the nearest point of its face's span, its facet plane or
    its edge's line; a descent step, tangent to that span, needs no more.
    Every other vertex still outside the cone, boundary or interior (or a
    point of a ray edge's line past the apex), goes from its position before
    the call to its nearest point of the cone, and a free-boundary one takes
    that point's face (geometry.nearest_point).
    """
    _project(mesh, cone, _face_plan(mesh, cone))
    return mesh


def _project(mesh: TriMesh, cone: PolyhedralCone,
             plan: _FacePlan) -> _FacePlan:
    """project_to_constraints under the mesh's face plan; returns the plan
    of the result, a new one only when a free-boundary vertex took a
    different face.  Of the positions before the call, nearest_point needs
    the free-boundary rows alone: no other movable row changes before it."""
    v = mesh.vertices
    start = v[plan.free_rows]
    clamped = plan.clamped
    if clamped.size:
        if mesh.clamp_radius is None:
            raise ValueError("clamped vertices but no clamp_radius")
        norms = row_norms(v[clamped])
        if np.any(norms <= 0):
            bad = int(clamped[np.argmax(norms <= 0)])
            raise ValueError(f"clamped vertex {bad} at the origin cannot be "
                             "renormalized")
        v[clamped] *= (mesh.clamp_radius / norms)[:, None]

    _onto_faces(plan, v)

    # the (k, n) facet slacks of all vertices, reduced across their k rows:
    # numpy reduces the short axis of (n, k) rows many times slower
    out = np.nonzero((np.max(cone.normals @ v.T, axis=0) > CONTAIN_TOL)
                     & plan.movable)[0]
    if out.size:
        moved = plan.free[out]
        x = v[out]
        x[moved] = start[np.searchsorted(plan.free_rows, out[moved])]
        v[out], face = nearest_point(x, cone)
        at, (f, f2) = out[moved], face[moved].T
        if np.any(mesh.facet[at] != f) or np.any(mesh.facet2[at] != f2):
            mesh.facet[at], mesh.facet2[at] = f, f2
            return _face_plan(mesh, cone)
    return plan


def _mean_unit_normal(mesh: TriMesh):
    """Area-weighted mean normal, or None when it cancels (closed or
    balanced surfaces have no preferred side to jitter toward); summed
    triangle after triangle, as numpy's row sum, which starts from +0."""
    a, b, c = _corners(mesh.vertices, mesh.triangles)
    n = np.add.accumulate(row_cross(b - a, c - a))[-1] + 0.0
    norm = float(np.linalg.norm(n))
    if norm <= 1e-12:
        return None
    return n / norm


def minimize(mesh: TriMesh, cone: PolyhedralCone, config: MinimizeConfig,
             jitter: float = 0.0):
    """Projected gradient descent with Armijo backtracking.

    Returns (final mesh, Diagnostics).  Stops when the infinity norm of the
    projected gradient drops to config.grad_tol ("converged"), after
    config.max_iters iterations ("max_iters"), or when the line search fails
    MAX_HALVINGS halvings ("stalled").

    jitter > 0 applies a seeded symmetry-breaking displacement before the
    first iteration: a coherent slide of amplitude jitter along the mean
    surface normal (sign drawn from config.seed, fading to zero at the clamp
    sphere) plus incoherent noise at a tenth of that amplitude.  Without it
    a mirror-symmetric start can only descend inside its symmetry plane.
    """
    if not (math.isfinite(jitter) and jitter >= 0.0):
        raise ValueError("jitter must be a finite number >= 0")
    start = time.perf_counter()
    table = edge_table(mesh)  # first, as it checks the indices
    _check_finite(mesh)
    mesh = mesh.copy()
    if mesh.clamp_radius is None:
        mesh.clamp_radius = float(config.clamp_radius)
    elif abs(mesh.clamp_radius - config.clamp_radius) > 1e-9:
        raise ValueError("mesh clamp_radius disagrees with config.clamp_radius")

    diag = Diagnostics()
    seconds = diag.phase_seconds
    seconds.update(dict.fromkeys(("gradient", "line_search", "vertex_prune",
                                  "vertex_distance"), 0.0))
    near, rows = [], 0  # kept corners of the states not yet measured

    def measure():
        t0 = time.perf_counter()
        diag.vertex_distance_history += _nearest_distances(near)
        near.clear()
        seconds["vertex_distance"] += time.perf_counter() - t0

    off_edge = mesh.facet2 < 0
    if jitter > 0.0:
        rng = np.random.default_rng(config.seed)
        movable = mesh.vertex_class != VertexClass.CLAMPED
        count = int(movable.sum())
        # a flat start is a reflection-symmetric saddle: descent alone never
        # leaves the symmetric plane, so the seed picks one of the two
        # off-plane valleys via a coherent slide along the mean normal,
        # fading to zero toward the clamp sphere, with a little incoherent
        # roughness on top
        normal = _mean_unit_normal(mesh)
        if normal is not None:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            fade = np.clip(1.0 - row_norms(mesh.vertices)
                           / mesh.clamp_radius, 0.0, 1.0)
            mesh.vertices[movable] += ((sign * jitter) * fade[movable, None]
                                       * normal)
        mesh.vertices[movable] += (0.1 * jitter) * rng.standard_normal(
            (count, 3))
        project_to_constraints(mesh, cone)
    plan = _face_plan(mesh, cone)
    geometry = triangle_geometry(mesh)
    _validate(mesh, cone, table.repeated_direction, geometry.areas)

    area = geometry.area
    gram = geometry.gram()
    scale = _flat_scale(gram)
    seconds["start"] = time.perf_counter() - start
    # each trial's state, swapped with the accepted one when accepted
    trial = TriMesh(np.empty_like(mesh.vertices), mesh.triangles,
                    mesh.vertex_class, mesh.facet.copy(), mesh.facet2.copy(),
                    mesh.clamp_radius)
    step = config.initial_step
    status = "max_iters"
    for _ in range(config.max_iters):
        gram = None  # only the final state's Gram terms outlive their step
        t0 = time.perf_counter()
        g = _tangent(plan, _area_gradient(mesh, geometry, scale))
        if float(np.max(np.abs(g))) <= config.grad_tol:
            status = "converged"
            break
        geometry = None  # a line search holds its trial's geometry alone
        gsq = float(np.einsum("ij,ij->", g, g))
        t1 = time.perf_counter()
        accepted = False
        for halvings in range(MAX_HALVINGS + 1):
            np.subtract(mesh.vertices, step * g, out=trial.vertices)
            trial.facet[:], trial.facet2[:] = mesh.facet, mesh.facet2
            trial_plan = _project(trial, cone, plan)
            geometry = triangle_geometry(trial)
            trial_area = geometry.area
            if trial_area <= area - config.armijo_c * step * gsq:
                accepted = True
                break
            step *= 0.5
        t2 = time.perf_counter()
        seconds["gradient"] += t1 - t0
        seconds["line_search"] += t2 - t1
        if not accepted:
            status = "stalled"
            break
        mesh, trial, plan = trial, mesh, trial_plan
        diag.armijo_margins.append(
            (area - trial_area) - config.armijo_c * step * gsq)
        area = trial_area
        diag.accepted_steps += 1
        diag.area_history.append(area)
        diag.step_history.append(step)
        diag.halvings_history.append(halvings)
        gram = geometry.gram()
        scale = _flat_scale(gram)
        near.append(_near_corners(mesh, gram))
        seconds["vertex_prune"] += time.perf_counter() - t2
        rows += near[-1].shape[2]
        if rows >= DISTANCE_CHUNK:
            measure()
            rows = 0
        step = min(2.0 * step, config.initial_step)
    if status == "converged":
        gram = geometry.gram()
    # of the loop's arrays, only the final state's Gram terms reach the
    # post-run audits; a stalled run's last geometry is a rejected trial's,
    # so its audits build their own
    geometry = scale = plan = trial_plan = g = trial = None
    seconds["descent"] = (time.perf_counter() - start
                          - seconds["vertex_distance"])
    if near:
        measure()

    diag.status = status
    diag.pinned_vertices = np.nonzero(off_edge & (mesh.facet2 >= 0))[0].tolist()
    R = config.clamp_radius
    windows = [(lo * R, hi * R) for lo, hi in DEVIATION_WINDOWS]
    t0 = time.perf_counter()
    diag.p_ratios, deviations = _ball_audits(
        mesh, [float(f * R) for f in RADII_FRACTIONS], windows, gram)
    del gram
    diag.conical_deviation = [(rho, r, d) for (rho, r), d
                              in zip(windows, deviations)]
    t1 = time.perf_counter()
    try:
        diag.boundary_angle_stats = _boundary_angle_audit(
            mesh, cone, table.edges, table.owner)
    except ValueError:
        diag.boundary_angle_stats = None
    seconds["ball_audits"] = t1 - t0
    seconds["angle_audit"] = time.perf_counter() - t1
    return mesh, diag
