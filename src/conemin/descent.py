"""Projected gradient descent for free-boundary area minimization.

The mesh lives inside a convex polyhedral cone; free-boundary vertices slide
in their facet planes, edge-pinned vertices slide along the line where two
facets meet, clamped vertices stay on the sphere of radius R.  Descent uses
Armijo backtracking on the post-projection area, so the recorded area history
is monotone by construction.  Each accepted state's triangle_geometry (one
gather, one cross product per triangle) serves three uses: the Armijo test
that accepted it, its vertex distance and the next step's gradient.

The area gradient scatters its per-corner terms onto the vertices with
np.bincount, which sums in index order, so results are bit-identical from
run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PolyhedralCone, cross3, is_vertex, row_cross, row_dots
from .mesh import TriMesh, VertexClass, triangle_geometry, validate
from .diagnostics import _ball_audits, _vertex_distance, boundary_angle_audit

MAX_HALVINGS = 60
DEGENERATE_REL_TOL = 1e-9  # |cross| below this multiple of the longest
# squared edge means the triangle is numerically flat
CONTAIN_TOL = 1e-9

RADII_FRACTIONS = np.linspace(0.15, 0.95, 10)
DEVIATION_WINDOWS = ((0.1, 0.5), (0.2, 0.9))


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
            if not getattr(self, name) > 0:
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
    pinned_vertices: list = field(default_factory=list)
    armijo_margins: list = field(default_factory=list)


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
    wedge-like cone it stays at the origin, pinned to the two-facet line.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    if int(resolution) != resolution or resolution < 1:
        raise ValueError("resolution must be a positive integer")
    resolution = int(resolution)
    (d1, f1), (d2, f2), w, t = _sector_rays(cone)
    phi_max = math.atan2(float(d2 @ t), float(d2 @ w))

    verts = []
    classes = []
    facet = []
    facet2 = []

    def embed(r, theta):
        y = r * (math.cos(theta) * w + math.sin(theta) * t)
        return (0.0, y[0], y[1])

    if is_vertex(cone):
        delta0 = R / (4.0 * resolution)
        verts.append(embed(delta0, 0.0))
        classes.append(VertexClass.INTERIOR)
        facet.append(-1)
        facet2.append(-1)
    else:
        n1, n2 = cone.normals[f1], cone.normals[f2]
        if float(np.linalg.norm(cross3(n1, n2))) <= 1e-9:
            raise ValueError("sector rays lie on parallel facets: cannot pin apex")
        verts.append((0.0, 0.0, 0.0))
        classes.append(VertexClass.EDGE_PINNED)
        facet.append(f1)
        facet2.append(f2)

    ring_start = [0, 1]
    for k in range(1, resolution + 1):
        r = R * k / resolution
        for j in range(k + 1):
            theta = -phi_max + 2.0 * phi_max * j / k
            verts.append(embed(r, theta))
            if k == resolution:
                classes.append(VertexClass.CLAMPED)
                facet.append(-1)
                facet2.append(-1)
            elif j == 0:
                classes.append(VertexClass.FREE_BOUNDARY)
                facet.append(f1)
                facet2.append(-1)
            elif j == k:
                classes.append(VertexClass.FREE_BOUNDARY)
                facet.append(f2)
                facet2.append(-1)
            else:
                classes.append(VertexClass.INTERIOR)
                facet.append(-1)
                facet2.append(-1)
        ring_start.append(len(verts))

    tris = [(0, ring_start[1], ring_start[1] + 1)]
    for k in range(1, resolution):
        a0, b0 = ring_start[k], ring_start[k + 1]
        for j in range(k + 1):
            tris.append((a0 + j, b0 + j, b0 + j + 1))
        for j in range(k):
            tris.append((a0 + j, b0 + j + 1, a0 + j + 1))

    vertices = np.array(verts, dtype=float)
    triangles = np.array(tris, dtype=np.int64)
    # orient every triangle counter-clockwise in the (x2, x3) chart
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    signed = (b[:, 1] - a[:, 1]) * (c[:, 2] - a[:, 2]) \
        - (b[:, 2] - a[:, 2]) * (c[:, 1] - a[:, 1])
    flip = signed < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    return TriMesh(
        vertices,
        triangles,
        np.array(classes, dtype=np.int64),
        np.array(facet, dtype=np.int64),
        np.array(facet2, dtype=np.int64),
        clamp_radius=float(R),
    )


def area_gradient(mesh: TriMesh) -> np.ndarray:
    """Per-vertex gradient of surface_area, shape (n, 3).

    Corner k of a triangle with unit normal nu contributes nu x e_k / 2,
    e_k the opposite edge in the triangle's orientation; np.bincount sums
    the corner terms per vertex, one coordinate at a time.
    """
    return _area_gradient(mesh, triangle_geometry(mesh))


def _area_gradient(mesh: TriMesh, geometry) -> np.ndarray:
    """area_gradient of the mesh whose triangle_geometry is given."""
    e, n, lens = geometry
    # a triangle squeezed flat has no usable normal; its |area| sits at a
    # kink where the zero branch is the valid descent choice, so drop it
    # rather than inject a roundoff-signed slope
    scale = np.maximum(row_dots(e[2], e[2]), row_dots(e[1], e[1]))
    good = lens > DEGENERATE_REL_TOL * scale
    half = np.where(good, 0.5, 0.0) / np.where(lens > 0, lens, 1.0)
    terms = row_cross(n * half[:, None], e)
    corner = mesh.triangles.T.ravel()
    grad = np.empty_like(mesh.vertices)
    for k in range(3):
        grad[:, k] = np.bincount(corner, terms[..., k].ravel(),
                                 minlength=mesh.n_vertices)
    return grad


def project_gradient(mesh: TriMesh, cone: PolyhedralCone,
                     grad: np.ndarray) -> np.ndarray:
    """Project the raw gradient onto the per-vertex constraint manifolds."""
    g = grad.copy()
    normals = cone.normals
    cls = mesh.vertex_class
    fb = cls == VertexClass.FREE_BOUNDARY
    if np.any(fb):
        nf = normals[mesh.facet[fb]]
        g[fb] -= np.einsum("ij,ij->i", g[fb], nf)[:, None] * nf
    for i in np.nonzero(cls == VertexClass.EDGE_PINNED)[0]:
        s = _pinned_edge(mesh, cone, i)[0]
        g[i] = float(g[i] @ s) * s
    g[cls == VertexClass.CLAMPED] = 0.0
    return g


def _pinned_edge(mesh: TriMesh, cone: PolyhedralCone, i: int):
    """(d, is_full_line) of the cone edge that pins vertex i."""
    key = tuple(sorted((int(mesh.facet[i]), int(mesh.facet2[i]))))
    edge = cone.edges.get(key)
    if edge is None:
        raise ValueError(f"vertex {i}: pinned facets do not meet in an edge")
    return edge


def _onto_edge(x: np.ndarray, d: np.ndarray, is_line: bool) -> np.ndarray:
    """Nearest point to x on the cone edge along d: the full line when
    is_line, else the ray t * d, t >= 0."""
    t = float(x @ d)
    return (t if is_line else max(t, 0.0)) * d


def _nearest_edge(x: np.ndarray, edges: dict, normals=None):
    """(point, facet i, facet j) of the cone edge nearest to x, or None;
    with normals given, only points inside the cone qualify."""
    best, dist = None, np.inf
    for (fi, fj), (d, is_line) in edges.items():
        p = _onto_edge(x, d, is_line)
        dd = float(np.linalg.norm(x - p))
        if dd < dist and (normals is None
                          or np.max(normals @ p) <= CONTAIN_TOL):
            best, dist = (p, fi, fj), dd
    return best


def project_to_constraints(mesh: TriMesh, cone: PolyhedralCone,
                           pinned=None) -> TriMesh:
    """Restore per-vertex constraints in place and return the mesh.

    Free-boundary vertices are orthogonally projected to their facet plane;
    a projection that leaves the cone by more than 1e-9 reassigns the vertex
    to the most violated facet (two passes), then falls back to pinning the
    vertex to the nearest cone edge.  Newly pinned vertex indices are
    appended to `pinned` when given.
    """
    normals = cone.normals
    cls = mesh.vertex_class
    v = mesh.vertices

    clamped = np.nonzero(cls == VertexClass.CLAMPED)[0]
    if clamped.size:
        if mesh.clamp_radius is None:
            raise ValueError("clamped vertices but no clamp_radius")
        norms = np.linalg.norm(v[clamped], axis=1)
        if np.any(norms <= 0):
            raise ValueError("clamped vertex at the origin cannot be renormalized")
        v[clamped] *= (mesh.clamp_radius / norms)[:, None]

    for i in np.nonzero(cls == VertexClass.EDGE_PINNED)[0]:
        v[i] = _onto_edge(v[i], *_pinned_edge(mesh, cone, i))

    fb = np.nonzero(cls == VertexClass.FREE_BOUNDARY)[0]
    if fb.size:
        for _ in range(3):
            nf = normals[mesh.facet[fb]]
            v[fb] -= np.einsum("ij,ij->i", v[fb], nf)[:, None] * nf
            slack = v[fb] @ normals.T
            worst = np.argmax(slack, axis=1)
            viol = slack[np.arange(fb.size), worst] > CONTAIN_TOL
            if not np.any(viol):
                fb = fb[:0]
                break
            mesh.facet[fb[viol]] = worst[viol]
            fb = fb[viol]
        for i in fb:
            found = _nearest_edge(v[i], cone.edges)
            if found is None:
                raise ValueError("cone has no edges to pin to")
            v[i], mesh.facet[i], mesh.facet2[i] = found
            cls[i] = VertexClass.EDGE_PINNED
            if pinned is not None:
                pinned.append(int(i))

    # interior vertices act against the cone as an obstacle: positions that
    # poked out come back to the nearest wall, keeping their class so they
    # can detach again later
    interior = np.nonzero(cls == VertexClass.INTERIOR)[0]
    if interior.size:
        slack = v[interior] @ normals.T
        out = interior[np.max(slack, axis=1) > CONTAIN_TOL]
        for i in out:
            x = v[i]
            for _ in range(2):
                s = normals @ x
                k = int(np.argmax(s))
                if s[k] <= CONTAIN_TOL:
                    break
                x = x - (x @ normals[k]) * normals[k]
            if np.max(normals @ x) > CONTAIN_TOL:
                found = _nearest_edge(v[i], cone.edges, normals)
                x = np.zeros(3) if found is None else found[0]
            v[i] = x
    return mesh


def _mean_unit_normal(mesh: TriMesh):
    """Area-weighted mean normal, or None when it cancels (closed or
    balanced surfaces have no preferred side to jitter toward)."""
    a, b, c = mesh.triangle_corners()
    n = row_cross(b - a, c - a).sum(axis=0)
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
    mesh = mesh.copy()
    if mesh.clamp_radius is None:
        mesh.clamp_radius = float(config.clamp_radius)
    elif abs(mesh.clamp_radius - config.clamp_radius) > 1e-9:
        raise ValueError("mesh clamp_radius disagrees with config.clamp_radius")

    diag = Diagnostics()
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
            fade = np.clip(1.0 - np.linalg.norm(mesh.vertices, axis=1)
                           / mesh.clamp_radius, 0.0, 1.0)
            mesh.vertices[movable] += ((sign * jitter) * fade[movable, None]
                                       * normal)
        mesh.vertices[movable] += (0.1 * jitter) * rng.standard_normal(
            (count, 3))
        project_to_constraints(mesh, cone, diag.pinned_vertices)
    validate(mesh, cone)

    geometry = triangle_geometry(mesh)
    area = geometry.area
    step = config.initial_step
    status = "max_iters"
    for _ in range(config.max_iters):
        g = project_gradient(mesh, cone, _area_gradient(mesh, geometry))
        if float(np.max(np.abs(g))) <= config.grad_tol:
            status = "converged"
            break
        gsq = float(np.einsum("ij,ij->", g, g))
        state = (mesh.vertices, mesh.vertex_class, mesh.facet, mesh.facet2)
        saved = [x.copy() for x in state]
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            for x, x0 in zip(state, saved):
                x[:] = x0
            mesh.vertices -= step * g
            trial_pins = []
            project_to_constraints(mesh, cone, trial_pins)
            geometry = triangle_geometry(mesh)
            trial = geometry.area
            if trial <= area - config.armijo_c * step * gsq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            for x, x0 in zip(state, saved):
                x[:] = x0
            status = "stalled"
            break
        diag.armijo_margins.append(
            (area - trial) - config.armijo_c * step * gsq)
        diag.pinned_vertices.extend(trial_pins)
        area = trial
        diag.accepted_steps += 1
        diag.area_history.append(area)
        diag.vertex_distance_history.append(_vertex_distance(mesh, geometry))
        step = min(2.0 * step, config.initial_step)
    del geometry  # not held through the post-run audits

    diag.status = status
    R = config.clamp_radius
    windows = [(lo * R, hi * R) for lo, hi in DEVIATION_WINDOWS]
    diag.p_ratios, deviations = _ball_audits(
        mesh, [float(f * R) for f in RADII_FRACTIONS], windows)
    diag.conical_deviation = [(rho, r, d) for (rho, r), d
                              in zip(windows, deviations)]
    try:
        diag.boundary_angle_stats = boundary_angle_audit(mesh, cone)
    except ValueError:
        diag.boundary_angle_stats = None
    return mesh, diag
