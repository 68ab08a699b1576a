"""Independent oracles used by the test suite.

Everything in this file is deliberately written from first principles
(composite Simpson, shoelace, brute-force distances, classical spherical
trigonometry, edge sets, line-by-line Wavefront text) so that the
production code can be checked against routes it does not share.
"""

import json
import math
from pathlib import Path

import numpy as np

from conemin.descent import _sector_rays
from conemin.geometry import is_vertex, row_cross, row_dots, row_norms
from conemin.mesh import TriMesh, VertexClass


def simpson(f, lo, hi, panels=2000):
    """Composite Simpson rule with an even number of panels."""
    if panels % 2:
        panels += 1
    x = np.linspace(lo, hi, panels + 1)
    y = np.array([f(t) for t in x])
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((hi - lo) / (3 * panels) * (w @ y))


def profile_energy_simpson(alpha, h, panels=4000):
    """Weighted profile energy from the defining integral, no closed form.

    Integrand: t * phi'(t)^2 with phi'(t) = -alpha K t^(-alpha-1) / (K - 1),
    K = (1+h)^alpha.
    """
    K = (1.0 + h) ** alpha
    c = alpha * K / (K - 1.0)

    def integrand(t):
        return t * (c * t ** (-alpha - 1.0)) ** 2

    return simpson(integrand, 1.0, 1.0 + h, panels)


def bridge_excess_simpson(b, h, alpha, eps, panels=20000):
    """Bridge excess ∫₁^{1+h} (2t/b)(sqrt(1 + eps² phi'(t)²) − 1) dt by
    composite Simpson in s = ln t (dt = t ds), with phi' from its defining
    formula, as in profile_energy_simpson.  The log variable spreads the
    panels over a bridge with h far above 1."""
    K = (1.0 + h) ** alpha
    c = alpha * K / (K - 1.0)

    def integrand(s):
        t = math.exp(s)
        u = (eps * c * t ** (-alpha - 1.0)) ** 2
        return (2.0 / b) * t * t * u / (1.0 + math.sqrt(1.0 + u))

    return simpson(integrand, 0.0, math.log1p(h), panels)


def lhuilier_excess(a, b, c):
    """Spherical excess of a triangle from its side lengths (L'Huilier)."""
    s = 0.5 * (a + b + c)
    prod = (
        math.tan(0.5 * s)
        * math.tan(0.5 * (s - a))
        * math.tan(0.5 * (s - b))
        * math.tan(0.5 * (s - c))
    )
    return 4.0 * math.atan(math.sqrt(max(prod, 0.0)))


def shoelace(points):
    """Signed area of a 2D polygon given as an (k, 2) array."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def circle_segment_area(radius, d):
    """Area of the circular segment cut off by a chord at signed distance d.

    d is the distance from the circle center to the chord; the returned area
    is the piece on the far side of the chord (0 when d >= radius, full disk
    when d <= -radius).
    """
    if d >= radius:
        return 0.0
    if d <= -radius:
        return math.pi * radius * radius
    return radius * radius * math.acos(d / radius) - d * math.sqrt(
        radius * radius - d * d
    )


def brute_point_triangle_distance(p, a, b, c):
    """Distance from point p to triangle (a, b, c) by enumerating
    face, edge, and vertex candidates."""
    p, a, b, c = (np.asarray(v, float) for v in (p, a, b, c))
    best = min(
        np.linalg.norm(p - a), np.linalg.norm(p - b), np.linalg.norm(p - c)
    )
    for u, v in ((a, b), (b, c), (c, a)):
        e = v - u
        t = float(np.dot(p - u, e) / np.dot(e, e))
        if 0.0 < t < 1.0:
            best = min(best, float(np.linalg.norm(p - (u + t * e))))
    n = np.cross(b - a, c - a)
    nn = float(np.dot(n, n))
    if nn > 1e-30:
        n = n / math.sqrt(nn)
        q = p - float(np.dot(p - a, n)) * n
        # barycentric inside test
        v0, v1, v2 = b - a, c - a, q - a
        d00, d01, d11 = np.dot(v0, v0), np.dot(v0, v1), np.dot(v1, v1)
        d20, d21 = np.dot(v2, v0), np.dot(v2, v1)
        den = d00 * d11 - d01 * d01
        if abs(den) > 1e-30:
            w1 = (d11 * d20 - d01 * d21) / den
            w2 = (d00 * d21 - d01 * d20) / den
            if w1 >= 0 and w2 >= 0 and w1 + w2 <= 1:
                best = min(best, float(np.linalg.norm(p - q)))
    return best


def fd_surface_gradient(area_fn, vertices, step=1e-6):
    """Central finite-difference gradient of a mesh-area functional."""
    v = np.asarray(vertices, float)
    grad = np.zeros_like(v)
    for i in range(v.shape[0]):
        for k in range(3):
            vp = v.copy()
            vm = v.copy()
            vp[i, k] += step
            vm[i, k] -= step
            grad[i, k] = (area_fn(vp) - area_fn(vm)) / (2 * step)
    return grad


def annulus_inverse_cube_integral(rho, r):
    """Polar-coordinate quadrature of int 1/|x|^3 over the plane {x3 = 1}
    clipped to the spherical annulus rho <= |x| <= r.

    In-plane radius s runs from sqrt(rho^2 - 1) to sqrt(r^2 - 1);
    the integrand is 2*pi*s*(1 + s^2)^(-3/2).
    """
    s0 = math.sqrt(rho * rho - 1.0)
    s1 = math.sqrt(r * r - 1.0)

    def integrand(s):
        return 2.0 * math.pi * s * (1.0 + s * s) ** (-1.5)

    return simpson(integrand, s0, s1, 20000)


def contains(cone, p, tol=1e-12):
    """Whether p lies in the cone: n . p <= tol for every outward normal n."""
    return all(float(n @ np.asarray(p, dtype=float)) <= tol
               for n in cone.normals)


def euler_characteristic(triangles):
    """V - E + F of a triangle list: the vertices it uses, each undirected
    edge once, each face once."""
    tris = np.asarray(triangles).tolist()
    edges = {frozenset(e) for a, b, c in tris for e in ((a, b), (b, c), (c, a))}
    return len({v for tri in tris for v in tri}) - len(edges) + len(tris)


OBJ_CLASS_NAMES = ("interior", "free_boundary", "clamped")


def save_obj_per_vertex(mesh, path):
    """Reference Wavefront writer: one f-string per vertex and per face, one
    class record per vertex, the byte format conemin.mesh.save_obj keeps."""
    path = Path(path)
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for tri in mesh.triangles:
        lines.append(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}")
    path.write_text("\n".join(lines) + "\n")
    classes = {}
    for i in range(len(mesh.vertices)):
        cls = int(mesh.vertex_class[i])
        rec = {"class": OBJ_CLASS_NAMES[cls]}
        if cls == 1:  # a free-boundary vertex names its face's facets
            rec["facet"] = int(mesh.facet[i])
            if mesh.facet2[i] >= 0:
                rec["facet2"] = int(mesh.facet2[i])
        classes[str(i)] = rec
    sidecar = {"clamp_radius": mesh.clamp_radius, "classes": classes}
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True) + "\n")


def read_obj(path):
    """Vertices (n, 3) and zero-based triangles (m, 3) of a Wavefront file
    of 'v x y z' and 'f i j k' lines."""
    verts, tris = [], []
    for line in Path(path).read_text().splitlines():
        kind, *fields = line.split()
        if kind == "v":
            verts.append([float(x) for x in fields])
        elif kind == "f":
            tris.append([int(i) - 1 for i in fields])
    return np.array(verts), np.array(tris, dtype=np.int64)


def initial_plane_loop(cone, R, resolution):
    """Reference make_initial_plane: one embed call per vertex and one
    tuple per fan triangle, in the order the vectorized one must keep.  It
    shares the sector construction, descent._sector_rays, with it."""
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
        # the apex sits on the cone edge where the sector facets meet
        verts.append((0.0, 0.0, 0.0))
        classes.append(VertexClass.FREE_BOUNDARY)
        facet.append(min(f1, f2))
        facet2.append(max(f1, f2))

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


def nearest_boundary_point(cone, x, tol=1e-9):
    """(point, distance) of the nearest point of the cone's boundary to x,
    by enumeration: the projection onto every facet plane, onto both rays of
    every line where two facet planes meet, and the apex, keeping the
    candidates that lie in the cone within tol."""
    normals = [np.asarray(n, dtype=float) for n in cone.normals]
    x = np.asarray(x, dtype=float)
    candidates = [np.zeros(3)]
    for n in normals:
        candidates.append(x - float(n @ x) * n)
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            s = np.cross(normals[i], normals[j])
            if np.linalg.norm(s) > 1e-12:
                for d in (s, -s):
                    d = d / np.linalg.norm(d)
                    candidates.append(max(float(x @ d), 0.0) * d)
    inside = [c for c in candidates if all(float(n @ c) <= tol for n in normals)]
    best = min(inside, key=lambda c: float(np.linalg.norm(x - c)))
    return best, float(np.linalg.norm(x - best))


def descent_loop(mesh, cone, config):
    """Projected gradient descent with Armijo backtracking from mesh, as
    descent.minimize runs it after its jitter, as a plain loop over the
    public kernels: every trial is a fresh copy of the accepted state,
    projected by project_to_constraints, and every accepted state is
    measured by vertex_distance.  Returns (final mesh, dict of the
    histories, status and accepted_steps, dict counting the trials in which
    a free-boundary vertex took a different face, keyed by whether the
    trial was accepted)."""
    from conemin.descent import (MAX_HALVINGS, area_gradient,
                                 project_gradient, project_to_constraints)
    from conemin.diagnostics import vertex_distance
    from conemin.mesh import triangle_geometry

    state = mesh.copy()
    area = triangle_geometry(state).area
    step = config.initial_step
    out = {"area_history": [], "vertex_distance_history": [],
           "status": "max_iters", "accepted_steps": 0}
    reassigned = {True: 0, False: 0}
    for _ in range(config.max_iters):
        g = project_gradient(state, cone, area_gradient(state))
        if float(np.max(np.abs(g))) <= config.grad_tol:
            out["status"] = "converged"
            break
        gsq = float(np.einsum("ij,ij->", g, g))
        for _ in range(MAX_HALVINGS + 1):
            trial = state.copy()
            trial.vertices = state.vertices - step * g
            project_to_constraints(trial, cone)
            trial_area = triangle_geometry(trial).area
            accepted = trial_area <= area - config.armijo_c * step * gsq
            reassigned[accepted] += bool(
                np.any(trial.facet != state.facet)
                or np.any(trial.facet2 != state.facet2))
            if accepted:
                break
            step *= 0.5
        else:
            out["status"] = "stalled"
            break
        state, area = trial, trial_area
        out["accepted_steps"] += 1
        out["area_history"].append(area)
        out["vertex_distance_history"].append(vertex_distance(state))
        step = min(2.0 * step, config.initial_step)
    return state, out, reassigned


def mean_unit_normal_rows(mesh):
    """descent._mean_unit_normal from row-major (m, 3, 3) corners: numpy's
    sum over the rows of the (m, 3) cross products adds them triangle after
    triangle.  None when the sum cancels."""
    a, b, c = np.take(mesh.vertices, mesh.triangles, axis=0).transpose(1, 0, 2)
    n = row_cross(b - a, c - a).sum(axis=0)
    norm = float(np.linalg.norm(n))
    if norm <= 1e-12:
        return None
    return n / norm


def ball_audits_unpruned(mesh, radii, windows):
    """diagnostics._ball_audits (after its argument checks) the unpruned
    way: the exact _extents of every triangle and, per sphere s (a radius
    or a window end), one _charts and _disk_clip pass over the triangles s
    cuts; A(s) and W(s) add those rows to the areas and solid angles of the
    triangles inside B_s.  Returns (table, deviations) with p(r) = A(r)/r²
    and deviation W(r) - W(rho)."""
    from conemin import diagnostics as dg

    corners = dg._corners(mesh.vertices, mesh.triangles)
    d_min, d_max, areas, nhat = dg._extents(*corners)
    norms = np.stack([row_norms(x) for x in corners])
    angles = dg._solid_angles(*corners, nhat, areas, norms)
    area, solid = {}, {}
    for s in sorted({*radii, *(x for w in windows for x in w)}):
        inside = d_max <= s
        cut = ~inside & (d_min < s) & (areas > 0)
        pts, off = dg._charts(*dg._rows(cut, *corners, nhat))
        clipped, omega = dg._disk_clip(pts, dg._disk_radius(s, off), off)
        area[s] = float(np.sum(areas[inside])) + float(np.sum(clipped))
        solid[s] = float(np.sum(angles[inside])) + float(np.sum(omega))
    return ([(r, area[r] / (r * r)) for r in radii],
            [solid[r] - solid[rho] for rho, r in windows])


def distance_bounds(mesh):
    """The margin bound the exact-distance rule must cover: each triangle's
    smallest corner norm cmin and terms (gap, n2, margin) such that (gap -
    s) * n2 > margin proves its nearest distance above s.  gap is cmin less
    the longest edge; n2 a floor under |ab × ac|² from the Gram terms;
    margin 128 ulps of (corner norm + edge) grown by the squared aspect a
    sliver's plane candidate carries in its rounding."""
    eps = np.finfo(float).eps
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    ab, ca, bc = b - a, a - c, c - b
    g11, g22, g33, g12 = (row_dots(x, y) for x, y in
                          ((ab, ab), (ca, ca), (bc, bc), (ab, ca)))
    cmin = np.min(np.take(row_norms(mesh.vertices), mesh.triangles.T), axis=0)
    e2 = np.maximum(np.maximum(g11, g22), g33)
    emax = np.sqrt(e2)
    n2 = np.maximum(g11 * g22 * (1.0 - 4.0 * eps) - g12 * g12, 0.0)
    slack = 128.0 * eps * (cmin + emax)
    return cmin, cmin - emax, n2, slack * (n2 + e2 * e2)


def edge_table_unique(mesh):
    """The boundary rows, their owners and the repeated-direction flag of
    mesh.edge_table from np.unique's inverse and counts: (3m, 2) directed
    edges, all (0, 1), then all (1, 2), then all (2, 0); a boundary edge's
    undirected key min * n + max occurs once; an undirected edge is walked
    twice one way when more of its rows go up, or down, than one."""
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    key = edges.min(axis=1) * mesh.n_vertices + edges.max(axis=1)
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    up = np.bincount(inv[edges[:, 0] < edges[:, 1]], minlength=counts.size)
    boundary = counts[inv] == 1
    owner = np.tile(np.arange(t.shape[0]), 3)
    return (edges[boundary], owner[boundary],
            bool(np.any(np.maximum(up, counts - up) > 1)))


def deviation_polar(mesh, rho, r, nodes=16):
    """∫ |x·ν|/|x|³ over mesh ∩ (B_r ∖ B_ρ), triangle by triangle, in polar
    coordinates (t, θ) about the foot of the perpendicular from 0 in the
    triangle's plane, at offset d.  The radial integral of the density
    |d| t/(d² + t²)^{3/2} over the ray's part in the triangle and the
    annulus is −|d|/√(d² + t²) between its ends; the angular integral is
    composite Gauss–Legendre on each arc between the angles where those
    ends change: the corners and the crossings of the edges with the two
    circles the spheres cut.  The integrand is smooth on each arc, so the
    rule converges fast.  No solid-angle formula and no disk clip."""
    node, weight = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b, c in mesh.vertices[mesh.triangles]:
        n = np.cross(b - a, c - a)
        if not np.linalg.norm(n) > 0:
            continue
        n = n / np.linalg.norm(n)
        d = float(a @ n)
        e1 = (b - a) / np.linalg.norm(b - a)
        e2 = np.cross(n, e1)
        p = np.array([[(v - d * n) @ e1, (v - d * n) @ e2] for v in (a, b, c)])
        q = np.roll(p, -1, axis=0)
        edge = q - p
        orient = np.sign(edge[0, 0] * edge[1, 1] - edge[0, 1] * edge[1, 0])
        inward = orient * np.stack([-edge[:, 1], edge[:, 0]], axis=1)
        offset = np.sum(inward * p, axis=1)   # inward . X >= offset inside
        s_lo, s_hi = (math.sqrt(max(s * s - d * d, 0.0)) for s in (rho, r))
        if s_hi == 0.0:
            continue
        cuts = [math.atan2(py, px) for px, py in p]
        for s in (s_lo, s_hi):
            for k in range(3):
                aa, bb = edge[k] @ edge[k], p[k] @ edge[k]
                disc = bb * bb - aa * (p[k] @ p[k] - s * s)
                if disc > 0:
                    for t in ((-bb - math.sqrt(disc)) / aa,
                              (-bb + math.sqrt(disc)) / aa):
                        if 0.0 < t < 1.0:
                            px, py = p[k] + t * edge[k]
                            cuts.append(math.atan2(py, px))
        cuts = np.sort(np.mod(cuts, 2.0 * math.pi))
        cuts = np.concatenate([[0.0], cuts, [2.0 * math.pi]])
        lo, hi = cuts[:-1], cuts[1:]
        theta = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * node
        ray = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        slope = ray @ inward.T            # inward . (t ray) >= offset
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = offset / slope
        t0 = np.max(np.where(slope > 0, bound, 0.0), axis=-1)
        t1 = np.min(np.where(slope < 0, bound, np.inf), axis=-1)
        empty = np.any((slope == 0) & (offset > 0), axis=-1)
        t0, t1 = np.maximum(t0, s_lo), np.minimum(t1, s_hi)
        radial = np.where((t1 > t0) & ~empty,
                          abs(d) / np.sqrt(d * d + t0 * t0)
                          - abs(d) / np.sqrt(d * d + t1 * t1), 0.0)
        total += float(np.sum(0.5 * (hi - lo) * (radial @ weight)))
    return total
