"""Geometric audits of a triangulated surface near a cone vertex.

monotonicity_ratio reports the scaled area p(r) = area(mesh inside B_r)/r^2;
conical_deviation integrates |x . normal|/|x|^3 over a ball annulus;
boundary_angle_audit measures the contact angle along the free boundary;
vertex_distance is the exact distance from the origin to the surface.
One bound, _distance_bounds, serves the first two: with the smallest
corner norm above, it brackets each triangle's nearest distance, so the
exact kernel _extents runs only on the triangles whose bracket holds a
sphere of the audit.  vertex_distance runs _extents (one pass for a batch
of states) on the triangles _near_corners keeps, a superset of those the
bound cannot put past the smallest corner norm, read from the corner
norms, the flat scale max(|ab|², |ca|²) and |ab × ac| alone.

Ball clipping happens in each triangle's own plane, where the ball cuts a
disk centered at the foot of the perpendicular from the origin.  One
batched kernel, _disk_clip, gives the exact area of every triangle ∩ disk,
circular segments included, and the exact solid angle it subtends at the
origin.  On a flat triangle x . normal is the plane offset d, so the
deviation integrand is the solid-angle density and has a closed form.
Every ball audit is a sum over spheres: for each sphere s of one sorted
list, the area A(s) and the solid angle W(s) of mesh ∩ B_s, where a
triangle inside B_s adds its area and its Van Oosterom–Strackee solid
angle (Van Oosterom & Strackee 1983, "The solid angle of a plane
triangle") and a triangle the sphere cuts adds its _disk_clip row.  Then
p(r) = A(r)/r² and the deviation over (rho, r) is W(r) − W(rho), exact to
rounding.  A p(r) table and deviation windows of one mesh share its
corners, bounds and spheres, and one clip pass takes the cut triangles of
all of them.

The kernels work one coordinate column at a time, so their results do not
depend on the memory layout of their (m, 3) corner and (m, 3, 2) chart
arrays.  The audits pass views of contiguous coordinate planes, the layout
of mesh.triangle_geometry, gathered once by _corners and kept through every
selection by _rows: a column is then one contiguous vector, where in
row-major arrays it is strided.  Reducing a short row axis costs numpy
many times more than adding whole columns, so no kernel calls np.einsum,
np.linalg.norm or .sum over a length-2, 3 or 4 axis: dot products and
norms go through geometry.row_dots and row_norms, and _sum3 adds the
three corners' columns, all in coordinate order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PolyhedralCone, row_cross, row_dots, row_norms
from .mesh import (TriMesh, VertexClass, _check_finite, edge_table,
                   triangle_geometry)

FACET_TOL = 1e-7
EPS = np.finfo(float).eps
COLLINEAR_ULPS = 4.0   # |ab x ac|^2 at or below this many ulps of |ab|^2 |ac|^2


def _sum3(x):
    """Sums of the three columns of an (m, 3) array, left to right."""
    return x[:, 0] + x[:, 1] + x[:, 2]


def _corners(vertices, triangles):
    """Corners (a, b, c) of the triangles, each an (m, 3) view of
    contiguous coordinate planes."""
    p = np.take(vertices.T, triangles.T, axis=1)
    return p[:, 0].T, p[:, 1].T, p[:, 2].T


def _rows(mask, *arrays):
    """The rows where mask holds of (m, 3) arrays, as views of contiguous
    coordinate planes; a (k, m) mask takes them one mask row after another."""
    index = np.flatnonzero(mask) % mask.shape[-1]
    return [np.take(x.T, index, axis=1).T for x in arrays]


def _planes(a, b, c):
    """Edges ab and ac, |ab x ac|², areas and unit normals of the triangles
    (a, b, c); a degenerate triangle's normal is its zero cross product."""
    ab, ac = b - a, c - a
    n = row_cross(ab, ac)
    nn = row_dots(n, n)
    areas = 0.5 * np.sqrt(nn)
    return ab, ac, nn, areas, n / np.where(areas > 0, 2.0 * areas, 1.0)[:, None]


def _extents(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Nearest and farthest distances from the origin, areas and unit
    normals of the triangles (a[i], b[i], c[i]).

    The nearest distance is exact: the minimum over seven closed-form
    candidates, three vertices, three edges with clamped projection, and
    the plane point when its barycentric coordinates land inside.
    Triangles collinear to rounding, with |ab x ac|^2 <= COLLINEAR_ULPS ulps
    of |ab|^2 |ac|^2, fall back to the vertex/edge candidates: their normal
    would be rounding noise, while the edges are exact for them.
    """
    cands = np.empty((7, len(a)))
    for row, x in zip(cands, (a, b, c)):
        np.sqrt(row_dots(x, x), out=row)
    for row, (p, q) in zip(cands[3:], ((a, b), (a, c), (b, c))):
        d = q - p
        dd = row_dots(d, d)
        t = np.where(dd > 0, -row_dots(p, d) / np.where(dd > 0, dd, 1.0), 0.0)
        foot = p + np.clip(t, 0.0, 1.0)[:, None] * d
        np.sqrt(row_dots(foot, foot), out=row)
    ab, ac, nn, areas, nhat = _planes(a, b, c)
    g11 = row_dots(ab, ab)
    g12 = row_dots(ab, ac)
    g22 = row_dots(ac, ac)
    ok = nn > COLLINEAR_ULPS * EPS * g11 * g22
    off = row_dots(a, nhat)
    foot = off[:, None] * nhat - a
    det = g11 * g22 - g12 * g12
    ok &= det > 0
    det = np.where(ok, det, 1.0)
    r1 = row_dots(foot, ab)
    r2 = row_dots(foot, ac)
    al = (g22 * r1 - g12 * r2) / det
    be = (g11 * r2 - g12 * r1) / det
    inside = ok & (al >= 0) & (be >= 0) & (al + be <= 1)
    cands[6] = np.where(inside, np.abs(off), np.inf)
    return np.min(cands, axis=0), np.max(cands[:3], axis=0), areas, nhat


def vertex_distance(mesh: TriMesh) -> float:
    """Exact distance from the origin to the nearest surface point.

    Only the triangles that _near_corners keeps go through _extents, so the
    result is the unpruned minimum bit for bit.  The one-state case of the
    batch that descent.minimize runs over its accepted states.
    """
    _check_finite(mesh)
    if not mesh.n_triangles:
        raise ValueError("vertex_distance: the mesh has no triangles")
    geometry = triangle_geometry(mesh)
    scale, cross = _flat_scale(geometry), geometry.norms
    del geometry  # the edges and normals are not held through the pass
    return _nearest_distances([_near_corners(mesh, scale, cross)])[0]


def _flat_scale(geometry) -> np.ndarray:
    """max(|ab|², |ca|²) of each triangle of a triangle_geometry, its first
    two Gram terms: the scale below which the area gradient takes a
    triangle for flat, and the near-apex rule's edge bound."""
    _, ca, ab = geometry.edges
    return np.maximum(row_dots(ab, ab), row_dots(ca, ca))


def _distance_bounds(mesh: TriMesh, gram):
    """Corner norms (3, m) of the triangles, their minimum cmin, and terms
    (gap, n2, margin) such that (gap - s) * n2 > margin proves the nearest
    distance _extents gives above s.  gap is cmin less the longest edge; n2
    a floor under |ab × ac|² from the Gram terms of triangle_geometry (ab .
    ca in either sign); margin 128 ulps of (corner norm + edge) grown by the
    squared aspect a sliver's plane candidate carries in its rounding."""
    norms = np.take(row_norms(mesh.vertices), mesh.triangles.T)
    cmin = np.min(norms, axis=0)
    g11, g22, g33, g12 = gram
    e2 = np.maximum(np.maximum(g11, g22), g33)
    emax = np.sqrt(e2)
    n2 = np.maximum(g11 * g22 * (1.0 - 4.0 * EPS) - g12 * g12, 0.0)
    slack = 128.0 * EPS * (cmin + emax)
    return norms, cmin, cmin - emax, n2, slack * (n2 + e2 * e2)


def _near_corners(mesh: TriMesh, scale, cross) -> np.ndarray:
    """Corners, as a (3, 3, k) (coordinate, corner, triangle) array, of
    every triangle that _distance_bounds cannot put farther than s, the
    mesh's smallest corner norm, and some more: read from the corner norms,
    the _flat_scale L² = max(|ab|², |ca|²) and the triangle_geometry norms
    |ab × ac| alone, without |bc|² or ab . ca.

    Near rule: a triangle whose smallest corner norm cmin lies within 2L of
    s, since |bc| ≤ |ab| + |ca| ≤ 2L bounds its longest edge.  Sliver rule,
    for the rest: with q = |ab × ac| / L² ≤ 1, |bc|² ≤ |ab|² + |ca|² +
    2√(|ab|²|ca|² − |ab × ac|²) ≤ 4L²(1 − q²/4), so the longest edge is at
    most 2L(1 − q²/8) and gap − s > Lq²/4.  The bound's margin is slack ·
    (n2 + e2²) with n2 ≈ q²L⁴, e2² ≤ 16L⁴ and slack ≤ 128ε(cmin + 2L) (ε
    the machine epsilon), so (gap − s) · n2 ≤ margin needs (Lq²/4 − slack)
    · q² ≤ 16 slack, hence q⁴L ≤ 4(16 + q²) slack ≤ 68 · 128ε(cmin + 2L).
    The rule keeps every triangle with q⁴L ≤ 2¹⁴ε(cmin + 2L), which leaves
    a factor 1.9 for the rounding of these terms."""
    cmin = np.min(np.take(row_norms(mesh.vertices), mesh.triangles.T), axis=0)
    reach = 2.0 * np.sqrt(scale)
    keep = cmin - cmin.min() <= reach
    # the sliver rule times 2L⁸, free of a division by L
    sliver = cross * cross
    sliver *= sliver
    sliver *= reach
    scale4 = scale * scale
    scale4 *= scale4
    keep |= sliver <= (2.0 ** 15 * EPS) * (cmin + reach) * scale4
    keep = np.take(mesh.triangles.T, np.flatnonzero(keep), axis=1)
    return np.take(mesh.vertices.T, keep, axis=1)


def _nearest_distances(near: list) -> list:
    """vertex_distance of each state whose _near_corners are given, from
    one _extents pass over all of them: it treats each triangle on its own,
    so every state's minimum keeps its bits."""
    p = np.concatenate(near, axis=2)
    d = _extents(p[:, 0].T, p[:, 1].T, p[:, 2].T)[0]
    starts = np.cumsum([0] + [x.shape[2] for x in near[:-1]])
    return np.minimum.reduceat(d, starts).tolist()


def _disk_clip(pts: np.ndarray, s: np.ndarray, off: np.ndarray):
    """Exact area and solid angle of each triangle ∩ disk, batched.

    pts is an (m, 3, 2) array of triangles, each in its own chart, s an
    (m,) array of radii of disks centred at the chart origins, and off the
    (m,) signed offsets of the triangles' planes from 0; each chart's
    origin is the foot of the perpendicular from 0.  By Green's theorem the
    clip is the sum over the edges p -> q of the signed region tri(O, p, q)
    ∩ disk: the part of the edge inside the disk closes a chord triangle
    with O, each part outside closes a circular sector.  Nested, disjoint and
    crossing cases need no branches, and either orientation of a triangle
    gives the same result.  Returns areas (m,) and the solid angles (m,),
    ∫ |d|/|x|³ dA over the clips with d = off; each piece has a closed form:
    a sector of angle φ gives φ(1 − |d|/√(d² + s²)), a chord triangle the
    Van Oosterom–Strackee angle of the 3D triangle (foot, A, B).  A plane
    through the origin has x · ν = 0, so its solid angle is 0.
    """
    # (m, 3) arrays of x and y chart coordinates, one column per corner
    px, py = pts[..., 0], pts[..., 1]
    qx, qy = np.roll(px, -1, axis=1), np.roll(py, -1, axis=1)
    dx, dy = qx - px, qy - py
    aa = dx * dx + dy * dy
    bb = px * dx + py * dy
    cc = px * px + py * py - (s * s)[:, None]
    disc = bb * bb - aa * cc
    hit = (disc > 0) & (aa > 0)
    root = np.sqrt(np.where(hit, disc, 0.0))
    aa = np.where(hit, aa, 1.0)
    lo = np.where(hit, np.clip((-bb - root) / aa, 0.0, 1.0), 0.0)
    hi = np.where(hit, np.clip((-bb + root) / aa, 0.0, 1.0), 0.0)
    # p -> A and B -> q lie outside the disk, A -> B inside it
    ax, ay = px + lo * dx, py + lo * dy
    bx, by = px + hi * dx, py + hi * dy

    chord = ax * by - ay * bx
    area = 0.5 * chord
    # the Van Oosterom–Strackee fraction of (foot, A, B) with the factor
    # |d| = |foot| of its numerator and of every denominator term cancelled:
    # the denominator stays above |d|(|A'| + |B'|), so positive for d != 0
    d = np.abs(off)[:, None]
    dd = d * d
    na = np.sqrt(ax * ax + ay * ay + dd)
    nb = np.sqrt(bx * bx + by * by + dd)
    omega = 2.0 * np.arctan2(chord, na * nb + (ax * bx + ay * by)
                             + d * (na + nb) + dd)
    sector = (0.5 * (s * s))[:, None]
    weight = 1.0 - d / np.sqrt(dd + (s * s)[:, None])
    for ux, uy, vx, vy in ((px, py, ax, ay), (bx, by, qx, qy)):
        # a corner at (-0, -0) makes the dot -0, and arctan2(+0, -0) = pi
        # would add a half-disk sector: the zero must be +0
        dot = ux * vx + uy * vy
        dot += 0.0
        phi = np.arctan2(ux * vy - uy * vx, dot)
        area = area + sector * phi
        omega = omega + weight * phi
    sign = np.sign((px[:, 1] - px[:, 0]) * (py[:, 2] - py[:, 0])
                   - (py[:, 1] - py[:, 0]) * (px[:, 2] - px[:, 0]))
    return sign * _sum3(area), np.where(off != 0, sign * _sum3(omega), 0.0)


def _solid_angles(a, b, c, nhat, areas, norms):
    """|Ω| of the triangles (a, b, c) seen from the origin, by Van Oosterom
    & Strackee 1983: tan(Ω/2) = a · (b × c) / (|a||b||c| + (a · b)|c| +
    (a · c)|b| + (b · c)|a|), with unit normals nhat, areas and (3, m)
    corner norms.  The triple product is taken as 2 · area · (a · nhat):
    on a small triangle far from the origin, b × c of nearly parallel
    corners would lose the digits that the short edges keep.  Where it is
    0, on a flat triangle or a plane through the origin, x · ν vanishes and
    so does Ω, as in _disk_clip: arctan2 would give π when the origin
    projects into the triangle."""
    na, nb, nc = norms
    den = (na * nb * nc + row_dots(a, b) * nc + row_dots(a, c) * nb
           + row_dots(b, c) * na)
    triple = 2.0 * areas * row_dots(a, nhat)
    return np.where(triple != 0, np.abs(2.0 * np.arctan2(triple, den)), 0.0)


def _charts(a, b, c, nhat):
    """In-plane charts of triangles with unit normals nhat, origin at the
    foot of the perpendicular from 0: (m, 3, 2) corners and signed plane
    offsets."""
    off = row_dots(a, nhat)
    foot = off[:, None] * nhat
    eu = b - a
    eu = eu / row_norms(eu)[:, None]
    ev = row_cross(nhat, eu)
    pts = np.empty((2, 3, len(off))).T
    for k, x in enumerate((a, b, c)):
        rel = x - foot
        pts[:, k, 0] = row_dots(rel, eu)
        pts[:, k, 1] = row_dots(rel, ev)
    return pts, off


def _disk_radius(r, off):
    """Radius of the disk B_r cuts in a plane at distance |off| (0 if none)."""
    return np.sqrt(np.maximum(r * r - off * off, 0.0))


def monotonicity_ratio(mesh: TriMesh, radii) -> list:
    """Table of (r, p(r)) with p(r) = area(mesh ∩ B_r) / r²: a triangle gets
    an exact nearest distance only when its _distance_bounds bracket holds a
    radius, and one _disk_clip pass clips the cut triangles of all radii."""
    return _ball_audits(mesh, radii, ())[0]


def _ball_audits(mesh: TriMesh, radii, windows, gram=None):
    """The monotonicity_ratio table over radii and the conical_deviation of
    each (rho, r) window, with their checks, from one corner gather and one
    _distance_bounds pass, on gram, the mesh's TriangleGeometry.gram, or
    on the same terms from the corners (ab . ac for ab . ca: the bound
    squares it).  For each sphere s, a radius or a window end, A(s) and
    W(s) sum the areas and solid angles of the triangles inside B_s and
    the _disk_clip rows of those it cuts, all spheres in one clip pass;
    p(r) = A(r)/r² and a window's deviation is W(r) − W(rho)."""
    radii = [float(r) for r in radii]
    windows = [(float(rho), float(r)) for rho, r in windows]
    # NaN passes every comparison below, and inf the clamp check of a mesh
    # without a clamp radius
    for value in radii + [end for w in windows for end in w]:
        if not math.isfinite(value):
            raise ValueError(f"radius {value} is not finite")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if not all(0 < rho < r for rho, r in windows):
        raise ValueError("need 0 < rho < r")
    spheres = np.unique([0.0] + radii + [x for w in windows for x in w])
    if mesh.clamp_radius is not None and spheres[-1] > mesh.clamp_radius + 1e-9:
        raise ValueError("radii must not exceed the clamp radius")
    _check_finite(mesh)
    corners = _corners(mesh.vertices, mesh.triangles)
    ab, ac, _, areas, nhat = _planes(*corners)
    if gram is None:
        bc = corners[2] - corners[1]
        gram = [row_dots(x, y) for x, y in
                ((ab, ab), (ac, ac), (bc, bc), (ab, ac))]
        del bc
    del ab, ac  # the edges are not held through the clip pass
    norms, d_min, gap, n2, margin = _distance_bounds(mesh, gram)
    del gram
    d_max = np.max(norms, axis=0)
    # d <= cmin settles the spheres above cmin; a bound that puts d above
    # the largest sphere s at or below cmin (0 if none) settles the rest
    s = spheres[np.searchsorted(spheres, d_min, side="right") - 1]
    exact = (gap - s) * n2 <= margin
    d_min[exact] = _extents(*_rows(exact, *corners))[0]
    spheres = spheres[1:]
    inside = d_max <= spheres[:, None]
    cut = ~inside & (d_min < spheres[:, None]) & (areas > 0)
    counts = np.count_nonzero(cut, axis=1)
    pts, off = _charts(*_rows(cut, *corners, nhat))
    clipped, omega = _disk_clip(
        pts, _disk_radius(np.repeat(spheres, counts), off), off)
    ends = np.cumsum(counts)[:-1]

    def sums(whole, clips, wanted):
        """Per sphere in wanted: whole over the triangles inside, plus clips."""
        return {t: float(np.sum(whole[ins])) + float(np.sum(part))
                for t, ins, part in zip(spheres.tolist(), inside,
                                        np.split(clips, ends)) if t in wanted}

    area = sums(areas, clipped, radii)
    table = [(r, area[r] / (r * r)) for r in radii]
    if not windows:
        return table, []
    solid = sums(_solid_angles(*corners, nhat, areas, norms), omega,
                 {x for w in windows for x in w})
    return table, [solid[r] - solid[rho] for rho, r in windows]


def conical_deviation(mesh: TriMesh, rho: float, r: float) -> float:
    """∫ |x·ν|/|x|³ over mesh ∩ (B_r ∖ B_ρ), exact to rounding.

    On a flat triangle x·ν is its plane offset, so the integral is the
    solid angle the piece subtends at the origin: W(r) − W(ρ), with W(s)
    the Van Oosterom–Strackee solid angles (Van Oosterom & Strackee 1983)
    of the triangles inside B_s plus the _disk_clip solid angles of those
    the sphere cuts.  A triangle gets an exact nearest distance only when
    its _distance_bounds bracket holds rho or r.
    """
    return _ball_audits(mesh, (), ((rho, r),))[1][0]


@dataclass(frozen=True)
class BoundaryAngleStats:
    """Contact angles (degrees) between boundary triangles and cone facets.

    records holds one (facet index, edge midpoint norm, angle) per audited
    boundary edge, for downstream filtering.
    """
    count: int
    min_deg: float
    mean_deg: float
    max_deg: float
    records: tuple


def boundary_angle_audit(mesh: TriMesh, cone: PolyhedralCone,
                         min_norm: float = 0.0) -> BoundaryAngleStats:
    """Audit the angle between the surface and each facet it touches.

    A boundary edge is attributed to a facet when both endpoints carry the
    same free-boundary facet tag, or failing that when both lie on the facet
    plane; edges on no facet (clamp arc, interior holes) are skipped.
    Angles are oriented: arccos of (triangle normal . facet normal), so 90°
    means orthogonal contact.  Only edges with midpoint norm > min_norm are
    reported.
    """
    table = edge_table(mesh)
    return _boundary_angle_audit(mesh, cone, table.edges, table.owner,
                                 min_norm)


def _boundary_angle_audit(mesh: TriMesh, cone: PolyhedralCone, edges, owner,
                          min_norm: float = 0.0) -> BoundaryAngleStats:
    """boundary_angle_audit from the mesh's boundary edges and the triangles
    owning them, as edge_table gives them."""
    i, j = edges.T
    normals, v = cone.normals, mesh.vertices
    # first rule: the lowest facet that both ends declare; a free-boundary
    # vertex declares the one or two facets of its face
    tags = np.stack([mesh.facet, mesh.facet2], axis=1)
    tags[mesh.vertex_class != VertexClass.FREE_BOUNDARY] = -1
    ti, tj = tags[i], tags[j]
    shared = (ti >= 0) & ((ti == tj[:, :1]) | (ti == tj[:, 1:]))
    k = np.min(np.where(shared, ti, len(normals)), axis=1)
    tagged = k < len(normals)
    # second rule: the facet plane both ends lie on, within FACET_TOL
    resid = np.maximum(np.abs(row_dots(v[i, None], normals)),
                       np.abs(row_dots(v[j, None], normals)))
    nearest = np.argmin(resid, axis=1)
    on_plane = (np.min(resid, axis=1)
                <= FACET_TOL * np.maximum(1.0, row_norms(v[i])))
    midnorm = row_norms(0.5 * (v[i] + v[j]))
    keep = (tagged | on_plane) & (midnorm > min_norm)
    k = np.where(tagged, k, nearest)[keep]
    nhat = _planes(*_corners(v, mesh.triangles[owner[keep]]))[4]
    cos = row_dots(nhat, normals[k])
    angs = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    if not len(angs):
        raise ValueError("mesh has no free-boundary edges on cone facets")
    return BoundaryAngleStats(
        count=len(angs),
        min_deg=float(np.min(angs)),
        mean_deg=float(np.mean(angs)),
        max_deg=float(np.max(angs)),
        records=tuple(zip(k.tolist(), midnorm[keep].tolist(), angs.tolist())),
    )
