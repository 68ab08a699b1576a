"""Geometric audits of a triangulated surface near a cone vertex.

monotonicity_ratio reports the scaled area p(r) = area(mesh inside B_r)/r^2;
conical_deviation integrates |x . normal|/|x|^3 over a ball annulus;
boundary_angle_audit measures the contact angle along the free boundary;
vertex_distance is the exact distance from the origin to the surface.

Ball clipping happens in each triangle's own plane, where the ball cuts a
disk centered at the foot of the perpendicular from the origin.  One
batched kernel, _disk_clip, gives the exact area and first moment of every
triangle ∩ disk, circular segments included: p(r) is exact to rounding,
and the deviation integral uses it for the pieces that still cross a
sphere after two refinement rounds.  A p(r) table and deviation windows of
one mesh share its corners and its per-triangle distance extents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PolyhedralCone, row_cross, row_dots, row_norms
from .mesh import (TriMesh, VertexClass, edge_table, triangle_geometry,
                   triangle_normals)

DEVIATION_CHUNK = 262144
FACET_TOL = 1e-7
EPS = np.finfo(float).eps
COLLINEAR_ULPS = 4.0   # |ab x ac|^2 at or below this many ulps of |ab|^2 |ac|^2


def _point_triangle_distances(a: np.ndarray, b: np.ndarray,
                              c: np.ndarray) -> np.ndarray:
    """Exact distance from the origin to each triangle (a[i], b[i], c[i]).

    Minimum over seven closed-form candidates: three vertices, three edges
    with clamped projection, and the plane point when its barycentric
    coordinates land inside.  Triangles collinear to rounding, with
    |ab x ac|^2 <= COLLINEAR_ULPS ulps of |ab|^2 |ac|^2, fall back to the
    vertex/edge candidates: their normal would be rounding noise, while the
    edges are exact for them.
    """

    def edge(p, q):
        d = q - p
        dd = np.einsum("ij,ij->i", d, d)
        t = np.where(dd > 0, -np.einsum("ij,ij->i", p, d) / np.where(dd > 0, dd, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        return row_norms(p + t[:, None] * d)

    cands = [row_norms(a), row_norms(b), row_norms(c),
             edge(a, b), edge(a, c), edge(b, c)]
    ab, ac = b - a, c - a
    n = row_cross(ab, ac)
    nn = np.einsum("ij,ij->i", n, n)
    g11 = np.einsum("ij,ij->i", ab, ab)
    g12 = np.einsum("ij,ij->i", ab, ac)
    g22 = np.einsum("ij,ij->i", ac, ac)
    ok = nn > COLLINEAR_ULPS * EPS * g11 * g22
    nhat = n / np.sqrt(np.where(ok, nn, 1.0))[:, None]
    off = np.einsum("ij,ij->i", a, nhat)
    foot = off[:, None] * nhat - a
    det = g11 * g22 - g12 * g12
    ok &= det > 0
    det = np.where(ok, det, 1.0)
    r1 = np.einsum("ij,ij->i", foot, ab)
    r2 = np.einsum("ij,ij->i", foot, ac)
    al = (g22 * r1 - g12 * r2) / det
    be = (g11 * r2 - g12 * r1) / det
    inside = ok & (al >= 0) & (be >= 0) & (al + be <= 1)
    cands.append(np.where(inside, np.abs(off), np.inf))
    return np.min(np.stack(cands), axis=0)


def vertex_distance(mesh: TriMesh) -> float:
    """Exact distance from the origin to the nearest surface point.

    No point of a triangle is nearer than its smallest corner norm minus its
    longest edge; only triangles whose bound, less a rounding margin, reaches
    the nearest corner norm go through _point_triangle_distances, so the
    result is the unpruned minimum bit for bit.
    """
    return _vertex_distance(mesh, triangle_geometry(mesh))


def _vertex_distance(mesh: TriMesh, geometry) -> float:
    """vertex_distance of the mesh whose triangle_geometry is given."""
    v, t = mesh.vertices, mesh.triangles
    bc, ca, ab = geometry.edges
    norms = np.take(np.sqrt(np.einsum("ij,ij->i", v, v)), t)
    cmin = np.minimum(np.minimum(norms[:, 0], norms[:, 1]), norms[:, 2])
    # g12 is -(ab . ac); only its square enters
    g11, g22, g33, g12 = (row_dots(x, y) for x, y in
                          ((ab, ab), (ca, ca), (bc, bc), (ab, ca)))
    e2 = np.maximum(np.maximum(g11, g22), g33)
    emax = np.sqrt(e2)
    # the margin, 128 ulps of (corner norm + edge), grows with the squared
    # aspect (e2 / |ab × ac|)² that a sliver's plane candidate carries in
    # its rounding; a triangle too flat to bound |ab × ac|² is always kept
    n2 = np.maximum(g11 * g22 * (1.0 - 4.0 * EPS) - g12 * g12, 0.0)
    slack = 128.0 * EPS * (cmin + emax)
    keep = t[(cmin - emax - np.min(cmin)) * n2 <= slack * (n2 + e2 * e2)]
    return float(np.min(_point_triangle_distances(
        *(np.take(v, keep[:, k], axis=0) for k in range(3)))))


def _disk_clip(pts: np.ndarray, s: np.ndarray):
    """Exact area and first moment of each triangle ∩ disk, batched.

    pts is an (m, 3, 2) array of triangles, each in its own chart, and s an
    (m,) array of radii of disks centred at the chart origins.  By Green's
    theorem the clip is the sum over the edges p -> q of the signed region
    tri(O, p, q) ∩ disk: the part of the edge inside the disk closes a chord
    triangle with O, each part outside closes a circular sector.  Nested,
    disjoint and crossing cases need no branches, and either orientation of
    a triangle gives the same result.  Returns areas (m,) and moments (m, 2).
    """
    p, q = pts, np.roll(pts, -1, axis=1)
    d = q - p
    aa = np.einsum("mkj,mkj->mk", d, d)
    bb = np.einsum("mkj,mkj->mk", p, d)
    cc = np.einsum("mkj,mkj->mk", p, p) - (s * s)[:, None]
    disc = bb * bb - aa * cc
    hit = (disc > 0) & (aa > 0)
    root = np.sqrt(np.where(hit, disc, 0.0))
    aa = np.where(hit, aa, 1.0)
    lo = np.where(hit, np.clip((-bb - root) / aa, 0.0, 1.0), 0.0)[..., None]
    hi = np.where(hit, np.clip((-bb + root) / aa, 0.0, 1.0), 0.0)[..., None]
    # p -> A and B -> q lie outside the disk, A -> B inside it
    A, B = p + lo * d, p + hi * d

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    chord = cross(A, B)
    area = 0.5 * chord
    moment = chord[..., None] * (A + B) / 6.0
    for u, v in ((p, A), (B, q)):
        dphi = np.arctan2(cross(u, v), np.einsum("mkj,mkj->mk", u, v))
        area = area + 0.5 * (s * s)[:, None] * dphi
        nu = np.linalg.norm(u, axis=2, keepdims=True)
        nv = np.linalg.norm(v, axis=2, keepdims=True)
        du = u / np.where(nu > 0, nu, 1.0)
        dv = v / np.where(nv > 0, nv, 1.0)
        moment = moment + (s ** 3 / 3.0)[:, None, None] * np.stack(
            [dv[..., 1] - du[..., 1], du[..., 0] - dv[..., 0]], axis=2)
    sign = np.sign(cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]))
    return sign * area.sum(axis=1), sign[:, None] * moment.sum(axis=1)


def _charts(a, b, c, nhat):
    """In-plane charts of triangles with unit normals nhat, origin at the
    foot of the perpendicular from 0: (m, 3, 2) corners, signed plane
    offsets, feet and chart axes eu, ev."""
    off = np.einsum("ij,ij->i", a, nhat)
    foot = off[:, None] * nhat
    eu = b - a
    eu = eu / np.linalg.norm(eu, axis=1)[:, None]
    ev = row_cross(nhat, eu)
    rel = np.stack([a, b, c], axis=1) - foot[:, None, :]
    pts = np.stack([np.einsum("mkj,mj->mk", rel, eu),
                    np.einsum("mkj,mj->mk", rel, ev)], axis=2)
    return pts, off, foot, eu, ev


def _disk_radius(r, off):
    """Radius of the disk B_r cuts in a plane at distance |off| (0 if none)."""
    return np.sqrt(np.maximum(r * r - off * off, 0.0))


def _extents(a, b, c):
    """Nearest and farthest distances from the origin, areas and unit
    normals of the triangles (a[i], b[i], c[i])."""
    n = row_cross(b - a, c - a)
    areas = 0.5 * row_norms(n)
    nhat = n / np.where(areas > 0, 2.0 * areas, 1.0)[:, None]
    d_max = np.maximum.reduce([row_norms(x) for x in (a, b, c)])
    return _point_triangle_distances(a, b, c), d_max, areas, nhat


def monotonicity_ratio(mesh: TriMesh, radii) -> list:
    """Table of (r, p(r)) with p(r) = area(mesh ∩ B_r) / r²."""
    return _ball_audits(mesh, radii, ())[0]


def _ball_audits(mesh: TriMesh, radii, windows):
    """The monotonicity_ratio table over radii and the conical_deviation of
    each (rho, r) window, with their checks, from one corner gather and one
    _extents pass shared by the table and level 0 of every window."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if mesh.clamp_radius is not None and radii and radii[-1] > mesh.clamp_radius + 1e-9:
        raise ValueError("radii must not exceed the clamp radius")
    windows = [(float(rho), float(r)) for rho, r in windows]
    if not all(0 < rho < r for rho, r in windows):
        raise ValueError("need 0 < rho < r")
    a, b, c = corners = mesh.triangle_corners()
    d_min, d_max, areas, nhat = extents = _extents(a, b, c)
    table = []
    for r in radii:
        inside = d_max <= r
        cut = ~inside & (d_min < r) & (areas > 0)
        pts, off, _, _, _ = _charts(a[cut], b[cut], c[cut], nhat[cut])
        clipped, _ = _disk_clip(pts, _disk_radius(r, off))
        total = float(np.sum(areas[inside])) + float(np.sum(clipped))
        table.append((r, total / (r * r)))
    return table, [_deviation(corners, extents, rho, r) for rho, r in windows]


def _subdivide(a, b, c):
    """4-way midpoint split; returns corner arrays 4x longer."""
    mab, mac, mbc = 0.5 * (a + b), 0.5 * (a + c), 0.5 * (b + c)
    na = np.concatenate([a, mab, mac, mab])
    nb = np.concatenate([mab, b, mbc, mbc])
    nc = np.concatenate([mac, mbc, c, mac])
    return na, nb, nc


def _annulus_pieces(a, b, c, nhat, rho, r) -> float:
    """Exact centroid-rule contribution of triangles to the |x.n|/|x|^3
    integral over B_r minus B_rho: each is clipped against both disks."""
    pts, off, foot, eu, ev = _charts(a, b, c, nhat)
    area_r, mom_r = _disk_clip(pts, _disk_radius(r, off))
    area_rho, mom_rho = _disk_clip(pts, _disk_radius(rho, off))
    area = area_r - area_rho
    # a rounding-level piece can sit at the origin with zero offset: skip it
    ok = area > 64.0 * EPS * r * r
    cen2 = (mom_r - mom_rho)[ok] / area[ok, None]
    cen3 = foot[ok] + cen2[:, :1] * eu[ok] + cen2[:, 1:] * ev[ok]
    return float(np.sum(area[ok] * np.abs(off[ok])
                        / np.linalg.norm(cen3, axis=1) ** 3))


def conical_deviation(mesh: TriMesh, rho: float, r: float) -> float:
    """∫ |x·ν|/|x|³ over mesh ∩ (B_r ∖ B_ρ) by centroid quadrature.

    Triangles crossing either sphere are refined 4-way twice; the pieces
    still crossing after that are clipped exactly against both balls by
    _disk_clip, and their area and centroid enter the centroid rule.
    """
    return _ball_audits(mesh, (), ((rho, r),))[1][0]


def _deviation(corners, extents, rho, r) -> float:
    """conical_deviation over (rho, r) of the triangles with these corners
    and _extents."""
    total = 0.0
    for lo in range(0, len(corners[0]), DEVIATION_CHUNK):
        part = slice(lo, lo + DEVIATION_CHUNK)
        a, b, c = (x[part] for x in corners)
        d_min, d_max, areas, nhat = (x[part] for x in extents)
        for level in range(3):
            if level:
                d_min, d_max, areas, nhat = _extents(a, b, c)
            inside = (d_min >= rho) & (d_max <= r)
            if np.any(inside):
                cen = (a[inside] + b[inside] + c[inside]) / 3.0
                offs = np.abs(np.einsum("ij,ij->i", a[inside], nhat[inside]))
                cn = np.linalg.norm(cen, axis=1)
                total += float(np.sum(areas[inside] * offs / cn ** 3))
            crossing = ~inside & (d_min < r) & (d_max > rho) & (areas > 0)
            if not np.any(crossing):
                break
            if level < 2:
                a, b, c = _subdivide(a[crossing], b[crossing], c[crossing])
            else:
                total += _annulus_pieces(a[crossing], b[crossing],
                                         c[crossing], nhat[crossing], rho, r)
    return total


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
    boundary = table.multiplicity == 1
    i, j = table.edges[boundary].T
    normals, v = cone.normals, mesh.vertices
    # first rule: the lowest facet that both ends declare; free-boundary and
    # edge-pinned vertices declare their facet tags
    tags = np.stack([mesh.facet, mesh.facet2], axis=1)
    tags[~np.isin(mesh.vertex_class, (VertexClass.FREE_BOUNDARY,
                                      VertexClass.EDGE_PINNED))] = -1
    ti, tj = tags[i], tags[j]
    shared = (ti >= 0) & ((ti == tj[:, :1]) | (ti == tj[:, 1:]))
    k = np.min(np.where(shared, ti, len(normals)), axis=1)
    tagged = k < len(normals)
    # second rule: the facet plane both ends lie on, within FACET_TOL; the
    # row-by-row np.matmul adds each dot product in the order normals @ x does
    resid = np.maximum(np.abs(np.matmul(normals, v[i, :, None])[..., 0]),
                       np.abs(np.matmul(normals, v[j, :, None])[..., 0]))
    nearest = np.argmin(resid, axis=1)
    on_plane = (np.min(resid, axis=1)
                <= FACET_TOL * np.maximum(1.0, row_norms(v[i])))
    midnorm = row_norms(0.5 * (v[i] + v[j]))
    keep = (tagged | on_plane) & (midnorm > min_norm)
    k = np.where(tagged, k, nearest)[keep]
    tri = table.owner[boundary][keep]
    cos = np.matmul(triangle_normals(mesh)[tri, None], normals[k, :, None])
    # math.acos: np.arccos differs from it in the last bit on 1 input in 10
    angs = [math.degrees(math.acos(c))
            for c in np.clip(cos, -1.0, 1.0).ravel().tolist()]
    if not angs:
        raise ValueError("mesh has no free-boundary edges on cone facets")
    return BoundaryAngleStats(
        count=len(angs),
        min_deg=min(angs),
        mean_deg=float(np.mean(angs)),
        max_deg=max(angs),
        records=tuple(zip(k.tolist(), midnorm[keep].tolist(), angs)),
    )
