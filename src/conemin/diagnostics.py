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
sphere after two refinement rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PolyhedralCone
from .mesh import TriMesh, VertexClass, _edge_keys, triangle_normals

DEVIATION_CHUNK = 262144
FACET_TOL = 1e-7
EPS = np.finfo(float).eps


def _point_triangle_distances(a: np.ndarray, b: np.ndarray,
                              c: np.ndarray) -> np.ndarray:
    """Exact distance from the origin to each triangle (a[i], b[i], c[i]).

    Minimum over seven closed-form candidates: three vertices, three edges
    with clamped projection, and the plane point when its barycentric
    coordinates land inside.  Degenerate triangles fall back to the
    vertex/edge candidates, which are exact for them.
    """

    def edge(p, q):
        d = q - p
        dd = np.einsum("ij,ij->i", d, d)
        t = np.where(dd > 0, -np.einsum("ij,ij->i", p, d) / np.where(dd > 0, dd, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        return np.linalg.norm(p + t[:, None] * d, axis=1)

    cands = [
        np.linalg.norm(a, axis=1),
        np.linalg.norm(b, axis=1),
        np.linalg.norm(c, axis=1),
        edge(a, b), edge(a, c), edge(b, c),
    ]
    ab, ac = b - a, c - a
    n = np.cross(ab, ac)
    nn = np.einsum("ij,ij->i", n, n)
    ok = nn > 0
    nhat = n / np.sqrt(np.where(ok, nn, 1.0))[:, None]
    off = np.einsum("ij,ij->i", a, nhat)
    foot = off[:, None] * nhat - a
    g11 = np.einsum("ij,ij->i", ab, ab)
    g12 = np.einsum("ij,ij->i", ab, ac)
    g22 = np.einsum("ij,ij->i", ac, ac)
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
    v, a, b, c = mesh.vertices, *mesh.triangle_corners()
    ab, ac, bc = b - a, c - a, c - b
    norms = np.take(np.sqrt(np.einsum("ij,ij->i", v, v)), mesh.triangles)
    cmin = np.minimum(np.minimum(norms[:, 0], norms[:, 1]), norms[:, 2])
    g11, g22, g33, g12 = (np.einsum("ij,ij->i", x, y) for x, y in
                          ((ab, ab), (ac, ac), (bc, bc), (ab, ac)))
    e2 = np.maximum(np.maximum(g11, g22), g33)
    emax = np.sqrt(e2)
    # the margin, 128 ulps of (corner norm + edge), grows with the squared
    # aspect (e2 / |ab × ac|)² that a sliver's plane candidate carries in
    # its rounding; a triangle too flat to bound |ab × ac|² is always kept
    n2 = np.maximum(g11 * g22 * (1.0 - 4.0 * EPS) - g12 * g12, 0.0)
    slack = 128.0 * EPS * (cmin + emax)
    keep = (cmin - emax - np.min(cmin)) * n2 <= slack * (n2 + e2 * e2)
    return float(np.min(_point_triangle_distances(a[keep], b[keep],
                                                  c[keep])))


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
    ev = np.cross(nhat, eu)
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
    n = np.cross(b - a, c - a)
    areas = 0.5 * np.linalg.norm(n, axis=1)
    nhat = n / np.where(areas > 0, 2.0 * areas, 1.0)[:, None]
    d_max = np.maximum.reduce([np.linalg.norm(x, axis=1) for x in (a, b, c)])
    return _point_triangle_distances(a, b, c), d_max, areas, nhat


def monotonicity_ratio(mesh: TriMesh, radii) -> list:
    """Table of (r, p(r)) with p(r) = area(mesh ∩ B_r) / r²."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if mesh.clamp_radius is not None and radii and radii[-1] > mesh.clamp_radius + 1e-9:
        raise ValueError("radii must not exceed the clamp radius")
    a, b, c = mesh.triangle_corners()
    d_min, d_max, areas, nhat = _extents(a, b, c)
    table = []
    for r in radii:
        inside = d_max <= r
        cut = ~inside & (d_min < r) & (areas > 0)
        pts, off, _, _, _ = _charts(a[cut], b[cut], c[cut], nhat[cut])
        clipped, _ = _disk_clip(pts, _disk_radius(r, off))
        total = float(np.sum(areas[inside])) + float(np.sum(clipped))
        table.append((r, total / (r * r)))
    return table


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
    rho, r = float(rho), float(r)
    if not 0 < rho < r:
        raise ValueError("need 0 < rho < r")
    total = 0.0
    ta, tb, tc = mesh.triangle_corners()
    for lo in range(0, mesh.n_triangles, DEVIATION_CHUNK):
        a = ta[lo:lo + DEVIATION_CHUNK]
        b = tb[lo:lo + DEVIATION_CHUNK]
        c = tc[lo:lo + DEVIATION_CHUNK]
        for level in range(3):
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
    t = mesh.triangles
    edges, key = _edge_keys(mesh)
    owner = np.tile(np.arange(t.shape[0]), 3)
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    bmask = counts[inv] == 1
    bedges, bowner = edges[bmask], owner[bmask]

    normals, v, tn = cone.normals, mesh.vertices, triangle_normals(mesh)

    def declared(idx):
        if mesh.vertex_class[idx] in (VertexClass.FREE_BOUNDARY,
                                      VertexClass.EDGE_PINNED):
            return {f for f in (mesh.facet[idx], mesh.facet2[idx]) if f >= 0}
        return set()

    records = []
    for (i, j), tri in zip(bedges, bowner):
        common = declared(i) & declared(j)
        if common:
            k = min(common)
        else:
            ri = np.abs(normals @ v[i])
            rj = np.abs(normals @ v[j])
            resid = np.maximum(ri, rj)
            k = int(np.argmin(resid))
            if resid[k] > FACET_TOL * max(1.0, float(np.linalg.norm(v[i]))):
                continue
        mid = 0.5 * (v[i] + v[j])
        midnorm = float(np.linalg.norm(mid))
        if midnorm <= min_norm:
            continue
        ang = math.degrees(math.acos(float(np.clip(tn[tri] @ normals[k], -1.0, 1.0))))
        records.append((k, midnorm, ang))
    if not records:
        raise ValueError("mesh has no free-boundary edges on cone facets")
    angs = np.array([rec[2] for rec in records])
    return BoundaryAngleStats(
        count=len(records),
        min_deg=float(np.min(angs)),
        mean_deg=float(np.mean(angs)),
        max_deg=float(np.max(angs)),
        records=tuple(records),
    )
