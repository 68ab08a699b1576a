"""Geodesic geometry on the unit sphere S^2.

Points are unit numpy 3-vectors.  The module provides minor geodesic arcs,
interior angles via tangent-plane projections, polygon excess, and the
two-arc quadrilateral audit: given a boundary arc that meets its two
supporting planes orthogonally and a second plane disjoint from it, the
induced meridian quadrilateral has two right base angles, and its total
angle sum exceeds 2*pi, certifying that the configuration cannot bound a
second geodesic arc.

A polygon is checked to lie in an open hemisphere first; inside one, every
incidence of its edges is decided by the sign of det[a, b, c] = (a x b) . c
(see GeodesicPolygon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (HEMISPHERE_TOL, as_vec3, cross3, open_hemisphere_slack,
                       row_cross, row_dots, row_norms, unit)

ANTIPODAL_TOL = 1e-10
COINCIDENT_TOL = 1e-10
CONTACT_TOL = 1e-6  # base arc orthogonal to a supporting plane within this


def sphere_point(v) -> np.ndarray:
    """Validate and return a unit vector (tolerance 1e-12)."""
    p = as_vec3(v)
    n = float(np.linalg.norm(p))
    if abs(n - 1.0) > 1e-12:
        raise ValueError("sphere points must be unit vectors within 1e-12")
    return p


def arc_length(p, q) -> float:
    """Length of the minor arc between p and q, atan2(|p x q|, p . q) as in
    interior_angle, so tiny arcs keep full relative accuracy; errors on
    antipodal pairs."""
    p, q = sphere_point(p), sphere_point(q)
    d = float(p @ q)
    if d <= -1.0 + ANTIPODAL_TOL:
        raise ValueError("antipodal endpoints: minor arc undefined")
    c = cross3(p, q)
    return math.atan2(math.sqrt(float(c @ c)), d)


def interior_angle(vertex, u, w) -> float:
    """Angle at `vertex` between the arcs toward u and toward w, computed
    from tangent-plane projections with atan2 (never arccos).  Norms are
    sqrt(x @ x), which is what np.linalg.norm computes, without its
    overhead."""
    v, u, w = sphere_point(vertex), as_vec3(u), as_vec3(w)
    tu, tw = u - float(u @ v) * v, w - float(w @ v) * v
    nu, nw = math.sqrt(float(tu @ tu)), math.sqrt(float(tw @ tw))
    if nu <= 1e-10 or nw <= 1e-10:
        raise ValueError("angle undefined: neighbor (anti)parallel to vertex")
    tu, tw = tu / nu, tw / nw
    c = cross3(tu, tw)
    return math.atan2(math.sqrt(float(c @ c)), float(tu @ tw))


@dataclass(frozen=True)
class GeodesicArc:
    """Minor great-circle arc between two non-equal, non-antipodal points."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p, q = sphere_point(self.p), sphere_point(self.q)
        if abs(float(p @ q)) >= 1.0 - ANTIPODAL_TOL:
            raise ValueError("arc endpoints must be neither equal nor antipodal")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def equator_pole(arc: GeodesicArc) -> np.ndarray:
    """Pole of the great circle through the arc: normalize(p x q)."""
    return unit(cross3(arc.p, arc.q))


@dataclass(frozen=True)
class GeodesicPolygon:
    """Closed spherical polygon, vertices in order, contained in an open
    hemisphere, consecutive vertices neither equal nor antipodal, and edges
    that meet only where consecutive ones share a vertex.

    The hemisphere is checked first: inside one, central projection maps
    minor arcs to segments and keeps the sign of det[a, b, c] = (a x b) . c,
    so edges meet where the planar segment test on those signs says.  The
    sign is 0 when c lies within a distance COINCIDENT_TOL of the great
    circle through a and b; such a c lies on the arc (a, b) when the great
    circle through c orthogonal to it separates a from b."""

    vertices: tuple

    def __post_init__(self):
        pts = tuple(sphere_point(v) for v in self.vertices)
        k = len(pts)
        if k < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for i in range(k):
            for j in range(i + 1, k):
                if float(np.linalg.norm(pts[i] - pts[j])) <= COINCIDENT_TOL:
                    raise ValueError("degenerate polygon: coincident vertices")
        p = np.array(pts)
        if open_hemisphere_slack(p) <= HEMISPHERE_TOL:
            raise ValueError("polygon is not contained in an open hemisphere")
        q = np.array(pts[1:] + pts[:1])
        if np.any(np.abs(row_dots(p, q)) >= 1.0 - ANTIPODAL_TOL):
            raise ValueError("arc endpoints must be neither equal nor antipodal")
        poles = row_cross(p, q)  # edge i runs from pts[i] to pts[i + 1]
        dets = poles @ p.T       # dets[i, j] = det[pts[i], pts[i + 1], pts[j]]
        side = (np.sign(dets) * (np.abs(dets) > COINCIDENT_TOL
                                 * row_norms(poles)[:, None])).tolist()

        def on_edge(j, i):
            """Whether vertex j lies on edge i, short of its ends."""
            if side[i][j]:
                return False
            t = cross3(pts[j], poles[i])
            return float(t @ pts[i]) * float(t @ pts[(i + 1) % k]) < 0.0

        for i in range(k):
            # consecutive edges meet beyond their shared vertex only when
            # the polygon folds back along the edge it came in on
            if on_edge((i + 2) % k, i) or on_edge(i, (i + 1) % k):
                raise ValueError("polygon edges cross at a fold-back vertex")
            for j in range(i + 2, k if i else k - 1):
                a, b, c, d = i, (i + 1) % k, j, (j + 1) % k
                if (side[i][c] * side[i][d] < 0 and side[j][a] * side[j][b] < 0
                        or on_edge(c, i) or on_edge(d, i)
                        or on_edge(a, j) or on_edge(b, j)):
                    raise ValueError("polygon edges cross")
        object.__setattr__(self, "vertices", pts)

    def interior_angles(self) -> list[float]:
        """Interior angles in vertex order.  At a vertex where the polygon
        turns against its orientation (the sign of det[previous, vertex,
        next], the incidence test's determinant, says so) the angle is
        reflex, 2*pi minus interior_angle's.  The orientation is the one
        whose angle sum, (k - 2)*pi + area, is below k*pi; the other sum is
        2*k*pi minus it."""
        pts, k = self.vertices, len(self.vertices)
        turns = [(interior_angle(v, pts[i - 1], pts[(i + 1) % k]),
                  float(cross3(pts[i - 1], v) @ pts[(i + 1) % k]) > 0.0)
                 for i, v in enumerate(pts)]
        ccw = sum(a if left else 2.0 * math.pi - a
                  for a, left in turns) < k * math.pi
        return [a if left == ccw else 2.0 * math.pi - a for a, left in turns]


def spherical_excess(poly: GeodesicPolygon) -> float:
    """Sum of interior angles minus (k - 2) * pi."""
    angles = poly.interior_angles()
    return float(sum(angles) - (len(angles) - 2) * math.pi)


@dataclass(frozen=True)
class TwoArcReport:
    """Angles of the meridian quadrilateral built on a base arc; angle names
    follow the emitted record format."""

    alpha1: float
    beta1: float
    alpha2t: float
    beta2t: float
    angle_sum: float
    excess: float
    infeasibility_witness: bool


def _meridian_plane_crossing(base: np.ndarray, pole: np.ndarray,
                             plane_normal: np.ndarray) -> np.ndarray:
    """Intersection of a plane through the origin with the meridian from
    `pole` through `base`, chosen on the pole side of the equator."""
    m_normal = unit(cross3(base, pole))
    d = cross3(m_normal, plane_normal)
    nd = float(np.linalg.norm(d))
    if nd <= 1e-10:
        raise ValueError("plane contains the meridian: degenerate configuration")
    x = d / nd
    if float(x @ pole) < 0.0:
        x = -x
    if 1.0 - abs(float(x @ pole)) <= 1e-10:
        raise ValueError("plane crosses the meridian at its pole: degenerate")
    if float(x @ base) <= 1e-12:
        raise ValueError("plane crosses the meridian on the far side of the base arc")
    return x


def two_arc_audit(p1, q1, nu0_p1, nu0_q1, plane2_normal) -> TwoArcReport:
    """Audit the configuration of a base boundary arc and a second plane.

    Inputs: the base arc endpoints p1, q1; the outward normals of the
    supporting planes at those endpoints (the free-boundary contact planes);
    and the normal of a second plane through the origin whose great circle
    must avoid the closed base arc.

    Preconditions checked: the base arc meets both supporting planes
    orthogonally (the arc's pole and the endpoint itself both lie in each
    supporting plane, within CONTACT_TOL), and the second plane is strictly
    disjoint from the closed base arc.

    The report carries the four interior angles of the quadrilateral
    (p1, p2t, q2t, q1) built from the meridian crossings of the second plane,
    their sum, the excess over 2*pi, and the infeasibility witness
    (excess > 1e-9).
    """
    p1, q1 = sphere_point(p1), sphere_point(q1)
    base = GeodesicArc(p1, q1)
    pole = equator_pole(base)
    for point, nu in ((p1, nu0_p1), (q1, nu0_q1)):
        nu = unit(nu)
        if (abs(float(pole @ nu)) > CONTACT_TOL
                or abs(float(point @ nu)) > CONTACT_TOL):
            raise ValueError(
                "base arc does not meet the supporting planes orthogonally")
    n2 = unit(plane2_normal)
    sp, sq = float(n2 @ p1), float(n2 @ q1)
    if abs(sp) <= 1e-12 or abs(sq) <= 1e-12 or sp * sq < 0.0:
        raise ValueError("second plane meets the closed base arc")
    p2t = _meridian_plane_crossing(p1, pole, n2)
    q2t = _meridian_plane_crossing(q1, pole, n2)
    quad = GeodesicPolygon((p1, p2t, q2t, q1))  # validates the quadrilateral
    alpha1, alpha2t, beta2t, beta1 = quad.interior_angles()
    angle_sum = alpha1 + alpha2t + beta2t + beta1
    excess = angle_sum - 2.0 * math.pi
    return TwoArcReport(
        alpha1=alpha1,
        beta1=beta1,
        alpha2t=alpha2t,
        beta2t=beta2t,
        angle_sum=angle_sum,
        excess=excess,
        infeasibility_witness=bool(excess > 1e-9),
    )
