"""Geodesic geometry on the unit sphere S^2.

Points are unit numpy 3-vectors.  The module provides minor geodesic arcs,
interior angles via tangent-plane projections, polygon excess, and the
two-arc quadrilateral audit: given a boundary arc that meets its two
supporting planes orthogonally and a second plane disjoint from it, the
induced meridian quadrilateral has two right base angles, and its total
angle sum exceeds 2*pi, certifying that the configuration cannot bound a
second geodesic arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (HEMISPHERE_TOL, as_vec3, cross3, open_hemisphere_slack,
                       unit)

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
    """Length of the minor arc between p and q; errors on antipodal pairs."""
    return _arc_length(sphere_point(p), sphere_point(q))


def _arc_length(p: np.ndarray, q: np.ndarray) -> float:
    """arc_length of points that are already validated unit 3-vectors."""
    d = float(p @ q)
    if d <= -1.0 + ANTIPODAL_TOL:
        raise ValueError("antipodal endpoints: minor arc undefined")
    return float(math.acos(min(1.0, max(-1.0, d))))


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


def _strictly_inside_arc(x: np.ndarray, a: np.ndarray, b: np.ndarray,
                         tol: float = 1e-9) -> bool:
    """True when x lies on the minor arc (a, b), excluding the endpoints."""
    dax, dxb, dab = _arc_length(a, x), _arc_length(x, b), _arc_length(a, b)
    return abs(dax + dxb - dab) <= tol and min(dax, dxb) > tol


def _arcs_cross(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                d: np.ndarray) -> bool:
    """Whether minor arcs (a, b) and (c, d) meet away from shared endpoints."""
    # arcs on one great circle meet only where one holds an endpoint of the
    # other strictly inside
    if (_strictly_inside_arc(c, a, b) or _strictly_inside_arc(d, a, b)
            or _strictly_inside_arc(a, c, d) or _strictly_inside_arc(b, c, d)):
        return True
    line = cross3(cross3(a, b), cross3(c, d))
    nl = float(np.linalg.norm(line))
    if nl <= 1e-12:
        return False
    x = line / nl
    return any(_strictly_inside_arc(cand, a, b)
               and _strictly_inside_arc(cand, c, d) for cand in (x, -x))


@dataclass(frozen=True)
class GeodesicPolygon:
    """Closed spherical polygon, vertices in order, contained in an open
    hemisphere, consecutive vertices neither equal nor antipodal."""

    vertices: tuple

    def __post_init__(self):
        pts = tuple(sphere_point(v) for v in self.vertices)
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if float(np.linalg.norm(pts[i] - pts[j])) <= COINCIDENT_TOL:
                    raise ValueError("degenerate polygon: coincident vertices")
        k = len(pts)
        for i in range(k):
            GeodesicArc(pts[i], pts[(i + 1) % k])
        for i in range(k):
            a, b = pts[i], pts[(i + 1) % k]
            # consecutive edges may share only the one vertex: folding back
            # onto the previous edge or running through a vertex is a cross
            c_next = pts[(i + 2) % k]
            if _strictly_inside_arc(c_next, a, b) or _strictly_inside_arc(a, b, c_next):
                raise ValueError("polygon edges cross at a fold-back vertex")
            for j in range(i + 2, k):
                if i == 0 and j == k - 1:
                    continue  # adjacent through closure
                c, d = pts[j], pts[(j + 1) % k]
                if _arcs_cross(a, b, c, d):
                    raise ValueError("polygon edges cross")
        if open_hemisphere_slack(np.array(pts)) <= HEMISPHERE_TOL:
            raise ValueError("polygon is not contained in an open hemisphere")
        object.__setattr__(self, "vertices", pts)

    def interior_angles(self) -> list[float]:
        """Interior angles in vertex order.  At a vertex where the polygon
        turns against its orientation (the next vertex lies on the other
        side of the arc from the previous one) the angle is reflex, 2*pi
        minus interior_angle's.  The orientation is the one whose angle sum,
        (k - 2)*pi + area, is below k*pi; the other sum is 2*k*pi minus it."""
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
