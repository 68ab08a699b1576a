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

Audits run as one batch: sphere_point, GeodesicArc, equator_pole,
interior_angle and two_arc_audit also take (k, 3) arrays of rows, and the
polygon check and angles run over a stack of polygons.  Each row's numbers
are bit for bit those of its own call, since every step works row by row:
dot products go through row_dots, in coordinate order, and angles through
np.arctan2.  A bad batch raises the message of its lowest-indexed failing
row, that row's first failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (HEMISPHERE_TOL, RowError, as_points, as_vec3,
                       check_rows, open_hemisphere_slack, row_cross,
                       row_dots, row_norms, unit)

ANTIPODAL_TOL = 1e-10
COINCIDENT_TOL = 1e-10
CONTACT_TOL = 1e-6  # base arc orthogonal to a supporting plane within this


def sphere_point(v) -> np.ndarray:
    """Validate and return a unit vector, or (k, 3) rows of them
    (tolerance 1e-12)."""
    p = as_points(v)
    check_rows(np.abs(row_norms(p) - 1.0) > 1e-12,
               "sphere points must be unit vectors within 1e-12")
    return p


def arc_length(p, q) -> float:
    """Length of the minor arc between p and q, atan2(|p x q|, p . q) as in
    interior_angle, so tiny arcs keep full relative accuracy; errors on
    antipodal pairs."""
    p, q = sphere_point(p), sphere_point(q)
    d = float(p @ q)
    if d <= -1.0 + ANTIPODAL_TOL:
        raise ValueError("antipodal endpoints: minor arc undefined")
    c = row_cross(p, q)
    return math.atan2(math.sqrt(float(c @ c)), d)


def interior_angle(vertex, u, w):
    """Angle at `vertex` between the arcs toward u and toward w, computed
    from tangent-plane projections with atan2 (never arccos).  For (k, 3)
    rows, the array of the k angles, each that of its own call."""
    angles = _angles(sphere_point(vertex), as_points(u), as_points(w))
    return angles if angles.ndim else float(angles)


def _angles(v, u, w) -> np.ndarray:
    """interior_angle at unit vertices v, already checked, as an array of
    the shape of the rows."""
    tu = u - row_dots(u, v)[..., None] * v
    tw = w - row_dots(w, v)[..., None] * v
    nu, nw = row_norms(tu), row_norms(tw)
    if np.any(nu <= 1e-10) or np.any(nw <= 1e-10):
        raise ValueError("angle undefined: neighbor (anti)parallel to vertex")
    tu, tw = tu / nu[..., None], tw / nw[..., None]
    return np.arctan2(row_norms(row_cross(tu, tw)), row_dots(tu, tw))


@dataclass(frozen=True)
class GeodesicArc:
    """Minor great-circle arc between two non-equal, non-antipodal points,
    or (k, 3) rows of such arcs."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p, q = sphere_point(self.p), sphere_point(self.q)
        check_rows(np.abs(row_dots(p, q)) >= 1.0 - ANTIPODAL_TOL,
                   "arc endpoints must be neither equal nor antipodal")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def equator_pole(arc: GeodesicArc) -> np.ndarray:
    """Pole of the great circle through the arc: normalize(p x q)."""
    return unit(row_cross(arc.p, arc.q))


def _check_polygons(p: np.ndarray) -> None:
    """GeodesicPolygon's checks on each polygon of the (b, k, 3) stack p of
    unit vertices, k >= 3.  Edge i runs from vertex i to i + 1 (mod k).  A
    polygon fails the incidence tests at its lowest failing vertex i: first
    its fold-back test, vertex i + 2 on edge i or vertex i on edge i + 1
    (consecutive edges meet beyond their shared vertex only there), then
    its crossing tests with the edges j > i + 1 that share no vertex."""
    k = p.shape[1]
    index = np.arange(k)
    succ = (index + 1) % k
    offset = (index - index[:, None]) % k  # j - i mod k at [i, j]
    gap = row_norms(p[:, :, None] - p[:, None])  # symmetric, 0 at [i, i]
    check_rows((gap <= COINCIDENT_TOL).sum(axis=(1, 2)) > k,
               "degenerate polygon: coincident vertices")
    check_rows(open_hemisphere_slack(p) <= HEMISPHERE_TOL,
               "polygon is not contained in an open hemisphere")
    q = p[:, succ]  # edge i runs from p[:, i] to q[:, i]
    check_rows((np.abs(row_dots(p, q)) >= 1.0 - ANTIPODAL_TOL).any(axis=1),
               "arc endpoints must be neither equal nor antipodal")
    poles = row_cross(p, q)
    dets = poles @ p.transpose(0, 2, 1)  # det[p_i, p_i+1, p_j] at [:, i, j]
    side = np.sign(dets) * (np.abs(dets) > COINCIDENT_TOL
                            * row_norms(poles)[..., None])
    # on[:, i, j]: vertex j lies on edge i, short of its ends: it is on the
    # edge's great circle, and the great circle through it orthogonal to
    # the edge separates the ends
    far = offset > 1  # vertex j is not an end of edge i
    on = (side == 0) & far
    if on.any():
        r, e, v = np.nonzero(on)
        t = row_cross(p[r, v], poles[r, e])
        on[r, e, v] = row_dots(t, p[r, e]) * row_dots(t, q[r, e]) < 0.0
    # touch[:, i, j]: vertex j or j + 1 lies on edge i, or vertex i or
    # i + 1 on edge j; at j = i + 1 it is the fold-back test of vertex i
    touch = on | on[:, :, succ]
    touch = touch | touch.transpose(0, 2, 1)
    # split[:, i, j]: the great circle of edge i separates the ends of edge j
    split = side * side[:, :, succ] < 0
    # edges i and j share no vertex where 2 <= j - i <= k - 2 (mod k).  The
    # tests are symmetric in i and j, so a pair fails first at its lower
    # edge, and j = i - 1, the fold-back test of vertex i - 1, is left there
    failed = ((touch | (split & split.transpose(0, 2, 1) & far))
              & (offset < k - 1)).any(axis=2)
    bad = failed.any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        i = int(np.argmax(failed[row]))
        raise RowError("polygon edges cross at a fold-back vertex"
                       if touch[row, i, succ[i]] else "polygon edges cross",
                       row)


def _polygon_angles(p: np.ndarray) -> np.ndarray:
    """GeodesicPolygon.interior_angles of each polygon of the checked
    (b, k, 3) stack p, as a (b, k) array."""
    b, k = p.shape[:2]
    prev, nxt = np.roll(p, 1, axis=1), np.roll(p, -1, axis=1)
    angles = _angles(p.reshape(-1, 3), prev.reshape(-1, 3),
                     nxt.reshape(-1, 3)).reshape(b, k)
    left = row_dots(row_cross(prev, p), nxt) > 0.0
    reflex = 2.0 * math.pi - angles
    total = np.where(left, angles, reflex).sum(axis=1)
    return np.where(left == (total < k * math.pi)[:, None], angles, reflex)


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
        pts = tuple(sphere_point(as_vec3(v)) for v in self.vertices)
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        _check_polygons(np.array(pts)[None])
        object.__setattr__(self, "vertices", pts)

    def interior_angles(self) -> list[float]:
        """Interior angles in vertex order.  At a vertex where the polygon
        turns against its orientation (the sign of det[previous, vertex,
        next], the incidence test's determinant, says so) the angle is
        reflex, 2*pi minus interior_angle's.  The orientation is the one
        whose angle sum, (k - 2)*pi + area, is below k*pi; the other sum is
        2*k*pi minus it."""
        return _polygon_angles(np.array(self.vertices)[None])[0].tolist()


def spherical_excess(poly: GeodesicPolygon) -> float:
    """Sum of interior angles minus (k - 2) * pi."""
    angles = poly.interior_angles()
    return float(sum(angles) - (len(angles) - 2) * math.pi)


@dataclass(frozen=True)
class TwoArcReport:
    """Angles of the meridian quadrilateral built on a base arc; angle names
    follow the emitted record format.  Floats for one audit, (k,) arrays
    for a batch of k."""

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
    `pole` through `base`, chosen on the pole side of the equator; row by
    row for (k, 3) arrays."""
    m_normal = unit(row_cross(base, pole))
    d = row_cross(m_normal, plane_normal)
    nd = row_norms(d)
    check_rows(nd <= 1e-10,
               "plane contains the meridian: degenerate configuration")
    x = d / nd[..., None]
    x = np.where((row_dots(x, pole) < 0.0)[..., None], -x, x)
    check_rows(1.0 - np.abs(row_dots(x, pole)) <= 1e-10,
               "plane crosses the meridian at its pole: degenerate")
    check_rows(row_dots(x, base) <= 1e-12,
               "plane crosses the meridian on the far side of the base arc")
    return x


def _audit_rows(p1, q1, nu0_p1, nu0_q1, plane2_normal) -> tuple:
    """two_arc_audit's report fields as (k,) arrays for (k, 3) inputs.
    Each check runs on all rows at once and raises RowError for the lowest
    row that fails it."""
    base = GeodesicArc(p1, q1)
    pole = equator_pole(base)
    for point, nu in ((base.p, nu0_p1), (base.q, nu0_q1)):
        nu = unit(nu)
        check_rows((np.abs(row_dots(pole, nu)) > CONTACT_TOL)
                   | (np.abs(row_dots(point, nu)) > CONTACT_TOL),
                   "base arc does not meet the supporting planes orthogonally")
    n2 = unit(plane2_normal)
    sp, sq = row_dots(n2, base.p), row_dots(n2, base.q)
    check_rows((np.abs(sp) <= 1e-12) | (np.abs(sq) <= 1e-12) | (sp * sq < 0.0),
               "second plane meets the closed base arc")
    p2t = _meridian_plane_crossing(base.p, pole, n2)
    q2t = _meridian_plane_crossing(base.q, pole, n2)
    quad = np.stack((base.p, sphere_point(p2t), sphere_point(q2t), base.q),
                    axis=1)
    _check_polygons(quad)
    alpha1, alpha2t, beta2t, beta1 = _polygon_angles(quad).T
    angle_sum = alpha1 + alpha2t + beta2t + beta1
    excess = angle_sum - 2.0 * math.pi
    return alpha1, beta1, alpha2t, beta2t, angle_sum, excess, excess > 1e-9


def two_arc_audit(p1, q1, nu0_p1, nu0_q1, plane2_normal) -> TwoArcReport:
    """Audit the configuration of a base boundary arc and a second plane.

    Inputs: the base arc endpoints p1, q1; the outward normals of the
    supporting planes at those endpoints (the free-boundary contact planes);
    and the normal of a second plane through the origin whose great circle
    must avoid the closed base arc.  Each is a 3-vector, or all are (k, 3)
    arrays whose rows are k audits, run as one batch.

    Preconditions checked: the base arc meets both supporting planes
    orthogonally (the arc's pole and the endpoint itself both lie in each
    supporting plane, within CONTACT_TOL), and the second plane is strictly
    disjoint from the closed base arc.  A batch with a failing audit raises
    the message of the lowest-indexed one, its first failed check.

    The report carries the four interior angles of the quadrilateral
    (p1, p2t, q2t, q1) built from the meridian crossings of the second plane,
    their sum, the excess over 2*pi, and the infeasibility witness
    (excess > 1e-9): floats for one audit, (k,) arrays for k, each row bit
    for bit the report of its own call.
    """
    inputs = [as_points(x) for x in (p1, q1, nu0_p1, nu0_q1, plane2_normal)]
    if len({x.shape for x in inputs}) > 1 or not inputs[0].size:
        raise ValueError("two_arc_audit inputs must be 3-vectors or "
                         "nonempty (k, 3) arrays of one shape")
    try:
        fields = _audit_rows(*(x.reshape(-1, 3) for x in inputs))
    except RowError as exc:
        if exc.row:
            # a row before the one it names may fail a later check
            two_arc_audit(*(x[:exc.row] for x in inputs))
        raise
    if inputs[0].ndim == 1:
        return TwoArcReport(*(f.item() for f in fields))
    return TwoArcReport(*fields)
