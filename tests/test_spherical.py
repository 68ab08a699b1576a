import math

import numpy as np
import numpy.testing as npt
import pytest

import conemin.spherical as sph
from conemin.cli import _random_audit_inputs
from oracles import lhuilier_excess

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
MID = sph.unit(np.array([1.0, 1.0, 0.0]))  # midpoint of the arc E1 E2


def random_cap_point(rng, center, cap_radius):
    """Uniform-ish point within angular distance cap_radius of center."""
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        t = v - (v @ center) * center
        nt = np.linalg.norm(t)
        if nt > 1e-6:
            break
    ang = cap_radius * rng.uniform(0.05, 1.0)
    return math.cos(ang) * center + math.sin(ang) * (t / nt)


# ---------------------------------------------------------------- arc length

def test_arc_length_quarter_circle():
    assert sph.arc_length(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_arc_length_same_point_is_zero():
    assert sph.arc_length(E3, E3) == 0.0


def test_arc_length_antipodal_raises():
    with pytest.raises(ValueError, match="antipodal"):
        sph.arc_length(E1, -E1)


def test_arc_length_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        sph.arc_length(2.0 * E1, E2)


def test_arc_length_small_angle_accuracy():
    ang = 1e-8
    q = np.array([math.cos(ang), math.sin(ang), 0.0])
    # acos of the dot would lose every digit here (cos 1e-8 rounds to 1);
    # atan2 of |p x q| and p . q keeps full relative accuracy
    assert sph.arc_length(E1, q) == pytest.approx(ang, rel=1e-12)


# ------------------------------------------------------------------- angles

def test_interior_angle_octant_corner():
    assert sph.interior_angle(E3, E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_interior_angle_tiny_angle_atan2_accuracy():
    # two directions 1e-7 apart as seen from the vertex; arccos of the dot
    # would lose half the digits, atan2 must keep full relative accuracy
    eps = 1e-7
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([math.cos(eps), math.sin(eps), 0.0])
    got = sph.interior_angle(E3, u, w)
    assert got == pytest.approx(eps, rel=1e-9)


def test_interior_angle_degenerate_neighbor_raises():
    with pytest.raises(ValueError, match="angle undefined"):
        sph.interior_angle(E3, E3, E1)
    with pytest.raises(ValueError, match="angle undefined"):
        sph.interior_angle(E3, -E3, E1)


# --------------------------------------------------------------------- arcs

def test_arc_rejects_equal_and_antipodal():
    with pytest.raises(ValueError):
        sph.GeodesicArc(E1, E1)
    with pytest.raises(ValueError):
        sph.GeodesicArc(E1, -E1)


def test_equator_pole():
    npt.assert_allclose(sph.equator_pole(sph.GeodesicArc(E1, E2)), E3, atol=1e-15)


# ----------------------------------------------------------------- polygons

def test_octant_triangle_excess():
    tri = sph.GeodesicPolygon((E1, E2, E3))
    npt.assert_allclose(tri.interior_angles(), [math.pi / 2] * 3, atol=1e-15)
    assert sph.spherical_excess(tri) == pytest.approx(math.pi / 2, abs=1e-14)


def test_excess_orientation_invariant():
    tri_ccw = sph.GeodesicPolygon((E1, E2, E3))
    tri_cw = sph.GeodesicPolygon((E3, E2, E1))
    assert sph.spherical_excess(tri_ccw) == pytest.approx(
        sph.spherical_excess(tri_cw), abs=1e-14)


def test_random_triangle_excess_matches_side_length_oracle():
    rng = np.random.default_rng(20240311)
    for _ in range(50):
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        pts = [random_cap_point(rng, center, 0.6) for _ in range(3)]
        if min(np.linalg.norm(pts[i] - pts[(i + 1) % 3]) for i in range(3)) < 1e-3:
            continue
        tri = sph.GeodesicPolygon(tuple(pts))
        a = sph.arc_length(pts[0], pts[1])
        b = sph.arc_length(pts[1], pts[2])
        c = sph.arc_length(pts[2], pts[0])
        assert sph.spherical_excess(tri) == pytest.approx(
            lhuilier_excess(a, b, c), rel=1e-9, abs=1e-12)


def test_polygon_rejects_fewer_than_three_vertices():
    with pytest.raises(ValueError, match="at least 3"):
        sph.GeodesicPolygon((E1, E2))


def test_polygon_rejects_coincident_vertices():
    with pytest.raises(ValueError, match="coincident"):
        sph.GeodesicPolygon((E1, E2, E1, E3))


def test_polygon_rejects_ring_outside_hemisphere():
    # a ring girdling the sphere fits in no open hemisphere; the zigzag in
    # x3 keeps every vertex pair away from the antipodal degeneracy
    ring = tuple(sph.unit(np.array(v)) for v in
                 ((1, 0, 0.1), (0, 1, -0.1), (-1, 0, 0.1), (0, -1, -0.1)))
    with pytest.raises(ValueError, match="hemisphere"):
        sph.GeodesicPolygon(ring)


def test_polygon_rejects_bowtie():
    # swapping two vertices of a convex quadrilateral makes the edges cross
    quad = [sph.unit(np.array(v)) for v in
            ((1.0, -0.3, 1.0), (1.0, 0.3, 1.0), (-0.3, 1.0, 1.0), (0.3, 1.0, 1.0))]
    sph.GeodesicPolygon((quad[0], quad[1], quad[3], quad[2]))
    with pytest.raises(ValueError, match="cross"):
        sph.GeodesicPolygon(tuple(quad))


def chart(*xy):
    """Points of the tangent plane at (1, 2, 3)/|.| mapped to the sphere by
    central projection, which keeps segments on great circles."""
    center = sph.unit(np.array([1.0, 2.0, 3.0]))
    t1 = sph.unit(np.cross(center, [0.0, 0.0, 1.0]))
    t2 = np.cross(center, t1)
    return tuple(sph.unit(center + 0.4 * (x * t1 + y * t2)) for x, y in xy)


def test_polygon_rejects_vertex_on_edge():
    with pytest.raises(ValueError, match="cross"):
        sph.GeodesicPolygon((E1, E2, MID, E3))
    # a chart pentagon whose vertex 3 lies inside the edge (0, 1)
    with pytest.raises(ValueError, match="edges cross"):
        sph.GeodesicPolygon(chart((0, 0), (1, 0), (1.5, -1), (0.5, 0), (1, 2)))


def test_polygon_rejects_fold_back_as_fold_back():
    # the polygon turns back along the edge it came in on and stops short
    # of the vertex before (MID on edge E1 E2), or runs past it (MID on
    # edge E2 E1); the fold-back test runs before the crossing tests
    for pts in ((E1, E2, MID, E3), (MID, E2, E1, E3)):
        with pytest.raises(ValueError, match="fold-back"):
            sph.GeodesicPolygon(pts)


def test_check_polygons_precedence():
    # a stack fails at its lowest failing polygon: row 1, a bowtie, before
    # row 2, a fold-back
    square = chart((0, 0), (1, 0), (1, 1), (0, 1))
    bowtie = chart((0, 0), (1, 1), (1, 0), (0, 1))
    fold = chart((0, 0), (2, 0), (1, 0), (1, 1))
    with pytest.raises(sph.RowError, match="^polygon edges cross$") as exc:
        sph._check_polygons(np.array([square, bowtie, fold]))
    assert exc.value.row == 1
    # vertex 2 of fold lies on edge 0: the fold-back test and the crossing
    # test of edges 0 and 2 both fail at vertex 0, and the fold-back test
    # goes first
    with pytest.raises(sph.RowError, match="fold-back"):
        sph._check_polygons(np.array([fold]))
    # edges 0 and 2 of hexagon cross, and it folds back at vertex 3: the
    # lowest vertex whose tests fail decides the message
    hexagon = chart((0, 0), (2, 0), (2, 2), (1, -1), (1, -3), (1, -2))
    for start, message in ((0, "^polygon edges cross$"), (3, "fold-back")):
        with pytest.raises(sph.RowError, match=message):
            sph._check_polygons(np.array([hexagon[start:] + hexagon[:start]]))


def rotations_and_reversals(pts):
    """Every cyclic order of pts in both directions."""
    return [seq[r:] + seq[:r] for seq in (pts, pts[::-1])
            for r in range(len(pts))]


def test_polygon_allows_straight_through_vertex():
    # the great circles of two non-adjacent edges meet at a vertex of one of
    # them, whose antipode is no crossing
    for pts in rotations_and_reversals((E1, MID, E2, E3)):
        poly = sph.GeodesicPolygon(pts)
        assert sph.spherical_excess(poly) == pytest.approx(math.pi / 2,
                                                           abs=1e-12)


def test_polygon_allows_vertex_on_circle_of_far_edge():
    # vertex 3 lies on the great circle of the non-adjacent edge (0, 1),
    # beyond vertex 1; three triangles tile the pentagon
    pts = chart((0, 0), (1, 0), (1.5, -1), (2, 0), (1, 2))
    want = sum(lhuilier_excess(sph.arc_length(pts[i], pts[j]),
                               sph.arc_length(pts[j], pts[m]),
                               sph.arc_length(pts[m], pts[i]))
               for i, j, m in ((0, 1, 4), (1, 3, 4), (1, 2, 3)))
    for order in rotations_and_reversals(tuple(range(5))):
        poly = sph.GeodesicPolygon(tuple(pts[i] for i in order))
        assert sph.spherical_excess(poly) == pytest.approx(want, abs=1e-12)


def test_thin_triangle_excess_small_but_positive():
    q = sph.unit(np.array([1.0, 1.0, 1e-3]))
    tri = sph.GeodesicPolygon((E1, E2, q))
    ex = sph.spherical_excess(tri)
    assert 0.0 < ex <= 1e-3


def test_random_convex_quadrilateral_angle_sum_exceeds_two_pi():
    # the angle-sum identity sum = 2*pi + area on convex draws; darts, with
    # a reflex vertex, are tested against L'Huilier below
    rng = np.random.default_rng(90125)
    made = 0
    while made < 50:
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        pts = [random_cap_point(rng, center, 0.55) for _ in range(4)]
        # sort by azimuth around the cap center so the loop is simple
        t1 = np.cross(center, [0.0, 0.0, 1.0] if abs(center[2]) < 0.9 else [1.0, 0.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(center, t1)
        ang = [math.atan2(float(p @ t2), float(p @ t1)) for p in pts]
        quad = tuple(pts[i] for i in np.argsort(ang))
        if min(np.linalg.norm(quad[i] - quad[(i + 1) % 4]) for i in range(4)) < 1e-2:
            continue
        sides = [float(np.cross(quad[i], quad[(i + 1) % 4]) @ quad[(i + 2) % 4])
                 for i in range(4)]
        sides += [float(np.cross(quad[i], quad[(i + 1) % 4]) @ quad[(i + 3) % 4])
                  for i in range(4)]
        if min(sides) < 1e-6 and max(sides) > -1e-6:
            continue  # not strictly convex in one orientation
        try:
            poly = sph.GeodesicPolygon(quad)
        except ValueError:
            continue  # nearly collinear draw
        made += 1
        assert sum(poly.interior_angles()) > 2.0 * math.pi


def test_nonconvex_quadrilateral_excess_matches_two_triangles():
    # a dart (tip, wing, notch, wing) drawn in the tangent plane at a cap
    # centre and mapped to the sphere by central projection, which keeps
    # segments on great circles: the notch lies inside the triangle of the
    # other three, so it is the one reflex vertex, and the diagonal
    # tip-notch splits the dart into two triangles
    rng = np.random.default_rng(4417)
    for _ in range(100):
        center = sph.unit(rng.normal(size=3))
        t1 = sph.unit(np.cross(center, rng.normal(size=3)))
        t2 = np.cross(center, t1)
        scale = rng.uniform(0.02, 1.5)
        tip, left, right = (rng.uniform(-1.0, 1.0, 2) for _ in range(3))
        (ux, uy), (vx, vy) = left - tip, right - tip
        if abs(ux * vy - uy * vx) < 0.2:
            continue  # nearly flat outer triangle
        w = rng.uniform(0.1, 1.0, 3)
        notch = (w[0] * tip + w[1] * left + w[2] * right) / w.sum()
        tip, left, notch, right = (
            sph.unit(center + scale * (x * t1 + y * t2))
            for x, y in (tip, left, notch, right))
        want = sum(lhuilier_excess(sph.arc_length(p, q), sph.arc_length(q, r),
                                   sph.arc_length(r, p))
                   for p, q, r in ((tip, left, notch), (tip, notch, right)))
        dart = (tip, left, notch, right)
        for pts in (dart, dart[::-1], dart[2:] + dart[:2]):
            got = sph.spherical_excess(sph.GeodesicPolygon(pts))
            assert got == pytest.approx(want, abs=1e-10)


# ------------------------------------------------------------ two-arc audit

def make_audit_config(theta, phi_p, phi_q):
    """Base quarter-ish arc on the equator plus a second plane built from
    one chosen point on each bounding meridian."""
    p1 = E1
    q1 = np.array([math.cos(theta), math.sin(theta), 0.0])
    pole = sph.unit(np.cross(p1, q1))
    nu_p = sph.unit(np.cross(p1, pole))
    nu_q = sph.unit(np.cross(q1, pole))
    x_p = math.cos(phi_p) * pole + math.sin(phi_p) * p1
    x_q = math.cos(phi_q) * pole + math.sin(phi_q) * q1
    n2 = sph.unit(np.cross(x_p, x_q))
    return p1, q1, nu_p, nu_q, n2, x_p, x_q


def test_two_arc_audit_symmetric_frozen_values():
    p1, q1, nu_p, nu_q, n2, x_p, x_q = make_audit_config(
        math.pi / 2, math.pi / 4, math.pi / 4)
    rep = sph.two_arc_audit(p1, q1, nu_p, nu_q, n2)
    assert rep.alpha1 == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.beta1 == pytest.approx(math.pi / 2, abs=1e-12)
    # top angles are arccos(-1/sqrt(3)) each; excess is their sum minus pi
    top = math.acos(-1.0 / math.sqrt(3.0))
    assert rep.alpha2t == pytest.approx(top, abs=1e-12)
    assert rep.beta2t == pytest.approx(top, abs=1e-12)
    assert rep.excess == pytest.approx(1.230959417340775, abs=1e-12)
    assert rep.angle_sum == pytest.approx(rep.excess + 2.0 * math.pi, abs=1e-14)
    assert rep.infeasibility_witness


def test_two_arc_audit_crossings_recover_generators():
    # the second plane was built through x_p and x_q, so the meridian
    # crossings the audit finds must be exactly those generator points
    p1, q1, nu_p, nu_q, n2, x_p, x_q = make_audit_config(1.1, 0.4, 1.0)
    pole = sph.unit(np.cross(p1, q1))
    got_p = sph._meridian_plane_crossing(p1, pole, n2)
    got_q = sph._meridian_plane_crossing(q1, pole, n2)
    npt.assert_allclose(got_p, x_p, atol=1e-12)
    npt.assert_allclose(got_q, x_q, atol=1e-12)


def test_two_arc_audit_random_configs_always_witness():
    rng = np.random.default_rng(7121)
    for _ in range(100):
        theta = rng.uniform(0.2, math.pi - 0.2)
        phi_p = rng.uniform(0.1, math.pi / 2 - 0.05)
        phi_q = rng.uniform(0.1, math.pi / 2 - 0.05)
        p1, q1, nu_p, nu_q, n2, _, _ = make_audit_config(theta, phi_p, phi_q)
        rep = sph.two_arc_audit(p1, q1, nu_p, nu_q, n2)
        assert rep.infeasibility_witness
        assert rep.excess > 1e-9
        assert rep.alpha1 == pytest.approx(math.pi / 2, abs=1e-9)
        assert rep.beta1 == pytest.approx(math.pi / 2, abs=1e-9)
        assert rep.angle_sum == pytest.approx(rep.excess + 2 * math.pi, abs=1e-12)


def test_two_arc_audit_excess_splits_across_diagonal():
    rng = np.random.default_rng(3310)
    for _ in range(20):
        theta = rng.uniform(0.3, 2.5)
        p1, q1, nu_p, nu_q, n2, _, _ = make_audit_config(
            theta, rng.uniform(0.15, 1.4), rng.uniform(0.15, 1.4))
        rep = sph.two_arc_audit(p1, q1, nu_p, nu_q, n2)
        pole = sph.unit(np.cross(p1, q1))
        p2t = sph._meridian_plane_crossing(p1, pole, n2)
        q2t = sph._meridian_plane_crossing(q1, pole, n2)
        half1 = sph.spherical_excess(sph.GeodesicPolygon((p1, p2t, q1)))
        half2 = sph.spherical_excess(sph.GeodesicPolygon((p2t, q2t, q1)))
        assert rep.excess == pytest.approx(half1 + half2, abs=1e-10)


def test_two_arc_audit_rejects_non_orthogonal_contact():
    p1, q1, _, nu_q, n2, _, _ = make_audit_config(math.pi / 2, 0.5, 0.5)
    tilted = sph.unit(np.array([0.0, -1.0, 0.3]))
    with pytest.raises(ValueError, match="orthogonally"):
        sph.two_arc_audit(p1, q1, tilted, nu_q, n2)


def test_two_arc_audit_rejects_plane_meeting_base_arc():
    p1, q1, nu_p, nu_q, _, _, _ = make_audit_config(math.pi / 2, 0.5, 0.5)
    crossing = sph.unit(np.array([1.0, -1.0, 0.2]))  # separates p1 from q1
    with pytest.raises(ValueError, match="meets the closed base arc"):
        sph.two_arc_audit(p1, q1, nu_p, nu_q, crossing)
    touching = sph.unit(np.cross(p1, E3))  # contains the endpoint p1
    with pytest.raises(ValueError, match="meets the closed base arc"):
        sph.two_arc_audit(p1, q1, nu_p, nu_q, touching)


def test_two_arc_audit_rejects_plane_through_meridian_pole():
    p1, q1, nu_p, nu_q, _, _, _ = make_audit_config(math.pi / 2, 0.5, 0.5)
    # plane containing the base-circle pole e3, but with both endpoint signs
    # positive so the disjointness precheck passes
    n2 = sph.unit(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="pole"):
        sph.two_arc_audit(p1, q1, nu_p, nu_q, n2)


REPORT_FIELDS = ("alpha1", "beta1", "alpha2t", "beta2t", "angle_sum", "excess",
                 "infeasibility_witness")


def arc_lengths(u, v):
    """Minor-arc lengths between the rows of u and v, atan2(|u x v|, u . v)."""
    return np.arctan2(np.linalg.norm(np.cross(u, v), axis=1),
                      np.einsum("ij,ij->i", u, v))


def test_two_arc_audit_batch_equals_scalar_reference():
    # c07's 500 audits and 200 on each of seeds 1-10: each input frame is
    # orthonormal with det +1 and puts q1 at angle theta from p1; each
    # audit's excess is the L'Huilier excess of its quadrilateral's two
    # triangles; and row i of a batch is the single-row call on row i
    for seed, count in [(0, 500)] + [(seed, 200) for seed in range(1, 11)]:
        rng = np.random.default_rng(seed)
        inputs = _random_audit_inputs(rng, count)
        assert all(x.shape == (count, 3) for x in inputs)
        p1, q1, e2, nu_q, n2 = inputs
        # the frame (p1, e2, pole), with pole = q1 x nu_q since
        # nu_q = pole x q1 and pole is orthogonal to q1; rebuilt from two
        # inputs, the pole carries a few ulps of their rounding
        frame = np.stack([p1, e2, np.cross(q1, nu_q)], axis=2)
        npt.assert_allclose(frame.transpose(0, 2, 1) @ frame,
                            np.broadcast_to(np.eye(3), frame.shape),
                            rtol=0, atol=4e-15)
        npt.assert_allclose(np.linalg.det(frame), 1.0, rtol=0, atol=4e-15)
        # the draws per audit: a Gaussian matrix, theta, two heights
        rng = np.random.default_rng(seed)
        theta = np.empty(count)
        for i in range(count):
            rng.standard_normal((3, 3))
            theta[i] = rng.uniform(0.3, math.pi - 0.3)
            rng.uniform(0.15, 1.35)
            rng.uniform(0.15, 1.35)
        npt.assert_allclose(np.einsum("ij,ij->i", p1, q1), np.cos(theta),
                            rtol=0, atol=1e-15)

        batch = sph.two_arc_audit(*inputs)
        pole = sph.unit(np.cross(p1, q1))
        p2t = sph._meridian_plane_crossing(p1, pole, n2)
        q2t = sph._meridian_plane_crossing(q1, pole, n2)
        halves = [(arc_lengths(b, c), arc_lengths(c, a), arc_lengths(a, b))
                  for a, b, c in ((p1, p2t, q1), (p2t, q2t, q1))]
        want = [sum(lhuilier_excess(*(x[i] for x in sides))
                    for sides in halves) for i in range(count)]
        npt.assert_allclose(batch.excess, want, rtol=0, atol=1e-10)

        rows = list(zip(*(getattr(batch, f).tolist() for f in REPORT_FIELDS)))
        for i, row in enumerate(rows):
            one = sph.two_arc_audit(*(x[i] for x in inputs))
            assert tuple(getattr(one, f) for f in REPORT_FIELDS) == row
            assert type(one.excess) is float
            assert type(one.infeasibility_witness) is bool


def test_two_arc_audit_batch_raises_lowest_failing_audit():
    # audits 1 and 3 have different faults; audit 1's is found by a check
    # that runs after audit 3's, yet audit 1 is the one reported
    configs = [make_audit_config(theta, 0.5, 0.7)[:5]
               for theta in (0.8, 1.2, math.pi / 2, 2.0)]
    batch = [np.array(x) for x in zip(*configs)]
    batch[4][1] = sph.unit(np.array([1.0, 1.0, 0.0]))  # through the pole
    batch[2][3] = sph.unit(batch[2][3] + 0.3 * E3)      # contact tilted
    with pytest.raises(ValueError, match="meridian at its pole"):
        sph.two_arc_audit(*batch)
    batch[4][1] = configs[1][4]
    with pytest.raises(ValueError, match="orthogonally"):
        sph.two_arc_audit(*batch)
    batch[2][3] = configs[3][2]
    rep = sph.two_arc_audit(*batch)
    assert rep.excess.shape == (4,) and rep.infeasibility_witness.all()


def test_two_arc_audit_rejects_mismatched_inputs():
    p1, q1, nu_p, nu_q, n2, _, _ = make_audit_config(1.0, 0.5, 0.7)
    with pytest.raises(ValueError, match="one shape"):
        sph.two_arc_audit(np.array([p1, p1]), q1, nu_p, nu_q, n2)
    with pytest.raises(ValueError, match="one shape"):
        sph.two_arc_audit(*(np.empty((0, 3)) for _ in range(5)))
