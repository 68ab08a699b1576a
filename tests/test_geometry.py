"""Tests for conemin.geometry: cones, their normals, the cone-spec parser."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from conemin import geometry as geo
from oracles import contains, nearest_boundary_point


def test_pyramid_to_cone_normals():
    cone = geo.pyramid_to_cone(2.0, 1.0)
    assert len(cone.normals) == 4
    s5, s2 = math.sqrt(5.0), math.sqrt(2.0)
    expected = np.array([
        [2 / s5, 0, -1 / s5],
        [-2 / s5, 0, -1 / s5],
        [0, 1 / s2, -1 / s2],
        [0, -1 / s2, -1 / s2],
    ])
    # each entry is the closed form to the last bit, not just within 1e-15
    npt.assert_array_equal(cone.normals, expected)


def test_normals_are_read_only():
    for cone in (geo.pyramid_to_cone(1.0, 1.0), geo.wedge_above(1.0, 1),
                 geo.cone_from_dict({"halfspaces": [[0.0, 0.0, -2.0]]})):
        before = cone.normals.copy()
        with pytest.raises(ValueError):
            cone.normals[0, 0] = 1.0
        npt.assert_array_equal(cone.normals, before)


def test_contains_basic_points():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    assert contains(cone, [0, 0, 1])
    assert not contains(cone, [1, 0, 0.5])
    # boundary point within tolerance
    assert contains(cone, [1, 0, 1], tol=1e-12)


def test_contains_closed_under_positive_combinations():
    rng = np.random.default_rng(7)
    a, b = 0.7, 1.8
    cone = geo.pyramid_to_cone(a, b)
    # the section {x3 = 1} of the pyramid is the rectangle |x1| <= 1/a,
    # |x2| <= 1/b
    sec = np.array([[sx / a, sy / b, 1.0] for sx, sy in
                    ((1, 1), (-1, 1), (-1, -1), (1, -1))])
    for _ in range(100):
        w = rng.uniform(0, 1, size=sec.shape[0])
        lam = rng.uniform(0, 5)
        point = lam * (w @ sec)
        assert contains(cone, point, tol=1e-9)


def test_duplicate_halfspaces_are_removed():
    n = geo.unit([0.3, 0.4, -1.0])
    cone = geo.PolyhedralCone([n, geo.unit(n + 1e-13 * np.array([1.0, 0, 0]))])
    assert len(cone.normals) == 1


def test_empty_interior_rejected():
    with pytest.raises(ValueError, match="interior"):
        geo.PolyhedralCone([
            np.array([0.0, 0.0, 1.0]),
            np.array([0.0, 0.0, -1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([-1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, -1.0, 0.0]),
        ])


def test_is_vertex_cases():
    assert geo.is_vertex(geo.pyramid_to_cone(1.0, 1.0))
    wedge_cone = geo.wedge_above(1.0, 1)
    assert not geo.is_vertex(wedge_cone)
    half = geo.PolyhedralCone([np.array([0.0, 0.0, -1.0])])
    assert not geo.is_vertex(half)
    with pytest.raises(ValueError, match="at least one"):
        geo.PolyhedralCone([])


def test_cone_dict_roundtrip():
    cone = geo.pyramid_to_cone(1.5, 0.8)
    again = geo.cone_from_dict(
        {"halfspaces": [list(n) for n in cone.normals]})
    npt.assert_allclose(again.normals, cone.normals, atol=1e-15)
    pyr = geo.cone_from_dict({"pyramid": {"a": 1.5, "b": 0.8}})
    npt.assert_allclose(pyr.normals, cone.normals, atol=1e-15)


def test_halfspace_errors_name_the_halfspace():
    with pytest.raises(ValueError, match="^halfspace 1: cannot normalize"):
        geo.PolyhedralCone([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("spec, message", [
    ({"pyramid": {"a": 1}}, "fields a, b"),
    ({"pyramid": {"a": 1, "b": True}}, "field 'b' must be a finite number"),
    ({"halfspaces": []}, "nonempty list of 3-vectors"),
    ({"halfspaces": [[0, 0, -1]], "extra": 1}, "unknown field 'extra'"),
])
def test_cone_from_dict_rejects(spec, message):
    with pytest.raises(ValueError, match=message):
        geo.cone_from_dict(spec)


# ------------------------------------------------------ open-hemisphere slack

def linprog_slack(points):
    """The margin as the linear program max t subject to v_i . n >= t,
    |n|_inf <= 1, 0 <= t <= 1, solved by HiGHS."""
    from scipy.optimize import linprog

    m = points.shape[0]
    res = linprog([0.0, 0.0, 0.0, -1.0],
                  A_ub=np.hstack([-points, np.ones((m, 1))]),
                  b_ub=np.zeros(m), bounds=[(-1, 1)] * 3 + [(0, 1)],
                  method="highs")
    assert res.success
    return float(res.x[3])


def test_open_hemisphere_slack_matches_linprog():
    rng = np.random.default_rng(2024)
    interior = 0
    for _ in range(2000):
        points = rng.standard_normal((int(rng.integers(1, 9)), 3))
        points *= rng.choice([0.1, 1.0, 3.0])
        expect = linprog_slack(points)
        assert geo.open_hemisphere_slack(points) == pytest.approx(
            expect, abs=1e-12)
        interior += 0.0 < expect < 1.0
    assert interior > 500  # the comparison is not all clipped 0s and 1s


def test_open_hemisphere_slack_closed_forms():
    e = np.eye(3)
    assert geo.open_hemisphere_slack(e) == 1.0
    assert geo.open_hemisphere_slack(np.array([e[0], -e[0]])) == 0.0
    # a single point v: n = sign(v) gives the margin |v|_1
    for v in ([0.2, -0.3, 0.1], [0.0, 0.0, -0.25], [1.0, 2.0, -3.0],
              [0.5, 0.5, 0.0]):
        assert geo.open_hemisphere_slack(np.array([v])) == pytest.approx(
            min(1.0, float(np.sum(np.abs(v)))), abs=1e-15)
    # a great circle's points fit in no open hemisphere, a cap's do
    t = np.linspace(0.0, 2.0 * math.pi, 7)[:-1]
    ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    assert geo.open_hemisphere_slack(ring) == 0.0
    assert geo.open_hemisphere_slack(ring + [0.0, 0.0, 0.1]) == pytest.approx(
        0.1, abs=1e-15)


def test_open_hemisphere_slack_blocks_agree(monkeypatch):
    rng = np.random.default_rng(5)
    sets = [0.1 * rng.standard_normal((12, 3)) + [0.0, 0.0, shift]
            for shift in (0.0, 0.25, 0.5)]
    whole = [geo.open_hemisphere_slack(p) for p in sets]
    # a few directions per block: every block boundary is crossed
    monkeypatch.setattr(geo, "HEMISPHERE_BLOCK", 40)
    assert [geo.open_hemisphere_slack(p) for p in sets] == whole
    assert whole[0] == 0.0 < whole[1] < whole[2] < 1.0


def test_open_hemisphere_slack_of_a_stack_is_each_sets(monkeypatch):
    # a (b, m, 3) stack gives each set's margin bit for bit, in one block
    # and, with a few directions per block, across block boundaries
    rng = np.random.default_rng(11)
    stacks = [0.3 * rng.standard_normal((40, m, 3)) + [0.0, 0.0, 0.2]
              for m in (1, 2, 3, 4, 6, 12)]
    want = [[geo.open_hemisphere_slack(p) for p in sets] for sets in stacks]
    assert all(any(0.0 < t < 1.0 for t in w) for w in want)
    assert 0.0 in want[-1]  # some sets of twelve fit in no open hemisphere
    for block in (geo.HEMISPHERE_BLOCK, 40):
        monkeypatch.setattr(geo, "HEMISPHERE_BLOCK", block)
        got = [geo.open_hemisphere_slack(sets) for sets in stacks]
        assert [g.shape for g in got] == [(40,)] * len(stacks)
        assert [g.tolist() for g in got] == want


def test_two_halfspace_wedge_builds():
    cone = geo.wedge_above(0.5, 0)
    assert len(cone.normals) == 2
    assert contains(cone, [0.0, 3.0, 1.0])
    assert not contains(cone, [3.0, 0.0, 1.0])


@pytest.mark.parametrize("normals, keys, rays", (
    (geo.pyramid_to_cone(1.0, 1.0).normals, [(0, 2), (0, 3), (1, 2), (1, 3)],
     [True] * 4),
    (geo.wedge_above(1.0, 1).normals, [(0, 1)], [False]),
    ([[0.0, 0.0, -1.0]], [], [])), ids=("C11", "wedge", "halfspace"))
def test_face_table_rows(normals, keys, rays):
    # the faces list the facets, then the edges of facets i < j; the row
    # map points each edge at its face row and holds -1 elsewhere
    cone = geo.PolyhedralCone(normals)
    lines, ray, faces, row = cone.face_table
    k = len(cone.normals)
    want_faces = [[i, -1] for i in range(k)] + [list(e) for e in keys]
    assert faces.tolist() == want_faces
    assert ray.tolist() == rays and lines.shape == (len(keys), 3)
    want = np.full((k, k), -1)
    for r, (i, j) in enumerate(keys):
        want[i, j] = k + r
        npt.assert_allclose(np.abs(lines[r]), np.abs(geo.unit(np.cross(
            cone.normals[i], cone.normals[j]))), rtol=0.0, atol=1e-15)
        assert np.max(cone.normals @ lines[r]) <= 1e-12
    assert row.tolist() == want.tolist()
    assert not any(t.flags.writeable for t in cone.face_table)


@pytest.mark.parametrize("cone", (geo.pyramid_to_cone(1.0, 1.0),
                                  geo.pyramid_to_cone(0.5, 2.0),
                                  geo.wedge_above(1.0, 1)),
                         ids=("C11", "C05_2", "wedge"))
def test_nearest_point_matches_brute_force(cone):
    rng = np.random.default_rng(17)
    normals = cone.normals
    # points of the boundary: the apex, points on every edge, and the
    # brute-force nearest boundary points of random points, most of them
    # inside a facet
    lines, ray = cone.face_table[:2]
    on_edges = [t * d for d, r in zip(lines, ray)
                for t in ((0.3, 1.0) if r else (-1.0, -0.2, 0.3, 1.0))]
    on_facets = [nearest_boundary_point(cone, y)[0]
                 for y in rng.standard_normal((60, 3))]
    boundary = np.array([np.zeros(3)] + on_edges + on_facets)
    p, _ = geo.nearest_point(boundary, cone)
    npt.assert_allclose(p, boundary, rtol=0.0, atol=1e-15)

    # points off the boundary: 1e-3 and 1e-2 out along each facet normal
    # the point lies on, Gaussian noise of the same sizes, random points
    off = [b + s * n for b in boundary for n in normals
           if abs(n @ b) <= 1e-12 for s in (1e-3, 1e-2)]
    off += [b + s * rng.standard_normal(3) for b in boundary
            for s in (1e-3, 1e-2)]
    x = np.concatenate([np.array(off), rng.standard_normal((200, 3))])
    p, face = geo.nearest_point(x, cone)
    outside = np.max(x @ normals.T, axis=1) > geo.CONTAIN_TOL
    assert outside.sum() > len(x) // 3
    for xi, pi, (f, f2), out in zip(x, p, face.tolist(), outside):
        want, dist = nearest_boundary_point(cone, xi)
        assert abs(np.linalg.norm(xi - pi) - dist) <= 1e-12
        if out:  # the nearest point of the cone is unique
            npt.assert_allclose(pi, want, rtol=0.0, atol=1e-12)
        # p lies in the cone, on the planes of its face
        assert np.max(normals @ pi) <= geo.CONTAIN_TOL
        assert abs(normals[f] @ pi) <= 1e-12
        if f2 >= 0:
            assert cone.face_table[3][f, f2] >= 0
            assert abs(normals[f2] @ pi) <= 1e-12
