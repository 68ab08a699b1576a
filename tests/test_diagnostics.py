"""Tests for conemin.diagnostics: origin distance, density ratios,
conical deviation, and boundary angle audits."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conemin import descent as dsc
from conemin import diagnostics as diag
from conemin import geometry as geo
from conemin import mesh as msh
from oracles import (annulus_inverse_cube_integral,
                     brute_point_triangle_distance, circle_segment_area,
                     shoelace)


def planar_sector_mesh(b, R=1.0, resolution=24):
    """Exact planar cone mesh: the initial-plane fan with its apex vertex
    moved back to the origin, so every triangle plane passes through 0."""
    cone = geo.pyramid_to_cone(1.0, b)
    m = dsc.make_initial_plane(cone, R, resolution)
    m.vertices[0] = 0.0
    return m


def pyramid_lateral_mesh(a, b, z_max=2.0, n=40):
    """Triangulate the two facets x3 = a|x1| of C_{a,b} up to height z_max.

    Exact cone surface through the origin: every triangle plane contains
    the origin, so x . nu vanishes identically on it.
    """
    rows = []
    zs = np.linspace(0.0, z_max, n + 1)
    for z in zs:
        y = np.linspace(-z / b, z / b, n + 1)
        x = np.full(n + 1, z / a)
        rows.append(np.column_stack([x, y, np.full(n + 1, z)]))
    verts = np.concatenate(rows)
    tris = []
    for i in range(n):
        r0, r1 = i * (n + 1), (i + 1) * (n + 1)
        for j in range(n):
            tris.append((r0 + j, r1 + j, r1 + j + 1))
            tris.append((r0 + j, r1 + j + 1, r0 + j + 1))
    tris = np.array(tris, dtype=np.int64)
    cls = np.zeros(len(verts), dtype=np.int64)
    return msh.TriMesh(verts, tris, cls)


def offset_plane_mesh(half=3.0, n=160):
    """Uniform triangulated square patch of the plane {x3 = 1}."""
    g = np.linspace(-half, half, n + 1)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.ones(xx.size)])
    i0 = np.arange(n)[:, None] * (n + 1) + np.arange(n)[None, :]
    v00 = i0.ravel()
    v10 = v00 + (n + 1)
    tris = np.concatenate([np.column_stack([v00, v10, v10 + 1]),
                           np.column_stack([v00, v10 + 1, v00 + 1])])
    cls = np.zeros(len(verts), dtype=np.int64)
    return msh.TriMesh(verts, tris.astype(np.int64), cls)


# ---------------------------------------------------------------- vertex_distance

def test_vertex_distance_initial_plane_equals_offset():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    for res in (8, 32):
        m = dsc.make_initial_plane(cone, 1.0, res)
        assert diag.vertex_distance(m) == pytest.approx(1.0 / (4 * res),
                                                        rel=1e-12)


def test_vertex_distance_translated_mesh_brute_force():
    rng = np.random.default_rng(7)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 6)
    for _ in range(5):
        shifted = m.copy()
        shifted.vertices = m.vertices + rng.uniform(0.5, 2.0, 3)
        got = diag.vertex_distance(shifted)
        origin = np.zeros(3)
        brute = min(
            brute_point_triangle_distance(origin, *shifted.vertices[t])
            for t in shifted.triangles)
        assert got == pytest.approx(brute, abs=1e-12)


def test_vertex_distance_handles_degenerate_triangle():
    verts = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    m = msh.TriMesh(verts, tris, np.zeros(3, dtype=np.int64))
    assert diag.vertex_distance(m) == pytest.approx(1.0, abs=1e-14)


def unpruned_vertex_distance(m):
    return float(np.min(diag._point_triangle_distances(*m.triangle_corners())))


def test_vertex_distance_pruned_equals_unpruned_on_jittered_meshes():
    rng = np.random.default_rng(23)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    for _ in range(60):
        m = dsc.make_initial_plane(cone, 1.0, int(rng.integers(3, 25)))
        m.vertices += rng.choice([1e-3, 0.03, 0.2]) * rng.standard_normal(
            m.vertices.shape)
        m.vertices += rng.uniform(-0.3, 0.3, 3)
        assert diag.vertex_distance(m) == unpruned_vertex_distance(m)


def test_vertex_distance_large_triangle_nearer_than_its_corners():
    # the big triangle's corners are 10 away but its interior passes 0.5
    # from the origin; the small triangles have corners at distance ~1
    verts = np.array([[-10.0, -10.0, 0.5], [10.0, -10.0, 0.5],
                      [0.0, 10.0, 0.5],
                      [1.0, 0.0, 0.0], [1.1, 0.0, 0.0], [1.0, 0.1, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 1.1, 0.0], [0.0, 1.0, 0.1]])
    tris = np.array([[3, 4, 5], [6, 7, 8], [0, 1, 2]])
    m = msh.TriMesh(verts, tris, np.zeros(9, dtype=np.int64))
    assert diag.vertex_distance(m) == unpruned_vertex_distance(m) == 0.5


def test_vertex_distance_pruned_with_degenerate_triangles():
    verts = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0],
                      [0.0, 2.0, 0.0], [0.0, 3.0, 1e-9], [0.0, 4.0, 0.0],
                      [5.0, 5.0, 5.0], [6.0, 5.0, 5.0], [5.0, 6.0, 5.0]])
    # a collinear triangle, a sliver and a far triangle the bound drops
    tris = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    m = msh.TriMesh(verts, tris, np.zeros(9, dtype=np.int64))
    assert diag.vertex_distance(m) == unpruned_vertex_distance(m) == 1.0


def test_vertex_distance_pruning_keeps_near_collinear_triangles():
    # corners 10 away and collinear to rounding: the kernel's plane candidate
    # uses a normal made of rounding noise and reads 0.14, under the bound
    # 9.39; pruning must keep the triangle and give the kernel's minimum
    sliver = [[float.fromhex(x) for x in corner] for corner in (
        ("-0x1.ef7c52dedce8ep-2", "0x1.3dc86415ed043p+3", "-0x1.12269e70bee69p+0"),
        ("-0x1.1f92b1b954754p-1", "0x1.5142567a14580p+3", "-0x1.0cbe45fc801adp+0"),
        ("-0x1.15759299abbffp-1", "0x1.4c504c1e76cb2p+3", "-0x1.0e1dc9f24e380p+0"))]
    verts = np.array(sliver + [[1.0, 0.0, 0.0], [1.1, 0.0, 0.0],
                               [1.0, 0.1, 0.0]])
    m = msh.TriMesh(verts, np.array([[3, 4, 5], [0, 1, 2]]),
                    np.zeros(6, dtype=np.int64))
    assert diag.vertex_distance(m) == unpruned_vertex_distance(m) < 1.0


def test_vertex_distance_zero_when_origin_on_surface():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 16)
    m.vertices[0] = 0.0  # the apex vertex at the origin
    assert diag.vertex_distance(m) == unpruned_vertex_distance(m) == 0.0
    # the origin inside a triangle, at none of its corners
    m = dsc.make_initial_plane(cone, 1.0, 16)
    m.vertices -= m.vertices[m.triangles[40]].mean(axis=0)
    assert diag.vertex_distance(m) == unpruned_vertex_distance(m)
    assert diag.vertex_distance(m) <= 1e-16


# ---------------------------------------------------------------- monotonicity

def test_monotonicity_constant_on_planar_sector_b1():
    m = planar_sector_mesh(1.0, resolution=64)
    radii = np.linspace(0.15, 0.95, 10)
    table = diag.monotonicity_ratio(m, radii)
    expect = math.atan(1.0)
    for r, p in table:
        assert p == pytest.approx(expect, abs=1e-3)


def test_monotonicity_constant_on_planar_sector_b2():
    m = planar_sector_mesh(2.0, resolution=64)
    radii = np.linspace(0.15, 0.95, 10)
    table = diag.monotonicity_ratio(m, radii)
    expect = math.atan(0.5)
    for r, p in table:
        assert p == pytest.approx(expect, abs=1e-3)


def test_monotonicity_ratio_whole_mesh_inside():
    # every triangle strictly inside B_r: p(r) = area / r^2 exactly
    m = planar_sector_mesh(1.0, R=0.5, resolution=16)
    m.clamp_radius = None
    area = msh.surface_area(m)
    table = diag.monotonicity_ratio(m, [2.0])
    assert table[0][1] == pytest.approx(area / 4.0, rel=1e-12)


def test_monotonicity_rejects_bad_radii():
    m = planar_sector_mesh(1.0, resolution=8)
    with pytest.raises(ValueError):
        diag.monotonicity_ratio(m, [-0.5, 0.7])
    with pytest.raises(ValueError):
        diag.monotonicity_ratio(m, [0.7, 0.5])
    with pytest.raises(ValueError):
        diag.monotonicity_ratio(m, [0.5, 1.5])


# ---------------------------------------------------------------- conical deviation

def test_deviation_zero_on_planar_sector():
    m = planar_sector_mesh(1.0, resolution=32)
    assert abs(diag.conical_deviation(m, 0.1, 0.9)) <= 1e-10


def test_deviation_zero_on_pyramid_lateral_surface():
    m = pyramid_lateral_mesh(1.0, 1.0)
    assert abs(diag.conical_deviation(m, 0.2, 1.5)) <= 1e-10
    m2 = pyramid_lateral_mesh(2.0, 0.5)
    assert abs(diag.conical_deviation(m2, 0.2, 1.5)) <= 1e-10


def test_deviation_dilation_invariance_for_cones():
    m = planar_sector_mesh(1.0, resolution=32)
    scaled = m.copy()
    scaled.vertices = m.vertices * 3.7
    scaled.clamp_radius = None
    assert abs(diag.conical_deviation(scaled, 0.37, 2.9)) <= 1e-10


def test_deviation_offset_plane_matches_quadrature():
    # plane {x3 = 1}: |x . nu| = 1, integrand 1/|x|^3 over the annulus shadow;
    # centroid-rule error scales as w^2, 5.4e-7 at this grid
    m = offset_plane_mesh(half=1.85, n=700)
    rho, r = 1.1, 2.0
    got = diag.conical_deviation(m, rho, r)
    want = annulus_inverse_cube_integral(rho, r)
    assert got == pytest.approx(want, abs=1e-6)


def test_deviation_offset_plane_coarse_grid_scaling():
    # quarter the width, quarter squared the error: order-2 behaviour
    rho, r = 1.1, 2.0
    want = annulus_inverse_cube_integral(rho, r)
    e_coarse = diag.conical_deviation(offset_plane_mesh(3.0, 160), rho, r) - want
    e_fine = diag.conical_deviation(offset_plane_mesh(3.0, 320), rho, r) - want
    assert abs(e_coarse) > abs(e_fine)
    assert abs(e_coarse / e_fine) == pytest.approx(4.0, rel=0.35)


def test_deviation_rejects_bad_window():
    m = planar_sector_mesh(1.0, resolution=8)
    with pytest.raises(ValueError):
        diag.conical_deviation(m, 0.9, 0.9)
    with pytest.raises(ValueError):
        diag.conical_deviation(m, -0.1, 0.5)


# ---------------------------------------------------------------- boundary angles

def test_boundary_angles_orthogonal_plane_in_wedge():
    cone = geo.wedge_above(1.0, 1).to_cone()
    m = dsc.make_initial_plane(cone, 1.0, 12)
    stats = diag.boundary_angle_audit(m, cone)
    assert stats.count > 0
    assert stats.min_deg == pytest.approx(90.0, abs=1e-6)
    assert stats.max_deg == pytest.approx(90.0, abs=1e-6)


def test_boundary_angles_tilted_plane_splits():
    # rotating the section plane by 10 degrees about x3 tilts the surface
    # against both facets of the wedge {x3 >= |x2|}; the triangle planes
    # meet the facets at 90 +- asin(sin(10 deg)/sqrt(2)) degrees
    cone = geo.wedge_above(1.0, 1).to_cone()
    m = dsc.make_initial_plane(cone, 1.0, 12)
    th = math.radians(10.0)
    rot = np.array([[math.cos(th), -math.sin(th), 0.0],
                    [math.sin(th), math.cos(th), 0.0],
                    [0.0, 0.0, 1.0]])
    tilted = m.copy()
    tilted.vertices = m.vertices @ rot.T
    # tilted free-boundary vertices no longer sit on the facet planes;
    # audit only needs edge endpoints near facets, so re-tag by residual
    stats = diag.boundary_angle_audit(tilted, cone)
    split = math.degrees(math.asin(math.sin(th) / math.sqrt(2.0)))
    angles = sorted(set(round(rec[2], 6) for rec in stats.records))
    assert angles == pytest.approx([90.0 - split, 90.0 + split], abs=1e-6)
    assert stats.min_deg == pytest.approx(90.0 - split, abs=1e-6)
    assert stats.max_deg == pytest.approx(90.0 + split, abs=1e-6)
    assert 80.0 < stats.min_deg < 85.0
    assert 95.0 < stats.max_deg < 100.0


def test_boundary_angles_min_norm_filter():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 16)
    full = diag.boundary_angle_audit(m, cone)
    trimmed = diag.boundary_angle_audit(m, cone, min_norm=0.5)
    assert trimmed.count < full.count
    assert trimmed.count > 0


def test_boundary_angles_error_without_free_boundary():
    # patch strictly inside the cone: no boundary edge touches a facet
    m = offset_plane_mesh(half=0.5, n=4)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    with pytest.raises(ValueError):
        diag.boundary_angle_audit(m, cone)


# ---------------------------------------------------------------- clip kernel

def clip(tris, s):
    """Run the batched kernel on a list of triangles against one radius."""
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    return diag._disk_clip(tris, np.full(len(tris), float(s)))


def test_clip_area_full_disk_inside_polygon():
    # square [-2, 2]^2 as two triangles, disk radius 0.5 at its centre
    sq = [[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]
    area, moment = clip([[sq[0], sq[1], sq[2]], [sq[0], sq[2], sq[3]]], 0.5)
    assert area.sum() == pytest.approx(math.pi * 0.25, rel=1e-14)
    npt.assert_allclose(moment.sum(axis=0), 0.0, atol=1e-15)


def test_clip_area_polygon_inside_disk():
    tri = np.array([[0.1, -0.2], [0.3, 0.05], [-0.15, 0.4]])
    area, moment = clip([tri], 5.0)
    want = shoelace(tri)
    assert area[0] == pytest.approx(want, rel=1e-14)
    npt.assert_allclose(moment[0] / area[0], tri.mean(axis=0), atol=1e-15)


def test_clip_area_disjoint():
    # the three sectors cancel to rounding
    area, moment = clip([[[2.0, 2.0], [3.0, 2.0], [2.0, 3.0]]], 1.0)
    assert area[0] == pytest.approx(0.0, abs=1e-15)
    npt.assert_allclose(moment[0], 0.0, atol=1e-15)


def test_clip_area_half_plane_cut():
    # unit square [0,1]^2 against the unit disk: a quarter disk
    sq = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    area, moment = clip([[sq[0], sq[1], sq[2]], [sq[0], sq[2], sq[3]]], 1.0)
    total = area.sum()
    assert total == pytest.approx(math.pi / 4, rel=1e-14)
    npt.assert_allclose(moment.sum(axis=0) / total,
                        [4.0 / (3.0 * math.pi)] * 2, rtol=1e-14)


def test_clip_random_half_plane_cuts_match_circle_segment():
    # a triangle with one edge on the chord line {x . u = d}, covering the
    # whole segment beyond it: area and moment of the circular segment
    rng = np.random.default_rng(19)
    for _ in range(200):
        s = rng.uniform(0.2, 2.0)
        d = rng.uniform(-0.99, 0.99) * s
        th = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(th), math.sin(th)])
        w = np.array([-u[1], u[0]])
        big = 4.0 * s
        tri = np.array([d * u - big * w, (d + big) * u, d * u + big * w])
        if rng.random() < 0.5:
            tri = tri[::-1]
        area, moment = clip([tri], s)
        assert area[0] == pytest.approx(circle_segment_area(s, d),
                                        rel=1e-12, abs=1e-14)
        want = 2.0 / 3.0 * (s * s - d * d) ** 1.5 * u
        npt.assert_allclose(moment[0], want, atol=1e-13 * s ** 3)


def test_clip_cw_chart_equals_ccw_chart():
    rng = np.random.default_rng(23)
    tris = rng.uniform(-1.5, 1.5, (300, 3, 2))
    s = rng.uniform(0.0, 1.6, 300)
    a_ccw, m_ccw = diag._disk_clip(tris, s)
    a_cw, m_cw = diag._disk_clip(tris[:, ::-1], s)
    npt.assert_allclose(a_cw, a_ccw, rtol=1e-13, atol=1e-15)
    npt.assert_allclose(m_cw, m_ccw, rtol=1e-13, atol=1e-15)
    assert np.all(a_ccw >= -1e-15)


# ---------------------------------------------------------------- regression pins

def test_deviation_plane_through_origin_is_zero():
    # a plane through the origin has zero offset everywhere; a rounding-level
    # clipped piece centred at the origin used to make this 0/0
    m = dsc.make_initial_plane(geo.pyramid_to_cone(1.0, 1.0), 1.0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diag.conical_deviation(m, 0.1, 0.5) == 0.0


def test_deviation_offset_plane_regression_pin():
    # the per-triangle exact clip that the batched kernel replaced gave
    # 2.5703635645431246 on this plane
    got = diag.conical_deviation(offset_plane_mesh(3.0, 160), 1.1, 2.0)
    assert got == pytest.approx(2.5703635645431246, rel=1e-12)


def test_monotonicity_exact_on_offset_plane():
    # plane {x3 = 1} meets B_r in a disk of radius sqrt(r^2 - 1)
    m = offset_plane_mesh(3.0, 160)
    for r, p in diag.monotonicity_ratio(m, np.linspace(1.05, 2.0, 8)):
        assert p == pytest.approx(math.pi * (r * r - 1.0) / (r * r),
                                  rel=0, abs=1e-12)
