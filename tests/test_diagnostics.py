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
from oracles import (annulus_inverse_cube_integral, ball_audits_unpruned,
                     brute_point_triangle_distance, circle_segment_area,
                     deviation_polar, lhuilier_excess, shoelace)


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


def test_vertex_distance_rejects_mesh_without_triangles():
    m = msh.TriMesh(np.eye(3), np.zeros((0, 3), dtype=np.int64),
                    np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="mesh has no triangles"):
        diag.vertex_distance(m)


def unpruned_vertex_distance(m):
    return float(np.min(diag._extents(*diag._corners(m.vertices,
                                                     m.triangles))[0]))


def test_vertex_distance_pruned_equals_unpruned_on_jittered_meshes():
    rng = np.random.default_rng(23)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    for _ in range(60):
        m = dsc.make_initial_plane(cone, 1.0, int(rng.integers(3, 25)))
        m.vertices += rng.choice([1e-3, 0.03, 0.2]) * rng.standard_normal(
            m.vertices.shape)
        m.vertices += rng.uniform(-0.3, 0.3, 3)
        assert diag.vertex_distance(m) == unpruned_vertex_distance(m)


def test_nearest_distances_batch_equals_each_mesh():
    # one exact pass over the kept corners of several meshes gives each
    # mesh its own distance; the meshes lie at different distances, so a
    # row counted in the wrong mesh shows
    rng = np.random.default_rng(5)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    meshes = []
    for _ in range(20):
        m = dsc.make_initial_plane(cone, 1.0, int(rng.integers(3, 12)))
        m.vertices += 0.03 * rng.standard_normal(m.vertices.shape)
        m.vertices += rng.uniform(-2.0, 2.0, 3)
        meshes.append(m)
    near = [diag._near_corners(m, msh.triangle_geometry(m).gram())
            for m in meshes]
    assert diag._nearest_distances(near) == [unpruned_vertex_distance(m)
                                             for m in meshes]


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
    # corners 10 away and collinear to rounding: a plane candidate built on
    # their noise normal read 0.14, under the bound 9.39; the kernel now
    # skips it, so the sliver's exact edge distance loses to the small
    # triangle's corner at distance 1
    sliver = [[float.fromhex(x) for x in corner] for corner in (
        ("-0x1.ef7c52dedce8ep-2", "0x1.3dc86415ed043p+3", "-0x1.12269e70bee69p+0"),
        ("-0x1.1f92b1b954754p-1", "0x1.5142567a14580p+3", "-0x1.0cbe45fc801adp+0"),
        ("-0x1.15759299abbffp-1", "0x1.4c504c1e76cb2p+3", "-0x1.0e1dc9f24e380p+0"))]
    verts = np.array(sliver + [[1.0, 0.0, 0.0], [1.1, 0.0, 0.0],
                               [1.0, 0.1, 0.0]])
    m = msh.TriMesh(verts, np.array([[3, 4, 5], [0, 1, 2]]),
                    np.zeros(6, dtype=np.int64))
    assert diag.vertex_distance(m) == unpruned_vertex_distance(m) == 1.0
    assert diag._extents(*verts[:3, None])[0][0] > 9.39


def vertex_edge_distances(a, b, c):
    """Distance from the origin to each triangle's corners and edges only,
    with the kernel's clamped projection and its coordinate-order dot
    products."""
    def dots(x, y):
        return x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1] + x[:, 2] * y[:, 2]

    def edge(p, q):
        d = q - p
        t = np.clip(-dots(p, d) / dots(d, d), 0.0, 1.0)
        return np.linalg.norm(p + t[:, None] * d, axis=1)

    return np.min([np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1),
                   np.linalg.norm(c, axis=1), edge(a, b), edge(a, c),
                   edge(b, c)], axis=0)


def near_collinear_triangles():
    """Corners (a, b, c) of 20,000 triangles 10 from the origin, collinear
    to 1e-17..1e-12."""
    rng = np.random.default_rng(31)
    n = 20000
    a = rng.standard_normal((n, 3))
    a *= 10.0 / np.linalg.norm(a, axis=1, keepdims=True)
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = rng.standard_normal((n, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    s, t = rng.uniform(0.05, 2.0, (2, n, 1))
    off = 10.0 ** rng.uniform(-17.0, -12.0, (n, 1))
    c = a + t * rng.choice([-1.0, 1.0], (n, 1)) * (u + off * w)
    return a, a + s * u, c


def test_point_triangle_distances_exact_on_near_collinear_triangles():
    # their cross product is rounding noise, so only corners and edges may
    # count
    a, b, c = near_collinear_triangles()
    got = diag._extents(a, b, c)[0]
    corners = np.linalg.norm(np.stack([a, b, c]), axis=2).min(axis=0)
    edges = np.linalg.norm(np.stack([b - a, c - a, c - b]), axis=2).max(axis=0)
    assert np.all(got >= corners - edges)
    npt.assert_array_equal(got, vertex_edge_distances(a, b, c))


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


# ---------------------------------------------------------------- memory layout

def as_planes(x):
    """The values of x as a view of contiguous coordinate planes: the
    last axis outermost in memory, the first innermost."""
    return np.ascontiguousarray(x.T).T


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()


def test_kernels_independent_of_memory_layout():
    # C-contiguous rows and coordinate-plane views of the same values give
    # the same bits, zero signs included: random triangles, the
    # near-collinear family above, and triangles with corners at +-0
    rng = np.random.default_rng(41)
    n = 6000
    a, b, c = rng.standard_normal((3, n, 3)) * rng.uniform(0.1, 3.0, (3, n, 1))
    sl = slice(0, n // 3)
    u = rng.standard_normal((n // 3, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = rng.standard_normal((n // 3, 3))
    off = 10.0 ** rng.uniform(-17.0, -12.0, (n // 3, 1))
    b[sl] = a[sl] + rng.uniform(0.05, 2.0, (n // 3, 1)) * u
    c[sl] = a[sl] + rng.uniform(-2.0, 2.0, (n // 3, 1)) * (u + off * w)
    a[n // 3:n // 2] = rng.choice([0.0, -0.0], (n // 6, 3))
    a, b, c = (np.ascontiguousarray(x) for x in (a, b, c))
    planes = [as_planes(x) for x in (a, b, c)]
    assert not planes[0].flags.c_contiguous
    rows = diag._extents(a, b, c)
    for got, want in zip(diag._extents(*planes), rows):
        assert_same_bits(got, want)
    nhat = np.ascontiguousarray(rows[3])
    charts = diag._charts(a, b, c, nhat)
    for got, want in zip(diag._charts(*planes, as_planes(nhat)), charts):
        assert_same_bits(got, want)
    # the distance bounds of the same triangles as a mesh, from C-contiguous
    # rows and from coordinate planes of its vertices, triangles and edges
    m = triangle_soup(a, b, c)
    m.triangles = np.ascontiguousarray(m.triangles)
    gram = [geo.row_dots(x, y) for x, y in (
        (b - a, b - a), (a - c, a - c), (c - b, c - b), (b - a, a - c))]
    rows = diag._distance_bounds(m, gram)
    m.vertices, m.triangles = as_planes(m.vertices), as_planes(m.triangles)
    planes_gram = msh.triangle_geometry(m).gram()
    for got, want in zip(diag._distance_bounds(m, planes_gram), rows):
        assert_same_bits(got, want)
    assert (rows[3] == 0).any() and (rows[3] > 0).any()
    pts = np.ascontiguousarray(charts[0])
    pts[rng.random(pts.shape) < 0.05] = 0.0
    pts[rng.random(pts.shape) < 0.05] = -0.0
    s = rng.uniform(0.0, 3.0, n)
    off = np.where(rng.random(n) < 0.05, 0.0, charts[1])
    for got, want in zip(diag._disk_clip(as_planes(pts), s, off),
                         diag._disk_clip(pts, s, off)):
        assert_same_bits(got, want)


# ---------------------------------------------------------------- bound-gated ball audits

def minimized_mesh(cone, resolution):
    m = dsc.make_initial_plane(cone, 1.0, resolution)
    cfg = dsc.MinimizeConfig(max_iters=30, grad_tol=1e-10, seed=3)
    return dsc.minimize(m, cone, cfg, jitter=0.05)[0]


def triangle_soup(a, b, c):
    """A mesh of the triangles (a[k], b[k], c[k]), sharing no vertex."""
    n = len(a)
    return msh.TriMesh(np.concatenate([a, b, c]),
                       np.arange(3 * n).reshape(3, n).T, np.zeros(3 * n, int))


def degenerate_soup():
    # collinear, repeated-corner and sliver triangles among whole ones,
    # with corners on both sides of every sphere below
    rng = np.random.default_rng(13)
    a = rng.uniform(-1.0, 1.0, (400, 3))
    b = a + 0.2 * rng.standard_normal((400, 3))
    c = a + 0.2 * rng.standard_normal((400, 3))
    c[:100] = a[:100] + rng.uniform(-1.0, 2.0, (100, 1)) * (b - a)[:100]
    c[100:200] = b[100:200]
    c[200:300] = a[200:300] + 0.5 * (b - a)[200:300] + 1e-13
    return triangle_soup(a, b, c)


def corner_norm_radii(m, k=10):
    """k increasing radii, each exactly a corner norm of m."""
    norms = np.unique(geo.row_norms(m.vertices))
    return [float(x) for x in norms[norms > 0][::len(norms) // k][:k]]


def linspace(lo, hi, k):
    return [float(r) for r in np.linspace(lo, hi, k)]


PYRAMID, WEDGE = geo.pyramid_to_cone(1.0, 1.0), geo.wedge_above(1.0, 1)
RADII = linspace(0.15, 0.95, 10)
WINDOWS = [(0.1, 0.5), (0.2, 0.9)]


def corner_norm_case():
    m = minimized_mesh(PYRAMID, 16)
    radii = corner_norm_radii(m)
    return m, radii, [(radii[0], radii[5]), (radii[2], radii[-1])]


AUDIT_CASES = {
    "pyramid r16": lambda: (minimized_mesh(PYRAMID, 16), RADII, WINDOWS),
    "pyramid r32": lambda: (minimized_mesh(PYRAMID, 32), RADII, WINDOWS),
    "wedge r16": lambda: (minimized_mesh(WEDGE, 16), RADII, WINDOWS),
    "wedge r32": lambda: (minimized_mesh(WEDGE, 32), RADII, WINDOWS),
    "offset plane": lambda: (offset_plane_mesh(3.0, 160),
                             linspace(1.05, 2.0, 8), [(1.1, 2.0), (1.05, 1.5)]),
    "sector apex at 0": lambda: (planar_sector_mesh(1.0, resolution=64),
                                 RADII, WINDOWS),
    "near collinear": lambda: (triangle_soup(*near_collinear_triangles()),
                               linspace(8.0, 12.0, 10),
                               [(9.0, 11.0), (9.5, 12.0)]),
    "degenerate": lambda: (degenerate_soup(), linspace(0.2, 1.6, 10),
                           [(0.3, 1.2), (0.5, 1.6)]),
    "corner norm radii": corner_norm_case,
    # the plane lies 1 from the origin: no sphere inside that meets it
    "no triangle cut": lambda: (offset_plane_mesh(3.0, 40), [0.5, 0.9],
                                [(0.5, 0.99)]),
}


@pytest.mark.parametrize("case", AUDIT_CASES)
def test_ball_audits_equal_unpruned(case):
    # only triangles whose distance bounds hold a sphere get an exact
    # nearest distance, and the table's cut triangles share one clip pass;
    # the table and every window's deviation must keep their bits
    m, radii, windows = AUDIT_CASES[case]()
    got = diag._ball_audits(m, radii, windows)
    assert got == ball_audits_unpruned(m, radii, windows)
    if case == "no triangle cut":
        assert got == ([(0.5, 0.0), (0.9, 0.0)], [0.0])


def test_ball_audits_one_clip_pass_and_fewer_exact_rows(monkeypatch):
    m = minimized_mesh(PYRAMID, 32)
    calls = {"_extents": [], "_disk_clip": []}

    def counted(name):
        def run(*args, kernel=getattr(diag, name)):
            calls[name].append(len(args[0]))
            return kernel(*args)
        return run

    for name in calls:
        monkeypatch.setattr(diag, name, counted(name))
    table = diag.monotonicity_ratio(m, RADII)
    assert len(calls["_disk_clip"]) == 1 and calls["_disk_clip"][0] > 0
    assert len(calls["_extents"]) == 1
    assert 0 < calls["_extents"][0] < m.n_triangles
    monkeypatch.undo()
    assert table == ball_audits_unpruned(m, RADII, ())[0]


@pytest.mark.parametrize("audit", (
    diag.vertex_distance,
    lambda m: diag.monotonicity_ratio(m, RADII),
    lambda m: diag.conical_deviation(m, 0.1, 0.5)),
    ids=("vertex_distance", "monotonicity_ratio", "conical_deviation"))
def test_audits_name_first_non_finite_vertex(audit):
    # the bounds and kernels would drop a NaN vertex's triangles and return
    # a finite number: the audit must fail and name the vertex
    m = dsc.make_initial_plane(PYRAMID, 1.0, 16)
    m.vertices[[120, 77], [0, 2]] = np.nan
    with pytest.raises(ValueError, match=r"^vertex 77 is not finite$"):
        audit(m)


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


def offset_plane_deviation(rho, r):
    """The deviation of the plane {x3 = 1} over (rho, r): the solid angle
    of the ring 1 <= |x| in the plane, 2π(1/rho − 1/r)."""
    return 2.0 * math.pi * (1.0 / rho - 1.0 / r)


def test_deviation_offset_plane_matches_quadrature():
    # plane {x3 = 1}: |x . nu| = 1, integrand 1/|x|^3 over the annulus
    # shadow; 980,000 triangles, the sums of whole and clipped ones exact
    m = offset_plane_mesh(half=1.85, n=700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = diag.conical_deviation(m, 1.1, 2.0)
    assert got == pytest.approx(annulus_inverse_cube_integral(1.1, 2.0),
                                rel=0, abs=1e-13)


def test_deviation_offset_plane_exact_on_coarse_grids():
    # whole and clipped triangles alike enter in closed form, so even the
    # coarsest grid reads the plane's value to rounding
    want = offset_plane_deviation(1.1, 2.0)
    for n in (4, 8, 16, 40):
        got = diag.conical_deviation(offset_plane_mesh(3.0, n), 1.1, 2.0)
        assert got == pytest.approx(want, rel=0, abs=1e-13)


@pytest.mark.parametrize("cone", (PYRAMID, WEDGE), ids=("pyramid", "wedge"))
def test_deviation_equals_polar_quadrature_on_jittered_mesh(cone):
    # an independent route: Gauss–Legendre in the angle about each
    # triangle's foot, arcs split where the ray's ends change; its measured
    # error on these meshes is at most 5e-16, and the gate allows 1e-13
    # (a centroid rule refined 4-way twice reads 6e-3 off on the pyramid)
    m = minimized_mesh(cone, 16)
    for rho, r in WINDOWS:
        assert diag.conical_deviation(m, rho, r) == pytest.approx(
            deviation_polar(m, rho, r), rel=0, abs=1e-13)


def test_deviation_rejects_bad_window():
    m = planar_sector_mesh(1.0, resolution=8)
    with pytest.raises(ValueError):
        diag.conical_deviation(m, 0.9, 0.9)
    with pytest.raises(ValueError):
        diag.conical_deviation(m, -0.1, 0.5)


# ---------------------------------------------------------------- boundary angles

def test_boundary_angles_orthogonal_plane_in_wedge():
    cone = geo.wedge_above(1.0, 1)
    m = dsc.make_initial_plane(cone, 1.0, 12)
    stats = diag.boundary_angle_audit(m, cone)
    assert stats.count > 0
    assert stats.min_deg == pytest.approx(90.0, abs=1e-6)
    assert stats.max_deg == pytest.approx(90.0, abs=1e-6)


def test_boundary_angles_tilted_plane_splits():
    # rotating the section plane by 10 degrees about x3 tilts the surface
    # against both facets of the wedge {x3 >= |x2|}; the triangle planes
    # meet the facets at 90 +- asin(sin(10 deg)/sqrt(2)) degrees
    cone = geo.wedge_above(1.0, 1)
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

def clip(tris, s, off=0.7):
    """Run the batched kernel on a list of triangles against one radius,
    in a plane at offset off from the origin."""
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    m = len(tris)
    return diag._disk_clip(tris, np.full(m, float(s)), np.full(m, float(off)))


def disk_solid_angle(s, d):
    """Solid angle of a disk of radius s seen from a distance d above its
    centre."""
    return 2.0 * math.pi * (1.0 - abs(d) / math.hypot(d, s))


def segment_solid_angle(s, t, d):
    """Solid angle of the part |x| <= s, x . u >= t of a plane seen from d
    above its origin: in polar coordinates about the origin, the radial
    integral leaves |d|/√(d² + t²/cos²θ) − |d|/√(d² + s²), integrated over
    |θ| <= acos(t/s) with sin θ as the variable."""
    if t < 0:
        return disk_solid_angle(s, d) - segment_solid_angle(s, -t, d)
    alpha = math.acos(t / s)
    return (2.0 * math.asin(abs(d) * math.sin(alpha) / math.hypot(d, t))
            - 2.0 * alpha * abs(d) / math.hypot(d, s))


def test_clip_area_full_disk_inside_polygon():
    # square [-2, 2]^2 as two triangles, disk radius 0.5 at its centre
    sq = [[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]
    for d in (0.7, -0.05, 3.0):
        area, omega = clip([[sq[0], sq[1], sq[2]], [sq[0], sq[2], sq[3]]],
                           0.5, d)
        assert area.sum() == pytest.approx(math.pi * 0.25, rel=1e-14)
        assert omega.sum() == pytest.approx(disk_solid_angle(0.5, d),
                                            rel=1e-14)


def test_clip_area_polygon_inside_disk():
    # the whole triangle: the spherical excess of its 3D corners (x, y, d),
    # from L'Huilier's theorem on the arcs between them
    tri = np.array([[0.1, -0.2], [0.3, 0.05], [-0.15, 0.4]])
    d = 0.3
    area, omega = clip([tri], 5.0, d)
    assert area[0] == pytest.approx(shoelace(tri), rel=1e-14)
    u = [np.array([x, y, d]) / math.hypot(x, y, d) for x, y in tri]
    arcs = [math.atan2(np.linalg.norm(np.cross(p, q)), p @ q)
            for p, q in ((u[1], u[2]), (u[0], u[2]), (u[0], u[1]))]
    assert omega[0] == pytest.approx(lhuilier_excess(*arcs), rel=1e-13)


def test_clip_area_disjoint():
    # the three sectors cancel to rounding
    area, omega = clip([[[2.0, 2.0], [3.0, 2.0], [2.0, 3.0]]], 1.0)
    assert area[0] == pytest.approx(0.0, abs=1e-15)
    assert omega[0] == pytest.approx(0.0, abs=1e-15)


def test_clip_area_half_plane_cut():
    # unit square [0,1]^2 against the unit disk: a quarter disk, the
    # sector of angle π/2 at the square's corner
    sq = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    for d in (0.7, 0.01, -2.0):
        area, omega = clip([[sq[0], sq[1], sq[2]], [sq[0], sq[2], sq[3]]],
                           1.0, d)
        assert area.sum() == pytest.approx(math.pi / 4, rel=1e-14)
        assert omega.sum() == pytest.approx(
            0.5 * math.pi * (1.0 - abs(d) / math.hypot(d, 1.0)), rel=1e-14)


def test_clip_random_half_plane_cuts_match_circle_segment():
    # a triangle with one edge on the chord line {x . u = t}, covering the
    # whole segment beyond it: area and solid angle of the circular segment
    rng = np.random.default_rng(19)
    for _ in range(200):
        s = rng.uniform(0.2, 2.0)
        t = rng.uniform(-0.99, 0.99) * s
        d = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(th), math.sin(th)])
        w = np.array([-u[1], u[0]])
        big = 4.0 * s
        tri = np.array([t * u - big * w, (t + big) * u, t * u + big * w])
        if rng.random() < 0.5:
            tri = tri[::-1]
        area, omega = clip([tri], s, d)
        assert area[0] == pytest.approx(circle_segment_area(s, t),
                                        rel=1e-12, abs=1e-14)
        assert omega[0] == pytest.approx(segment_solid_angle(s, t, d),
                                         rel=1e-12, abs=1e-14)


def test_clip_plane_missing_the_ball_adds_nothing():
    # B_r does not reach a plane at |d| >= r: _disk_radius gives s = 0,
    # and the sectors must weigh 0, not 1 - |d|/r < 0; triangles around
    # the foot and away from it alike
    rng = np.random.default_rng(29)
    tris = rng.uniform(-1.5, 1.5, (300, 3, 2))
    tris[:5] = [[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]
    off = rng.choice([-1.0, 1.0], 300) * rng.uniform(1.0, 3.0, 300)
    s = diag._disk_radius(1.0, off)
    assert np.all(s == 0.0)
    area, omega = diag._disk_clip(tris, s, off)
    assert np.all(omega == 0.0) and np.all(area == 0.0)


def test_clip_cw_chart_equals_ccw_chart():
    rng = np.random.default_rng(23)
    tris = rng.uniform(-1.5, 1.5, (300, 3, 2))
    s = rng.uniform(0.0, 1.6, 300)
    off = rng.uniform(-1.0, 1.0, 300)
    a_ccw, o_ccw = diag._disk_clip(tris, s, off)
    a_cw, o_cw = diag._disk_clip(tris[:, ::-1], s, off)
    npt.assert_allclose(a_cw, a_ccw, rtol=1e-13, atol=1e-15)
    npt.assert_allclose(o_cw, o_ccw, rtol=1e-13, atol=1e-15)
    assert np.all(a_ccw >= -1e-15) and np.all(o_ccw >= -1e-15)


def test_clip_corner_at_negative_zero_adds_no_half_disk():
    # a corner at (-0, -0) makes its edges' dot products -0, and
    # arctan2(+0, -0) = pi would add a half-disk sector: the clip is the
    # sector of the corner's angle alone
    s = 0.1
    area, _ = clip([[[-0.0, -0.0], [1.0, 0.2], [0.3, 1.0]]], s)
    want = 0.5 * s * s * (math.atan2(1.0, 0.3) - math.atan2(0.2, 1.0))
    assert want == pytest.approx(0.00540972, abs=1e-8)
    assert area[0] == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------- regression pins

def test_deviation_plane_through_origin_is_zero():
    # a plane through the origin has zero offset everywhere; a rounding-level
    # clipped piece centred at the origin used to make this 0/0
    m = dsc.make_initial_plane(geo.pyramid_to_cone(1.0, 1.0), 1.0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diag.conical_deviation(m, 0.1, 0.5) == 0.0


def test_deviation_offset_plane_regression_pin():
    got = diag.conical_deviation(offset_plane_mesh(3.0, 160), 1.1, 2.0)
    assert got == pytest.approx(offset_plane_deviation(1.1, 2.0), rel=1e-14)


def test_monotonicity_exact_on_offset_plane():
    # plane {x3 = 1} meets B_r in a disk of radius sqrt(r^2 - 1)
    m = offset_plane_mesh(3.0, 160)
    for r, p in diag.monotonicity_ratio(m, np.linspace(1.05, 2.0, 8)):
        assert p == pytest.approx(math.pi * (r * r - 1.0) / (r * r),
                                  rel=0, abs=1e-12)
