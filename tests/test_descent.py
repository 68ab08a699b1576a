"""Tests for conemin.descent: initial plane, area gradient, projections,
and the projected-descent loop."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from conemin import descent as dsc
from conemin import diagnostics as dg
from conemin import geometry as geo
from conemin import mesh as msh
from oracles import contains, euler_characteristic, fd_surface_gradient


def random_disk_mesh(rng, rings=3):
    """Fan-of-rings disk mesh with positions perturbed off the plane."""
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, rings)
    m.vertices += 0.08 * rng.standard_normal(m.vertices.shape)
    m.vertex_class[:] = msh.VertexClass.INTERIOR
    m.facet[:] = -1
    m.facet2[:] = -1
    m.clamp_radius = None
    return m


def icosphere(subdiv):
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, float) / np.linalg.norm(v) for v in verts]
    for _ in range(subdiv):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for i, j, k in faces:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    v = np.array(verts)
    t = np.array(faces, dtype=np.int64)
    cls = np.full(len(verts), msh.VertexClass.INTERIOR, dtype=np.int64)
    return msh.TriMesh(v, t, cls)


# ---------------------------------------------------------------- initial plane

def test_initial_plane_sector_area():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 64)
    assert msh.surface_area(m) == pytest.approx(math.pi / 4, rel=1e-2)
    assert np.all(m.vertices[:, 0] == 0.0)


def test_initial_plane_free_boundary_residuals():
    cone = geo.pyramid_to_cone(2.0, 0.5)
    m = dsc.make_initial_plane(cone, 1.0, 20)
    msh.validate(m, cone)
    fb = m.vertex_class == msh.VertexClass.FREE_BOUNDARY
    assert np.any(fb)
    res = np.abs(np.einsum("ij,ij->i", m.vertices[fb],
                           cone.normals[m.facet[fb]]))
    assert res.max() <= 1e-9


def test_initial_plane_apex_offset():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    for res in (4, 16, 64):
        m = dsc.make_initial_plane(cone, 1.0, res)
        delta0 = 1.0 / (4 * res)
        assert np.linalg.norm(m.vertices[0]) == pytest.approx(delta0)
        assert m.vertex_class[0] == msh.VertexClass.INTERIOR


def test_initial_plane_wedge_pins_apex_to_spine():
    cone = geo.wedge_above(1.0, 1)
    m = dsc.make_initial_plane(cone, 1.0, 8)
    assert m.vertex_class[0] == msh.VertexClass.EDGE_PINNED
    npt.assert_allclose(m.vertices[0], 0.0, atol=0.0)
    msh.validate(m, cone)


def test_initial_plane_euler_characteristic():
    cone = geo.pyramid_to_cone(0.5, 2.0)
    for res in (1, 2, 7):
        m = dsc.make_initial_plane(cone, 2.0, res)
        assert euler_characteristic(m.triangles) == 1
        assert m.n_triangles == res * res


def test_initial_plane_clamped_ring_on_sphere():
    cone = geo.pyramid_to_cone(1.0, 3.0)
    m = dsc.make_initial_plane(cone, 2.5, 10)
    cl = m.vertex_class == msh.VertexClass.CLAMPED
    assert cl.sum() == 11
    npt.assert_allclose(np.linalg.norm(m.vertices[cl], axis=1), 2.5,
                        atol=1e-12)


def test_initial_plane_rejects_bad_inputs():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    with pytest.raises(ValueError):
        dsc.make_initial_plane(cone, -1.0, 8)
    with pytest.raises(ValueError):
        dsc.make_initial_plane(cone, 1.0, 0)
    # {x1 <= 0} has the cut plane as a facet: no interior section
    flat = geo.PolyhedralCone([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(ValueError):
        dsc.make_initial_plane(flat, 1.0, 8)


# ---------------------------------------------------------------- surface area

def test_icosphere_area():
    m = icosphere(4)
    assert msh.surface_area(m) == pytest.approx(4 * math.pi, rel=5e-3)


def test_area_rigid_motion_invariance():
    rng = np.random.default_rng(3)
    m = random_disk_mesh(rng)
    base = msh.surface_area(m)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    moved = m.copy()
    moved.vertices = m.vertices @ q.T + np.array([0.3, -1.2, 2.0])
    assert abs(msh.surface_area(moved) - base) <= 1e-12


# ---------------------------------------------------------------- gradient

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(20):
        m = random_disk_mesh(rng, rings=3)

        def area_fn(v):
            c = m.copy()
            c.vertices = np.asarray(v)
            return msh.surface_area(c)

        g = dsc.area_gradient(m)
        fd = fd_surface_gradient(area_fn, m.vertices)
        assert np.max(np.abs(g - fd)) <= 1e-6


def test_gradient_single_triangle_height_motion():
    # moving the apex of a triangle changes area at rate base/2
    verts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.7, 1.3, 0.0]])
    tris = np.array([[0, 1, 2]])
    cls = np.zeros(3, dtype=np.int64)
    m = msh.TriMesh(verts, tris, cls)
    g = dsc.area_gradient(m)
    assert np.linalg.norm(g[2]) == pytest.approx(1.0, abs=1e-14)
    # and the gradient is orthogonal to the base
    assert abs(g[2] @ np.array([1.0, 0.0, 0.0])) <= 1e-14


def test_gradient_zero_at_interior_of_plane():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 12)
    g = dsc.area_gradient(m)
    interior = m.vertex_class == msh.VertexClass.INTERIOR
    interior[0] = False  # the offset apex vertex sits on the mesh boundary
    assert np.max(np.abs(g[interior])) <= 1e-12


def test_gradient_matches_add_at_reference():
    # central differences are checked by test_gradient_matches_finite_differences
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = random_disk_mesh(rng, rings=6)
        v = m.vertices
        ref = np.zeros_like(v)
        for tri in m.triangles:
            a, b, c = v[tri]
            n = np.cross(b - a, c - a)
            n /= np.linalg.norm(n)
            np.add.at(ref, tri, 0.5 * np.cross(n, [c - b, a - c, b - a]))
        g = dsc.area_gradient(m)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_gradient_unreferenced_and_flattened():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [2.0, 0.0, 0.0], [3.0, 1e-12, 0.0], [7.0, 7.0, 7.0]])
    one = msh.TriMesh(verts, np.array([[0, 1, 2]]),
                      np.zeros(6, dtype=np.int64))
    # [1, 3, 4] is flat to DEGENERATE_REL_TOL: it adds nothing anywhere
    both = msh.TriMesh(verts, np.array([[0, 1, 2], [1, 3, 4]]),
                       np.zeros(6, dtype=np.int64))
    g = dsc.area_gradient(both)
    assert g.shape == (6, 3)
    assert np.array_equal(g, dsc.area_gradient(one))
    # vertex 5, the last index, lies on no triangle
    npt.assert_array_equal(g[3:], 0.0)


def test_gradient_deterministic_across_calls():
    # repeated calls sum the corner terms in the same index order
    rng = np.random.default_rng(5)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 40)  # 1600 triangles
    m.vertices += 1e-3 * rng.standard_normal(m.vertices.shape)
    grads = [dsc.area_gradient(m) for _ in range(3)]
    assert np.array_equal(grads[0], grads[1])
    assert np.array_equal(grads[0], grads[2])


# ---------------------------------------------------------------- projections

def test_project_gradient_classes():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 6)
    g = np.ones_like(m.vertices)
    gp = dsc.project_gradient(m, cone, g)
    cl = m.vertex_class == msh.VertexClass.CLAMPED
    npt.assert_allclose(gp[cl], 0.0, atol=0.0)
    fb = m.vertex_class == msh.VertexClass.FREE_BOUNDARY
    resid = np.einsum("ij,ij->i", gp[fb], cone.normals[m.facet[fb]])
    npt.assert_allclose(resid, 0.0, atol=1e-15)
    interior = m.vertex_class == msh.VertexClass.INTERIOR
    npt.assert_allclose(gp[interior], 1.0, atol=0.0)


def test_project_gradient_edge_pinned_is_line_projection():
    # the cone's edge table stores each direction once, sign chosen by the
    # cone; (g . s) s is the same bit for bit for s, -s and either facet order
    rng = np.random.default_rng(3)
    cases = ((geo.wedge_above(1.0, 1), ((0, 1), (1, 0))),
             (geo.pyramid_to_cone(1.0, 2.0), ((0, 2), (2, 0), (1, 3), (3, 1))))
    for cone, pairs in cases:
        m = dsc.make_initial_plane(cone, 1.0, 6)
        m.vertex_class[0] = msh.VertexClass.EDGE_PINNED
        g = rng.standard_normal(m.vertices.shape)
        for f, f2 in pairs:
            m.facet[0], m.facet2[0] = f, f2
            s = geo.unit(np.cross(cone.normals[f], cone.normals[f2]))
            gp = dsc.project_gradient(m, cone, g)
            assert np.array_equal(gp[0], float(g[0] @ s) * s)


def test_project_to_constraints_idempotent_on_feasible_mesh():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 6)
    before = m.vertices.copy()
    dsc.project_to_constraints(m, cone)
    npt.assert_allclose(m.vertices, before, atol=1e-15)


def test_project_returns_displaced_vertex_to_facet():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 6)
    fb = np.nonzero(m.vertex_class == msh.VertexClass.FREE_BOUNDARY)[0][0]
    normal = cone.normals[m.facet[fb]]
    original = m.vertices[fb].copy()
    m.vertices[fb] = original + 0.1 * normal
    dsc.project_to_constraints(m, cone)
    npt.assert_allclose(m.vertices[fb], original, atol=1e-12)


def test_project_reassigns_across_facets():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    # vertex tagged on facet 2 (x3 = x2 plane) but actually near facet 0
    verts = np.array([[0.9, 0.05, 1.0], [0.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
    tris = np.array([[0, 1, 2]])
    cls = np.array([msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.INTERIOR,
                    msh.VertexClass.INTERIOR], dtype=np.int64)
    facet = np.array([2, -1, -1], dtype=np.int64)
    m = msh.TriMesh(verts, tris, cls, facet)
    dsc.project_to_constraints(m, cone)
    assert m.facet[0] == 0
    assert abs(m.vertices[0] @ cone.normals[0]) <= 1e-9
    assert contains(cone, m.vertices[0], tol=1e-9)


def test_project_pins_to_edge_when_projection_oscillates():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    # deep outside both facets near the pyramid edge direction (1, 1, 1)
    verts = np.array([[1.0, 1.0, 0.2], [0.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
    tris = np.array([[0, 1, 2]])
    cls = np.array([msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.INTERIOR,
                    msh.VertexClass.INTERIOR], dtype=np.int64)
    facet = np.array([0, -1, -1], dtype=np.int64)
    m = msh.TriMesh(verts, tris, cls, facet)
    pinned = []
    dsc.project_to_constraints(m, cone, pinned)
    if pinned:
        assert m.vertex_class[0] == msh.VertexClass.EDGE_PINNED
        assert contains(cone, m.vertices[0], tol=1e-9)
    else:
        # projection settled on a facet instead; still feasible
        assert contains(cone, m.vertices[0], tol=1e-9)


def test_project_renormalizes_clamped():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 6)
    cl = np.nonzero(m.vertex_class == msh.VertexClass.CLAMPED)[0]
    m.vertices[cl] *= 1.07
    dsc.project_to_constraints(m, cone)
    npt.assert_allclose(np.linalg.norm(m.vertices[cl], axis=1), 1.0,
                        atol=1e-12)


# ---------------------------------------------------------------- minimize

def test_wedge_plane_is_stationary():
    cone = geo.wedge_above(1.0, 1)
    m = dsc.make_initial_plane(cone, 1.0, 16)
    g = dsc.project_gradient(m, cone, dsc.area_gradient(m))
    assert np.max(np.abs(g)) <= 1e-8


def test_wedge_area_drift_over_iterations():
    cone = geo.wedge_above(1.0, 1)
    m = dsc.make_initial_plane(cone, 1.0, 16)
    a0 = msh.surface_area(m)
    cfg = dsc.MinimizeConfig(max_iters=500, grad_tol=1e-12, initial_step=0.25,
                             armijo_c=0.3, clamp_radius=1.0, seed=0)
    final, diag = dsc.minimize(m, cone, cfg)
    drift = max((abs(a - a0) for a in diag.area_history), default=0.0)
    assert drift <= 1e-8
    assert abs(msh.surface_area(final) - a0) <= 1e-8


def test_minimize_zero_iters_returns_input():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 8)
    cfg = dsc.MinimizeConfig(max_iters=0, clamp_radius=1.0)
    final, diag = dsc.minimize(m, cone, cfg)
    npt.assert_allclose(final.vertices, m.vertices, atol=0.0)
    assert diag.area_history == []
    assert diag.vertex_distance_history == []


def test_minimize_decreases_area_and_respects_armijo():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 12)
    cfg = dsc.MinimizeConfig(max_iters=60, grad_tol=1e-10, initial_step=0.25,
                             armijo_c=0.3, clamp_radius=1.0, seed=0)
    final, diag = dsc.minimize(m, cone, cfg)
    a = diag.area_history
    assert len(a) > 5
    assert all(a2 < a1 for a1, a2 in zip(a, a[1:]))
    assert all(margin >= 0 for margin in diag.armijo_margins)
    assert a[-1] < msh.surface_area(m)


def test_minimize_keeps_constraints_feasible():
    cone = geo.pyramid_to_cone(1.0, 2.0)
    m = dsc.make_initial_plane(cone, 1.0, 10)
    cfg = dsc.MinimizeConfig(max_iters=40, grad_tol=1e-12, initial_step=0.25,
                             armijo_c=0.3, clamp_radius=1.0, seed=0)
    final, _ = dsc.minimize(m, cone, cfg)
    fb = final.vertex_class == msh.VertexClass.FREE_BOUNDARY
    res = np.abs(np.einsum("ij,ij->i", final.vertices[fb],
                           cone.normals[final.facet[fb]]))
    assert res.max() <= 1e-9
    slack = (final.vertices @ cone.normals.T).max()
    assert slack <= 1e-9


def test_minimize_vertex_distance_grows_in_pyramid():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 12)
    from conemin.diagnostics import vertex_distance
    d0 = vertex_distance(m)
    cfg = dsc.MinimizeConfig(max_iters=80, grad_tol=1e-10, initial_step=0.25,
                             armijo_c=0.3, clamp_radius=1.0, seed=0)
    final, diag = dsc.minimize(m, cone, cfg)
    # the limit distance is set by the geometry; the seed offset shrinks
    # with resolution, so the growth factor here is modest
    assert diag.vertex_distance_history[-1] > 2 * d0
    assert diag.vertex_distance_history[-1] > 0.05


@pytest.mark.parametrize("cone", (geo.pyramid_to_cone(1.0, 1.0),
                                  geo.wedge_above(1.0, 1)),
                         ids=("pyramid", "wedge"))
def test_minimize_outputs_equal_public_kernels(cone):
    # minimize reuses each accepted state's triangle geometry and shares one
    # corner gather between its post-run audits; the numbers it records must
    # be those of the public calls on its final mesh, bit for bit
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=40, grad_tol=1e-10, seed=3)
    final, diag = dsc.minimize(m, cone, cfg, jitter=0.05)
    assert diag.accepted_steps > 0
    assert diag.area_history[-1] == msh.surface_area(final)
    assert diag.vertex_distance_history[-1] == dg.vertex_distance(final)
    radii = [float(f * cfg.clamp_radius) for f in dsc.RADII_FRACTIONS]
    assert diag.p_ratios == dg.monotonicity_ratio(final, radii)
    assert len(diag.conical_deviation) == len(dsc.DEVIATION_WINDOWS)
    for rho, r, dev in diag.conical_deviation:
        assert dev == dg.conical_deviation(final, rho, r)


def test_minimize_config_validation():
    with pytest.raises(ValueError):
        dsc.MinimizeConfig(max_iters=-1)
    with pytest.raises(ValueError):
        dsc.MinimizeConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        dsc.MinimizeConfig(armijo_c=1.0)
    with pytest.raises(ValueError):
        dsc.MinimizeConfig(clamp_radius=0.0)
    with pytest.raises(ValueError):
        dsc.MinimizeConfig(seed=-2)


def test_minimize_jitter_is_seeded():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 8)
    cfg = dsc.MinimizeConfig(max_iters=10, grad_tol=1e-10, clamp_radius=1.0,
                             seed=42)
    f1, d1 = dsc.minimize(m, cone, cfg, jitter=1e-4)
    f2, d2 = dsc.minimize(m, cone, cfg, jitter=1e-4)
    npt.assert_allclose(f1.vertices, f2.vertices, atol=0.0)
    assert d1.area_history == d2.area_history


@pytest.mark.parametrize("a", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("b", (0.5, 1.0, 2.0))
def test_vertex_skipping_across_pyramid_cones(a, b):
    # resolution and jitter are the smallest values for which every cone
    # in the grid clears the 10 * delta0 bar with this seed
    cone = geo.pyramid_to_cone(a, b)
    res = 48
    m = dsc.make_initial_plane(cone, 1.0, res)
    cfg = dsc.MinimizeConfig(max_iters=3000, grad_tol=1e-8, initial_step=0.25,
                             armijo_c=0.3, clamp_radius=1.0, seed=0)
    final, diag = dsc.minimize(m, cone, cfg, jitter=0.10)
    vd = np.asarray(diag.vertex_distance_history)
    assert vd[-1] > 10.0 / (4 * res)
    # nondecreasing after the first tenth, up to projection-event wiggle
    post = vd[len(vd) // 10:]
    assert float((np.maximum.accumulate(post) - post).max()) <= 1e-4
