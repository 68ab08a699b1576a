"""Tests for conemin.descent: initial plane, area gradient, projections,
and the projected-descent loop."""

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conemin import descent as dsc
from conemin import diagnostics as dg
from conemin import geometry as geo
from conemin import mesh as msh
from oracles import (ball_audits_unpruned, contains, descent_loop,
                     euler_characteristic, fd_surface_gradient,
                     initial_plane_loop, mean_unit_normal_rows,
                     nearest_boundary_point)


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
    # the apex node is a free-boundary vertex whose face is the wedge's
    # spine, the cone edge where the two sector facets meet
    cone = geo.wedge_above(1.0, 1)
    m = dsc.make_initial_plane(cone, 1.0, 8)
    assert m.vertex_class[0] == msh.VertexClass.FREE_BOUNDARY
    assert (m.facet[0], m.facet2[0]) == (0, 1)
    assert cone.face_table[3][0, 1] >= 0
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


@pytest.mark.parametrize("cone", (geo.pyramid_to_cone(1.0, 1.0),
                                  geo.pyramid_to_cone(0.5, 2.0),
                                  geo.wedge_above(1.0, 1)),
                         ids=("C11", "C05_2", "wedge"))
def test_initial_plane_equals_loop_reference(cone):
    # the vectorized fan keeps the loop's vertex arithmetic, vertex order
    # and triangle order, bit for bit
    for res in (1, 2, 7, 64):
        got, want = dsc.make_initial_plane(cone, 1.0, res), \
            initial_plane_loop(cone, 1.0, res)
        for name in ("vertices", "triangles", "vertex_class", "facet",
                     "facet2"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        assert got.clamp_radius == want.clamp_radius
    if not geo.is_vertex(cone):
        assert cone.face_table[3][got.facet[0], got.facet2[0]] >= 0


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
    # facets 2 and 3 tilt by 1.2e-9 out of the plane {x1 = 0}: too little
    # for a genuine vertex, too much for facets 0 and 1, the sector's, to
    # meet in a cone edge
    eta = 1.2e-9
    tilted = geo.PolyhedralCone([[0.0, 1.0, -1.0], [0.0, -1.0, -1.0],
                                 [eta, 0.3, -1.0], [-eta, -0.3, -1.0]])
    assert not geo.is_vertex(tilted) and tilted.face_table[3][0, 1] < 0
    with pytest.raises(ValueError, match=r"^sector rays lie on facets 0 and 1, "
                       "which meet in no cone edge"):
        dsc.make_initial_plane(tilted, 1.0, 8)


@pytest.mark.parametrize("R", (math.inf, -math.inf, math.nan))
def test_initial_plane_rejects_non_finite_radius(R):
    # R = inf would fill the mesh with NaN behind a RuntimeWarning
    cone = geo.pyramid_to_cone(1.0, 1.0)
    with pytest.raises(ValueError, match=r"^R must be a finite number > 0$"):
        dsc.make_initial_plane(cone, R, 8)


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
    # a free-boundary vertex whose face is a cone edge keeps the part of
    # its gradient along the edge line; the cone's face table stores each
    # direction once, sign chosen by the cone, and (g . s) s is the same
    # bit for bit for s and -s.  A vertex on a facet keeps its in-plane part
    def line_part(g, s):  # the dot product in coordinate order
        return (g[0] * s[0] + g[1] * s[1] + g[2] * s[2]) * s

    rng = np.random.default_rng(3)
    for cone in (geo.wedge_above(1.0, 1), geo.pyramid_to_cone(1.0, 2.0)):
        m = dsc.make_initial_plane(cone, 1.0, 6)
        m.vertex_class[0] = msh.VertexClass.FREE_BOUNDARY
        g = rng.standard_normal(m.vertices.shape)
        for f, f2 in cone.face_table[2][len(cone.normals):]:
            m.facet[0], m.facet2[0] = f, f2
            s = geo.unit(np.cross(cone.normals[f], cone.normals[f2]))
            gp = dsc.project_gradient(m, cone, g)
            assert np.array_equal(gp[0], line_part(g[0], s))
            assert np.array_equal(gp[0], line_part(g[0], -s))
            m.facet2[0] = -1
            n = cone.normals[f]
            gp = dsc.project_gradient(m, cone, g)
            npt.assert_allclose(gp[0], g[0] - float(g[0] @ n) * n, rtol=0.0,
                                atol=1e-15)


def test_projections_reject_a_face_that_is_no_cone_edge():
    # facets 0 and 1 of the pyramid meet in a line outside the cone, an
    # edge key lists the lower facet first, and facet indices stay in range
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 6)
    m.vertex_class[3] = msh.VertexClass.FREE_BOUNDARY
    for pair in ((0, 1), (2, 0), (-1, 2), (4, 2), (0, 9)):
        m.facet[3], m.facet2[3] = pair
        match = r"^vertex 3: facets \(%d, %d\) are not a cone edge$" % pair
        with pytest.raises(ValueError, match=match):
            dsc.project_gradient(m, cone, np.zeros(m.vertices.shape))
        with pytest.raises(ValueError, match=match):
            dsc.project_to_constraints(m, cone)


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
    # the nearest point of the cone, not the facet-0 point of the facet-2
    # projection, (0.7125, 0.525, 0.7125)
    want, _ = nearest_boundary_point(cone, verts[0])
    npt.assert_allclose(m.vertices[0], want, rtol=0.0, atol=1e-15)
    npt.assert_allclose(want, [0.95, 0.05, 0.95], rtol=0.0, atol=1e-15)


def test_project_pins_to_edge_when_projection_oscillates():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    # deep outside both facets near the pyramid edge direction (1, 1, 1)
    verts = np.array([[1.0, 1.0, 0.2], [0.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
    tris = np.array([[0, 1, 2]])
    cls = np.array([msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.INTERIOR,
                    msh.VertexClass.INTERIOR], dtype=np.int64)
    facet = np.array([0, -1, -1], dtype=np.int64)
    m = msh.TriMesh(verts, tris, cls, facet)
    dsc.project_to_constraints(m, cone)
    # the nearest point of the cone lies on the edge of facets 0 and 2,
    # which becomes the vertex's face
    want, _ = nearest_boundary_point(cone, verts[0])
    npt.assert_allclose(m.vertices[0], want, rtol=0.0, atol=1e-15)
    npt.assert_allclose(want, np.full(3, 2.2 / 3.0), rtol=0.0, atol=1e-15)
    assert m.vertex_class[0] == msh.VertexClass.FREE_BOUNDARY
    assert (m.facet[0], m.facet2[0]) == (0, 2)
    msh.validate(m, cone)
    # past the apex, the edge's line leaves the cone: the vertex goes from
    # where it was to its nearest point of the cone instead
    x = np.array([-0.2, -0.3, 0.1])
    m.vertices[0] = x
    dsc.project_to_constraints(m, cone)
    want, _ = nearest_boundary_point(cone, x)
    npt.assert_allclose(m.vertices[0], want, rtol=0.0, atol=1e-15)
    assert contains(cone, m.vertices[0], tol=1e-9)
    msh.validate(m, cone)


def test_project_renormalizes_clamped():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 6)
    cl = np.nonzero(m.vertex_class == msh.VertexClass.CLAMPED)[0]
    m.vertices[cl] *= 1.07
    dsc.project_to_constraints(m, cone)
    npt.assert_allclose(np.linalg.norm(m.vertices[cl], axis=1), 1.0,
                        atol=1e-12)
    # a clamped vertex at the origin has no direction to keep; the error
    # names the lowest such vertex
    m.vertices[cl[[5, 3]]] = 0.0
    with pytest.raises(ValueError, match=rf"^clamped vertex {cl[3]} at the "
                       "origin cannot be renormalized$"):
        dsc.project_to_constraints(m, cone)


@pytest.mark.parametrize("resolution, seeds", ((64, range(30)),
                                               (256, range(5))),
                         ids=("r64", "r256"))
def test_jittered_start_is_valid(resolution, seeds):
    # the jitter of the descent workloads carries tens of free-boundary
    # vertices across cone edges, some onto an edge; the projected start
    # must lie in the cone and pass validate on every seed
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, resolution)
    for seed in seeds:
        cfg = dsc.MinimizeConfig(max_iters=0, seed=seed)
        start, diag = dsc.minimize(m, cone, cfg, jitter=0.06)
        msh.validate(start, cone)
        assert np.max(start.vertices @ cone.normals.T) <= geo.CONTAIN_TOL
        assert math.isfinite(diag.boundary_angle_stats.max_deg)
        # the plane has no edge face, so every edge face is a new one
        assert diag.pinned_vertices == np.nonzero(start.facet2 >= 0)[0].tolist()


@pytest.mark.parametrize("case", ("flat r1", "flat r16", "jittered", "wedge"))
def test_mean_unit_normal_equals_row_sum(case):
    # the coordinate-plane sums must keep the row sum's order, to the sign
    # of a zero: the flat start's x2 and x3 sums are signed zeros, and the
    # one triangle of resolution 1 gives -0 terms only
    cone = geo.wedge_above(1.0, 1) if case == "wedge" \
        else geo.pyramid_to_cone(1.0, 1.0)
    mesh = dsc.make_initial_plane(cone, 1.0, 1 if case == "flat r1" else 16)
    if case == "jittered":
        mesh, _ = dsc.minimize(mesh, cone, dsc.MinimizeConfig(max_iters=0,
                                                              seed=2),
                               jitter=0.05)
    got, want = dsc._mean_unit_normal(mesh), mean_unit_normal_rows(mesh)
    assert got.tobytes() == want.tobytes()
    npt.assert_array_equal(np.signbit(got), np.signbit(want))


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


CONES = pytest.mark.parametrize(
    "cone", (geo.pyramid_to_cone(1.0, 1.0), geo.wedge_above(1.0, 1)),
    ids=("pyramid", "wedge"))


@CONES
def test_minimize_outputs_equal_public_kernels(cone, monkeypatch):
    # minimize reuses each accepted state's triangle geometry, shares one
    # corner gather between its post-run audits and builds one edge table
    # for its validation and its angle audit; the numbers it records must
    # be those of the public calls on its final mesh, bit for bit
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=40, grad_tol=1e-10, seed=3)
    builds = []

    def counted_edge_table(mesh, build=msh.edge_table):
        builds.append(mesh.n_triangles)
        return build(mesh)

    geometries = []

    def counted_geometry(mesh, build=msh.triangle_geometry):
        geometries.append(mesh.n_triangles)
        return build(mesh)

    for module in (dsc, msh, dg):
        monkeypatch.setattr(module, "edge_table", counted_edge_table)
        monkeypatch.setattr(module, "triangle_geometry", counted_geometry)
    # a run without steps builds the whole mesh's triangle geometry once,
    # for its validation and its start area (the angle audit builds it for
    # the boundary triangles alone)
    dsc.minimize(m, cone, dataclasses.replace(cfg, max_iters=0), jitter=0.05)
    assert geometries.count(m.n_triangles) == 1
    assert builds == [m.n_triangles]
    builds.clear()
    final, diag = dsc.minimize(m, cone, cfg, jitter=0.05)
    assert builds == [final.n_triangles]
    assert diag.accepted_steps > 0
    assert diag.area_history[-1] == msh.surface_area(final)
    assert diag.vertex_distance_history[-1] == dg.vertex_distance(final)
    radii = [float(f * cfg.clamp_radius) for f in dsc.RADII_FRACTIONS]
    assert diag.p_ratios == dg.monotonicity_ratio(final, radii)
    assert len(diag.conical_deviation) == len(dsc.DEVIATION_WINDOWS)
    for rho, r, dev in diag.conical_deviation:
        assert dev == dg.conical_deviation(final, rho, r)
    stats = dg.boundary_angle_audit(final, cone)
    for field in dataclasses.fields(stats):
        assert (getattr(diag.boundary_angle_stats, field.name)
                == getattr(stats, field.name)), field.name


@pytest.mark.parametrize("cone, seed, jitter, max_iters", (
    (geo.pyramid_to_cone(2.0, 2.0), 1, 0.05, 20),
    (geo.wedge_above(2.0, 1), 2, 0.4, 150)), ids=("pyramid", "wedge"))
def test_minimize_equals_plain_descent_loop(cone, seed, jitter, max_iters):
    # minimize keeps one face plan per run, rebuilt when a vertex takes a
    # new face, writes each trial into a second mesh that swaps with the
    # accepted state, and shares each accepted state's Gram terms; the
    # plain loop copies the accepted state for each trial and rebuilds
    # everything from the public kernels on every call.  The seeds and
    # jitters are ones where faces change in accepted and in rejected
    # trials, so a stale plan cannot pass; the wedge run also reaches
    # triangles flat enough that the gradient drops them, so a stale Gram
    # term cannot either
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=max_iters, grad_tol=1e-10, seed=seed)
    start, _ = dsc.minimize(m, cone, dataclasses.replace(cfg, max_iters=0),
                            jitter=jitter)
    ref, want, reassigned = descent_loop(start, cone, cfg)
    assert reassigned[True] > 0 and reassigned[False] > 0
    final, diag = dsc.minimize(m, cone, cfg, jitter=jitter)
    for name, value in want.items():
        assert getattr(diag, name) == value, name
    for name in ("vertices", "facet", "facet2"):
        npt.assert_array_equal(getattr(final, name), getattr(ref, name))


def test_minimize_stalls_like_plain_descent_loop(monkeypatch):
    # with two halvings per line search the run stalls after 7 accepted
    # steps; the returned state is the last accepted one, untouched by the
    # failed line search
    monkeypatch.setattr(dsc, "MAX_HALVINGS", 2)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=60, grad_tol=1e-10, seed=0)
    start, _ = dsc.minimize(m, cone, dataclasses.replace(cfg, max_iters=0),
                            jitter=0.05)
    ref, want, _ = descent_loop(start, cone, cfg)
    final, diag = dsc.minimize(m, cone, cfg, jitter=0.05)
    assert (diag.status, diag.accepted_steps) == ("stalled", 7)
    for name, value in want.items():
        assert getattr(diag, name) == value, name
    for name in ("vertices", "facet", "facet2"):
        npt.assert_array_equal(getattr(final, name), getattr(ref, name))


@pytest.mark.parametrize("status", ("max_iters", "converged", "stalled"))
def test_audits_take_the_returned_state_gram_terms(status, monkeypatch):
    # the post-run audits get the Gram terms of the returned mesh from the
    # loop, except after a stall, whose last geometry is a rejected trial's:
    # those audits build their own.  Either way they must equal the public
    # kernels on the returned mesh, bit for bit.  The stalled run is that
    # of test_minimize_stalls_like_plain_descent_loop
    grams = []

    def audits(mesh, radii, windows, gram=None, run=dsc._ball_audits):
        grams.append(gram)
        return run(mesh, radii, windows, gram)

    monkeypatch.setattr(dsc, "_ball_audits", audits)
    monkeypatch.setattr(dsc, "MAX_HALVINGS",
                        2 if status == "stalled" else dsc.MAX_HALVINGS)
    cone = geo.wedge_above(1.0, 1) if status == "converged" \
        else geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 8 if status == "converged" else 16)
    cfg = dsc.MinimizeConfig(
        max_iters=10 if status == "max_iters" else 2000,
        grad_tol=1e-3 if status == "converged" else 1e-10, seed=0)
    final, diag = dsc.minimize(m, cone, cfg,
                               jitter=0.02 if status == "converged" else 0.05)
    assert diag.status == status and diag.accepted_steps > 0
    if status == "stalled":
        assert grams == [None]
    else:
        for got, want in zip(grams[0], msh.triangle_geometry(final).gram(),
                             strict=True):
            assert got.tobytes() == want.tobytes()
    radii = [float(f * cfg.clamp_radius) for f in dsc.RADII_FRACTIONS]
    assert diag.p_ratios == dg.monotonicity_ratio(final, radii)
    for rho, r, dev in diag.conical_deviation:
        assert dev == dg.conical_deviation(final, rho, r)


def test_minimize_records_each_step_and_its_halvings(monkeypatch):
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=40, grad_tol=1e-10, seed=3)
    geometries = []

    def counted_geometry(mesh, build=msh.triangle_geometry):
        geometries.append(mesh.n_triangles)
        return build(mesh)

    monkeypatch.setattr(dsc, "triangle_geometry", counted_geometry)
    _, diag = dsc.minimize(m, cone, cfg, jitter=0.05)
    assert diag.status == "max_iters"
    assert len(diag.step_history) == len(diag.halvings_history) == 40
    previous = cfg.initial_step
    for step, halvings in zip(diag.step_history, diag.halvings_history):
        assert step == min(2.0 * previous, cfg.initial_step) * 2.0 ** -halvings
        previous = step
    # every trial builds one geometry, and so does the start state
    assert sum(diag.halvings_history) > 0
    assert (sum(diag.halvings_history) + diag.accepted_steps
            == geometries.count(m.n_triangles) - 1)


@CONES
def test_vertex_distance_history_equals_each_state(cone):
    # the exact pass runs after the loop, over the kept corners of every
    # accepted state; each entry must be that state's own distance.  Runs
    # with one seed share their prefix, so the k-step run ends in state k
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=40, grad_tol=1e-10, seed=3)
    _, diag = dsc.minimize(m, cone, cfg, jitter=0.05)
    assert diag.accepted_steps == 40
    for k in (1, 2, 7, 40):
        final, _ = dsc.minimize(m, cone, dataclasses.replace(cfg, max_iters=k),
                                jitter=0.05)
        assert dg.vertex_distance(final) == diag.vertex_distance_history[k - 1]


def test_vertex_distance_exact_pass_runs_once_per_run(monkeypatch):
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=40, grad_tol=1e-10, seed=3)
    calls = []

    def counted_extents(*corners, run=dg._extents):
        calls.append(len(corners[0]))
        return run(*corners)

    def marked_audits(*args, run=dsc._ball_audits):
        calls.append("ball audits")
        return run(*args)

    monkeypatch.setattr(dg, "_extents", counted_extents)
    monkeypatch.setattr(dsc, "_ball_audits", marked_audits)
    _, diag = dsc.minimize(m, cone, cfg, jitter=0.05)
    assert diag.accepted_steps == 40
    # one exact pass over the kept corners of all 40 states, then the
    # post-run audits
    assert calls.index("ball audits") == 1
    assert calls[0] >= 40
    calls.clear()
    dsc.minimize(m, cone, dataclasses.replace(cfg, max_iters=0), jitter=0.05)
    assert calls.index("ball audits") == 0


def test_short_r256_run_gives_finite_exact_deviations():
    # a pass of the resolution-256 benchmark: an exception or warning in
    # the post-run audits would leave it without a result
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 256)
    cfg = dsc.MinimizeConfig(max_iters=6, grad_tol=1e-8, initial_step=0.25,
                             armijo_c=0.3, clamp_radius=1.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final, diag = dsc.minimize(m, cone, cfg, jitter=0.06)
    windows = [(rho, r) for rho, r, _ in diag.conical_deviation]
    deviations = [d for _, _, d in diag.conical_deviation]
    assert len(windows) == len(dsc.DEVIATION_WINDOWS)
    assert all(math.isfinite(d) for d in deviations)
    assert deviations == ball_audits_unpruned(final, (), windows)[1]


@CONES
def test_vertex_distance_history_in_chunks(cone, monkeypatch):
    # past DISTANCE_CHUNK kept rows the loop measures what it holds, so
    # memory stays bounded; the history must not change
    m = dsc.make_initial_plane(cone, 1.0, 16)
    cfg = dsc.MinimizeConfig(max_iters=40, grad_tol=1e-10, seed=3)
    _, whole = dsc.minimize(m, cone, cfg, jitter=0.05)
    passes = []

    def counted_pass(near, run=dsc._nearest_distances):
        passes.append(len(near))
        return run(near)

    monkeypatch.setattr(dsc, "DISTANCE_CHUNK", 16)
    monkeypatch.setattr(dsc, "_nearest_distances", counted_pass)
    _, chunked = dsc.minimize(m, cone, cfg, jitter=0.05)
    assert chunked.vertex_distance_history == whole.vertex_distance_history
    assert len(whole.vertex_distance_history) == 40
    assert len(passes) > 2 and sum(passes) == 40


def test_minimize_names_first_non_finite_vertex():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 8)
    m.vertices[[30, 9], [1, 0]] = [np.inf, np.nan]
    with pytest.raises(ValueError, match=r"^vertex 9 is not finite$"):
        dsc.minimize(m, cone, dsc.MinimizeConfig(max_iters=5), jitter=0.05)


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


@pytest.mark.parametrize("name", ("grad_tol", "initial_step", "clamp_radius"))
@pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
def test_minimize_config_rejects_non_finite(name, value):
    # grad_tol = inf would report "converged" after 0 steps, and
    # initial_step = inf would run NaN trials until it stalls
    with pytest.raises(ValueError,
                       match=rf"^field '{name}' must be a finite number$"):
        dsc.MinimizeConfig(**{name: value})


@pytest.mark.parametrize("jitter", (math.nan, -0.1, math.inf, -math.inf))
def test_minimize_rejects_bad_jitter(jitter):
    # NaN and negative jitters ran unjittered, an infinite one gave NaN
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 8)
    with pytest.raises(ValueError,
                       match=r"^jitter must be a finite number >= 0$"):
        dsc.minimize(m, cone, dsc.MinimizeConfig(max_iters=5, seed=1),
                     jitter=jitter)


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
