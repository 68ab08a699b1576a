"""Tests for conemin.mesh: TriMesh invariants, areas, OBJ round-trip."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from conemin import geometry as geo
from conemin import mesh as msh


def right_triangle_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    cls = np.full(3, msh.VertexClass.INTERIOR, dtype=np.int64)
    return msh.TriMesh(verts, tris, cls)


def quad_mesh():
    # unit square split along the diagonal, consistent orientation
    verts = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
    ])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    cls = np.full(4, msh.VertexClass.INTERIOR, dtype=np.int64)
    return msh.TriMesh(verts, tris, cls)


def test_surface_area_unit_right_triangle():
    assert msh.surface_area(right_triangle_mesh()) == pytest.approx(0.5)


def test_triangle_normals_unit_length():
    m = quad_mesh()
    n = msh.triangle_normals(m)
    npt.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-15)
    npt.assert_allclose(n[0], n[1], atol=1e-15)


def test_boundary_edges_of_square():
    m = quad_mesh()
    edges = msh.boundary_edges(m)
    assert edges.shape == (4, 2)
    # the diagonal 0-2 is interior, all outer edges are boundary
    keys = {frozenset(e) for e in edges.tolist()}
    assert frozenset((0, 2)) not in keys
    assert keys == {frozenset((0, 1)), frozenset((1, 2)),
                    frozenset((2, 3)), frozenset((3, 0))}


def test_euler_characteristic_disk():
    assert msh.euler_characteristic(quad_mesh()) == 1


def test_validate_rejects_degenerate_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    cls = np.zeros(3, dtype=np.int64)
    m = msh.TriMesh(verts, tris, cls)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        msh.validate(m, cone)


def test_validate_rejects_inconsistent_orientation():
    m = quad_mesh()
    m.triangles[1] = [0, 3, 2]
    cone = geo.pyramid_to_cone(1.0, 1.0)
    with pytest.raises(ValueError, match="orientation"):
        msh.validate(m, cone)


def test_validate_checks_free_boundary_residual():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    verts = np.array([
        [0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.5, 2.0],
    ])
    tris = np.array([[0, 1, 2]])
    cls = np.array([msh.VertexClass.INTERIOR, msh.VertexClass.FREE_BOUNDARY,
                    msh.VertexClass.INTERIOR], dtype=np.int64)
    facet = np.array([-1, 2, -1], dtype=np.int64)
    m = msh.TriMesh(verts, tris, cls, facet)
    msh.validate(m, cone)  # (0,1,1) lies on the facet x3 = x2
    m.vertices[1, 1] = 0.9
    with pytest.raises(ValueError, match="facet"):
        msh.validate(m, cone)


def test_validate_checks_clamp_sphere():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    verts = np.array([
        [0.0, 0.0, 1.0], [0.0, 0.3, 1.2], [0.0, -0.3, 1.2],
    ])
    tris = np.array([[0, 1, 2]])
    cls = np.array([msh.VertexClass.CLAMPED, msh.VertexClass.INTERIOR,
                    msh.VertexClass.INTERIOR], dtype=np.int64)
    m = msh.TriMesh(verts, tris, cls, clamp_radius=1.0)
    msh.validate(m, cone)
    m.vertices[0, 2] = 1.1
    with pytest.raises(ValueError, match="clamp"):
        msh.validate(m, cone)


def cone_triangle_mesh(cls, facet=None, facet2=None, clamp_radius=1.0):
    """Triangle with vertices 0 and 1 on the unit sphere and on the facet
    x3 = x2 of C_{1,1}, vertex 2 on the x3 axis."""
    s = 1.0 / math.sqrt(2.0)
    verts = np.array([[0.0, s, s], [0.3, 0.5 * s, 0.5 * s], [0.0, 0.0, 1.0]])
    verts[1] /= np.linalg.norm(verts[1])
    return msh.TriMesh(verts, np.array([[0, 1, 2]]),
                       np.array(cls, dtype=np.int64), facet, facet2,
                       clamp_radius)


def test_validate_names_lowest_offending_vertex():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    fb, cl = msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.CLAMPED
    # vertex 1 off the clamp sphere, vertex 2 off facet 0
    m = cone_triangle_mesh([cl, cl, fb], facet=[-1, -1, 0])
    m.vertices[1] *= 1.1
    with pytest.raises(ValueError, match=r"^vertex 1 off the clamp sphere$"):
        msh.validate(m, cone)
    # the lower vertex wins even when its check comes last
    m = cone_triangle_mesh([7, cl, fb], facet=[-1, -1, 9])
    with pytest.raises(ValueError, match=r"^vertex 0: unknown class 7$"):
        msh.validate(m, cone)


def test_validate_rejects_out_of_range_facet_index():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    fb, ep = msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.EDGE_PINNED
    inner = msh.VertexClass.INTERIOR
    for bad in (4, 99, -3):
        m = cone_triangle_mesh([inner, fb, inner], facet=[-1, bad, -1])
        with pytest.raises(ValueError,
                           match=rf"^vertex 1: invalid facet index {bad}$"):
            msh.validate(m, cone)
    m = cone_triangle_mesh([inner, ep, inner], facet=[-1, 2, -1],
                           facet2=[-1, 99, -1])
    with pytest.raises(ValueError,
                       match=r"^vertex 1: invalid facet pair \(2, 99\)$"):
        msh.validate(m, cone)


def test_validate_rejects_unknown_class():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    inner = msh.VertexClass.INTERIOR
    m = cone_triangle_mesh([inner, inner, inner])
    msh.validate(m, cone)
    m.vertex_class[2] = 4
    with pytest.raises(ValueError, match=r"^vertex 2: unknown class 4$"):
        msh.validate(m, cone)


def test_obj_round_trip_with_sidecar(tmp_path):
    cone = geo.pyramid_to_cone(1.0, 2.0)
    from conemin.descent import make_initial_plane
    m = make_initial_plane(cone, 1.0, 6)
    path = tmp_path / "mesh.obj"
    msh.save_obj(m, path)
    assert path.exists()
    assert path.with_suffix(".obj.json").exists()
    back = msh.load_obj(path)
    npt.assert_allclose(back.vertices, m.vertices, atol=0.0)
    npt.assert_array_equal(back.triangles, m.triangles)
    npt.assert_array_equal(back.vertex_class, m.vertex_class)
    npt.assert_array_equal(back.facet, m.facet)
    assert back.clamp_radius == pytest.approx(m.clamp_radius)
    msh.validate(back, cone)


def test_load_obj_without_sidecar(tmp_path):
    path = tmp_path / "plain.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    m = msh.load_obj(path)
    assert m.n_vertices == 3 and m.n_triangles == 1
    assert np.all(m.vertex_class == msh.VertexClass.INTERIOR)
    assert msh.surface_area(m) == pytest.approx(0.5)


def test_copy_is_deep():
    m = quad_mesh()
    c = m.copy()
    c.vertices[0, 0] = 9.0
    assert m.vertices[0, 0] == 0.0
