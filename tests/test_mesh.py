"""Tests for conemin.mesh: TriMesh invariants, areas, OBJ export."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from conemin import geometry as geo
from conemin import mesh as msh
from conemin.descent import make_initial_plane
from oracles import read_obj, save_obj_per_vertex


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


def test_validate_rejects_non_manifold_edge():
    # three non-degenerate triangles on the edge (0, 1), oriented as
    # consistently as three can be: two of them walk 0 -> 1
    verts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.5, 1.0, 1.0],
                      [0.5, -1.0, 1.0], [0.5, 0.0, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    m = msh.TriMesh(verts, tris, np.zeros(5, dtype=np.int64))
    table = msh.edge_table(m)
    assert table.multiplicity[[0, 1, 2]].tolist() == [3, 3, 3]
    assert table.repeated_direction
    with pytest.raises(ValueError, match="repeated directed edge"):
        msh.validate(m, geo.pyramid_to_cone(1.0, 1.0))


def test_edge_table_of_a_square():
    table = msh.edge_table(quad_mesh())
    # (0, 1), (0, 2) | (1, 2), (2, 3) | (2, 0), (3, 0)
    npt.assert_array_equal(table.edges, [[0, 1], [0, 2], [1, 2], [2, 3],
                                         [2, 0], [3, 0]])
    npt.assert_array_equal(table.owner, [0, 1, 0, 1, 0, 1])
    npt.assert_array_equal(table.multiplicity, [1, 2, 1, 1, 2, 1])
    assert not table.repeated_direction


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


def test_save_obj_matches_per_vertex_writer(tmp_path):
    # the wedge's initial plane has every vertex class: an edge-pinned apex,
    # free-boundary rays, a clamped rim and interior vertices
    m = make_initial_plane(geo.wedge_above(1.0, 1), 1.0, 6)
    assert sorted(set(m.vertex_class.tolist())) == [0, 1, 2, 3]
    # a mesh without a clamp radius: its sidecar holds null
    unclamped = make_initial_plane(geo.pyramid_to_cone(1.0, 2.0), 1.0, 5)
    unclamped.clamp_radius = None
    for mesh in (unclamped, m):
        msh.save_obj(mesh, tmp_path / "mesh.obj")
        save_obj_per_vertex(mesh, tmp_path / "reference.obj")
        for suffix in (".obj", ".obj.json"):
            assert ((tmp_path / f"mesh{suffix}").read_bytes()
                    == (tmp_path / f"reference{suffix}").read_bytes())
        sidecar = json.loads((tmp_path / "mesh.obj.json").read_text())
        assert sidecar["clamp_radius"] == mesh.clamp_radius

    vertices, triangles = read_obj(tmp_path / "mesh.obj")
    npt.assert_array_equal(vertices, m.vertices)
    npt.assert_array_equal(triangles, m.triangles)
    classes = sidecar["classes"]
    assert sorted(classes, key=int) == [str(i) for i in range(m.n_vertices)]
    names = [c.name.lower() for c in msh.VertexClass]
    for i, cls in enumerate(m.vertex_class.tolist()):
        rec = {"class": names[cls]}
        if cls in (msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.EDGE_PINNED):
            rec["facet"] = int(m.facet[i])
        if cls == msh.VertexClass.EDGE_PINNED:
            rec["facet2"] = int(m.facet2[i])
        assert classes[str(i)] == rec


def test_copy_is_deep():
    m = quad_mesh()
    c = m.copy()
    c.vertices[0, 0] = 9.0
    assert m.vertices[0, 0] == 0.0
