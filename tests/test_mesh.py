"""Tests for conemin.mesh: TriMesh invariants, areas, OBJ export."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from conemin import geometry as geo
from conemin import mesh as msh
from conemin.descent import MinimizeConfig, make_initial_plane, minimize
from oracles import edge_table_unique, read_obj, save_obj_per_vertex


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


@pytest.mark.parametrize("m", (1, 7, 8, 4096))
def test_geometry_arrays_start_on_a_cache_line(m):
    for size in (m, 3 * m + 5):
        x = msh._aligned_empty(size)
        assert x.shape == (size,) and x.dtype == np.float64
        assert x.ctypes.data % 64 == 0
    for array in msh._empty_geometry(m):
        assert array.ctypes.data % 64 == 0
    # each (coordinate, corner) edge plane too, when 8 divides m
    edges = msh._empty_geometry(m).edges
    if m % 8 == 0:
        assert all(edges[k, :, c].ctypes.data % 64 == 0
                   for k in range(3) for c in range(3))


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


def non_manifold_mesh():
    # three non-degenerate triangles on the edge (0, 1), oriented as
    # consistently as three can be: two of them walk 0 -> 1
    verts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.5, 1.0, 1.0],
                      [0.5, -1.0, 1.0], [0.5, 0.0, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    return msh.TriMesh(verts, tris, np.zeros(5, dtype=np.int64))


def test_validate_rejects_non_manifold_edge():
    m = non_manifold_mesh()
    table = msh.edge_table(m)
    # the three-owner edge (0, 1) is no boundary edge; the other six are,
    # in directed-edge order: (1, 2), (0, 3), (1, 4) | (2, 0), (3, 1), (4, 0)
    npt.assert_array_equal(table.edges, [[1, 2], [0, 3], [1, 4],
                                         [2, 0], [3, 1], [4, 0]])
    npt.assert_array_equal(table.owner, [0, 1, 2, 0, 1, 2])
    assert table.repeated_direction
    with pytest.raises(ValueError) as err:
        msh.validate(m, geo.pyramid_to_cone(1.0, 1.0))
    assert str(err.value) == "inconsistent orientation: repeated directed edge"


def test_edge_table_of_a_square():
    table = msh.edge_table(quad_mesh())
    # directed edges (0, 1), (0, 2) | (1, 2), (2, 3) | (2, 0), (3, 0); the
    # diagonal (0, 2) is walked both ways, the four sides once
    npt.assert_array_equal(table.edges, [[0, 1], [1, 2], [2, 3], [3, 0]])
    npt.assert_array_equal(table.owner, [0, 0, 1, 1])
    assert not table.repeated_direction


def grid_mesh(n, hole=False):
    """An n x n grid of squares, each split in two; with hole, the middle
    squares are left out."""
    g = np.arange(n + 1, dtype=float)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.ones(xx.size)])
    v00 = np.arange(n)[:, None] * (n + 1) + np.arange(n)[None, :]
    keep = np.ones((n, n), dtype=bool)
    if hole:
        keep[n // 3:n - n // 3, n // 3:n - n // 3] = False
    v00 = v00[keep]
    v10 = v00 + (n + 1)
    tris = np.concatenate([np.column_stack([v00, v10, v10 + 1]),
                           np.column_stack([v00, v10 + 1, v00 + 1])])
    return msh.TriMesh(verts, tris, np.zeros(len(verts), dtype=np.int64))


def flipped(m, k):
    """m with triangle k's orientation reversed: each of its interior edges
    is then walked twice one way, so edge_table's sort keys tie."""
    tris = m.triangles.copy()
    tris[k] = tris[k, ::-1]
    return msh.TriMesh(m.vertices, tris, m.vertex_class)


def shuffled(m, seed):
    """m with its vertices renumbered and its triangles reordered."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m.n_vertices)
    tris = perm[m.triangles][rng.permutation(m.n_triangles)]
    back = np.argsort(perm)
    return msh.TriMesh(m.vertices[back], tris, m.vertex_class[back])


@pytest.mark.parametrize("mesh", (
    shuffled(make_initial_plane(geo.pyramid_to_cone(1.0, 1.0), 1.0, 12), 4),
    grid_mesh(9), grid_mesh(9, hole=True), non_manifold_mesh(),
    flipped(grid_mesh(9), 40)),
    ids=("shuffled fan", "grid", "grid with hole", "three owners",
         "flipped triangle"))
def test_edge_table_equals_unique_counts(mesh):
    table = msh.edge_table(mesh)
    edges, owner, repeated_direction = edge_table_unique(mesh)
    assert len(edges) > 0
    npt.assert_array_equal(table.edges, edges)
    npt.assert_array_equal(table.owner, owner)
    assert table.repeated_direction == repeated_direction


@pytest.mark.parametrize("bad", (15, -1), ids=("n", "-1"))
@pytest.mark.parametrize("entry", ("validate", "minimize", "surface_area"))
def test_triangle_index_out_of_range_named(entry, bad):
    # checked before any gather through the triangles, whose IndexError
    # (index n) or silent wrap-around (index -1) would name no triangle
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = make_initial_plane(cone, 1.0, 4)
    assert m.n_vertices == 15
    m.triangles[5, 1] = bad
    message = f"triangle 5: vertex index {bad} out of range for 15 vertices"
    with pytest.raises(ValueError) as err:
        if entry == "validate":
            msh.validate(m, cone)
        elif entry == "surface_area":
            msh.surface_area(m)
        else:
            minimize(m, cone, MinimizeConfig(max_iters=1), jitter=0.05)
    assert str(err.value) == message


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
    fb, inner = msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.INTERIOR
    for bad in (4, 99, -3):
        m = cone_triangle_mesh([inner, fb, inner], facet=[-1, bad, -1])
        with pytest.raises(ValueError,
                           match=rf"^vertex 1: invalid facet index {bad}$"):
            msh.validate(m, cone)
    # an edge face is a row of cone.face_table: facets 0 and 1 of the
    # pyramid meet in a line outside the cone, and rows list the lower facet
    # first
    for pair in ((2, 99), (0, 1), (2, 0)):
        m = cone_triangle_mesh([inner, fb, inner], facet=[-1, pair[0], -1],
                               facet2=[-1, pair[1], -1])
        with pytest.raises(ValueError, match=r"^vertex 1: facets \(%d, %d\) "
                           r"are not a cone edge$" % pair):
            msh.validate(m, cone)
    # vertex 1 lies on facet 2 only, not on the edge (0, 2)
    m = cone_triangle_mesh([inner, fb, inner], facet=[-1, 0, -1],
                           facet2=[-1, 2, -1])
    with pytest.raises(ValueError, match=r"^vertex 1 off its cone edge$"):
        msh.validate(m, cone)


def test_validate_face_checks_read_free_boundary_rows_only():
    # facet indices out of range at an interior and a clamped vertex are
    # not read; the message names the lowest free-boundary offender
    cone = geo.pyramid_to_cone(1.0, 1.0)
    fb, cl = msh.VertexClass.FREE_BOUNDARY, msh.VertexClass.CLAMPED
    inner = msh.VertexClass.INTERIOR
    m = cone_triangle_mesh([inner, cl, fb], facet=[99, -7, 9],
                           facet2=[42, 99, -1])
    with pytest.raises(ValueError, match=r"^vertex 2: invalid facet index 9$"):
        msh.validate(m, cone)
    m.facet[2], m.facet2[2] = 2, 99
    with pytest.raises(ValueError, match=r"^vertex 2: facets \(2, 99\) are "
                       r"not a cone edge$"):
        msh.validate(m, cone)
    m.vertex_class[2] = inner
    msh.validate(m, cone)


def test_validate_rejects_unknown_class():
    cone = geo.pyramid_to_cone(1.0, 1.0)
    inner = msh.VertexClass.INTERIOR
    m = cone_triangle_mesh([inner, inner, inner])
    msh.validate(m, cone)
    m.vertex_class[2] = 4
    with pytest.raises(ValueError, match=r"^vertex 2: unknown class 4$"):
        msh.validate(m, cone)


def test_validate_names_first_non_finite_vertex():
    # a NaN or infinite coordinate fails before any geometric check, also
    # with the vertices laid out as coordinate planes
    m = make_initial_plane(geo.pyramid_to_cone(1.0, 1.0), 1.0, 8)
    m.vertices[[40, 12], [2, 1]] = [np.nan, np.inf]
    for vertices in (m.vertices, np.ascontiguousarray(m.vertices.T).T):
        m.vertices = vertices
        with pytest.raises(ValueError, match=r"^vertex 12 is not finite$"):
            msh.validate(m, geo.pyramid_to_cone(1.0, 1.0))


@pytest.mark.parametrize("field, value, bad", [
    ("triangles", [[0, 1, 2.7]], "2.7"),
    ("vertex_class", [0, 0.5, 0], "0.5"),
    ("facet", [-1, 1.5, -1], "1.5"),
    ("facet2", [-1, np.nan, -1], "nan"),
])
def test_trimesh_rejects_non_integral_indices(field, value, bad):
    # a cast to int64 would truncate them: 2.7 to vertex 2, 0.5 to INTERIOR
    args = dict(vertices=np.eye(3), triangles=[[0, 1, 2]],
                vertex_class=[0, 0, 0])
    args[field] = value
    with pytest.raises(ValueError, match=rf"^{field}: {bad} is not an integer$"):
        msh.TriMesh(**args)
    # integral floats are integers
    m = msh.TriMesh(np.eye(3), [[0.0, 1.0, 2.0]], [0.0, 1.0, 2.0],
                    [-1.0, 0.0, -1.0], [-1.0, 2.0, -1.0])
    assert m.triangles.tolist() == [[0, 1, 2]]
    assert [x.dtype for x in (m.triangles, m.vertex_class, m.facet,
                              m.facet2)] == [np.int64] * 4


@pytest.mark.parametrize("jitter", (None, 0.0, 0.05),
                         ids=("validate", "minimize", "jittered minimize"))
def test_mesh_without_triangles_rejected(jitter):
    # minimize used to report such a mesh converged, or, jittered, fail on
    # the mean normal of no triangles
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = msh.TriMesh([[0.0, 0.0, 1.0], [0.0, 0.1, 1.0], [0.1, 0.0, 1.0]],
                    np.zeros((0, 3), dtype=np.int64), np.zeros(3, np.int64))
    with pytest.raises(ValueError, match=r"^the mesh has no triangles$"):
        if jitter is None:
            msh.validate(m, cone)
        else:
            minimize(m, cone, MinimizeConfig(max_iters=3), jitter=jitter)


def test_validate_checks_indices_once(monkeypatch):
    calls = []

    def counted(mesh, check=msh._check_indices):
        calls.append(mesh)
        check(mesh)

    monkeypatch.setattr(msh, "_check_indices", counted)
    m = make_initial_plane(geo.pyramid_to_cone(1.0, 1.0), 1.0, 8)
    msh.validate(m, geo.pyramid_to_cone(1.0, 1.0))
    assert len(calls) == 1


def test_save_obj_matches_per_vertex_writer(tmp_path):
    # the wedge's initial plane has every vertex class and both kinds of
    # face: an apex on the cone edge, free-boundary rays on facets, a
    # clamped rim and interior vertices
    m = make_initial_plane(geo.wedge_above(1.0, 1), 1.0, 6)
    assert sorted(set(m.vertex_class.tolist())) == [0, 1, 2]
    assert m.facet2[0] >= 0
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
        if cls == msh.VertexClass.FREE_BOUNDARY:
            rec["facet"] = int(m.facet[i])
            if m.facet2[i] >= 0:
                rec["facet2"] = int(m.facet2[i])
        assert classes[str(i)] == rec


def test_copy_is_deep():
    m = quad_mesh()
    c = m.copy()
    c.vertices[0, 0] = 9.0
    assert m.vertices[0, 0] == 0.0
    c.triangles[0, 0] = 3
    assert m.triangles[0, 0] == 0
    # both keep their triangles as one contiguous (3, m) corner index
    assert m.triangles.T.flags.c_contiguous and c.triangles.T.flags.c_contiguous
