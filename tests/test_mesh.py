"""Hex mesh construction, trilinear geometry, point location and file I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwave.mesh import (
    CORNER_REF,
    FACE_CORNERS,
    DegenerateElementError,
    HexMesh,
    MeshError,
    generate_box_mesh,
    map_cofactors,
    map_jacobians,
    map_points,
    shape_functions,
    shape_gradients,
)

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


def _to_physical(mesh, e, xi) -> np.ndarray:
    """x of element e's map at the one reference point xi."""
    return map_points(mesh.corner_coords(e)[None], np.reshape(xi, (1, 3)))[0, 0]


def test_single_element_counts():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    assert mesh.num_elements == 1
    assert mesh.vertices.shape == (8, 3)
    assert len(mesh.boundary) == 6


def test_4x4x4_counts():
    mesh = generate_box_mesh(UNIT_BOX, (4, 4, 4))
    assert mesh.num_elements == 64
    assert mesh.vertices.shape == (125, 3)


@pytest.mark.parametrize("div", [(1, 1, 1), (3, 2, 4), (1, 3, 2)])
def test_box_connectivity_matches_loop(div):
    """Element corners and boundary entries, in order, against index loops."""
    nx, ny, nz = div
    mesh = generate_box_mesh(UNIT_BOX, div, {"ymin": "floor"})

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    def eid(i, j, k):
        return (i * ny + j) * nz + k

    elements = [[vid(i + a, j + b, k + c) for c in (0, 1) for b in (0, 1) for a in (0, 1)]
                for i in range(nx) for j in range(ny) for k in range(nz)]
    boundary = []
    for j in range(ny):
        for k in range(nz):
            boundary += [(eid(0, j, k), 0, "xmin"), (eid(nx - 1, j, k), 1, "xmax")]
    for i in range(nx):
        for k in range(nz):
            boundary += [(eid(i, 0, k), 2, "floor"), (eid(i, ny - 1, k), 3, "ymax")]
    for i in range(nx):
        for j in range(ny):
            boundary += [(eid(i, j, 0), 4, "zmin"), (eid(i, j, nz - 1), 5, "zmax")]
    np.testing.assert_array_equal(mesh.elements, elements)
    assert mesh.boundary == boundary


def test_interior_face_not_on_boundary():
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    assert len(mesh.boundary) == 10  # 2 end caps + 2*4 side faces
    # the shared face x=0.5 is interior: no boundary entry references it
    shared = {i for i, v in enumerate(mesh.vertices) if abs(v[0] - 0.5) < 1e-12}
    from semwave.mesh import FACE_CORNERS

    for e, f, _tag in mesh.boundary:
        face_verts = set(mesh.elements[e, FACE_CORNERS[f]].tolist())
        assert face_verts != shared


def test_shape_functions_partition_of_unity(rng):
    ref = rng.uniform(-1, 1, size=(20, 3))
    np.testing.assert_allclose(shape_functions(ref).sum(axis=-1), 1.0, atol=1e-14)


def test_shape_functions_cardinal_at_corners():
    np.testing.assert_allclose(shape_functions(CORNER_REF), np.eye(8), atol=1e-14)


def test_shape_gradients_finite_difference(rng):
    ref = rng.uniform(-0.9, 0.9, size=3)
    grad = shape_gradients(ref)
    eps = 1e-6
    for d in range(3):
        hi, lo = ref.copy(), ref.copy()
        hi[d] += eps
        lo[d] -= eps
        fd = (shape_functions(hi) - shape_functions(lo)) / (2 * eps)
        np.testing.assert_allclose(grad[:, d], fd, atol=1e-8)


def test_map_centroid():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    x = _to_physical(mesh, 0, np.zeros(3))
    np.testing.assert_allclose(x, [0.5, 0.5, 0.5], atol=1e-14)


def test_map_corner():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    x = _to_physical(mesh, 0, [-1.0, -1.0, -1.0])
    np.testing.assert_allclose(x, [0.0, 0.0, 0.0], atol=1e-14)


def test_map_scaled_face_midpoint():
    mesh = generate_box_mesh([(0, 2), (0, 2), (0, 2)], (1, 1, 1))
    x = _to_physical(mesh, 0, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(x, [2.0, 1.0, 1.0], atol=1e-14)


def test_map_points_match_shape_functions(perturbed_mesh, rng):
    ref = rng.uniform(-1, 1, (7, 3))
    corners = perturbed_mesh.corner_coords()
    x = map_points(corners, ref)
    assert x.shape == (perturbed_mesh.num_elements, 7, 3)
    for e in (0, perturbed_mesh.num_elements - 1):
        np.testing.assert_allclose(x[e], shape_functions(ref) @ corners[e], rtol=0, atol=1e-15)


def _jacobian(mesh, e, xi):
    """(J, det J) of element e's map at the reference point xi, J[x, d] = dx/d(ref_d)."""
    corners, ref = mesh.corner_coords(e)[None], np.reshape(xi, (1, 3))
    return map_jacobians(corners, ref)[:, :, 0, 0], float(map_cofactors(corners, ref)[1][0, 0])


def test_jacobian_unit_cube():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    jac, det = _jacobian(mesh, 0, np.zeros(3))
    np.testing.assert_allclose(jac, 0.5 * np.eye(3), atol=1e-14)
    assert abs(det - 0.125) < 1e-14


def test_jacobian_stretched_box():
    mesh = generate_box_mesh([(0, 2), (0, 1), (0, 1)], (1, 1, 1))
    _, det = _jacobian(mesh, 0, np.zeros(3))
    assert abs(det - 0.25) < 1e-14


def test_sheared_hex_has_varying_jacobian():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    verts = mesh.vertices.copy()
    # shift one top corner in x: the trilinear map is no longer affine
    # (shifting the whole face would be a pure shear, constant Jacobian)
    top = (verts[:, 2] > 0.5) & (verts[:, 0] > 0.5) & (verts[:, 1] > 0.5)
    verts[top, 0] += 0.3
    sheared = HexMesh(verts, mesh.elements, mesh.boundary)
    j1, _ = _jacobian(sheared, 0, [0.0, 0.0, -0.9])
    j2, _ = _jacobian(sheared, 0, [0.0, 0.0, 0.9])
    assert not np.allclose(j1, j2)


def test_aligned_boxes(graded_mesh, perturbed_mesh, rotated_mesh):
    assert generate_box_mesh(UNIT_BOX, (2, 3, 1)).aligned_boxes()
    assert graded_mesh.aligned_boxes()
    assert not perturbed_mesh.aligned_boxes()
    assert not rotated_mesh.aligned_boxes()
    # one corner moved by far less than the element but far more than roundoff
    v = graded_mesh.vertices.copy()
    v[graded_mesh.elements[0, 7]] += 1e-9
    assert not HexMesh(v, graded_mesh.elements, graded_mesh.boundary).aligned_boxes()
    # a box turned half a turn about z: corner order reversed along x and y, det J > 0
    cube = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    turned = HexMesh(cube.vertices, cube.elements[:, np.arange(8) ^ 3], cube.boundary)
    assert not turned.aligned_boxes()


def test_locate_point_on_shared_face():
    mesh = generate_box_mesh(UNIT_BOX, (4, 4, 4))
    ref = mesh.locate_point(np.array([0.5 + 1e-12, 0.5, 0.5]))
    assert ref is not None
    # the point sits on the face shared by two elements; either owner is
    # acceptable, but the reference coordinate must lie on that face and
    # map back to the physical point
    assert abs(abs(ref.xi[0]) - 1.0) < 1e-6
    np.testing.assert_allclose(_to_physical(mesh, ref.element, ref.xi), [0.5, 0.5, 0.5], atol=1e-9)


def test_locate_point_centroid():
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    centroid = mesh.corner_coords(3).mean(axis=0)
    ref = mesh.locate_point(centroid)
    assert ref.element == 3
    np.testing.assert_allclose(ref.xi, 0.0, atol=1e-10)


def test_locate_point_outside():
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    assert mesh.locate_point(np.array([1.5, 0.5, 0.5])) is None


def test_locate_tie_goes_to_lowest_element():
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    ref = mesh.locate_point(np.array([0.5, 0.5, 0.5]))
    assert ref.element == 0


def _location_points(mesh, rng):
    """Vertices, points on shared faces (one reference coordinate at +1, on
    a face with a neighbour), element interiors and points outside the mesh;
    returns (points, number outside)."""
    exterior = {(e, f) for e, f, _ in mesh.boundary}
    on_faces = []
    for e in range(mesh.num_elements):
        for f in (1, 3, 5):
            if (e, f) not in exterior:
                ref = rng.uniform(-1, 1, 3)
                ref[f // 2] = 1.0
                on_faces.append(_to_physical(mesh, e, ref))
    inside = [_to_physical(mesh, e, rng.uniform(-0.95, 0.95, 3)) for e in range(mesh.num_elements)]
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    outside = [hi + [0.1, 0.0, 0.0], lo - 0.2, [0.5 * (lo[0] + hi[0]), 0.5, hi[2] + 1e-6]]
    return np.vstack([mesh.vertices, on_faces, inside, outside]), len(outside)


def test_locate_points_matches_per_point_loop(perturbed_mesh, rng, locate_by_loop):
    mesh = perturbed_mesh
    X, n_out = _location_points(mesh, rng)
    X = X[rng.permutation(len(X))]
    elem, xi = mesh.locate_points(X)
    single = [locate_by_loop(mesh, x) for x in X]
    assert [r is None for r in single] == list(elem < 0)
    assert (elem < 0).sum() == n_out and np.all(np.isnan(xi[elem < 0]))
    for x, e, ref, r in zip(X, elem, xi, single):
        if r is not None:
            assert e == r[0]  # the same Newton steps, summed in another order
            np.testing.assert_allclose(ref, r[1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(_to_physical(mesh, e, ref), x, atol=1e-12)
    assert np.all(np.abs(xi[elem >= 0]) <= 1.0)


def test_locate_points_tie_goes_to_lowest_element():
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    elem, _ = mesh.locate_points([[0.75, 0.5, 0.5], [0.5, 0.5, 0.5], [0.25, 0.5, 0.5], [0.5, 0.2, 0.2]])
    assert elem.tolist() == [1, 0, 0, 0]
    assert mesh.locate_points(np.empty((0, 3)))[0].shape == (0,)


@given(
    seed=st.integers(0, 2**32 - 1),
    e=st.integers(0, 11),
    xi=st.tuples(*[st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))] * 3),  # faces, edges, corners too
)
@settings(max_examples=60, deadline=None)
def test_locate_points_inverts_map_property(seed, e, xi):
    """On a randomly perturbed mesh, the image x of (e, xi) is located in e,
    and its reference point maps back to x within 1e-12 h; or, when xi lies on
    a face e shares, in a lower-index element.  A neighbour accepts x up to
    1e-10 outside its reference cube and clips, so there x moves by <= 1e-10 h."""
    box = generate_box_mesh([(0.0, 1.5), (0.0, 1.0), (0.0, 1.0)], (3, 2, 2))
    v = box.vertices.copy()
    inner = np.all((v > 1e-12) & (v < box.vertices.max(axis=0) - 1e-12), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.12, 0.12, (inner.sum(), 3))
    mesh = HexMesh(v, box.elements, box.boundary)
    x = _to_physical(mesh, e, xi)
    elem, ref = mesh.locate_points(x[None])
    assert elem[0] == e or (0 <= elem[0] < e and np.abs(xi).max() >= 1.0 - 1e-9)
    tol = 1e-12 if elem[0] == e else 1e-10
    assert np.linalg.norm(_to_physical(mesh, elem[0], ref[0]) - x) <= tol * mesh.h


@pytest.mark.parametrize("points", [
    [0.5, 0.5, 0.5], [[0.5, 0.5]], [[[0.5, 0.5, 0.5]]], [[0.5, np.nan, 0.5]], [[0.5, 0.5, np.inf]],
])
def test_locate_points_rejects_bad_input(points):
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    with pytest.raises(ValueError, match="points must be"):
        mesh.locate_points(points)


def test_h_is_largest_diameter():
    mesh = generate_box_mesh([(0, 2), (0, 1), (0, 1)], (2, 1, 1))
    assert abs(mesh.h - np.sqrt(3.0)) < 1e-12


def test_inverted_element_rejected():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    elements = mesh.elements.copy()
    elements[0, [0, 1]] = elements[0, [1, 0]]  # swap two corners
    with pytest.raises(DegenerateElementError):
        HexMesh(mesh.vertices, elements, mesh.boundary)


def test_collapsed_element_rejected():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    verts = mesh.vertices.copy()
    verts[mesh.elements[0, 7]] = verts[mesh.elements[0, 6]]  # corner 7 onto corner 6: zero edge
    with pytest.raises(DegenerateElementError):
        HexMesh(verts, mesh.elements, mesh.boundary)


@pytest.mark.parametrize("rule", ["gll", "gauss"])
def test_map_cofactors_match_det_and_inverse(perturbed_mesh, rule):
    """det and cofactors against np.linalg.det / np.linalg.inv of J."""
    from semwave.gll import gll_rule, tensor_rule

    x = gll_rule(4).nodes if rule == "gll" else np.polynomial.legendre.leggauss(5)[0]
    ref = tensor_rule(x, np.ones_like(x))[0]
    corners = perturbed_mesh.corner_coords()
    cof, det = map_cofactors(corners, ref)
    jac = np.einsum("ecx,qcd->eqxd", corners, shape_gradients(ref))  # (ne, nq, 3, 3)
    np.testing.assert_allclose(det, np.linalg.det(jac), rtol=1e-13, atol=0)
    inv = np.linalg.inv(jac)  # inv[e, q, d, x]
    np.testing.assert_allclose(cof / det, inv.transpose(2, 3, 0, 1), rtol=0, atol=1e-13 * np.abs(inv).max())


def test_untagged_exterior_face_rejected():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    with pytest.raises(MeshError, match="untagged exterior"):
        HexMesh(mesh.vertices, mesh.elements, mesh.boundary[:-1])


def test_broken_conformity_rejected():
    # duplicate the vertices of the second element so the shared face no
    # longer matches: both copies become untagged exterior faces
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    verts = np.vstack([mesh.vertices, mesh.vertices])
    elements = mesh.elements.copy()
    elements[1] += len(mesh.vertices)
    with pytest.raises(MeshError):
        HexMesh(verts, elements, mesh.boundary)


def test_double_tag_rejected():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    boundary = mesh.boundary + [(0, 0, "extra")]
    with pytest.raises(MeshError, match="tagged more than once"):
        HexMesh(mesh.vertices, mesh.elements, boundary)


def test_interior_face_tag_rejected():
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    boundary = mesh.boundary + [(0, 1, "oops")]  # x+ face of element 0 is interior
    with pytest.raises(MeshError, match="not exterior"):
        HexMesh(mesh.vertices, mesh.elements, boundary)


def test_face_shared_by_three_elements_rejected():
    """Two unit cubes stacked on a third share its top face; every face seen
    once is tagged, so only the triple face is wrong."""
    base = generate_box_mesh([(0, 1), (0, 1), (0, 2)], (1, 1, 2))
    top = base.elements[1]
    extra_top = base.vertices[top[4:]] + [0.0, 0.0, 1.0]
    vertices = np.vstack([base.vertices, extra_top])
    third = np.concatenate([top[:4], len(base.vertices) + np.arange(4)])
    elements = np.vstack([base.elements, third])
    keys = [frozenset(el[c]) for el in elements for c in FACE_CORNERS]
    boundary = [(i // 6, i % 6, "wall") for i, k in enumerate(keys) if keys.count(k) == 1]
    with pytest.raises(MeshError, match="shared by more than two"):
        HexMesh(vertices, elements, boundary)


def test_boundary_entry_of_missing_element_rejected():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    for entry in ((1, 0, "x"), (0, 6, "x"), (-1, 0, "x")):
        with pytest.raises(MeshError, match="does not exist"):
            HexMesh(mesh.vertices, mesh.elements, mesh.boundary + [entry])


def test_json_roundtrip(tmp_path):
    mesh = generate_box_mesh([(0, 1), (0, 2), (0, 3)], (2, 2, 1), tags={"xmin": "inlet"})
    path = tmp_path / "mesh.json"
    mesh.save(path)
    back = HexMesh.load(path)
    np.testing.assert_allclose(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.elements, mesh.elements)
    assert back.boundary == mesh.boundary
    assert "inlet" in back.tags


def test_unsupported_version_rejected(tmp_path):
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    data = mesh.to_dict()
    data["version"] = "99"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MeshError, match="version"):
        HexMesh.load(path)


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        generate_box_mesh(UNIT_BOX, (0, 1, 1))
    with pytest.raises(ValueError):
        generate_box_mesh([(1, 0), (0, 1), (0, 1)], (1, 1, 1))


def test_custom_tags():
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2), tags={"xmax": "outlet"})
    assert mesh.tags == {"xmin", "outlet", "ymin", "ymax", "zmin", "zmax"}


def test_unknown_tag_side_rejected():
    """A tags key that is not a box side is an error naming it, not a tag silently dropped."""
    with pytest.raises(ValueError, match="foo"):
        generate_box_mesh(UNIT_BOX, (1, 1, 1), tags={"foo": "a", "xmax": "outlet"})


@pytest.mark.parametrize("key", ["vertices", "elements", "boundary"])
def test_mesh_file_missing_array_is_mesh_error(key):
    data = generate_box_mesh(UNIT_BOX, (1, 1, 1)).to_dict()
    del data[key]
    with pytest.raises(MeshError, match=f"mesh file missing '{key}'"):
        HexMesh.from_dict(data)


def test_mesh_file_not_an_object_is_mesh_error():
    with pytest.raises(MeshError, match="version None"):
        HexMesh.from_dict([1])
