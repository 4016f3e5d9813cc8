"""Global DOF numbering, interpolation, evaluation and the discrete L2 norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwave import build_space, evaluate, generate_box_mesh, interpolate, l2_error
from semwave.gll import lagrange_all
from semwave.mesh import map_points
from semwave.assembly import surface_quadrature
from semwave.space import SpectralField, basis_rows, face_local_nodes, write_vtk

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


def test_single_element_r2_has_27_dofs(unit_space_r2):
    assert unit_space_r2.ndof == 27


def test_shared_face_dedup():
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    space = build_space(mesh, 1)
    assert space.ndof == 12  # not 16: the 4 face nodes are shared


def test_structured_count_r3():
    mesh = generate_box_mesh(UNIT_BOX, (4, 4, 4))
    space = build_space(mesh, 3)
    assert space.ndof == 13**3


def test_emap_consistent_with_coords(cube2_space_r2):
    space = cube2_space_r2
    ref = space.local_nodes_ref()
    for e in (0, 5):
        for q in (0, 13, 26):
            x = map_points(space.mesh.corner_coords(e)[None], ref[q][None])[0, 0]
            np.testing.assert_allclose(space.node_coords[space.emap[e, q]], x, atol=1e-12)


def test_interpolate_constant(cube2_space_r2):
    fld = interpolate(cube2_space_r2, lambda x, y, z: 1.0)
    np.testing.assert_allclose(fld.coeffs, 1.0)


def test_interpolate_linear_gives_coordinates(unit_space_r1):
    fld = interpolate(unit_space_r1, lambda x, y, z: x)
    np.testing.assert_allclose(fld.coeffs, unit_space_r1.node_coords[:, 0], atol=1e-14)


def test_quadratic_reproduced_off_nodes(cube2_space_r2):
    fld = interpolate(cube2_space_r2, lambda x, y, z: x**2)
    for pt in ([0.37, 0.11, 0.83], [0.5, 0.5, 0.5], [0.99, 0.01, 0.2]):
        assert abs(evaluate(cube2_space_r2, fld, np.array(pt)) - pt[0] ** 2) < 1e-12


def test_evaluate_constant(cube2_space_r2):
    fld = SpectralField(cube2_space_r2, np.full(cube2_space_r2.ndof, 3.5))
    assert abs(evaluate(cube2_space_r2, fld, np.array([0.2, 0.9, 0.4])) - 3.5) < 1e-12


def test_evaluate_linear_midpoint(cube2_space_r2):
    fld = interpolate(cube2_space_r2, lambda x, y, z: x)
    assert abs(evaluate(cube2_space_r2, fld, np.array([0.3, 0.3, 0.3])) - 0.3) < 1e-12


def test_evaluate_at_global_node(cube2_space_r2):
    space = cube2_space_r2
    rng = np.random.default_rng(7)
    fld = SpectralField(space, rng.standard_normal(space.ndof))
    i = 100
    assert abs(evaluate(space, fld, space.node_coords[i]) - fld.coeffs[i]) < 1e-10


def test_evaluate_outside_raises(cube2_space_r2):
    fld = interpolate(cube2_space_r2, lambda x, y, z: x)
    with pytest.raises(ValueError, match="outside"):
        evaluate(cube2_space_r2, fld, np.array([2.0, 0.5, 0.5]))


def test_l2_error_of_interpolant_is_zero(cube2_space_r2):
    exact = lambda x, y, z: x**2 - y * z  # noqa: E731  (in Q_2)
    fld = interpolate(cube2_space_r2, exact)
    assert l2_error(cube2_space_r2, fld, exact) < 1e-13


def test_l2_error_of_zero_vs_one(cube2_space_r2):
    fld = SpectralField(cube2_space_r2, np.zeros(cube2_space_r2.ndof))
    assert abs(l2_error(cube2_space_r2, fld, lambda x, y, z: 1.0) - 1.0) < 1e-12


def test_l2_error_sine_quadrature_accuracy():
    # || sin(pi x) ||_L2 over the unit cube is sqrt(1/2); the discrete
    # norm with r = 4 GLL quadrature on a 4^3 mesh agrees to < 1e-6
    mesh = generate_box_mesh(UNIT_BOX, (4, 4, 4))
    space = build_space(mesh, 4)
    fld = SpectralField(space, np.zeros(space.ndof))
    val = l2_error(space, fld, lambda x, y, z: np.sin(np.pi * x))
    assert abs(val - np.sqrt(0.5)) < 1e-6


def test_field_length_validation(unit_space_r1):
    with pytest.raises(ValueError):
        SpectralField(unit_space_r1, np.zeros(3))
    with pytest.raises(ValueError):
        SpectralField(unit_space_r1, np.full(unit_space_r1.ndof, np.nan))


def test_face_local_nodes_shapes():
    for r in (1, 2, 4):
        p = r + 1
        for f in range(6):
            nodes = face_local_nodes(r, f)
            assert nodes.shape == (p * p,)
            assert len(set(nodes.tolist())) == p * p


def test_face_local_nodes_fixed_axis():
    # face 1 is xi = +1: all local indices have i = r
    r = 3
    p = r + 1
    for loc in face_local_nodes(r, 1):
        assert loc % p == r
    for loc in face_local_nodes(r, 4):  # zeta = -1: k = 0
        assert loc // (p * p) == 0


def _boundary_dofs(space, tag):
    """The distinct DOFs on the faces tagged tag, from the surface rule."""
    return np.unique(surface_quadrature(space, tag)[0])


def test_boundary_dofs_counts(cube2_mesh):
    space = build_space(cube2_mesh, 2)
    for tag in ("xmin", "zmax"):
        assert len(_boundary_dofs(space, tag)) == 25  # (2*2+1)^2 nodes per side


@given(
    coeffs=st.lists(st.floats(-1, 1), min_size=8, max_size=8),
    pt=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
)
@settings(max_examples=25, deadline=None)
def test_trilinear_reproduction_property(coeffs, pt):
    """Q_1 functions are reproduced exactly anywhere in the mesh."""
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 1)
    c = coeffs

    def g(x, y, z):
        return c[0] + c[1] * x + c[2] * y + c[3] * z + c[4] * x * y + c[5] * x * z + c[6] * y * z + c[7] * x * y * z

    fld = interpolate(space, g)
    x = np.array(pt)
    assert abs(evaluate(space, fld, x) - g(*x)) < 1e-9


def _write_vtk_oracle(space, fields, path):
    """The writer before the geometry text was cached: every block formatted
    line by line on every call."""
    r = space.degree
    p = r + 1
    origin = np.arange(p**3).reshape(p, p, p)[:r, :r, :r].ravel()
    quad = np.array([0, 1, 1 + p, p])
    cells = space.emap[:, origin[:, None] + np.concatenate([quad, quad + p * p])].reshape(-1, 8).tolist()
    ncell = len(cells)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nsemwave output\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {space.ndof} double\n")
        fh.write("".join(f"{x:.16g} {y:.16g} {z:.16g}\n" for x, y, z in space.node_coords.tolist()))
        fh.write(f"CELLS {ncell} {9 * ncell}\n")
        fh.write("".join("8 " + " ".join(map(str, ids)) + "\n" for ids in cells))
        fh.write(f"CELL_TYPES {ncell}\n")
        fh.write("\n".join(["12"] * ncell) + "\n")
        fh.write(f"POINT_DATA {space.ndof}\n")
        for name, fld in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(f"{v:.16g}" for v in fld.coeffs) + "\n")


def test_write_vtk(tmp_path, cube2_space_r2):
    space = cube2_space_r2
    fld = interpolate(space, lambda x, y, z: x + y)
    path = tmp_path / "out.vtk"
    write_vtk(space, {"p": fld}, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {space.ndof} double" in text
    ncell = space.mesh.num_elements * space.degree**3
    assert f"CELLS {ncell} {9 * ncell}" in text
    assert "SCALARS p double 1" in text
    # sub-cell connectivity against a per-cell loop, VTK hexahedron corner order
    r, p = space.degree, space.degree + 1
    cells = []
    for m in space.emap:
        for k in range(r):
            for j in range(r):
                for i in range(r):
                    ijk = [(i, j, k), (i + 1, j, k), (i + 1, j + 1, k), (i, j + 1, k),
                           (i, j, k + 1), (i + 1, j, k + 1), (i + 1, j + 1, k + 1), (i, j + 1, k + 1)]
                    cells.append("8 " + " ".join(str(m[a + p * b + p * p * c]) for a, b, c in ijk))
    start = text.index(f"CELLS {ncell} {9 * ncell}") + 1
    assert text[start : start + ncell] == cells


def test_l2_error_overintegrated_sees_interpolation_error(cube2_space_r2):
    # the interpolant of a non-polynomial function has zero error at the
    # nodes but a real error between them: the Gauss-sampled norm sees it
    field = interpolate(cube2_space_r2, lambda x, y, z: np.sin(3.0 * x))
    exact = lambda x, y, z: np.sin(3.0 * x)  # noqa: E731
    assert l2_error(cube2_space_r2, field, exact) < 1e-13
    dense = l2_error(cube2_space_r2, field, exact, points=8)
    assert dense > 1e-5


def test_l2_error_overintegrated_matches_analytic(cube2_space_r2):
    # ||0 - sin(pi x)||_L2 = sqrt(1/2) on the unit cube
    zero = SpectralField(cube2_space_r2, np.zeros(cube2_space_r2.ndof))
    err = l2_error(cube2_space_r2, zero, lambda x, y, z: np.sin(np.pi * x), points=10)
    assert abs(err - np.sqrt(0.5)) < 1e-10


# -- topological numbering ------------------------------------------------


def _coordinate_hash_numbering(mesh, r):
    """Reference numbering: merge local nodes whose coordinates, rounded to a
    1e-10 h grid, are equal; DOFs in order of first appearance."""
    from semwave.gll import gll_rule
    from semwave.mesh import shape_functions

    g = gll_rule(r).nodes
    p = r + 1
    ref = np.array([(g[i], g[j], g[k]) for k in range(p) for j in range(p) for i in range(p)])
    phys = np.einsum("qc,ecx->eqx", shape_functions(ref), mesh.corner_coords())
    keys = np.round(phys / (1e-10 * mesh.h)).astype(np.int64)
    seen, coords = {}, []
    emap = np.empty(keys.shape[:2], dtype=int)
    for e in range(keys.shape[0]):
        for q in range(keys.shape[1]):
            gid = seen.setdefault(tuple(keys[e, q]), len(coords))
            if gid == len(coords):
                coords.append(phys[e, q])
            emap[e, q] = gid
    return emap, np.array(coords)


@pytest.mark.parametrize("which", ["cube2_mesh", "graded_mesh", "perturbed_mesh"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_topological_numbering_matches_coordinate_hash(request, which, r):
    mesh = request.getfixturevalue(which)
    space = build_space(mesh, r)
    emap, coords = _coordinate_hash_numbering(mesh, r)
    np.testing.assert_array_equal(space.emap, emap)
    np.testing.assert_array_equal(space.node_coords, coords)
    for tag in mesh.tags:
        faces = [emap[e, face_local_nodes(r, f)] for e, f, t in mesh.boundary if t == tag]
        np.testing.assert_array_equal(_boundary_dofs(space, tag), np.unique(np.concatenate(faces)))


def _rotations():
    """The 24 signed permutation matrices with determinant +1."""
    import itertools

    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((-1, 1), repeat=3):
            rot = np.zeros((3, 3), dtype=int)
            rot[range(3), perm] = signs
            if round(np.linalg.det(rot)) == 1:
                out.append(rot)
    return out


def _reorient(mesh, seed):
    """The same mesh with each element's corner list rotated by a random
    proper symmetry of the reference cube, and its boundary faces renumbered
    to match.  New reference coordinates xi' relate to the old ones by
    xi = R xi', so every Jacobian keeps its sign."""
    from semwave.mesh import CORNER_REF, FACE_AXIS, HexMesh

    corner_of = {tuple(s): c for c, s in enumerate(CORNER_REF.astype(int))}
    rots = _rotations()
    choice = np.random.default_rng(seed).integers(len(rots), size=mesh.num_elements)
    elements = np.empty_like(mesh.elements)
    for e, rot in enumerate(rots[i] for i in choice):
        elements[e] = [mesh.elements[e, corner_of[tuple(rot @ s)]] for s in CORNER_REF.astype(int)]
    boundary = []
    for e, f, tag in mesh.boundary:
        axis, sign = FACE_AXIS[f]
        rot = rots[choice[e]]
        new_axis = int(np.nonzero(rot[axis])[0][0])  # xi_axis = R[axis, new_axis] xi'_new_axis
        boundary.append((e, 2 * new_axis + int(sign * rot[axis, new_axis] > 0), tag))
    return HexMesh(mesh.vertices, elements, boundary)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_reoriented_elements_still_share_dofs(perturbed_mesh, r):
    from semwave.assembly import apply_stiffness, assemble_mass
    from semwave.mesh import shape_functions

    mesh = _reorient(perturbed_mesh, seed=r)
    assert not np.array_equal(mesh.elements, perturbed_mesh.elements)
    space, original = build_space(mesh, r), build_space(perturbed_mesh, r)
    assert space.ndof == original.ndof
    # every copy of a shared DOF sits at the DOF's position
    phys = np.einsum("qc,ecx->eqx", shape_functions(space.local_nodes_ref()), mesh.corner_coords())
    np.testing.assert_allclose(space.node_coords[space.emap], phys, rtol=0, atol=1e-14)
    assert np.abs(apply_stiffness(space, np.ones(space.ndof))).max() < 1e-12
    # interior vertices moved, boundary fixed: the volume is the box's 1.5,
    # integrated exactly by GLL from r = 2 on
    mass = assemble_mass(space).sum()
    np.testing.assert_allclose(mass, assemble_mass(original).sum(), rtol=1e-13)
    if r > 1:
        np.testing.assert_allclose(mass, 1.5, rtol=1e-13)
    for tag in original.mesh.tags:
        assert _boundary_dofs(space, tag).size == _boundary_dofs(original, tag).size


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_basis_rows_match_per_point_basis(unit_mesh, rng, r):
    """basis_rows equals the per-point tensor product of the 1D
    cardinal values, is the identity at the local nodes and reproduces a
    degree-r tensor polynomial at random points."""
    space = build_space(unit_mesh, r)
    xi = np.vstack([rng.uniform(-1, 1, (20, 3)), space.local_nodes_ref(), [[-1.0, 1.0, 0.3]]])
    rows = basis_rows(space, xi)
    for x, row in zip(xi, rows):
        lx, ly, lz = (lagrange_all(space.rule, c) for c in x)
        np.testing.assert_array_equal(row, np.einsum("i,j,k->kji", lx, ly, lz).ravel())
    np.testing.assert_array_equal(rows[20:20 + space.nloc], np.eye(space.nloc))
    nodes = space.local_nodes_ref()

    def poly(p):
        return (1 + p[..., 0]) ** r * (0.5 - p[..., 1]) ** r * p[..., 2] ** (r - 1)

    np.testing.assert_allclose(rows @ poly(nodes), poly(xi), rtol=0, atol=1e-12)
    assert basis_rows(space, np.empty((0, 3))).shape == (0, space.nloc)


@pytest.mark.parametrize("r, warped", [(1, False), (2, False), (3, False), (2, True)])
def test_write_vtk_bytes_match_oracle(tmp_path, rng, perturbed_mesh, r, warped):
    """The cached geometry text plus per-field scalars give the oracle's bytes,
    on the first call and on later calls with changed coefficients."""
    mesh = perturbed_mesh if warped else generate_box_mesh([(0.0, 1.5), (-1.0, 0.0), (0.0, 0.7)], (3, 2, 2))
    space = build_space(mesh, r)  # a fresh space: the first write builds the cache
    assert "vtk" not in space._geom
    for call in range(3):
        fields = {name: SpectralField(space, rng.standard_normal(space.ndof) * 10.0 ** rng.integers(-12, 12))
                  for name in ("p", "rho")}
        fields["p"].coeffs[:2] = (0.0, -0.0)
        new, old = tmp_path / f"new{call}.vtk", tmp_path / f"old{call}.vtk"
        write_vtk(space, fields, new)
        _write_vtk_oracle(space, fields, old)
        assert new.read_bytes() == old.read_bytes()
        assert "vtk" in space._geom


def test_write_vtk_geometry_built_once(tmp_path, monkeypatch):
    """Later snapshots reuse the cached text: the geometry is not read again."""
    space = build_space(generate_box_mesh(UNIT_BOX, (2, 1, 1)), 2)
    fld = interpolate(space, lambda x, y, z: x * y - z)
    write_vtk(space, {"p": fld}, tmp_path / "a.vtk")
    monkeypatch.setattr(space, "node_coords", None)
    monkeypatch.setattr(space, "emap", None)
    write_vtk(space, {"p": fld}, tmp_path / "b.vtk")
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()
