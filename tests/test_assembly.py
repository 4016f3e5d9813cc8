"""Mass, stiffness, damping, convective operators and load vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwave import build_space, generate_box_mesh, interpolate
from semwave.assembly import (
    assemble_convective,
    assemble_damping,
    assemble_mass,
    assemble_operators,
    apply_stiffness,
    element_geometry,
    neumann_load,
    point_source_load,
    stiffness_matrix,
    surface_quadrature,
    volume_load,
)
from semwave.mesh import FACE_CORNERS

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


# -- mass -----------------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 4])
def test_mass_sums_to_volume(r):
    mesh = generate_box_mesh([(0, 2), (0, 1.5), (0, 1)], (2, 2, 2))
    space = build_space(mesh, r)
    assert abs(assemble_mass(space).sum() - 3.0) < 1e-12


def test_single_element_r1_mass_entries(unit_space_r1):
    np.testing.assert_allclose(assemble_mass(unit_space_r1), 0.125, rtol=1e-14)


def test_shared_dofs_accumulate():
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    space = build_space(mesh, 1)
    m = assemble_mass(space)
    shared = np.abs(space.node_coords[:, 0] - 0.5) < 1e-12
    np.testing.assert_allclose(m[shared], 2 * m[~shared][0], rtol=1e-13)


# -- stiffness ------------------------------------------------------------


def test_stiffness_constant_nullspace(cube2_space_r2):
    u = np.ones(cube2_space_r2.ndof)
    assert np.max(np.abs(apply_stiffness(cube2_space_r2, u))) < 1e-11


def test_dirichlet_energy_of_linear(cube2_space_r2):
    u = interpolate(cube2_space_r2, lambda x, y, z: x).coeffs
    assert abs(u @ apply_stiffness(cube2_space_r2, u) - 1.0) < 1e-12


def test_dirichlet_energy_of_quadratic(cube2_space_r2):
    # integral of |grad x^2|^2 = integral of 4 x^2 = 4/3 over the unit cube
    u = interpolate(cube2_space_r2, lambda x, y, z: x**2).coeffs
    assert abs(u @ apply_stiffness(cube2_space_r2, u) - 4.0 / 3.0) < 1e-12


def test_stiffness_symmetry(cube2_space_r2, rng):
    u = rng.standard_normal(cube2_space_r2.ndof)
    v = rng.standard_normal(cube2_space_r2.ndof)
    ku, kv = apply_stiffness(cube2_space_r2, u), apply_stiffness(cube2_space_r2, v)
    assert abs(v @ ku - u @ kv) < 1e-10 * (1 + abs(v @ ku))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_stiffness_positive_semidefinite(seed, cube2_space_r2):
    u = np.random.default_rng(seed).standard_normal(cube2_space_r2.ndof)
    assert u @ apply_stiffness(cube2_space_r2, u) >= -1e-10


# -- surface quadrature and damping ---------------------------------------


def test_surface_quadrature_face_area(cube2_space_r2):
    _, w = surface_quadrature(cube2_space_r2, "ymax")
    assert abs(w.sum() - 1.0) < 1e-12


def test_surface_quadrature_unknown_tag(cube2_space_r2):
    with pytest.raises(ValueError, match="unknown boundary tag"):
        surface_quadrature(cube2_space_r2, "lid")


def test_damping_unit_face(cube2_space_r2):
    # Z = rho0 c0^2 makes the coefficient 1, so B sums to the face area
    b = assemble_damping(cube2_space_r2, "xmin", impedance=4.0, rho0=1.0, c0=2.0)
    assert abs(b.sum() - 1.0) < 1e-12
    interior = np.abs(cube2_space_r2.node_coords[:, 0]) > 1e-12
    assert np.max(np.abs(b[interior])) == 0.0


def test_damping_noise_box_coefficient():
    # published wall impedance: coefficient rho0 c0^2 / Z ~ 4.398 m/s
    rho0, c0, z = 1.204, 343.0, 32206.0
    coef = rho0 * c0**2 / z
    assert abs(coef - 4.398) < 1e-3
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 2)
    b = assemble_damping(space, "zmin", z, rho0, c0)
    assert abs(b.sum() - coef * 1.0) < 1e-10


def test_damping_requires_positive_impedance(cube2_space_r2):
    with pytest.raises(ValueError):
        assemble_damping(cube2_space_r2, "xmin", 0.0, 1.0, 1.0)


def test_operators_bundle_no_impedance(cube2_space_r2):
    ops = assemble_operators(cube2_space_r2, c0=343.0, rho0=1.2)
    assert np.all(ops.damping == 0.0)
    assert abs(ops.mass.sum() - 1.0) < 1e-12


# -- convective operators -------------------------------------------------


def _trilinear_dx(corner, x, y, z):
    """d/dx of the trilinear basis of unit-cube corner c = i + 2j + 4k."""
    i, j, k = corner & 1, (corner >> 1) & 1, (corner >> 2) & 1
    fy = y if j else (1 - y)
    fz = z if k else (1 - z)
    return (1.0 if i else -1.0) * fy * fz


def test_convective_dense_oracle(unit_space_r1):
    """C^x on one r=1 unit cube equals the hand-computed NI integral
    (1/8) dphi_i/dx at corner j."""
    space = unit_space_r1
    conv = assemble_convective(space)
    dense = np.stack([conv.apply(0, np.eye(8)[j]) for j in range(8)], axis=1)
    coords = space.node_coords
    expected = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            xj, yj, zj = coords[j]
            expected[i, j] = 0.125 * _trilinear_dx(i, xj, yj, zj)
    np.testing.assert_allclose(dense, expected, atol=1e-14)


def test_convective_zero_input(cube2_space_r2):
    conv = assemble_convective(cube2_space_r2)
    assert np.max(np.abs(conv.apply(1, np.zeros(cube2_space_r2.ndof)))) == 0.0


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_convective_rows_sum_to_zero(cube2_space_r2, ell, rng):
    # sum_i C^l_ij = (phi_j, d/dx_l sum_i phi_i) = 0 by partition of unity
    conv = assemble_convective(cube2_space_r2)
    q = rng.standard_normal(cube2_space_r2.ndof)
    assert abs(conv.apply(ell, q).sum()) < 1e-11 * np.linalg.norm(q)


def test_convective_linearity(cube2_space_r2, rng):
    conv = assemble_convective(cube2_space_r2)
    q = rng.standard_normal(cube2_space_r2.ndof)
    np.testing.assert_allclose(conv.apply(0, 3.0 * q), 3.0 * conv.apply(0, q), rtol=1e-12, atol=1e-15)


def test_convective_constant_against_quadrature_oracle(cube2_space_r2):
    """C^x applied to the constant 1 is the load (1, dphi_i/dx); its sum
    vanishes and the vector matches direct GLL quadrature of the x
    gradient (computed through K applied to the linear coordinate)."""
    space = cube2_space_r2
    conv = assemble_convective(space)
    load = conv.apply(0, np.ones(space.ndof))
    # (1, dphi_i/dx) = (grad x, grad phi_i) since grad x = e_x
    ref = apply_stiffness(space, interpolate(space, lambda x, y, z: x).coeffs)
    np.testing.assert_allclose(load, ref, atol=1e-12)
    assert abs(load.sum()) < 1e-12


# -- loads ----------------------------------------------------------------


def test_volume_load_constant_one(cube2_space_r2):
    m = assemble_mass(cube2_space_r2)
    np.testing.assert_allclose(volume_load(cube2_space_r2, lambda x, y, z, t: 1.0, 0.0), m)


def test_volume_load_zero(cube2_space_r2):
    assert np.max(np.abs(volume_load(cube2_space_r2, lambda x, y, z, t: 0.0 * x, 0.0))) == 0.0


def test_volume_load_collocation_identity(unit_space_r1):
    m = assemble_mass(unit_space_r1)
    load = volume_load(unit_space_r1, lambda x, y, z, t: x, 0.0)
    np.testing.assert_allclose(load, m * unit_space_r1.node_coords[:, 0])


def test_volume_load_rejects_nonfinite(unit_space_r1):
    with pytest.raises(ValueError, match="finite"), np.errstate(divide="ignore", invalid="ignore"):
        volume_load(unit_space_r1, lambda x, y, z, t: x / (x - x), 0.0)


def test_neumann_zero_data(cube2_space_r2):
    g = lambda x, y, z, t: 0.0 * x  # noqa: E731
    assert np.max(np.abs(neumann_load(cube2_space_r2, "zmax", g, 0.0, c0=343.0))) == 0.0


def test_neumann_constant_face_integral(cube2_space_r2):
    g = lambda x, y, z, t: 1.0  # noqa: E731
    load = neumann_load(cube2_space_r2, "xmax", g, 0.0, c0=2.0)
    assert abs(load.sum() - 4.0) < 1e-12  # c0^2 * area


def _face_monomial(lo, hi, powers):
    """Closed-form integral of x^p0 y^p1 z^p2 over the axis-aligned face
    [lo, hi], whose extent is zero along its normal axis."""
    out = 1.0
    for a, b, k in zip(lo, hi, powers):
        out *= (b ** (k + 1) - a ** (k + 1)) / (k + 1) if b > a else a**k
    return out


def test_neumann_collocated_closed_form_on_graded_faces(graded_mesh):
    """On every tagged face of the graded box, for linear g: load.sum() is
    c0^2 times the integral of g, and load @ x_i that of g x_i.  The faces
    are axis-aligned rectangles, so the r = 2 GLL rule is exact for these
    quadratic integrands."""
    space = build_space(graded_mesh, 2)
    a, b, c0 = 0.4, np.array([1.3, 0.7, 2.0]), 1.7
    g = lambda x, y, z, t: a + b[0] * x + b[1] * y + b[2] * z  # noqa: E731
    unit = np.eye(3, dtype=int)
    elem, face, tag = graded_mesh.boundary_arrays()
    for name in sorted(graded_mesh.tags):
        load = neumann_load(space, name, g, 0.0, c0=c0)
        total, moment = 0.0, np.zeros(3)
        for e, f in zip(elem[tag == name], face[tag == name]):
            corners = graded_mesh.corner_coords(e)[FACE_CORNERS[f]]
            m = lambda p: _face_monomial(corners.min(axis=0), corners.max(axis=0), p)  # noqa: E731
            total += a * m((0, 0, 0)) + sum(b[j] * m(unit[j]) for j in range(3))
            moment += [a * m(unit[i]) + sum(b[j] * m(unit[i] + unit[j]) for j in range(3)) for i in range(3)]
        assert abs(load.sum() - c0**2 * total) < 1e-13 * c0**2 * abs(total)
        np.testing.assert_allclose(load @ space.node_coords, c0**2 * moment, rtol=1e-13, atol=1e-14)


def test_neumann_multiple_tags(cube2_space_r2):
    g = lambda x, y, z, t: 1.0  # noqa: E731
    load = neumann_load(cube2_space_r2, ("xmin", "xmax"), g, 0.0, c0=1.0)
    assert abs(load.sum() - 2.0) < 1e-12


def test_point_source_at_node(cube2_space_r2):
    space = cube2_space_r2
    i = 77
    load = point_source_load(space, space.node_coords[i], 2.5)
    assert abs(load[i] - 2.5) < 1e-12
    load[i] = 0.0
    assert np.max(np.abs(load)) < 1e-12


@given(
    pt=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    amp=st.floats(-5, 5),
)
@settings(max_examples=25, deadline=None)
def test_point_source_partition_of_unity(pt, amp, cube2_space_r2):
    load = point_source_load(cube2_space_r2, np.array(pt), amp)
    assert abs(load.sum() - amp) < 1e-12 * max(1.0, abs(amp))


def test_point_source_outside_mesh(cube2_space_r2):
    with pytest.raises(ValueError, match="outside"):
        point_source_load(cube2_space_r2, np.array([3.0, 0.5, 0.5]), 1.0)


# -- non-affine elements against a dense oracle ---------------------------


def _oracle_element_data(space):
    """Per-element quadrature data from the definitions, independent of the
    kernel: reference gradient matrices G[d] (nloc, nloc) with
    G[d][q, i] = d phi_i / d ref_d at node q, the 3D GLL weights, and J at
    every node of every element."""
    x1 = space.rule.nodes
    p = x1.size
    # d l_j / dx at the nodes, from the monomial coefficients of l_j
    coef = np.linalg.inv(np.vander(x1, increasing=True))  # l_j(x) = sum_k coef[k, j] x^k
    powers = np.arange(p)
    d1 = (powers[1:] * x1[:, None] ** (powers[1:] - 1)) @ coef[1:]
    eye = np.eye(p)
    grads = [np.kron(eye, np.kron(eye, d1)), np.kron(eye, np.kron(d1, eye)), np.kron(d1, np.kron(eye, eye))]
    w = space.rule.weights
    w3 = np.kron(w, np.kron(w, w))
    ref = np.stack(np.meshgrid(x1, x1, x1, indexing="ij"), axis=-1).transpose(2, 1, 0, 3).reshape(-1, 3)
    # trilinear map: corner c = i + 2j + 4k at signs s = (2i-1, 2j-1, 2k-1)
    signs = np.array([[2 * (c & 1) - 1, 2 * ((c >> 1) & 1) - 1, 2 * ((c >> 2) & 1) - 1] for c in range(8)])
    dshape = np.empty((ref.shape[0], 8, 3))
    for d in range(3):
        others = [a for a in range(3) if a != d]
        dshape[:, :, d] = signs[:, d] * np.prod(1 + ref[:, None, others] * signs[None, :, others], axis=-1) / 8
    corners = space.mesh.vertices[space.mesh.elements]
    jac = np.einsum("ecx,qcd->eqxd", corners, dshape)
    return grads, w3, jac


def _oracle_apply(space, u):
    """K u and C^0..C^2 u of the GLL-collocated weak forms for the columns of
    u (ndof, m), element by element from the definitions: the dense matrices
    themselves when u is the identity."""
    grads, w3, jac = _oracle_element_data(space)
    ku, cu = np.zeros_like(u), np.zeros((3,) + u.shape)
    for e, m in enumerate(space.emap):
        jinv = np.linalg.inv(jac[e])  # (nloc, 3, 3)
        wdet = w3 * np.linalg.det(jac[e])
        metric = jinv @ jinv.transpose(0, 2, 1)  # J^-1 J^-T, all 9 entries
        for a in range(3):
            for b in range(3):
                ku[m] += grads[a].T @ ((wdet * metric[:, a, b])[:, None] * (grads[b] @ u[m]))
            for ell in range(3):
                cu[ell][m] += grads[a].T @ ((wdet * jinv[:, a, ell])[:, None] * u[m])
    return ku, cu


_KERNEL_CASES = (
    [pytest.param("perturbed_mesh", r, r <= 2, id=str(r)) for r in (1, 2, 3, 4)]
    + [pytest.param("graded_mesh", r, True, id=f"graded-{r}") for r in range(1, 9)]
    + [pytest.param("rotated_mesh", 2, True, id="rotated-2")]
)


@pytest.mark.parametrize("mesh_name, r, csr_path", _KERNEL_CASES)
def test_non_affine_kernels_match_dense_oracle(request, mesh_name, r, csr_path, rng):
    """Both stiffness paths, and the convective kernel, against the dense
    weak forms: the assembled CSR matrix up to CSR_MAX_WIDTH entries a local
    row (boxes to r = 8 here, other hexes to r = 2), the sum-factorised kernel
    on curved elements above.  Up to r = 4 on every column; above, where the
    dense matrices would take hundreds of MB, on six random vectors."""
    space = build_space(request.getfixturevalue(mesh_name), r)
    u = np.eye(space.ndof) if r <= 4 else rng.standard_normal((space.ndof, 6))
    ku_ref, cu_ref = _oracle_apply(space, u)
    ku = np.stack([apply_stiffness(space, col) for col in u.T], axis=1)
    assert ("kcsr" in space._geom) is csr_path
    scale = np.abs(ku_ref).max()
    np.testing.assert_allclose(ku, ku_ref, rtol=0, atol=1e-12 * scale)
    sym = u.T @ ku  # K itself for the identity
    np.testing.assert_allclose(sym, sym.T, rtol=0, atol=1e-13 * (np.abs(u).T @ np.abs(ku)).max())
    assert np.abs(apply_stiffness(space, np.ones(space.ndof))).max() < 1e-12 * scale
    conv = assemble_convective(space)
    for ell in range(3):
        c = np.stack([conv.apply(ell, col) for col in u.T], axis=1)
        np.testing.assert_allclose(c, cu_ref[ell], rtol=0, atol=1e-12 * np.abs(cu_ref[ell]).max())


def _box_stiffness_oracle(space):
    """K of a box mesh from the line pattern by index arithmetic:
    K_e = sum_a c_ea Khat_a with c_ea = |cof_a|^2 / det at the element centre
    and Khat_x = W_z (x) W_y (x) D^T W D, and so on, each row holding the node
    and its three GLL lines (3r + 1 entries) in that order."""
    from scipy import sparse

    from semwave.gll import diff_matrix
    from semwave.mesh import map_cofactors

    cof, det = map_cofactors(space.mesh.corner_coords(), np.zeros((1, 3)))
    cbox = ((cof[:, :, :, 0] ** 2).sum(axis=1) / det[:, 0]).T
    r, w1, d = space.degree, space.rule.weights, diff_matrix(space.rule)
    n, step = np.arange((r + 1) ** 3), (r + 1) ** np.arange(3)[:, None]
    ijk = n // step % (r + 1)  # (3, nloc): local node (i, j, k)
    line = (ijk[:, None] + np.arange(1, r + 1)[:, None]) % (r + 1)  # (3, r, nloc): its line neighbours
    wa, a1 = w1[ijk[[1, 0, 0]]] * w1[ijk[[2, 2, 1]]], d.T @ (w1[:, None] * d)  # other-axis weights, D^T W D
    off = np.zeros((3, 3, r, n.size))
    off[[0, 1, 2], [0, 1, 2]] = wa[:, None] * a1[ijk[:, None], line]
    vals = np.concatenate([(wa * a1[ijk, ijk])[:, None], off.reshape(3, 3 * r, -1)], axis=1)
    cols = np.concatenate([n[None], (n + (line - ijk[:, None]) * step[:, None]).reshape(3 * r, -1)])
    size, width = space.emap.size, 3 * r + 1
    rows = sparse.csr_array(((cbox @ vals.transpose(0, 2, 1).reshape(3, -1)).ravel(), space.emap[:, cols.T].ravel(),
                             np.arange(0, size * width + 1, width)), shape=(size, space.ndof))
    gather = sparse.csr_array((np.ones(size), (space.emap.ravel(), np.arange(size))), shape=rows.shape[::-1])
    return gather @ rows


def test_stiffness_matrix_matches_box_oracle(graded_mesh):
    """On boxes the metric builder gives the line pattern of the index-arithmetic
    oracle in every row, with int32 indices, and its values to 1e-15 of the
    largest entry."""
    for r in range(1, 10):
        space = build_space(graded_mesh, r)
        k, ref = stiffness_matrix(space), _box_stiffness_oracle(space)
        assert k.indices.dtype == k.indptr.dtype == np.int32
        k, ref = k.sorted_indices(), ref.sorted_indices()
        np.testing.assert_array_equal(k.indptr, ref.indptr)
        np.testing.assert_array_equal(k.indices, ref.indices)
        np.testing.assert_allclose(k.data, ref.data, rtol=0, atol=1e-15 * np.abs(ref.data).max())


def test_csr_path_stops_at_width_cap(graded_mesh, perturbed_mesh, monkeypatch, rng):
    """Above CSR_MAX_WIDTH entries a local row, boxes at r = 10 and other hexes
    at r = 3 take the sum-factorised kernel, which agrees to roundoff with the
    CSR matrix built once the cap is raised."""
    from semwave import assembly

    for mesh, r, box in ((graded_mesh, 10, True), (perturbed_mesh, 3, False)):
        assert assembly.row_width(r, box) > assembly.CSR_MAX_WIDTH >= assembly.row_width(r - 1, box)
        space = build_space(mesh, r)
        u = rng.standard_normal(space.ndof)
        k_sf = apply_stiffness(space, u)
        assert not space._geom["csr"] and "kcsr" not in space._geom
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "CSR_MAX_WIDTH", assembly.row_width(r, box))
            assembled = build_space(mesh, r)
            k_csr = apply_stiffness(assembled, u)
        assert "kcsr" in assembled._geom
        np.testing.assert_allclose(k_csr, k_sf, rtol=0, atol=1e-13 * np.abs(k_sf).max())


@pytest.mark.parametrize("mesh_name, r", [("graded_mesh", 3), ("perturbed_mesh", 2)])
def test_stiffness_matrix_built_once_per_space(request, mesh_name, r, rng):
    """K is assembled by the first apply, not by the set-up that never applies
    it (mass, convective operators), and every later apply reads the same
    cached matrix: on boxes and on curved elements."""
    mesh = request.getfixturevalue(mesh_name)
    space = build_space(mesh, r)
    assemble_mass(space)
    assemble_convective(space).apply(0, np.zeros(space.ndof))
    assert "kcsr" not in element_geometry(space)
    u = rng.standard_normal(space.ndof)
    first = apply_stiffness(space, u)
    k = space._geom["kcsr"]
    assert k.format == "csr" and stiffness_matrix(space) is k
    k.data *= 2.0  # a rebuilt matrix would not carry this
    np.testing.assert_array_equal(apply_stiffness(space, u), 2.0 * first)
    assert space._geom["kcsr"] is k
    assert stiffness_matrix(build_space(mesh, r)) is not k


@pytest.mark.parametrize("mesh_name, axes", [("graded_mesh", 1), ("perturbed_mesh", 2)])
def test_stiffness_matrix_keeps_only_structural_nonzeros(request, mesh_name, axes):
    """Each entry of K couples two nodes of one element whose local indices
    differ along at most one axis on boxes (the GLL lines) and two on other
    hexes, and K stores exactly the nonzeros of the dense matrix: no
    explicit zero, such as a cross coupling whose metric terms are exactly 0
    where J stays diagonal."""
    space = build_space(request.getfixturevalue(mesh_name), 2)
    k = stiffness_matrix(space).tocoo()
    p = space.degree + 1
    ijk = np.arange(p**3)[:, None] // p ** np.arange(3) % p
    near = (ijk[:, None] != ijk[None]).sum(axis=-1) <= axes  # (nloc, nloc)
    allowed = np.zeros((space.ndof, space.ndof), dtype=bool)
    for m in space.emap:
        allowed[np.ix_(m, m)] |= near
    assert np.all(allowed[k.row, k.col])
    dense = np.stack([apply_stiffness(space, col) for col in np.eye(space.ndof)], axis=1)
    assert k.nnz == np.count_nonzero(dense)


# -- cached surface quadrature --------------------------------------------


def _surface_quadrature_loop(space, tag):
    """Per-face reference for the cached rule, in mesh.boundary order."""
    from semwave.mesh import FACE_TANGENTS, shape_gradients
    from semwave.space import face_local_nodes

    corners, ref, w1 = space.mesh.corner_coords(), space.local_nodes_ref(), space.rule.weights
    p = space.degree + 1
    dofs, weights = [], []
    for e, f, t in space.mesh.boundary:
        if t != tag:
            continue
        local = face_local_nodes(space.degree, f)
        dshape = shape_gradients(ref[local])  # (p*p, 8, 3)
        t0, t1 = (dshape[:, :, a] @ corners[e] for a in FACE_TANGENTS[f])  # in-face columns of J
        surf = np.linalg.norm(np.cross(t0, t1), axis=1)
        idx = np.arange(p * p)
        dofs.append(space.emap[e, local])
        weights.append(w1[idx % p] * w1[idx // p] * surf)
    return np.concatenate(dofs), np.concatenate(weights)


def test_surface_quadrature_cache_matches_fresh_build(perturbed_mesh):
    space = build_space(perturbed_mesh, 3)
    first = {tag: surface_quadrature(space, tag) for tag in space.mesh.tags}
    fresh = build_space(perturbed_mesh, 3)
    for tag, (dofs, w) in first.items():
        again = surface_quadrature(space, tag)
        assert again[0] is dofs and again[1] is w
        assert not dofs.flags.writeable and not w.flags.writeable
        for got in (again, surface_quadrature(fresh, tag), _surface_quadrature_loop(fresh, tag)):
            np.testing.assert_array_equal(got[0], dofs)
            np.testing.assert_array_equal(got[1], w)


# -- closed-form element geometry -----------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_closed_form_geometry_matches_inverse(perturbed_mesh, r):
    """wdet and the per-node metric from the cofactors against det and
    np.linalg.inv of J."""
    from semwave.mesh import shape_gradients

    space = build_space(perturbed_mesh, r)
    geom = element_geometry(space)
    assert "jac" not in geom and "inv" not in geom
    jac = np.einsum("ecx,qcd->eqxd", perturbed_mesh.corner_coords(), shape_gradients(space.local_nodes_ref()))
    inv = np.linalg.inv(jac)  # inv[e, q, d, x]
    wdet = space.tensor_weights() * np.linalg.det(jac)
    np.testing.assert_allclose(geom["wdet"], wdet, rtol=1e-13, atol=0)
    sym = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    g6 = np.stack([wdet * np.einsum("eqx,eqx->eq", inv[:, :, a], inv[:, :, b]) for a, b in sym])
    np.testing.assert_allclose(geom["metric"], g6, rtol=0, atol=1e-13 * np.abs(g6).max())
    conv = assemble_convective(space)
    conv.apply(0, np.zeros(space.ndof))
    np.testing.assert_allclose(geom["jinvt"], inv.transpose(3, 2, 0, 1), rtol=0, atol=1e-13 * np.abs(inv).max())

