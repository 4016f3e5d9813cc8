"""Consistent mass, FV-to-spectral coupling, projection and load composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwave import build_space, generate_box_mesh, interpolate, l2_error
from semwave.assembly import assemble_convective
from semwave.fvsource import generate_box_fv
from semwave.projection import (
    aeroacoustic_load,
    assemble_coupling,
    build_projection,
    consistent_mass,
)

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


def _mass_1d():
    # exact 1D mass of the linear hats on [0, 1]
    return np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])


def test_consistent_mass_single_trilinear_element(unit_space_r1):
    m = consistent_mass(unit_space_r1).toarray()
    # tensor product of the 1D linear mass, in the xi-fastest DOF order
    m1 = _mass_1d()
    expected = np.einsum("ad,be,cf->cbafed", m1, m1, m1).reshape(8, 8)
    # global numbering for one element follows local ordering
    np.testing.assert_allclose(m, expected, atol=1e-14)


def test_consistent_mass_row_sums(cube2_space_r2):
    m = consistent_mass(cube2_space_r2)
    # row sums integrate each basis function: total is the domain volume
    assert abs(m.sum() - 1.0) < 1e-12
    rows = np.asarray(m.sum(axis=1)).ravel()
    assert np.all(rows > 0)


def test_consistent_mass_is_symmetric(cube2_space_r2):
    m = consistent_mass(cube2_space_r2)
    assert abs(m - m.T).max() < 1e-14


def test_coupling_single_aligned_cell(unit_space_r1):
    """One FV cube equal to the single acoustic element: each trilinear
    basis function integrates to 1/8 and the column sums to the volume."""
    fv = generate_box_fv(UNIT_BOX, (1, 1, 1))
    coupling = assemble_coupling(unit_space_r1, fv)
    col = coupling.matrix.toarray()[:, 0]
    np.testing.assert_allclose(col, 0.125, rtol=1e-12)
    assert abs(coupling.column_sums()[0] - 1.0) < 1e-12
    assert coupling.empty_columns == 0


def test_coupling_cell_inside_element():
    mesh = generate_box_mesh(UNIT_BOX, (1, 1, 1))
    space = build_space(mesh, 2)
    fv = generate_box_fv([(0.3, 0.5), (0.4, 0.6), (0.1, 0.3)], (1, 1, 1))
    coupling = assemble_coupling(space, fv)
    assert abs(coupling.column_sums()[0] - 0.008) < 0.5e-2 * 0.008
    assert coupling.outside_samples == 0


def test_coupling_empty_overlap(unit_space_r1):
    fv = generate_box_fv([(2.0, 3.0), (0.0, 1.0), (0.0, 1.0)], (1, 1, 1))
    coupling = assemble_coupling(unit_space_r1, fv)
    assert coupling.empty_columns == 1
    assert coupling.matrix.nnz == 0


def test_coupling_rejects_facefree_mesh():
    """The coupling decomposes cells by their faces, so an FV mesh without
    faces never reaches it: FvMesh rejects one."""
    from semwave.fvsource import FvError, FvMesh

    fv = generate_box_fv(UNIT_BOX, (2, 2, 2))
    with pytest.raises(FvError, match="no faces"):
        FvMesh(fv.centers, fv.volumes, [], [], [], np.empty((0, 3)), np.empty((0, 3)))


def test_project_constant_aligned():
    """FV cells coinciding with the acoustic elements reproduce constants
    to solver tolerance."""
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 1)
    fv = generate_box_fv(UNIT_BOX, (2, 2, 2))
    proj = build_projection(space, fv)
    qa = proj.project(np.full(8, 3.0))
    np.testing.assert_allclose(qa.coeffs, 3.0, atol=3e-9)


def test_project_constant_unaligned():
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 2)
    fv = generate_box_fv(UNIT_BOX, (5, 5, 5))
    proj = build_projection(space, fv)
    qa = proj.project(np.ones(125))
    assert np.max(np.abs(qa.coeffs - 1.0)) < 1e-3


def test_project_zero(unit_space_r1):
    fv = generate_box_fv(UNIT_BOX, (2, 2, 2))
    proj = build_projection(unit_space_r1, fv)
    assert np.max(np.abs(proj.project(np.zeros(8)).coeffs)) == 0.0


def test_projection_refinement_converges():
    """Cell averages of a smooth field projected onto the spectral space
    approach the field as the donor mesh refines (order >= 0.8).  The
    target space is high order so its own approximation floor (which the
    donor refinement cannot cross) stays far below the measured errors."""
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 4)

    def g(x, y, z):
        return np.sin(2.0 * x + 1.0) * (y - 0.3) + 0.5 * z

    errs = []
    for n in (4, 8):
        fv = generate_box_fv(UNIT_BOX, (n, n, n))
        qf = g(fv.centers[:, 0], fv.centers[:, 1], fv.centers[:, 2])
        proj = build_projection(space, fv)
        qa = proj.project(qf)
        errs.append(l2_error(space, qa, g, points=8))
    assert np.log2(errs[0] / errs[1]) >= 0.8


def test_conservation_report():
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 1)
    fv = generate_box_fv(UNIT_BOX, (3, 3, 3))
    proj = build_projection(space, fv)
    qf = fv.centers[:, 0] - 2.0 * fv.centers[:, 1]
    report = proj.conservation_report(fv, qf)
    assert report["cells"] == 27
    assert report["empty_columns"] == 0
    assert report["column_sum_max_rel_error"] < 5e-3
    lhs, rhs = report["transferred_mass_fv"], report["transferred_mass_acoustic"]
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_aeroacoustic_load_zero(cube2_space_r2):
    conv = assemble_convective(cube2_space_r2)
    zero = np.zeros(cube2_space_r2.ndof)
    assert np.max(np.abs(aeroacoustic_load(conv, zero, zero, zero))) == 0.0


def test_aeroacoustic_load_constant_sums_to_zero(cube2_space_r2):
    # constants on a closed box: the load totals the boundary integral of
    # the test-function gradient, which vanishes
    conv = assemble_convective(cube2_space_r2)
    n = cube2_space_r2.ndof
    load = aeroacoustic_load(conv, np.full(n, 2.0), np.full(n, -1.0), np.full(n, 0.5))
    assert abs(load.sum()) < 1e-11


def test_aeroacoustic_load_linearity(cube2_space_r2, rng):
    conv = assemble_convective(cube2_space_r2)
    q = [rng.standard_normal(cube2_space_r2.ndof) for _ in range(3)]
    a = aeroacoustic_load(conv, *q)
    b = aeroacoustic_load(conv, *(2.5 * v for v in q))
    np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12, atol=1e-12)


def test_aeroacoustic_load_sign(cube2_space_r2):
    """The composed load is minus the convective application: a gradient
    field pointing in +x must push against test functions increasing in x."""
    conv = assemble_convective(cube2_space_r2)
    n = cube2_space_r2.ndof
    load = aeroacoustic_load(conv, np.ones(n), np.zeros(n), np.zeros(n))
    np.testing.assert_allclose(load, -conv.apply(0, np.ones(n)), atol=1e-14)


def test_projection_matches_dense_solve():
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 1)
    fv = generate_box_fv(UNIT_BOX, (3, 3, 3))
    proj = build_projection(space, fv, cg_tol=1e-13)
    qf = np.sin(np.arange(27.0))
    qa = proj.project(qf)
    direct = np.linalg.solve(proj.maa.toarray(), proj.coupling.matrix @ qf)
    np.testing.assert_allclose(qa.coeffs, direct, atol=1e-9)


# -- coupling against per-cell oracles --------------------------------------


def _lagrange_1d(nodes, x):
    """Cardinal polynomials on `nodes` at x by the product formula."""
    out = np.ones(nodes.size)
    for a in range(nodes.size):
        for b in range(nodes.size):
            if b != a:
                out[a] *= (x - nodes[b]) / (nodes[a] - nodes[b])
    return out


def _clip_oracle(space, cell_boxes, npts):
    """Dense M^AF columns of box cells: clip each cell against each element
    box and sum a tensor Gauss rule on the intersection, point by point."""
    gx, gw = np.polynomial.legendre.leggauss(npts)
    corners = space.mesh.vertices[space.mesh.elements]
    nodes = space.rule.nodes
    p = nodes.size
    dense = np.zeros((space.ndof, len(cell_boxes)))
    for col, (clo, chi) in enumerate(cell_boxes):
        for e in range(space.mesh.num_elements):
            elo, ehi = corners[e].min(axis=0), corners[e].max(axis=0)
            lo, hi = np.maximum(elo, clo), np.minimum(ehi, chi)
            if np.any(hi <= lo):
                continue
            for i in range(npts):
                for j in range(npts):
                    for k in range(npts):
                        t = np.array([gx[i], gx[j], gx[k]])
                        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
                        w = gw[i] * gw[j] * gw[k] * np.prod(0.5 * (hi - lo))
                        xi = 2.0 * (x - elo) / (ehi - elo) - 1.0
                        lx, ly, lz = (_lagrange_1d(nodes, xi[a]) for a in range(3))
                        for c in range(p):
                            for b in range(p):
                                for a in range(p):
                                    dense[space.emap[e, a + p * b + p * p * c], col] += w * lx[a] * ly[b] * lz[c]
    return dense


def _box_fv_cells(bounds, div):
    """Bounds of the cells of generate_box_fv(bounds, div), in its order."""
    edges = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(bounds, div)]
    return [
        (np.array([edges[0][i], edges[1][j], edges[2][k]]), np.array([edges[0][i + 1], edges[1][j + 1], edges[2][k + 1]]))
        for i in range(div[0]) for j in range(div[1]) for k in range(div[2])
    ]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("npts", [2, 4])
def test_clipped_coupling_matches_per_cell_oracle(graded_mesh, degree, npts):
    """FV cells straddling up to 2x2x2 elements, partly outside the mesh
    (x < 0, z < 0) or wholly outside it (x > 1.15)."""
    space = build_space(graded_mesh, degree)
    bounds, div = [(-0.2, 1.6), (0.1, 0.9), (-0.5, 0.9)], (4, 2, 2)
    coupling = assemble_coupling(space, generate_box_fv(bounds, div), points_per_axis=npts)
    cells = _box_fv_cells(bounds, div)
    dense = _clip_oracle(space, cells, npts)
    got = coupling.matrix.toarray()
    assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()
    assert coupling.empty_columns == int(np.all(dense == 0.0, axis=0).sum()) == 4
    assert coupling.outside_samples == 0
    corners = graded_mesh.vertices[graded_mesh.elements]
    elo, ehi = corners.min(axis=1), corners.max(axis=1)
    straddle = [int(np.all(np.minimum(ehi, hi) > np.maximum(elo, lo), axis=1).sum()) for lo, hi in cells]
    assert {0, 2, 4, 8} <= set(straddle) and max(straddle) == 8


def _split_xmin_face(fv, cell):
    """Replace the xmin boundary face of `cell` by its four quarters, so the
    cell has nine faces and is no longer recognised as a box."""
    from semwave.fvsource import FvMesh

    f = int(np.nonzero((fv.owner == cell) & (fv.neighbor < 0) & (fv.normal[:, 0] < -0.5))[0][0])
    keep = np.arange(fv.num_faces) != f
    quarter_area = fv.area[f] / 4.0
    mids = [fv.midpoint[f] + np.array([0.0, dy, dz]) * np.sqrt(fv.area[f])
            for dy in (-0.25, 0.25) for dz in (-0.25, 0.25)]
    return FvMesh(
        fv.centers, fv.volumes,
        np.concatenate([fv.owner[keep], np.full(4, cell)]),
        np.concatenate([fv.neighbor[keep], np.full(4, -1)]),
        np.concatenate([fv.area[keep], np.full(4, quarter_area)]),
        np.concatenate([fv.normal[keep], np.tile(fv.normal[f], (4, 1))]),
        np.concatenate([fv.midpoint[keep], mids]),
    )


def _pyramid_samples(fv, cell, box, npts):
    """Pyramid rule of one FV cell, face by face: apex at the cell center, base
    the face rebuilt around its midpoint on the tangents t1 = n x e (e the axis
    of the smallest |n| component) and t2 = n x t1, as the true face when the
    cell is the box (lo, hi), else as an equal-area square.  Gauss-Legendre
    across the base, Gauss-Jacobi (weight s^2) from apex to base; returns
    (points, weights)."""
    from scipy.special import roots_jacobi

    gx, gw = np.polynomial.legendre.leggauss(npts)
    sx, sw = roots_jacobi(npts, 0, 2)
    s, ws = 0.5 * (sx + 1.0), sw / 8.0
    apex = fv.centers[cell]
    pts, wts = [], []
    for f in sorted(np.nonzero((fv.owner == cell) | (fv.neighbor == cell))[0].tolist()):
        n = fv.normal[f] if fv.owner[f] == cell else -fv.normal[f]
        mid = fv.midpoint[f]
        h = float((mid - apex) @ n)
        if h <= 0:
            continue
        ref = np.zeros(3)
        ref[np.argmin(np.abs(n))] = 1.0
        t1 = np.cross(n, ref)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        side = [np.sqrt(fv.area[f])] * 2 if box is None else [np.abs(t) @ (box[1] - box[0]) for t in (t1, t2)]
        a1, a2 = 0.5 * side[0], 0.5 * side[1]
        base = mid + a1 * gx[:, None, None] * t1 + a2 * gx[None, :, None] * t2  # (g, g, 3)
        pts.append((apex + s[:, None, None, None] * (base[None] - apex)).reshape(-1, 3))
        wts.append((ws[:, None, None] * gw[None, :, None] * gw[None, None, :] * a1 * a2 * h).ravel())
    return np.concatenate(pts), np.concatenate(wts)


def _sampled_oracle(space, fv, cell, npts, box):
    """Column of one cell by the pyramid rule, each sample located and weighted
    on its own; returns (column, samples outside the mesh)."""
    from semwave.space import basis_rows

    col = np.zeros(space.ndof)
    outside = 0
    for x, w in zip(*_pyramid_samples(fv, cell, box, npts)):
        ref = space.mesh.locate_point(x)
        if ref is None:
            outside += 1
            continue
        np.add.at(col, space.emap[ref.element], w * basis_rows(space, ref.xi[None])[0])
    return col, outside


def test_non_box_cell_takes_sampled_branch():
    """On aligned elements, a cell with a split face is sampled and its
    neighbour, still a box, is clipped.  Two Gauss points per axis are not
    exact for r = 3, so the two rules give different columns."""
    bounds = [(0.0, 2.0), (0.0, 1.0), (0.0, 1.0)]
    space = build_space(generate_box_mesh(bounds, (2, 2, 2)), 3)
    fv = _split_xmin_face(generate_box_fv(bounds, (2, 1, 1)), cell=0)
    coupling = assemble_coupling(space, fv, points_per_axis=2)
    got = coupling.matrix.toarray()
    sampled, outside = _sampled_oracle(space, fv, 0, 2, None)
    np.testing.assert_allclose(got[:, 0], sampled, rtol=0, atol=1e-15)
    assert coupling.outside_samples == outside == 0
    clipped = _clip_oracle(space, _box_fv_cells(bounds, (2, 1, 1)), 2)
    np.testing.assert_allclose(got[:, 1], clipped[:, 1], rtol=0, atol=1e-15)
    assert np.abs(got[:, 0] - clipped[:, 0]).max() > 1e-4
    assert abs(got[:, 0].sum() - 1.0) < 1e-13


def test_non_aligned_elements_sample_every_cell(perturbed_mesh):
    space = build_space(perturbed_mesh, 1)
    bounds, div = [(0.0, 1.5), (0.0, 1.0), (0.0, 1.0)], (3, 2, 2)
    fv = generate_box_fv(bounds, div)
    coupling = assemble_coupling(space, fv)
    got = coupling.matrix.toarray()
    total_outside = 0
    for cell, box in enumerate(_box_fv_cells(bounds, div)):
        col, outside = _sampled_oracle(space, fv, cell, 3, box)
        np.testing.assert_allclose(got[:, cell], col, rtol=0, atol=1e-14)
        total_outside += outside
    assert coupling.outside_samples == total_outside


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_sampled_box_cell_matches_clipped_on_affine_element(degree):
    """Inside an affine element the basis is a polynomial of degree r per axis,
    so on a box cell the pyramid rule is exact once n >= (3r + 2) / 2 and the
    sampled column equals the clipped one.  The second element is distorted,
    so the mesh is not all aligned boxes and every cell is sampled."""
    from semwave.mesh import HexMesh

    box = generate_box_mesh([(0.0, 2.0), (0.0, 1.0), (0.0, 1.0)], (2, 1, 1))
    v = box.vertices.copy()
    v[np.all(v == [2.0, 1.0, 1.0], axis=1)] = [2.2, 1.1, 1.15]
    mesh = HexMesh(v, box.elements, box.boundary)
    assert not mesh.aligned_boxes()
    space = build_space(mesh, degree)
    bounds, div = [(0.1, 0.9), (0.2, 0.6), (0.15, 0.95)], (2, 1, 3)
    npts = -(-(3 * degree + 2) // 2)
    got = assemble_coupling(space, generate_box_fv(bounds, div), npts).matrix.toarray()
    clipped = _clip_oracle(space, _box_fv_cells(bounds, div), npts)
    assert np.abs(got - clipped).max() <= 1e-13 * np.abs(clipped).max()


def _per_sample_coupling(space, fv, npts, locate_by_loop, boxes):
    """Sampled coupling of every cell (cell c the box boxes[c]), one sample at
    a time: each sample is located by the per-point loop oracle and weighted by
    the per-point tensor product of the 1D cardinal values; returns (dense
    matrix, samples outside the mesh)."""
    from semwave.gll import lagrange_all

    m = np.zeros((space.ndof, fv.num_cells))
    outside = 0
    for cell, box in enumerate(boxes):
        for x, w in zip(*_pyramid_samples(fv, cell, box, npts)):
            found = locate_by_loop(space.mesh, x)
            if found is None:
                outside += 1
                continue
            e, xi = found
            lx, ly, lz = (lagrange_all(space.rule, c) for c in xi)
            np.add.at(m[:, cell], space.emap[e], w * np.einsum("i,j,k->kji", lx, ly, lz).ravel())
    return m, outside


SLAB = [(0.0, 1.0), (0.0, 1.0), (0.0, 0.1)]


def _sheared_slab_space():
    """Degree-2 space on 4x4x2 non-affine elements of SLAB: an interior x-shear,
    boundaries fixed."""
    from semwave.mesh import HexMesh

    box = generate_box_mesh(SLAB, (4, 4, 2))
    v = box.vertices.copy()
    v[:, 0] += 0.05 * np.sin(np.pi * v[:, 0]) * np.sin(2.0 * np.pi * v[:, 1])
    return build_space(HexMesh(v, box.elements, box.boundary), 2)


def test_sheared_slab_sampled_coupling_matches_per_sample_loop(locate_by_loop):
    """The batched sampled coupling on the sheared slab over 5:1 FV cells
    equals the per-sample loop.  Each box cell's pyramids stand on its true
    faces, so no sample leaves the cell, or the mesh."""
    space = _sheared_slab_space()
    fv = generate_box_fv(SLAB, (4, 4, 2))
    coupling = assemble_coupling(space, fv)
    expected, outside = _per_sample_coupling(space, fv, 3, locate_by_loop, _box_fv_cells(SLAB, (4, 4, 2)))
    got = coupling.matrix.toarray()
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15 * np.abs(expected).max())
    assert coupling.outside_samples == outside == 0
    assert coupling.empty_columns == 0
    np.testing.assert_allclose(coupling.column_sums(), fv.volumes, rtol=1e-13, atol=0)


@pytest.mark.parametrize("npts", [1, 2, 3, 4])
def test_sheared_slab_columns_sum_to_cell_volumes(npts):
    """Gauss-Jacobi carries the s^2 of the collapse, so even one point per
    axis integrates the cell volume exactly."""
    fv = generate_box_fv(SLAB, (4, 4, 2))
    coupling = assemble_coupling(_sheared_slab_space(), fv, npts)
    assert coupling.outside_samples == coupling.empty_columns == 0
    np.testing.assert_allclose(coupling.column_sums(), fv.volumes, rtol=1e-13, atol=0)


@given(
    seed=st.integers(0, 2**32 - 1),
    div=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
    ratio=st.tuples(*[st.floats(1.0, 8.0)] * 3),
    scale=st.floats(0.3, 1.0),
    shift=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    degree=st.integers(1, 2),
    npts=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_sampled_columns_sum_to_cell_volumes_property(seed, div, ratio, scale, shift, degree, npts):
    """On a mesh with randomly perturbed interior vertices (planar boundary),
    any box FV grid inside it, of cells up to 8:1, is sampled with no sample
    outside the mesh and every column summing to its cell volume: the
    pyramids tile each cell and the basis is a partition of unity."""
    from semwave.mesh import HexMesh

    domain = np.array([(0.0, 1.5), (0.0, 1.0), (0.0, 1.0)])
    box = generate_box_mesh(domain, (3, 2, 2))
    v = box.vertices.copy()
    inner = np.all((v > 1e-12) & (v < domain[:, 1] - 1e-12), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.12, 0.12, (inner.sum(), 3))
    length = domain[:, 1] - domain[:, 0]
    d = np.array(ratio) * scale * np.min(length / (np.array(div) * ratio))  # cell sizes, aspect <= 8
    lo = domain[:, 0] + np.array(shift) * (length - np.array(div) * d)
    fv = generate_box_fv(np.stack([lo, lo + np.array(div) * d], axis=1), div)
    coupling = assemble_coupling(build_space(HexMesh(v, box.elements, box.boundary), degree), fv, npts)
    assert coupling.outside_samples == coupling.empty_columns == 0
    np.testing.assert_allclose(coupling.column_sums(), fv.volumes, rtol=1e-12, atol=0)
