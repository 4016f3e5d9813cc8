"""FV donor mesh, Lighthill source divergence, averaging and file I/O."""

import json
import re

import numpy as np
import pytest

from semwave.fvsource import (
    FV_FORMAT_VERSION,
    FvError,
    FvField,
    FvMesh,
    generate_box_fv,
    lighthill_divergence,
    load_fv,
    sample_velocity,
    save_fv,
    spanwise_average,
)

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


def boundary_flux_total(mesh: FvMesh, u: FvField, rho0: float) -> np.ndarray:
    """Sum of rho0 u_F (u_F . n) |F| over boundary faces (conservation check)."""
    bnd = mesh.neighbor < 0
    uf = (mesh.face_interp @ u.values)[bnd]
    return (rho0 * uf * ((uf * mesh.normal[bnd]).sum(axis=1) * mesh.area[bnd])[:, None]).sum(axis=0)


def _shear(x, y, z):
    return (x, -y, np.zeros_like(z))


def test_box_fv_counts():
    mesh = generate_box_fv(UNIT_BOX, (4, 3, 2))
    assert mesh.num_cells == 24
    assert mesh.num_faces == 5 * 3 * 2 + 4 * 4 * 2 + 4 * 3 * 3


def test_box_fv_volumes():
    mesh = generate_box_fv([(0, 2), (0, 1), (0, 0.5)], (4, 2, 1))
    assert abs(mesh.volumes.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(mesh.volumes, 0.125)


def test_box_fv_validates():
    generate_box_fv(UNIT_BOX, (3, 3, 3)).validate()


@pytest.mark.parametrize("bounds, div", [
    (UNIT_BOX, (0, 1, 1)),
    (UNIT_BOX, (2, -1, 2)),
    ([(1.0, 0.0), (0.0, 1.0), (0.0, 1.0)], (2, 2, 2)),
    ([(0.0, 1.0), (0.5, 0.5), (0.0, 1.0)], (2, 2, 2)),
])
def test_box_fv_argument_validation(bounds, div):
    """As for generate_box_mesh: no division by zero and no 0-cell or negative-volume mesh."""
    with pytest.raises(ValueError, match="divisions must be >= 1 and box extents positive"):
        generate_box_fv(bounds, div)


def test_two_cell_fixture_closure():
    # minimal hand-built mesh: two 1x1x1 cubes sharing the x=1 face
    centers = [[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]]
    volumes = [1.0, 1.0]
    owner = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    neighbor = [-1, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1]
    normal = [
        [-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1],
        [1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1],
    ]
    midpoint = [
        [0, 0.5, 0.5], [1, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 0], [0.5, 0.5, 1],
        [2, 0.5, 0.5], [1.5, 0, 0.5], [1.5, 1, 0.5], [1.5, 0.5, 0], [1.5, 0.5, 1],
    ]
    mesh = FvMesh(centers, volumes, owner, neighbor, np.ones(11), normal, midpoint)
    assert mesh.num_cells == 2


def test_flipped_normal_rejected():
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    normal = mesh.normal.copy()
    normal[0] = -normal[0]
    with pytest.raises(FvError, match="do not close"):
        FvMesh(mesh.centers, mesh.volumes, mesh.owner, mesh.neighbor, mesh.area, normal, mesh.midpoint)


def test_bad_volume_rejected():
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    volumes = mesh.volumes.copy()
    volumes[3] = -1.0
    with pytest.raises(FvError, match="volume"):
        FvMesh(mesh.centers, volumes, mesh.owner, mesh.neighbor, mesh.area, mesh.normal, mesh.midpoint)


def test_non_unit_normal_rejected():
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    normal = mesh.normal.copy()
    normal[5] *= 2.0
    with pytest.raises(FvError, match="unit"):
        FvMesh(mesh.centers, mesh.volumes, mesh.owner, mesh.neighbor, mesh.area, normal, mesh.midpoint)


@pytest.mark.parametrize("neighbor", [0, -2])
def test_face_with_itself_or_no_cell_as_neighbor_rejected(neighbor):
    """A face whose neighbor is its owner would put a +1 and a -1 in one entry
    of D and close any cell; the face must be named, not accepted."""
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    extra = mesh.num_faces
    with pytest.raises(FvError, match=f"^face {extra} neighbor {neighbor} is neither -1 nor another cell$"):
        FvMesh(mesh.centers, mesh.volumes, np.append(mesh.owner, 0), np.append(mesh.neighbor, neighbor),
               np.append(mesh.area, mesh.area[0]), np.vstack([mesh.normal, mesh.normal[:1]]),
               np.vstack([mesh.midpoint, mesh.midpoint[:1]]))


@pytest.mark.parametrize("name, index", [
    ("centers", 5), ("volumes", 2), ("area", 7), ("normal", 11), ("midpoint", 0),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_geometry_rejected(name, index, value):
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    arrays = {k: getattr(mesh, k).copy() for k in ("centers", "volumes", "area", "normal", "midpoint")}
    arrays[name][index] = value
    with pytest.raises(FvError, match=f"^{name} is not finite at index {index}$"):
        FvMesh(owner=mesh.owner, neighbor=mesh.neighbor, **arrays)


def test_load_rejects_non_finite_geometry(tmp_path):
    """json writes and reads NaN, so a corrupt file would otherwise load."""
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    path = tmp_path / "fv.json"
    save_fv(path, mesh, None)
    path.write_text(path.read_text().replace('"area": 0.25', '"area": NaN', 1))
    with pytest.raises(FvError, match="area is not finite at index 0"):
        load_fv(path)


def test_field_length_validation():
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    with pytest.raises(FvError):
        FvField(mesh, np.zeros(3))
    with pytest.raises(FvError):
        FvField(mesh, np.full(8, np.inf))


# -- Lighthill source -----------------------------------------------------


def test_constant_velocity_zero_divergence():
    mesh = generate_box_fv(UNIT_BOX, (4, 4, 4))
    u = sample_velocity(mesh, lambda x, y, z: (np.full_like(x, 2.0), np.full_like(y, -1.0), np.full_like(z, 0.5)))
    div = lighthill_divergence(mesh, u, rho0=1.2)
    assert np.max(np.abs(div.values)) < 1e-10


def test_zero_velocity_zero_divergence():
    mesh = generate_box_fv(UNIT_BOX, (3, 3, 3))
    u = sample_velocity(mesh, lambda x, y, z: (0 * x, 0 * y, 0 * z))
    assert np.max(np.abs(lighthill_divergence(mesh, u, 1.0).values)) == 0.0


def test_shear_field_analytic_divergence():
    # u = (x, -y, 0): div(u x u) = (x, y, 0).  Linear interpolation and
    # linear boundary extrapolation are exact for this field, and the
    # mid-point face rule integrates the resulting fluxes exactly on a
    # Cartesian mesh, so the divergence is exact up to roundoff.
    mesh = generate_box_fv(UNIT_BOX, (16, 16, 16))
    div = lighthill_divergence(mesh, sample_velocity(mesh, _shear), rho0=1.0)
    exact = np.stack([mesh.centers[:, 0], mesh.centers[:, 1], np.zeros(mesh.num_cells)], axis=1)
    assert np.max(np.abs(div.values - exact)) < 1e-12


def _face_values_oracle(mesh, values):
    """Face by face: inverse-distance interpolation inside, and on boundary
    faces the owner value plus a least-squares gradient from lstsq."""
    vals = values if values.ndim == 2 else values[:, None]
    out = np.empty((mesh.num_faces, vals.shape[1]))
    for f in range(mesh.num_faces):
        o, n = mesh.owner[f], mesh.neighbor[f]
        if n >= 0:
            d_o = np.linalg.norm(mesh.midpoint[f] - mesh.centers[o])
            d_n = np.linalg.norm(mesh.midpoint[f] - mesh.centers[n])
            out[f] = (d_n * vals[o] + d_o * vals[n]) / (d_o + d_n)
            continue
        nbrs = [mesh.neighbor[g] if mesh.owner[g] == o else mesh.owner[g]
                for g in range(mesh.num_faces)
                if mesh.neighbor[g] >= 0 and o in (mesh.owner[g], mesh.neighbor[g])]
        grad = np.zeros((3, vals.shape[1]))
        if nbrs:
            grad = np.linalg.lstsq(mesh.centers[nbrs] - mesh.centers[o], vals[nbrs] - vals[o], rcond=None)[0]
        out[f] = vals[o] + (mesh.midpoint[f] - mesh.centers[o]) @ grad
    return out if values.ndim == 2 else out[:, 0]


@pytest.mark.parametrize("bounds, div", [
    ([(0.0, 1.0), (0.0, 2.0), (0.0, 1.5)], (5, 4, 3)),
    ([(0.0, 1.0), (0.0, 1.0), (0.0, 0.1)], (6, 6, 1)),  # one cell thick: no z neighbours
])
def test_face_values_match_per_face_lstsq(rng, bounds, div):
    mesh = generate_box_fv(bounds, div)
    vector = rng.standard_normal((mesh.num_cells, 3))
    np.testing.assert_allclose(mesh.face_interp @ vector, _face_values_oracle(mesh, vector), rtol=0, atol=1e-13)
    scalar = rng.standard_normal(mesh.num_cells)
    np.testing.assert_allclose(mesh.face_interp @ scalar, _face_values_oracle(mesh, scalar), rtol=0, atol=1e-13)


# -- D and F against the per-snapshot code they replace ---------------------


def _graded_fv(edges):
    """generate_box_fv on the index lattice, every coordinate then mapped
    through the cell edges (one ascending array per axis)."""
    lattice = generate_box_fv([(0, e.size - 1) for e in edges], [e.size - 1 for e in edges])

    def to_x(p):
        return np.stack([np.interp(p[:, a], np.arange(e.size), e) for a, e in enumerate(edges)], axis=1)

    def widths(p):  # physical widths of the unit lattice intervals centered at p
        return to_x(p + 0.5) - to_x(p - 0.5)

    area = np.prod(np.where(np.abs(lattice.normal) > 0.5, 1.0, widths(lattice.midpoint)), axis=1)
    return FvMesh(to_x(lattice.centers), np.prod(widths(lattice.centers), axis=1), lattice.owner,
                  lattice.neighbor, area, lattice.normal, to_x(lattice.midpoint))


def _keep_cells(mesh, keep):
    """The cells where `keep` holds; a face toward a dropped cell becomes a
    boundary face of the kept one."""
    new = np.cumsum(keep) - 1
    own_kept, nb_kept = keep[mesh.owner], (mesh.neighbor >= 0) & keep[mesh.neighbor]
    faces = own_kept | nb_kept
    flip = ~own_kept & nb_kept  # the kept neighbor becomes the owner
    owner = new[np.where(flip, mesh.neighbor, mesh.owner)]
    neighbor = np.where(own_kept & nb_kept, new[mesh.neighbor], -1)
    normal = np.where(flip[:, None], -mesh.normal, mesh.normal)
    return FvMesh(mesh.centers[keep], mesh.volumes[keep], owner[faces], neighbor[faces], mesh.area[faces],
                  normal[faces], mesh.midpoint[faces])


def _split_face(mesh, f):
    """Face f replaced by two halves side by side, with the same cells."""
    off = np.zeros(3)
    off[np.argmin(np.abs(mesh.normal[f]))] = 0.25 * np.sqrt(mesh.area[f])
    keep = np.arange(mesh.num_faces) != f
    return FvMesh(
        mesh.centers, mesh.volumes, np.append(mesh.owner[keep], [mesh.owner[f]] * 2),
        np.append(mesh.neighbor[keep], [mesh.neighbor[f]] * 2), np.append(mesh.area[keep], [mesh.area[f] / 2] * 2),
        np.vstack([mesh.normal[keep], mesh.normal[[f, f]]]),
        np.vstack([mesh.midpoint[keep], mesh.midpoint[f] - off, mesh.midpoint[f] + off]),
    )


def _nonuniform_fv():
    """Geometrically graded cells whose boundary owners have 1 to 6 neighbor
    incidences: a 4x4x3 block (corners 3, edges 4, faces 5) with a two-cell
    spike out of its x-max side (2, then 1), and the face between the z-min
    face cells (1, 1, 0) and (2, 1, 0) split in two (6 each, one neighbor twice)."""
    edges = [np.cumsum(np.r_[0.0, 1.3 ** np.arange(n)]) for n in (6, 4, 3)]
    i, j, k = np.unravel_index(np.arange(72), (6, 4, 3))  # generate_box_fv numbers cells z fastest
    mesh = _keep_cells(_graded_fv(edges), (i < 4) | ((j == 1) & (k == 1)))
    return _split_face(mesh, int(np.nonzero((mesh.owner == 15) & (mesh.neighbor == 27))[0][0]))


def _lexsorted_cell_faces(mesh):
    """(cell, face) incidences sorted by cell, then face."""
    interior = np.nonzero(mesh.neighbor >= 0)[0]
    cell = np.concatenate([mesh.owner, mesh.neighbor[interior]])
    face = np.concatenate([np.arange(mesh.num_faces), interior])
    order = np.lexsort((face, cell))
    return cell[order], face[order]


def _per_snapshot_face_values(mesh, values):
    """Face values as each snapshot once computed them: inverse-distance
    weights inside; on boundary faces the owner value plus a least-squares
    gradient, pinv of the neighbor offsets solved per neighbor count."""
    vals2 = values if values.ndim == 2 else values[:, None]
    out = vals2[mesh.owner].copy()
    interior = mesh.neighbor >= 0
    own, nb = mesh.owner[interior], mesh.neighbor[interior]
    d_o = np.linalg.norm(mesh.midpoint[interior] - mesh.centers[own], axis=1)
    d_n = np.linalg.norm(mesh.midpoint[interior] - mesh.centers[nb], axis=1)
    w_o = (d_n / (d_o + d_n))[:, None]
    out[interior] = w_o * vals2[own] + (1.0 - w_o) * vals2[nb]
    bnd = ~interior
    cells, owner_slot = np.unique(mesh.owner[bnd], return_inverse=True)
    cell, face = _lexsorted_cell_faces(mesh)
    inner = mesh.neighbor[face] >= 0
    cell, other = cell[inner], (mesh.owner + mesh.neighbor)[face[inner]] - cell[inner]
    start = np.searchsorted(cell, cells)
    count = np.searchsorted(cell, cells, side="right") - start
    grads = np.zeros((cells.size, 3, vals2.shape[1]))
    for k in np.unique(count[count > 0]):
        group = np.nonzero(count == k)[0]
        nbrs = other[start[group][:, None] + np.arange(k)]
        own = cells[group][:, None]
        grads[group] = np.linalg.pinv(mesh.centers[nbrs] - mesh.centers[own], rtol=None) @ (vals2[nbrs] - vals2[own])
    o = mesh.owner[bnd]
    out[bnd] = vals2[o] + np.einsum("fd,fdm->fm", mesh.midpoint[bnd] - mesh.centers[o], grads[owner_slot])
    return out if values.ndim == 2 else out[:, 0]


def _per_snapshot_divergence(mesh, u, rho0):
    """div(rho0 u x u) with every face flux scattered to its two cells."""
    uf = _per_snapshot_face_values(mesh, u)
    flux = rho0 * uf * np.einsum("fx,fx->f", uf, mesh.normal)[:, None] * mesh.area[:, None]
    acc = np.zeros((mesh.num_cells, 3))
    np.add.at(acc, mesh.owner, flux)
    interior = mesh.neighbor >= 0
    np.add.at(acc, mesh.neighbor[interior], -flux[interior])
    return acc / mesh.volumes[:, None]


FV_CASES = pytest.mark.parametrize(
    "make_mesh", [lambda: generate_box_fv([(0.0, 1.0), (0.0, 2.0), (0.0, 1.5)], (5, 4, 3)), _nonuniform_fv],
    ids=["box", "nonuniform"],
)


def test_nonuniform_mesh_has_owners_of_one_to_six_neighbors():
    mesh = _nonuniform_fv()
    cell, face = _lexsorted_cell_faces(mesh)
    count = np.bincount(cell[mesh.neighbor[face] >= 0], minlength=mesh.num_cells)
    assert set(count[mesh.owner[mesh.neighbor < 0]]) == {1, 2, 3, 4, 5, 6}
    widths = np.diff(np.unique(mesh.centers[:, 0]))
    assert widths.max() > 1.5 * widths.min()


@FV_CASES
def test_operators_match_per_snapshot_code(rng, make_mesh):
    mesh = make_mesh()
    u = rng.standard_normal((mesh.num_cells, 3))
    np.testing.assert_allclose(mesh.face_interp @ u, _per_snapshot_face_values(mesh, u), rtol=0, atol=1e-13)
    np.testing.assert_allclose(mesh.face_interp @ u, _face_values_oracle(mesh, u), rtol=0, atol=1e-13)
    scalar = u[:, 0]
    np.testing.assert_allclose(mesh.face_interp @ scalar, _per_snapshot_face_values(mesh, scalar), rtol=0, atol=1e-13)
    got = lighthill_divergence(mesh, FvField(mesh, u), rho0=1.3).values
    expected = _per_snapshot_divergence(mesh, u, 1.3)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@FV_CASES
def test_incidence_rows_list_faces_in_ascending_order(make_mesh):
    mesh = make_mesh()
    cell, face, sign = mesh.cell_faces()
    expected_cell, expected_face = _lexsorted_cell_faces(mesh)
    np.testing.assert_array_equal(cell, expected_cell)
    np.testing.assert_array_equal(face, expected_face)
    np.testing.assert_array_equal(sign, np.where(mesh.owner[face] == cell, 1.0, -1.0))
    assert mesh.incidence.shape == (mesh.num_cells, mesh.num_faces)
    assert mesh.face_interp.shape == (mesh.num_faces, mesh.num_cells)


def test_face_interp_built_once_per_mesh(monkeypatch):
    """The least-squares inverses are taken when F is first needed, not again
    for later snapshots on the same mesh."""
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **kw: calls.append(1) or pinv(*a, **kw))
    mesh = _nonuniform_fv()
    counts = []
    for t in (0.0, 0.5, 1.0):
        u = sample_velocity(mesh, lambda x, y, z: (np.sin(x + t), y * z, np.cos(y - t)), time=t)
        lighthill_divergence(mesh, u, 1.0)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[2] == counts[0]


def test_smooth_field_second_order_interior():
    # u = (sin x, 0, 0): div(u x u) = (sin 2x, 0, 0); away from the
    # boundary the interpolation errors on opposite faces nearly cancel
    # and the divergence converges at second order
    def u_fn(x, y, z):
        return (np.sin(x), np.zeros_like(y), np.zeros_like(z))

    errs = []
    for n in (8, 16, 32):
        mesh = generate_box_fv(UNIT_BOX, (n, n, n))
        div = lighthill_divergence(mesh, sample_velocity(mesh, u_fn), rho0=1.0)
        exact = np.stack(
            [np.sin(2.0 * mesh.centers[:, 0]), np.zeros(mesh.num_cells), np.zeros(mesh.num_cells)], axis=1
        )
        interior = np.all((mesh.centers > 0.26) & (mesh.centers < 0.74), axis=1)
        errs.append(np.max(np.abs(div.values[interior] - exact[interior])))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.8


def test_rho0_scaling():
    mesh = generate_box_fv(UNIT_BOX, (4, 4, 4))
    u = sample_velocity(mesh, _shear)
    d1 = lighthill_divergence(mesh, u, rho0=1.0)
    d2 = lighthill_divergence(mesh, u, rho0=2.5)
    np.testing.assert_allclose(d2.values, 2.5 * d1.values, rtol=1e-13)


def test_divergence_requires_vector_field():
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    scalar = FvField(mesh, np.ones(mesh.num_cells))
    with pytest.raises(FvError, match="3-vector"):
        lighthill_divergence(mesh, scalar, 1.0)


def test_gauss_identity_volume_vs_boundary():
    """sum over cells of div * volume equals the boundary flux exactly:
    interior face contributions cancel in pairs by construction."""
    mesh = generate_box_fv(UNIT_BOX, (6, 6, 6))
    u = sample_velocity(mesh, _shear)
    div = lighthill_divergence(mesh, u, rho0=1.0)
    total = (div.values * mesh.volumes[:, None]).sum(axis=0)
    np.testing.assert_allclose(total, boundary_flux_total(mesh, u, 1.0), atol=1e-12)


# -- spanwise averaging ---------------------------------------------------


def test_average_constant():
    mesh = generate_box_fv(UNIT_BOX, (4, 4, 4))
    fld = FvField(mesh, np.full(mesh.num_cells, 7.0))
    avg = spanwise_average(fld, axis=2)
    assert avg.mesh is mesh
    np.testing.assert_allclose(avg.values, 7.0)


def test_average_of_z_along_z():
    mesh = generate_box_fv(UNIT_BOX, (4, 4, 8))
    fld = FvField(mesh, mesh.centers[:, 2])
    avg = spanwise_average(fld, axis=2)
    np.testing.assert_allclose(avg.values, 0.5, atol=1e-12)


def test_average_preserves_in_plane_profile():
    mesh = generate_box_fv(UNIT_BOX, (5, 3, 4))
    fld = FvField(mesh, mesh.centers[:, 0])
    avg = spanwise_average(fld, axis=2)
    np.testing.assert_allclose(avg.values, avg.mesh.centers[:, 0], atol=1e-12)


def test_average_vector_field():
    mesh = generate_box_fv(UNIT_BOX, (3, 3, 3))
    fld = sample_velocity(mesh, _shear)
    avg = spanwise_average(fld, axis=2)
    assert avg.values.shape == (27, 3)
    np.testing.assert_allclose(avg.values[:, 0], avg.mesh.centers[:, 0], atol=1e-12)


def test_average_volume_conservation():
    """The volume integral of the field, and of each column, is kept."""
    mesh = generate_box_fv([(0, 2), (0, 1), (0, 3)], (4, 2, 6))
    fld = FvField(mesh, mesh.centers[:, 2] ** 2 + mesh.centers[:, 0])
    avg = spanwise_average(fld, axis=2)
    np.testing.assert_allclose((avg.values * mesh.volumes).sum(), (fld.values * mesh.volumes).sum(), rtol=1e-14)
    columns = (avg.values * mesh.volumes).reshape(8, 6).sum(axis=1)  # the generator numbers cells z fastest
    np.testing.assert_allclose(columns, (fld.values * mesh.volumes).reshape(8, 6).sum(axis=1), rtol=1e-14)


def test_average_rejects_ragged_columns():
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 2))
    centers = mesh.centers.copy()
    centers[0, 0] += 0.1  # break the column structure
    broken = FvMesh(centers, mesh.volumes, mesh.owner, mesh.neighbor, mesh.area, mesh.normal, mesh.midpoint)
    with pytest.raises(FvError, match="column"):
        spanwise_average(FvField(broken, np.ones(8)), axis=2)


# -- file I/O -------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    mesh = generate_box_fv(UNIT_BOX, (3, 2, 2))
    fields = [
        FvField(mesh, np.arange(12.0), time=0.2, name="late"),
        FvField(mesh, np.arange(12.0) * 2, time=0.1, name="early"),
    ]
    path = tmp_path / "fv.json"
    save_fv(path, mesh, fields)
    back_mesh, back_fields = load_fv(path)
    np.testing.assert_allclose(back_mesh.centers, mesh.centers)
    np.testing.assert_allclose(back_mesh.normal, mesh.normal)
    assert [f.name for f in back_fields] == ["early", "late"]  # time sorted
    np.testing.assert_allclose(back_fields[1].values, np.arange(12.0))


def _save_fv_oracle(path, mesh, fields):
    """The writer before row templates: one dict per cell and per face, then
    one json.dumps of the whole file."""
    keys = ("owner", "neighbor", "area", "normal", "midpoint")
    faces = zip(*(getattr(mesh, k).tolist() for k in keys))
    data = {
        "version": FV_FORMAT_VERSION,
        "cells": [{"center": c, "volume": v} for c, v in zip(mesh.centers.tolist(), mesh.volumes.tolist())],
        "faces": [dict(zip(keys, f)) for f in faces],
        "fields": [
            {"name": f.name, "time": float(f.time), "values": f.values.tolist()} for f in (fields or [])
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(data))


def test_save_fv_bytes_match_row_by_row_layout(tmp_path, rng):
    """The file is the one json.dump of a dict built row by row."""
    mesh = generate_box_fv([(0.0, 1.0), (-1.0, 0.3), (0.0, 0.2)], (3, 4, 2))
    fields = [
        FvField(mesh, rng.standard_normal((mesh.num_cells, 3)) * 1e-7, time=0.25, name="U"),
        FvField(mesh, rng.standard_normal(mesh.num_cells) * 3e5, time=0.5, name="p"),
    ]
    reduced = spanwise_average(fields[0], axis=2)
    for m, fs in ((mesh, fields), (reduced.mesh, [reduced]), (mesh, None)):
        path, ref = tmp_path / "fv.json", tmp_path / "ref.json"
        save_fv(path, m, fs)
        _save_fv_oracle(ref, m, fs)
        assert path.read_bytes() == ref.read_bytes()


def _rotated_nonuniform_fv():
    """_nonuniform_fv turned by a random rotation: every coordinate and normal
    component a full-precision float of either sign."""
    mesh = _nonuniform_fv()
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    return FvMesh(mesh.centers @ q.T, mesh.volumes, mesh.owner, mesh.neighbor, mesh.area, mesh.normal @ q.T,
                  mesh.midpoint @ q.T)


@pytest.mark.parametrize("make_mesh", [lambda: generate_box_fv(UNIT_BOX, (3, 2, 2)), _nonuniform_fv,
                                       _rotated_nonuniform_fv], ids=["box", "nonuniform", "rotated"])
@pytest.mark.parametrize("kinds", ["", "s", "vsv"])
def test_save_fv_bytes_match_oracle(tmp_path, rng, make_mesh, kinds):
    """The template writer gives the bytes of json.dumps of the dict layout,
    and load_fv reads back the very arrays."""
    mesh = make_mesh()
    fields = [
        FvField(mesh, rng.standard_normal((mesh.num_cells, 3) if kind == "v" else mesh.num_cells)
                * 10.0 ** rng.integers(-300, 300), time=float(rng.uniform()), name=f"f{i} \u00e9\"")
        for i, kind in enumerate(kinds)
    ]
    if fields:
        fields[0].values.flat[:2] = (0.0, -0.0)
    path, ref = tmp_path / "fv.json", tmp_path / "ref.json"
    save_fv(path, mesh, fields)
    _save_fv_oracle(ref, mesh, fields)
    assert path.read_bytes() == ref.read_bytes()
    back, back_fields = load_fv(path)
    for name in ("centers", "volumes", "owner", "neighbor", "area", "normal", "midpoint"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name))
        assert getattr(back, name).dtype == getattr(mesh, name).dtype
    for f, g in zip(sorted(fields, key=lambda f: f.time), back_fields):
        assert np.array_equal(f.values, g.values) and (f.time, f.name) == (g.time, g.name)


def _corrupt_fv(tmp_path, change):
    """A 2x2x1 box FV file with a scalar and a vector field, edited by change(data)."""
    mesh = generate_box_fv(UNIT_BOX, (2, 2, 1))
    path = tmp_path / "fv.json"
    save_fv(path, mesh, [FvField(mesh, np.ones(4), time=0.0), FvField(mesh, np.ones((4, 3)), time=1.0)])
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))
    return path


def _set_entry(kind, i, key, value):
    return lambda data: data[kind][i].__setitem__(key, value)


@pytest.mark.parametrize("change, problem", [
    (_set_entry("cells", 2, "center", [0.5, 0.5]), "cells[2] center must be 3 numbers, got [0.5, 0.5]"),
    (_set_entry("cells", 0, "center", 0.5), "cells[0] center must be 3 numbers, got 0.5"),
    (_set_entry("cells", 1, "center", [0.5, 0.5, "x"]), "cells[1] center must be 3 numbers, got [0.5, 0.5, 'x']"),
    (_set_entry("cells", 3, "volume", [1.0]), "cells[3] volume must be a number, got [1.0]"),
    (_set_entry("faces", 4, "normal", [1.0, 0.0, 0.0, 0.0]),
     "faces[4] normal must be 3 numbers, got [1.0, 0.0, 0.0, 0.0]"),
    (_set_entry("faces", 5, "midpoint", [[0.5], 0.5, 0.0]),
     "faces[5] midpoint must be 3 numbers, got [[0.5], 0.5, 0.0]"),
    (_set_entry("faces", 6, "area", {"a": 1}), "faces[6] area must be a number, got {'a': 1}"),
    (_set_entry("faces", 3, "owner", 1.7), "faces[3] owner must be an integer index, got 1.7"),
    (_set_entry("faces", 2, "neighbor", None), "faces[2] neighbor must be an integer index, got None"),
    (_set_entry("faces", 0, "owner", 1e300), "faces[0] owner must be an integer index, got 1e+300"),
    (_set_entry("faces", 0, "area", 10**400), f"faces[0] area must be a number, got {10**400}"),
    (_set_entry("fields", 1, "time", [0.5]), "fields[1] time must be a number, got [0.5]"),
    (_set_entry("fields", 0, "values", [1.0, 1.0, [1.0], 1.0]), "fields[0] values[2] must be a number, got [1.0]"),
    (_set_entry("fields", 1, "values", [[1.0, 1.0]] * 4), "fields[1] values[0] must be 3 numbers, got [1.0, 1.0]"),
    (_set_entry("fields", 1, "values", [1.0] * 3), "fields[1] values must list one value per cell (4), got 3 entries"),
    (_set_entry("fields", 0, "values", 1.0), "fields[0] values must list one value per cell (4), got 1.0"),
], ids=["center-short", "center-number", "center-str", "volume-list", "normal-long", "midpoint-nested",
        "area-object", "owner-fraction", "neighbor-null", "owner-huge", "area-huge-int", "time-list", "scalar-list",
        "vector-short", "values-count", "values-number"])
def test_load_rejects_misshapen_entry(tmp_path, change, problem):
    """An entry of the wrong shape or type is an FvError naming the entry and key."""
    path = _corrupt_fv(tmp_path, change)
    with pytest.raises(FvError, match="^" + re.escape("FV file " + problem) + "$"):
        load_fv(path)


def test_mesh_and_field_shapes_validated():
    mesh = generate_box_fv(UNIT_BOX, (2, 1, 1))
    with pytest.raises(FvError, match=r"^centers has shape \(2, 2\), expected \(2, 3\)$"):
        FvMesh(mesh.centers[:, :2], mesh.volumes, mesh.owner, mesh.neighbor, mesh.area, mesh.normal, mesh.midpoint)
    with pytest.raises(FvError, match=r"^normal has shape"):
        FvMesh(mesh.centers, mesh.volumes, mesh.owner, mesh.neighbor, mesh.area, mesh.normal[:, :2], mesh.midpoint)
    with pytest.raises(FvError, match=r"^neighbor has shape"):
        FvMesh(mesh.centers, mesh.volumes, mesh.owner, mesh.neighbor[:-1], mesh.area, mesh.normal, mesh.midpoint)
    for values in (np.ones((2, 2)), np.ones(3), np.float64(1.0)):
        with pytest.raises(FvError, match=rf"one 3-vector per cell \(2\), got shape {re.escape(str(values.shape))}$"):
            FvField(mesh, values)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "fv.json"
    path.write_text('{"version": "0", "cells": [], "faces": []}')
    with pytest.raises(FvError, match="version"):
        load_fv(path)


def test_load_rejects_missing_arrays(tmp_path):
    path = tmp_path / "fv.json"
    path.write_text('{"version": "1", "cells": []}')
    with pytest.raises(FvError, match="faces"):
        load_fv(path)


@pytest.mark.parametrize("kind, key", [
    ("cell", "center"), ("cell", "volume"), ("face", "owner"), ("face", "neighbor"), ("face", "area"),
    ("face", "normal"), ("face", "midpoint"), ("field", "values"),
])
def test_load_rejects_row_without_key(tmp_path, kind, key):
    """A cell, face or field entry that lacks a key is an FvError naming the key."""
    mesh = generate_box_fv(UNIT_BOX, (2, 1, 1))
    path = tmp_path / "fv.json"
    save_fv(path, mesh, [FvField(mesh, np.full(mesh.num_cells, t), time=t) for t in (0.5, 1.0)])
    data = json.loads(path.read_text())
    del data[kind + "s"][1][key]
    path.write_text(json.dumps(data))
    with pytest.raises(FvError, match=f"^FV file entry lacks '{key}'$"):
        load_fv(path)
