"""FV donor mesh, Lighthill source divergence, averaging and file I/O."""

import numpy as np
import pytest

from semwave.fvsource import (
    FV_FORMAT_VERSION,
    FvError,
    FvField,
    FvMesh,
    _face_values,
    boundary_flux_total,
    generate_box_fv,
    lighthill_divergence,
    load_fv,
    sample_velocity,
    save_fv,
    spanwise_average,
)

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


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
    np.testing.assert_allclose(_face_values(mesh, vector), _face_values_oracle(mesh, vector), rtol=0, atol=1e-13)
    scalar = rng.standard_normal(mesh.num_cells)
    np.testing.assert_allclose(_face_values(mesh, scalar), _face_values_oracle(mesh, scalar), rtol=0, atol=1e-13)


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
    assert avg.mesh.num_cells == 16
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
    assert avg.values.shape == (9, 3)
    np.testing.assert_allclose(avg.values[:, 0], avg.mesh.centers[:, 0], atol=1e-12)


def test_average_volume_conservation():
    mesh = generate_box_fv([(0, 2), (0, 1), (0, 3)], (4, 2, 6))
    fld = FvField(mesh, np.ones(mesh.num_cells))
    avg = spanwise_average(fld, axis=2)
    assert abs(avg.mesh.volumes.sum() - 6.0) < 1e-12


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


def test_save_fv_bytes_match_row_by_row_layout(tmp_path, rng):
    """The file is the one json.dump of a dict built row by row."""
    import json

    mesh = generate_box_fv([(0.0, 1.0), (-1.0, 0.3), (0.0, 0.2)], (3, 4, 2))
    fields = [
        FvField(mesh, rng.standard_normal((mesh.num_cells, 3)) * 1e-7, time=0.25, name="U"),
        FvField(mesh, rng.standard_normal(mesh.num_cells) * 3e5, time=0.5, name="p"),
    ]
    reduced = spanwise_average(fields[0], axis=2)
    for m, fs in ((mesh, fields), (reduced.mesh, [reduced]), (mesh, None)):
        expected = {
            "version": FV_FORMAT_VERSION,
            "cells": [{"center": [float(x) for x in c], "volume": float(v)} for c, v in zip(m.centers, m.volumes)],
            "faces": [
                {"owner": int(m.owner[f]), "neighbor": int(m.neighbor[f]), "area": float(m.area[f]),
                 "normal": [float(x) for x in m.normal[f]], "midpoint": [float(x) for x in m.midpoint[f]]}
                for f in range(m.num_faces)
            ],
            "fields": [{"name": f.name, "time": float(f.time), "values": f.values.tolist()} for f in fs or []],
        }
        ref = tmp_path / "ref.json"
        with open(ref, "w") as fh:
            json.dump(expected, fh)
        path = tmp_path / "fv.json"
        save_fv(path, m, fs)
        assert path.read_bytes() == ref.read_bytes()


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
