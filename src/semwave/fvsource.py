"""Finite-volume donor side: polyhedral cell/face data, Gauss evaluation of
the Lighthill source div(rho0 u x u), spanwise averaging, and file I/O.

Faces store owner/neighbor cells, area, unit normal (oriented owner ->
neighbor, outward on boundary faces), and midpoint.  Boundary faces have
neighbor = -1; their face value is linearly extrapolated from the owner
cell with a least-squares cell gradient (owner value when the cell has
no usable neighbors), which keeps the divergence second order up to the
boundary.

The FV file is JSON with ``"version": "1"`` and ``cells``, ``faces``,
``fields`` arrays; fields are per-cell scalars or 3-vectors with a time
stamp.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

FV_FORMAT_VERSION = "1"


class FvError(Exception):
    pass


@dataclass
class FvMesh:
    centers: np.ndarray  # (nc, 3)
    volumes: np.ndarray  # (nc,)
    owner: np.ndarray  # (nf,) int
    neighbor: np.ndarray  # (nf,) int, -1 on boundary faces
    area: np.ndarray  # (nf,)
    normal: np.ndarray  # (nf, 3) unit, owner -> neighbor
    midpoint: np.ndarray  # (nf, 3)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.volumes = np.asarray(self.volumes, dtype=float)
        for name in ("owner", "neighbor"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=int))
        for name in ("area", "normal", "midpoint"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.validate()

    @property
    def num_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def num_faces(self) -> int:
        return self.owner.shape[0]

    def cell_faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Face incidences grouped by cell, faces ascending within each cell:
        (cell, face, start), cell c bounded by face[start[c]:start[c + 1]]."""
        interior = np.nonzero(self.neighbor >= 0)[0]
        cell = np.concatenate([self.owner, self.neighbor[interior]])
        face = np.concatenate([np.arange(self.num_faces), interior])
        order = np.lexsort((face, cell))
        cell, face = cell[order], face[order]
        return cell, face, np.searchsorted(cell, np.arange(self.num_cells + 1))

    def validate(self):
        for name in ("centers", "volumes", "area", "normal", "midpoint"):
            bad = np.argwhere(~np.isfinite(getattr(self, name)))
            if bad.size:  # NaN passes every comparison below
                raise FvError(f"{name} is not finite at index {bad[0][0]}")
        if np.any(self.volumes <= 0):
            raise FvError("non-positive cell volume")
        if self.num_faces == 0:
            return  # reduced meshes (spanwise averages) carry no faces
        if np.any(self.area <= 0):
            raise FvError("non-positive face area")
        norms = np.linalg.norm(self.normal, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > 1e-12)[0]
        if bad.size:
            raise FvError(f"face {bad[0]} normal is not unit length")
        if self.owner.min() < 0 or self.owner.max() >= self.num_cells:
            raise FvError("face owner index out of range")
        if self.neighbor.max(initial=-1) >= self.num_cells:
            raise FvError("face neighbor index out of range")
        # closed-surface consistency per cell: sum of signed area vectors = 0
        sv = self.area[:, None] * self.normal
        acc = np.zeros_like(self.centers)
        np.add.at(acc, self.owner, sv)
        interior = self.neighbor >= 0
        np.add.at(acc, self.neighbor[interior], -sv[interior])
        scale = np.maximum(self.volumes ** (2.0 / 3.0), 1e-300)
        resid = np.linalg.norm(acc, axis=1) / scale
        worst = int(np.argmax(resid))
        if resid[worst] > 1e-8:
            faces = np.nonzero((self.owner == worst) | (self.neighbor == worst))[0]
            raise FvError(
                f"cell {worst} face-area vectors do not close (residual {resid[worst]:.3e}); "
                f"check orientation of faces {faces.tolist()}"
            )


@dataclass
class FvField:
    mesh: FvMesh
    values: np.ndarray  # (nc,) or (nc, 3)
    time: float = 0.0
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.mesh.num_cells:
            raise FvError("field length does not match cell count")
        if not np.all(np.isfinite(self.values)):
            raise FvError("non-finite field values")


def generate_box_fv(bounds, divisions) -> FvMesh:
    """Uniform Cartesian FV mesh of an axis-aligned box."""
    bounds = np.asarray(bounds, dtype=float)
    nx, ny, nz = (int(n) for n in divisions)
    if min(nx, ny, nz) < 1 or np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("divisions must be >= 1 and box extents positive")
    d = (bounds[:, 1] - bounds[:, 0]) / (nx, ny, nz)
    xs, ys, zs = (
        bounds[a, 0] + (np.arange(n) + 0.5) * d[a] for a, n in enumerate((nx, ny, nz))
    )
    xg, yg, zg = np.meshgrid(xs, ys, zs, indexing="ij")
    centers = np.stack([xg.ravel(), yg.ravel(), zg.ravel()], axis=1)
    volumes = np.full(nx * ny * nz, d.prod())

    # face slots (cell, axis, side -/+) in cell order; an interior face is
    # kept once, as the + side of its lower-index owner
    dims = np.array([nx, ny, nz])
    idx = np.stack(np.meshgrid(*(np.arange(n) for n in dims), indexing="ij"), axis=-1).reshape(-1, 3)
    sign = np.array([-1, 1])
    nb_idx = idx[:, :, None] + sign  # (nc, 3, 2)
    at_boundary = (nb_idx < 0) | (nb_idx >= dims[:, None])
    keep = (at_boundary | (sign > 0)).ravel()
    cells = np.arange(centers.shape[0])[:, None, None]
    neighbor = np.where(at_boundary, -1, cells + sign * np.array([ny * nz, nz, 1])[:, None])
    area = np.broadcast_to(np.array([d[1] * d[2], d[0] * d[2], d[0] * d[1]])[:, None], nb_idx.shape)
    normal = np.zeros(nb_idx.shape + (3,))
    midpoint = np.repeat(centers[:, None, None, :], 3, axis=1).repeat(2, axis=2)
    for a in range(3):
        normal[:, a, :, a] = sign
        midpoint[:, a, :, a] += sign * d[a] / 2
    return FvMesh(
        centers, volumes, np.broadcast_to(cells, nb_idx.shape).ravel()[keep], neighbor.ravel()[keep],
        area.ravel()[keep], normal.reshape(-1, 3)[keep], midpoint.reshape(-1, 3)[keep],
    )


def sample_velocity(mesh: FvMesh, u_fn, time: float = 0.0, name: str = "U") -> FvField:
    """Analytic velocity sampled at cell centers (synthetic donor data)."""
    c = mesh.centers
    vals = np.stack(u_fn(c[:, 0], c[:, 1], c[:, 2]), axis=-1)
    return FvField(mesh, vals, time=time, name=name)


def _cell_gradients(mesh: FvMesh, values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Least-squares gradient of each requested cell from neighbor differences.

    Returns G (len(cells), 3, ncomp), G[c, d, comp] = d(values_comp)/d(x_d):
    the minimum-norm solution, so a direction without neighbors gets zero
    slope.  Cells with equally many neighbors are solved together."""
    vals2 = values if values.ndim == 2 else values[:, None]
    cell, face, _ = mesh.cell_faces()
    inner = mesh.neighbor[face] >= 0
    # owner + neighbor - cell is the cell across each interior face
    cell, other = cell[inner], (mesh.owner + mesh.neighbor)[face[inner]] - cell[inner]
    start = np.searchsorted(cell, cells)
    count = np.searchsorted(cell, cells, side="right") - start
    out = np.zeros((cells.size, 3, vals2.shape[1]))
    for k in np.unique(count[count > 0]):
        group = np.nonzero(count == k)[0]
        nbrs = other[start[group][:, None] + np.arange(k)]  # (ng, k)
        own = cells[group][:, None]
        out[group] = np.linalg.pinv(mesh.centers[nbrs] - mesh.centers[own], rtol=None) @ (vals2[nbrs] - vals2[own])
    return out


def _face_values(mesh: FvMesh, values: np.ndarray) -> np.ndarray:
    """Linear face interpolation weighted by inverse center-to-face distance;
    boundary faces extrapolate linearly from the owner cell."""
    vals2 = values if values.ndim == 2 else values[:, None]
    out = vals2[mesh.owner].copy()
    interior = mesh.neighbor >= 0
    if interior.any():
        own, nb = mesh.owner[interior], mesh.neighbor[interior]
        d_o = np.linalg.norm(mesh.midpoint[interior] - mesh.centers[own], axis=1)
        d_n = np.linalg.norm(mesh.midpoint[interior] - mesh.centers[nb], axis=1)
        w_o = (d_n / (d_o + d_n))[:, None]
        out[interior] = w_o * vals2[own] + (1.0 - w_o) * vals2[nb]
    bnd = ~interior
    if bnd.any():
        cells, owner_slot = np.unique(mesh.owner[bnd], return_inverse=True)
        grads = _cell_gradients(mesh, values, cells)
        o = mesh.owner[bnd]
        out[bnd] = vals2[o] + np.einsum("fd,fdm->fm", mesh.midpoint[bnd] - mesh.centers[o], grads[owner_slot])
    return out if values.ndim == 2 else out[:, 0]


def _face_fluxes(mesh: FvMesh, u: FvField, rho0: float) -> np.ndarray:
    """rho0 u_F (u_F . n) |F| on every face, (nf, 3), oriented owner -> neighbor."""
    uf = _face_values(mesh, u.values)  # (nf, 3)
    return rho0 * uf * np.einsum("fx,fx->f", uf, mesh.normal)[:, None] * mesh.area[:, None]


def lighthill_divergence(mesh: FvMesh, u: FvField, rho0: float) -> FvField:
    """Per-cell div(rho0 u x u) by the Gauss (divergence) theorem with
    mid-point face quadrature."""
    if u.values.ndim != 2 or u.values.shape[1] != 3:
        raise FvError("lighthill_divergence needs a 3-vector velocity field")
    flux = _face_fluxes(mesh, u, rho0)
    acc = np.zeros((mesh.num_cells, 3))
    np.add.at(acc, mesh.owner, flux)
    interior = mesh.neighbor >= 0
    np.add.at(acc, mesh.neighbor[interior], -flux[interior])
    return FvField(mesh, acc / mesh.volumes[:, None], time=u.time, name=f"div_lighthill({u.name})")


def boundary_flux_total(mesh: FvMesh, u: FvField, rho0: float) -> np.ndarray:
    """Sum of rho0 u_F (u_F . n) |F| over boundary faces (conservation check)."""
    return _face_fluxes(mesh, u, rho0)[mesh.neighbor < 0].sum(axis=0)


def spanwise_average(field: FvField, axis: int) -> FvField:
    """Volume-weighted mean along one axis of an extruded/structured mesh.

    Cells are grouped into columns by their in-plane center coordinates;
    the grouping is validated by requiring every column to contain the
    same number of cells.  Returns a field on a reduced (face-free) mesh
    with one cell per column.
    """
    mesh = field.mesh
    plane = [a for a in range(3) if a != axis]
    c = mesh.centers
    span = np.ptp(c[:, plane], axis=0).max()
    tol = max(span, 1.0) * 1e-8
    keys = np.round(c[:, plane] / tol).astype(np.int64)
    _, col, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    if counts.min() != counts.max():
        raise FvError("mesh is not extruded along the requested axis (uneven columns)")
    ncol = counts.size
    w = mesh.volumes
    vals = field.values if field.values.ndim == 2 else field.values[:, None]
    wsum = np.bincount(col, weights=w, minlength=ncol)
    avg = np.stack(
        [np.bincount(col, weights=w * vals[:, d], minlength=ncol) for d in range(vals.shape[1])],
        axis=-1,
    ) / wsum[:, None]
    if field.values.ndim == 1:
        avg = avg[:, 0]
    centers = np.zeros((ncol, 3))
    for d, a in enumerate(plane):
        centers[:, a] = np.bincount(col, weights=w * c[:, a], minlength=ncol) / wsum
    centers[:, axis] = c[:, axis].mean()
    reduced = FvMesh(
        centers, wsum,
        np.empty(0, dtype=int), np.empty(0, dtype=int),
        np.empty(0), np.empty((0, 3)), np.empty((0, 3)),
    )
    return FvField(reduced, avg, time=field.time, name=field.name)


# -- file I/O -------------------------------------------------------------


def save_fv(path, mesh: FvMesh, fields: list[FvField] | None = None):
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


def load_fv(path) -> tuple[FvMesh, list[FvField]]:
    """Load and validate an FV data file; fields come back time-sorted."""
    with open(path) as fh:
        data = json.load(fh)
    version = data.get("version") if isinstance(data, dict) else None
    if version != FV_FORMAT_VERSION:
        raise FvError(f"unsupported FV file version {version!r}")
    for key in ("cells", "faces"):
        if key not in data:
            raise FvError(f"FV file missing {key!r} array")
    cells = data["cells"]
    mesh = FvMesh(
        np.array([c["center"] for c in cells], dtype=float),
        np.array([c["volume"] for c in cells], dtype=float),
        [f["owner"] for f in data["faces"]],
        [f["neighbor"] for f in data["faces"]],
        [f["area"] for f in data["faces"]],
        [f["normal"] for f in data["faces"]],
        [f["midpoint"] for f in data["faces"]],
    )
    fields = [
        FvField(mesh, np.array(f["values"], dtype=float), time=float(f.get("time", 0.0)), name=f.get("name", ""))
        for f in data.get("fields", [])
    ]
    fields.sort(key=lambda f: f.time)
    return mesh, fields
