"""Finite-volume donor side: polyhedral cell/face data, Gauss evaluation of
the Lighthill source div(rho0 u x u), spanwise averaging, and file I/O.

Faces store owner/neighbor cells, area, unit normal (oriented owner ->
neighbor, outward on boundary faces), and midpoint.  Boundary faces have
neighbor = -1; their face value is linearly extrapolated from the owner
cell with a least-squares cell gradient (owner value when the cell has
no usable neighbors), which keeps the divergence second order up to the
boundary.  The mesh builds two sparse maps once, on first use: the signed
cell-face incidence D and the face interpolation F, so each snapshot's
divergence is D @ flux(F @ u) / V.

The FV file is JSON with ``"version": "1"`` and ``cells``, ``faces``,
``fields`` arrays; fields are per-cell scalars or 3-vectors with a time
stamp.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np
import scipy.sparse as sp

from .entries import floats, indices

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

    @cached_property
    def incidence(self) -> sp.csr_matrix:
        """Signed cell-face matrix D (cells x faces): +1 where the cell owns the
        face, -1 where it is the neighbor; faces ascend within each row."""
        interior = np.flatnonzero(self.neighbor >= 0)
        cell = np.concatenate([self.owner, self.neighbor[interior]])
        face = np.concatenate([np.arange(self.num_faces), interior])
        sign = np.repeat([1.0, -1.0], [self.num_faces, interior.size])
        return sp.csr_matrix((sign, (cell, face)), shape=(self.num_cells, self.num_faces))

    @cached_property
    def face_interp(self) -> sp.csr_matrix:
        """Face-value matrix F (faces x cells).  An interior face weights its two
        cells by inverse center-to-face distance; a boundary face extrapolates
        from its owner, v_o + (x_f - x_o) . P (v_nb - v_o), where P is the
        minimum-norm least-squares inverse of the owner's neighbor offsets (zero
        slope along a direction without neighbors).  One P per boundary owner,
        owners with equally many neighbors in one batch."""
        own, nb, x, mid = self.owner, self.neighbor, self.centers, self.midpoint
        inner, bnd = np.flatnonzero(nb >= 0), np.flatnonzero(nb < 0)
        d_o, d_n = (np.linalg.norm(mid[inner] - x[c[inner]], axis=1) for c in (own, nb))
        w = d_n / (d_o + d_n)
        rows, cols, vals = [inner, inner], [own[inner], nb[inner]], [w, 1.0 - w]
        cells, slot = np.unique(own[bnd], return_inverse=True)
        cell, face, _ = self.cell_faces()
        keep = nb[face] >= 0
        # owner + neighbor - cell is the cell across each interior face
        cell, other = cell[keep], (own + nb)[face[keep]] - cell[keep]
        start = np.searchsorted(cell, cells)
        count = np.searchsorted(cell, cells, side="right") - start
        for k in np.unique(count):
            group = np.flatnonzero(count == k)
            nbrs = other[start[group][:, None] + np.arange(k)]  # (ng, k)
            p = np.linalg.pinv(x[nbrs] - x[cells[group]][:, None], rtol=None)  # (ng, 3, k)
            in_group = count[slot] == k
            f, g = bnd[in_group], np.searchsorted(group, slot[in_group])  # faces, their owner in the group
            c = np.einsum("fd,fdk->fk", mid[f] - x[own[f]], p[g])  # neighbor weights
            rows += [np.repeat(f, k), f]
            cols += [nbrs[g].ravel(), own[f]]
            vals += [c.ravel(), 1.0 - c.sum(axis=1)]
        return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(self.num_faces, self.num_cells))

    def cell_faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Face incidences (cell, face, sign) read off D: by cell, faces
        ascending within each cell, sign +1 where the cell owns the face."""
        d = self.incidence
        return np.repeat(np.arange(self.num_cells), np.diff(d.indptr)), d.indices, d.data

    def validate(self):
        for name in ("centers", "volumes", "area", "normal", "midpoint"):
            bad = np.argwhere(~np.isfinite(getattr(self, name)))
            if bad.size:  # NaN passes every comparison below
                raise FvError(f"{name} is not finite at index {bad[0][0]}")
        if np.any(self.volumes <= 0):
            raise FvError("non-positive cell volume")
        if self.num_faces == 0:
            raise FvError("FV mesh has no faces")
        nc, nf = self.num_cells, self.num_faces
        for name, shape in (("centers", (nc, 3)), ("volumes", (nc,)), ("owner", (nf,)), ("neighbor", (nf,)),
                            ("area", (nf,)), ("normal", (nf, 3)), ("midpoint", (nf, 3))):
            if getattr(self, name).shape != shape:
                raise FvError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if np.any(self.area <= 0):
            raise FvError("non-positive face area")
        norms = np.linalg.norm(self.normal, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > 1e-12)[0]
        if bad.size:
            raise FvError(f"face {bad[0]} normal is not unit length")
        if self.owner.min() < 0 or self.owner.max() >= self.num_cells:
            raise FvError("face owner index out of range")
        bad = np.flatnonzero((self.neighbor < -1) | (self.neighbor >= self.num_cells) | (self.neighbor == self.owner))
        if bad.size:  # out of range, or a -1 in D that cancels the owner's +1
            raise FvError(f"face {bad[0]} neighbor {self.neighbor[bad[0]]} is neither -1 nor another cell")
        # closed-surface consistency per cell: sum of signed area vectors = 0
        acc = self.incidence @ (self.area[:, None] * self.normal)
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
        nc = self.mesh.num_cells
        if self.values.shape not in ((nc,), (nc, 3)):
            raise FvError(f"field values must be one scalar or one 3-vector per cell ({nc}), "
                          f"got shape {self.values.shape}")
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


def lighthill_divergence(mesh: FvMesh, u: FvField, rho0: float) -> FvField:
    """Per-cell div(rho0 u x u) by the Gauss (divergence) theorem with
    mid-point face quadrature: D @ (rho0 u_F (u_F . n) |F|) / V, u_F = F @ u."""
    if u.values.ndim != 2 or u.values.shape[1] != 3:
        raise FvError("lighthill_divergence needs a 3-vector velocity field")
    uf = mesh.face_interp @ u.values  # (nf, 3)
    flux = rho0 * uf * (np.einsum("fx,fx->f", uf, mesh.normal) * mesh.area)[:, None]  # owner -> neighbor
    return FvField(mesh, (mesh.incidence @ flux) / mesh.volumes[:, None], time=u.time, name=f"div_lighthill({u.name})")


def spanwise_average(field: FvField, axis: int) -> FvField:
    """Volume-weighted mean along one axis of an extruded/structured mesh.

    Cells are grouped into columns by their in-plane center coordinates;
    the grouping is validated by requiring every column to contain the
    same number of cells.  Returns a field on the same mesh in which every
    cell holds its column's mean, so it projects like any other source.
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
    w = mesh.volumes
    vals = field.values if field.values.ndim == 2 else field.values[:, None]
    wsum = np.bincount(col, weights=w, minlength=counts.size)
    avg = np.stack([np.bincount(col, weights=w * v, minlength=counts.size) for v in vals.T], axis=-1) / wsum[:, None]
    return FvField(mesh, avg[col].reshape(field.values.shape), time=field.time, name=field.name)


# -- file I/O -------------------------------------------------------------


_CELL = '{"center": [%r, %r, %r], "volume": %r}'
_FACE = '{"owner": %d, "neighbor": %d, "area": %r, "normal": [%r, %r, %r], "midpoint": [%r, %r, %r]}'


def _rows(template: str, table: np.ndarray) -> str:
    """One template per row of table, joined by ', ': %r of a float is its
    repr, which is what json writes for a finite float."""
    return ", ".join([template] * len(table)) % tuple(table.ravel().tolist())


def save_fv(path, mesh: FvMesh, fields: list[FvField] | None = None):
    """Write mesh and fields as the FV JSON file: the bytes of json.dumps of
    {"version", "cells": [{"center", "volume"}], "faces": [{"owner",
    "neighbor", "area", "normal", "midpoint"}], "fields": [{"name", "time",
    "values"}]}, each row formatted through a fixed template."""
    cells = _rows(_CELL, np.column_stack([mesh.centers, mesh.volumes]))
    faces = _rows(_FACE, np.column_stack([mesh.owner, mesh.neighbor, mesh.area, mesh.normal, mesh.midpoint]))
    values = [
        '{"name": %s, "time": %s, "values": [%s]}' % (
            json.dumps(f.name), json.dumps(float(f.time)),
            _rows("[%r, %r, %r]" if f.values.ndim == 2 else "%r", f.values),
        ) for f in fields or []
    ]
    with open(path, "w") as fh:
        fh.write('{"version": %s, "cells": [%s], "faces": [%s], "fields": [%s]}'
                 % (json.dumps(FV_FORMAT_VERSION), cells, faces, ", ".join(values)))


def _column(entries: list, kind: str, key: str, width: int = 0, read=floats) -> np.ndarray:
    """Column key of the file's kind ("cells" or "faces") entries, read as floats or as indices."""
    return read(list(map(itemgetter(key), entries)), width, lambda i: f"FV file {kind}[{i}] {key}", FvError)


def _field(mesh: FvMesh, j: int, entry: dict) -> FvField:
    """Field entry j: values are one number or one 3-vector per cell."""
    values = entry["values"]
    if not isinstance(values, list) or len(values) != mesh.num_cells:
        got = f"{len(values)} entries" if isinstance(values, list) else repr(values)
        raise FvError(f"FV file fields[{j}] values must list one value per cell ({mesh.num_cells}), got {got}")
    width = 3 if values and type(values[0]) is list else 0
    values = floats(values, width, lambda i: f"FV file fields[{j}] values[{i}]", FvError)
    try:
        time = float(entry.get("time", 0.0))
    except (TypeError, ValueError):
        raise FvError(f"FV file fields[{j}] time must be a number, got {entry['time']!r}") from None
    return FvField(mesh, values, time=time, name=entry.get("name", ""))


def load_fv(path) -> tuple[FvMesh, list[FvField]]:
    """Load and validate an FV data file; fields come back time-sorted.

    Each column is read in one pass.  A center, normal or midpoint that is
    not 3 numbers, an owner or neighbor that is not an integer index, and
    field values that are not one number or one 3-vector per cell are
    FvErrors naming the entry and key."""
    with open(path) as fh:
        data = json.load(fh)
    version = data.get("version") if isinstance(data, dict) else None
    if version != FV_FORMAT_VERSION:
        raise FvError(f"unsupported FV file version {version!r}")
    for key in ("cells", "faces"):
        if key not in data:
            raise FvError(f"FV file missing {key!r} array")
    for key in ("cells", "faces", "fields"):
        entries = data.get(key, [])
        if not isinstance(entries, list):
            raise FvError(f"FV file {key!r} is not an array, got {type(entries).__name__}")
        bad = next((i for i, entry in enumerate(entries) if not isinstance(entry, dict)), None)
        if bad is not None:
            raise FvError(f"FV file {key}[{bad}] is not an object, got {type(entries[bad]).__name__}")
    cells, faces = data["cells"], data["faces"]
    try:
        mesh = FvMesh(
            _column(cells, "cells", "center", 3), _column(cells, "cells", "volume"),
            _column(faces, "faces", "owner", read=indices),
            _column(faces, "faces", "neighbor", read=indices), _column(faces, "faces", "area"),
            _column(faces, "faces", "normal", 3), _column(faces, "faces", "midpoint", 3),
        )
        fields = [_field(mesh, j, f) for j, f in enumerate(data.get("fields", []))]
    except KeyError as exc:  # a cell, face or field entry without one of its keys
        raise FvError(f"FV file entry lacks {exc.args[0]!r}") from None
    fields.sort(key=lambda f: f.time)
    return mesh, fields
