"""Consistent L2 transfer of piecewise-constant FV fields onto the spectral
space: the rectangular coupling matrix, the consistent (non-collocated)
mass matrix, the projection solve, and the aeroacoustic load composition.

Cell-element overlap integrals: when every acoustic element is an
axis-aligned box, each box-shaped FV cell is clipped against the element
boxes it overlaps (the pairs ``HexMesh.bbox_pairs`` finds, the cell box
shrunk by 1e-12 h so that touching faces do not count) and a tensor Gauss
rule of r // 2 + 1 points per axis, exact for the degree-r basis, is
applied on every intersection box (``points_per_axis`` governs only the
sampled rule below).  The rule and the element basis are both tensor
products, so the integral of basis function (a, b, c) factorises into
Ix[a] * Iy[b] * Iz[c] with I_d[a] = sum_g (d_d / 2) w_g l_a(xi_d,g) over
the clip width d_d: each cell-element pair needs p numbers per axis, all
pairs in one batch.
Other cells, and every cell when the elements are not aligned boxes, are
sampled instead, all (cell, face) incidences in one batch: each cell is one
pyramid per face, apex at the cell center and base the face rebuilt around
its midpoint on two tangents.  A box cell's base is its true face, so its
six pyramids tile it exactly on any element shape; any other face becomes
an equal-area square.  On each pyramid the Duffy collapse is integrated by
Gauss-Legendre across the base and Gauss-Jacobi (weight s^2) from apex to
base, so the weights of a box cell sum to its volume even at one point per
axis.  One ``HexMesh.locate_points`` call places all samples; samples or
cell parts outside the acoustic mesh contribute zero, so partial overlaps
are handled naturally.  Both rules read each (cell, face) incidence and
its sign off the FV mesh's signed incidence matrix; the outward normals
are formed once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi

from .fvsource import FvMesh
from .gll import lagrange_all
from .newmark import pcg
from .space import SpectralField, SpectralSpace, _gauss_rule, basis_rows, tensor_rows


@dataclass
class CouplingMatrix:
    """M^AF (ndof x ncells): entry (i, l) = integral of phi_i over the
    intersection of the acoustic mesh with fluid cell l."""

    matrix: sp.csr_matrix
    points_per_axis: int
    outside_samples: int
    empty_columns: int

    def column_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()


def consistent_mass(space: SpectralSpace) -> sp.csr_matrix:
    """Full mass matrix with Gauss-Legendre quadrature (r+1 points per axis,
    exact for the degree-2r integrand), unlike the collocated diagonal M."""
    basis, wdet, _ = _gauss_rule(space, space.degree + 1)  # basis (nq, nloc), wdet (ne, nq)
    local = (basis.T * wdet[:, None]) @ basis  # one batched matmul: (ne, nloc, nq) @ (nq, nloc)
    rows = np.repeat(space.emap, space.nloc, axis=1).ravel()
    cols = np.tile(space.emap, (1, space.nloc)).ravel()
    m = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(space.ndof, space.ndof))
    return m.tocsr()


def _cell_samples(mesh: FvMesh, cell: np.ndarray, face: np.ndarray, n: np.ndarray, lo, hi, is_box, npts: int):
    """Pyramid rule over the (cell, face) incidences given, all at once, with
    outward normals n and npts points per axis; box cells (``is_box``, bounds
    lo/hi) take their true faces as bases.  Returns (points, weights, cell of
    each point), in incidence order."""
    gx, gw = np.polynomial.legendre.leggauss(npts)
    sx, sw = roots_jacobi(npts, 0.0, 2.0)  # weight (1 + x)^2 holds the s^2 of the collapse
    s, ws = 0.5 * (sx + 1.0), sw / 8.0  # s from apex (0) to base (1); sum(ws) = 1/3
    h = np.einsum("fx,fx->f", mesh.midpoint[face] - mesh.centers[cell], n)
    keep = h > 0  # else a degenerate pyramid: the cell is not star-shaped w.r.t. its center
    cell, face, n, h = cell[keep], face[keep], n[keep], h[keep]
    t1 = np.cross(n, np.eye(3)[np.argmin(np.abs(n), axis=1)])
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    extent = [np.einsum("fx,fx->f", np.abs(t), (hi - lo)[cell]) for t in (t1, t2)]  # box side along t
    a1, a2 = (0.5 * np.where(is_box[cell], e, np.sqrt(mesh.area[face])) for e in extent)  # half-sides
    base = (
        mesh.midpoint[face][:, None, None]
        + a1[:, None, None, None] * gx[None, :, None, None] * t1[:, None, None]
        + a2[:, None, None, None] * gx[None, None, :, None] * t2[:, None, None]
    )  # (f, g, g, 3)
    apex = mesh.centers[cell][:, None, None, None]
    x = apex + s[None, :, None, None, None] * (base[:, None] - apex)  # (f, s, g, g, 3)
    w = np.einsum("s,u,v,f->fsuv", ws, gw, gw, a1 * a2 * h)
    return x.reshape(-1, 3), w.ravel(), np.repeat(cell, npts ** 3)


def _cell_boxes(mesh: FvMesh, cell: np.ndarray, face: np.ndarray, n: np.ndarray):
    """Axis-aligned bounds (lo, hi) of every cell, plus a flag telling which
    cells are boxes: six faces with axis-aligned outward normals n, one per
    side, and positive extent along every axis."""
    nc = mesh.num_cells
    ax = np.argmax(np.abs(n), axis=1)
    n_ax = n[np.arange(face.size), ax]
    off_axis = np.abs(np.abs(n_ax) - 1.0) > 1e-12
    side = 2 * ax + (n_ax > 0)  # lo_x, hi_x, lo_y, hi_y, lo_z, hi_z
    per_side = np.bincount(cell * 6 + side, minlength=6 * nc).reshape(nc, 6)
    bounds = np.zeros((nc, 6))
    bounds[cell, side] = mesh.midpoint[face, ax]
    lo, hi = bounds[:, 0::2], bounds[:, 1::2]
    is_box = (
        np.all(per_side == 1, axis=1)
        & (np.bincount(cell, weights=off_axis, minlength=nc) == 0)
        & np.all(hi > lo, axis=1)
    )
    return lo, hi, is_box


def _clipped_entries(space: SpectralSpace, clo, chi, cells):
    """Overlap integrals of the box cells `cells` with the aligned element
    boxes they overlap by at least 1e-12 h on every axis: returns (element,
    cell, values) with values (npairs, nloc).  The rule on a clipped box is a
    tensor product of r // 2 + 1 Gauss points per axis, exact for the degree-r
    basis, so each pair needs only p one-dimensional integrals per axis."""
    gx, gw = np.polynomial.legendre.leggauss(space.degree // 2 + 1)
    k, e = space.mesh.bbox_pairs(clo[cells], chi[cells], -1e-12 * space.mesh.h)
    elo, ehi = space.mesh.element_bboxes
    c = cells[k]
    lo = np.maximum(elo[e], clo[c])
    hi = np.minimum(ehi[e], chi[c])
    d = hi - lo
    x = 0.5 * (lo + hi)[:, None, :] + 0.5 * d[:, None, :] * gx[None, :, None]  # (n, g, 3)
    xi = 2.0 * (x - elo[e][:, None, :]) / (ehi[e] - elo[e])[:, None, :] - 1.0
    axis_int = np.einsum("na,g,ngap->nap", 0.5 * d, gw, lagrange_all(space.rule, xi))
    return e, c, tensor_rows(axis_int)


def assemble_coupling(space: SpectralSpace, fvmesh: FvMesh, points_per_axis: int = 3) -> CouplingMatrix:
    """Assemble M^AF by exact box clipping where possible, else sampling with
    points_per_axis points per axis."""
    inc_cell, inc_face, sign = fvmesh.cell_faces()
    normal = fvmesh.normal[inc_face] * sign[:, None]  # outward from each incidence's cell
    clo, chi, is_box = _cell_boxes(fvmesh, inc_cell, inc_face, normal)
    clipped = is_box & space.mesh.aligned_boxes()
    parts = [_clipped_entries(space, clo, chi, np.nonzero(clipped)[0])]
    sampled = ~clipped[inc_cell]
    pts, wts, cell = _cell_samples(fvmesh, inc_cell[sampled], inc_face[sampled], normal[sampled], clo, chi, is_box,
                                   points_per_axis)
    elem, xi = space.mesh.locate_points(pts)
    inside = elem >= 0
    parts.append((elem[inside], cell[inside], wts[inside, None] * basis_rows(space, xi[inside])))
    e, c, v = (np.concatenate(a) for a in zip(*parts))  # (element, cell, values (n, nloc)) of both rules
    m = sp.csr_matrix((v.ravel(), (space.emap[e].ravel(), np.repeat(c, space.nloc))),
                      shape=(space.ndof, fvmesh.num_cells))
    return CouplingMatrix(m, points_per_axis, int(np.count_nonzero(~inside)), int(fvmesh.num_cells - np.unique(c).size))


@dataclass
class ProjectionOperator:
    """Holds M^AA and M^AF for repeated projections between fixed meshes."""

    space: SpectralSpace
    maa: sp.csr_matrix
    coupling: CouplingMatrix
    cg_tol: float = 1e-10
    cg_maxiter: int = 2000

    def project(self, q_values: np.ndarray) -> SpectralField:
        """Solve M^AA q_A = M^AF q_F by diagonally preconditioned CG."""
        q_values = np.asarray(q_values, dtype=float)
        rhs = self.coupling.matrix @ q_values
        diag = self.maa.diagonal()
        x, _ = pcg(self.maa.dot, rhs, diag, self.cg_tol, self.cg_maxiter)
        return SpectralField(self.space, x)

    def conservation_report(self, fvmesh: FvMesh, q_values=None, q_acoustic=None) -> dict:
        """Column-sum audit against cell volumes, plus the transferred-mass
        identity sum(M^AF q_F) = sum(M^AA q_A) when a field is given; its
        projection q_acoustic is computed unless passed in."""
        csums = self.coupling.column_sums()
        rel = np.abs(csums - fvmesh.volumes) / fvmesh.volumes
        report = {
            "cells": int(fvmesh.num_cells),
            "empty_columns": int(self.coupling.empty_columns),
            "outside_samples": int(self.coupling.outside_samples),
            "column_sum_max_rel_error": float(rel.max()),
            "points_per_axis": self.coupling.points_per_axis,
        }
        if q_values is not None:
            q_values = np.asarray(q_values, dtype=float)
            if q_acoustic is None:
                q_acoustic = self.project(q_values).coeffs
            report["transferred_mass_fv"] = float((self.coupling.matrix @ q_values).sum())
            report["transferred_mass_acoustic"] = float((self.maa @ q_acoustic).sum())
        return report


def build_projection(space: SpectralSpace, fvmesh: FvMesh, points_per_axis: int = 3, **kw) -> ProjectionOperator:
    return ProjectionOperator(space, consistent_mass(space), assemble_coupling(space, fvmesh, points_per_axis), **kw)


def aeroacoustic_load(conv, qx: np.ndarray, qy: np.ndarray, qz: np.ndarray) -> np.ndarray:
    """Load for the Lighthill weak form, f_i = -(q_A, grad phi_i)^NI summed
    over components; the minus belongs to the integrated-by-parts weak form
    and is applied here, not inside the convective operators."""
    return -(conv.apply(0, qx) + conv.apply(1, qy) + conv.apply(2, qz))
