"""SEM operators with numerical integration (GLL collocation).

The mass matrix is diagonal because quadrature nodes coincide with the
nodal basis points.  The stiffness is one assembled CSR matrix built from the
element metric (stiffness_matrix) while a local row of K_e is at most
CSR_MAX_WIDTH entries wide: up to r = 9 on axis-aligned boxes, r = 2 on other
hexes.  Above, it, and always the convective operators, are applied
matrix-free and sum-factorised (Deville, Fischer & Mund 2002, section 4): 1D
differentiation matmuls on each (p, p, p) element block, then the 6 symmetric
components of the metric.  Impedance boundary damping is a diagonal built
from the 2D GLL face rule collocated with the volume DOFs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .gll import diff_matrix, gll_rule, tensor_rule
from .mesh import FACE_TANGENTS, map_cofactors, map_jacobians
from .space import SpectralSpace, basis_rows, face_local_nodes


# Widest local row of K_e that is assembled.  A row holds W = 3r + 1 entries on
# a box and (r+1)^3 - r^3 on any other hex, while the sum-factorised kernel gets
# cheaper a DOF as r grows.  Applies at ~24k DOFs on one BLAS thread, CSR/g6 ms
# (W), two runs: boxes r = 2 0.19-0.22/2.1-2.3 (7), r = 9 0.44-0.54/0.56-0.67
# (28), r = 10 0.67-0.92/0.72-0.94 (31); curved r = 2 0.62-0.81/2.4-3.3 (19),
# r = 3 1.17-1.50/1.26-1.47 (37), r = 4 2.1-2.3/1.3-1.4 (61).  CSR wins clearly
# up to W = 28 and ties from 31 to 37 (BENCH_17.json, scripts/stiffness_crossover.py).
CSR_MAX_WIDTH = 30
# metric components xx, yy, zz, xy, xz, yz; a box has only the first three
SYM = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def row_width(r: int, box: bool) -> int:
    """Entries of a local row of K_e: node i couples with the nodes on its three
    GLL lines on a box, else with every node differing from i in at most two axes."""
    return 3 * r + 1 if box else (r + 1) ** 3 - r**3


def element_geometry(space: SpectralSpace) -> dict:
    """Per-element geometric factors from mesh.map_cofactors, cached on the space.

    ``wdet`` (ne,nloc) is the GLL weight times det J, ``dmat`` the 1D
    differentiation matrix, ``jinvt`` (3,3,ne,nq) J^-T = cof^T / det, and
    ``csr`` whether apply_stiffness assembles K (row_width <= CSR_MAX_WIDTH).
    On axis-aligned boxes (HexMesh.aligned_boxes) that do, J is constant: nq = 1
    at each element's centre and ``metric`` (3,ne,1) is xx, yy, zz of
    |cof_a|^2 / det.  Otherwise nq = nloc and ``metric`` (6,ne,nloc) is the SYM
    components of wdet J^-1 J^-T = w (cof_a . cof_b) / det at every node.  The
    first surface_quadrature call adds ``surface``.
    """
    if "wdet" in space._geom:
        return space._geom
    corners = space.mesh.corner_coords()
    box = space.mesh.aligned_boxes(corners)
    csr = row_width(space.degree, box) <= CSR_MAX_WIDTH
    box = box and csr
    cof, det = map_cofactors(corners, np.zeros((1, 3)) if box else space.local_nodes_ref())
    if np.any(det <= 0):
        raise ValueError("non-positive Jacobian at a quadrature node")
    w = space.tensor_weights()
    space._geom.update(wdet=w * det, dmat=diff_matrix(space.rule), jinvt=np.swapaxes(cof, 0, 1) / det, csr=csr)
    metric = np.stack([cof[a, 0] * cof[b, 0] + cof[a, 1] * cof[b, 1] + cof[a, 2] * cof[b, 2]
                       for a, b in SYM[:3 if box else 6]])
    space._geom["metric"] = metric / det if box else (w / det) * metric
    return space._geom


@lru_cache(maxsize=None)
def _row_map(r: int, box: bool) -> tuple[np.ndarray | sparse.csr_array, np.ndarray]:
    """(T, cols): the rows of K_e are metric @ T, entry (i, s) coupling local
    nodes i and cols[i, s].  T is sparse (6 nloc, nloc W) for the metric at the
    nodes, or dense (3, nloc W) with the GLL weights folded in for a box's one
    value a component.  K_e = sum_ab Ghat_a^T diag(g_ab) Ghat_b, and row q of
    Ghat_a holds D[q_a, i_a] at the r + 1 nodes i of q's a-line: i reaches q
    along an a-line, then j along a b-line.  Slot s names the offsets (j - i)
    mod p along the axes in lexicographic order (0, the x, y, z lines, ...)."""
    rule = gll_rule(r)
    p, d, ncomp = r + 1, diff_matrix(rule), 3 if box else 6
    n, step, t = np.arange(p**3), p ** np.arange(3), np.arange(p)
    ijk = n // step[:, None] % p  # (3, nloc): local node (i, j, k), and the offsets that code n names
    keep = (ijk > 0).sum(axis=0) <= (1 if box else 2)
    slot = np.cumsum(keep) - 1
    cols = ((ijk[:, :, None] + ijk[:, None, keep]) % p * step[:, None, None]).sum(axis=0)  # (nloc, W)
    width, parts = cols.shape[1], []
    for c, (a0, b0) in enumerate(SYM[:ncomp]):
        for a, b in ((a0, b0),) if a0 == b0 else ((a0, b0), (b0, a0)):
            q = n[:, None] + (t - ijk[a][:, None]) * step[a]  # (nloc, p): the a-line of i
            qb = ijk[b][q]
            j = q[:, :, None] + (t - qb[:, :, None]) * step[b]  # (nloc, p, p): the b-line of each q
            code = ((ijk[:, j] - ijk[:, :, None, None]) % p * step[:, None, None, None]).sum(axis=0)
            parts.append([d[t, ijk[a][:, None]][:, :, None] * d[qb[:, :, None], t],  # Ghat_a[q, i] Ghat_b[q, j]
                          np.broadcast_to(c * p**3 + q[:, :, None], j.shape), n[:, None, None] * width + slot[code]])
    val, row, col = (np.concatenate(x, axis=None) for x in zip(*parts))
    tmap = sparse.csr_array((val, (row, col)), shape=(ncomp * p**3, p**3 * width))
    if box:  # one metric value a component: fold each component's node weights into T
        w3 = tensor_rule(rule.nodes, rule.weights)[1]
        tmap = np.ascontiguousarray((tmap.T @ np.kron(np.eye(3), w3[:, None])).T)
    return tmap, cols


def stiffness_matrix(space: SpectralSpace) -> sparse.csr_array:
    """K as one CSR matrix assembled from the element metric, built on the first
    call and cached as ``kcsr``.

    Each element adds its row_width entries a row, not the structural zeros of
    its dense block (an assembled sparse K is fastest at low order: Vos et al.,
    JCP 229, 2010): the line pattern where the metric is one value an element
    (assembled boxes), else the nodes differing in at most two axes.
    """
    geom = element_geometry(space)
    if "kcsr" not in geom:
        metric = geom["metric"]
        tmap, cols = _row_map(space.degree, metric.shape[2] == 1)  # one value an element: a box
        vals = metric.transpose(1, 0, 2).reshape(metric.shape[1], -1) @ tmap  # (ne, nloc W)
        # element rows B summed into global rows by the gather P: K = P^T B, one
        # sparse product and no sort; 32-bit indices where they fit, so none is copied
        size, width = space.emap.size, cols.shape[1]
        emap = space.emap.astype(np.int32 if size * width < 2**31 else np.int64)
        rows = sparse.csr_array((vals.ravel(), emap[:, cols].ravel(),
                                 np.arange(0, size * width + 1, width, dtype=emap.dtype)), shape=(size, space.ndof))
        gather = sparse.csc_array((np.ones(size), emap.ravel(), np.arange(size + 1, dtype=emap.dtype)),
                                  shape=rows.shape[::-1]).tocsr()
        geom["kcsr"] = gather @ rows
    return geom["kcsr"]


def _scatter(space: SpectralSpace, local: np.ndarray) -> np.ndarray:
    return np.bincount(space.emap.ravel(), weights=local.ravel(), minlength=space.ndof)


def assemble_mass(space: SpectralSpace) -> np.ndarray:
    """Diagonal GLL mass: M_i = sum over touching elements of w_q |det J|."""
    return _scatter(space, element_geometry(space)["wdet"])


def _grad_ref(u4: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d/dxi, d/deta, d/dzeta) of element blocks u4[e, zeta, eta, xi], each (ne, nloc)."""
    ne, p = u4.shape[0], d.shape[0]
    gx = u4.reshape(-1, p) @ np.ascontiguousarray(d.T)  # contiguous: BLAS, not a strided loop
    gy = d @ u4
    gz = d @ u4.reshape(ne, p, p * p)
    return gx.reshape(ne, -1), gy.reshape(ne, -1), gz.reshape(ne, -1)


def _grad_ref_t(qx: np.ndarray, qy: np.ndarray, qz: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Transpose of _grad_ref: sum over the axes of D_axis^T q_axis, shaped (ne, nloc)."""
    ne, p = qx.shape[0], d.shape[0]
    dt = np.ascontiguousarray(d.T)
    out = qx.reshape(-1, p) @ d
    out += (dt @ qy.reshape(ne * p, p, p)).reshape(-1, p)
    out += (dt @ qz.reshape(ne, p, p * p)).reshape(-1, p)
    return out.reshape(ne, -1)


def apply_stiffness(space: SpectralSpace, u: np.ndarray) -> np.ndarray:
    """K u, K_ij = (grad phi_j, grad phi_i)^NI: the assembled stiffness_matrix
    up to CSR_MAX_WIDTH entries a local row, else the sum-factorised kernel."""
    geom = element_geometry(space)
    if geom["csr"]:
        return stiffness_matrix(space) @ u
    d, g = geom["dmat"], geom["metric"]
    p = space.degree + 1
    gx, gy, gz = _grad_ref(u[space.emap].reshape(-1, p, p, p), d)
    qx = g[0] * gx + g[3] * gy + g[4] * gz
    qy = g[3] * gx + g[1] * gy + g[5] * gz
    qz = g[4] * gx + g[5] * gy + g[2] * gz
    return _scatter(space, _grad_ref_t(qx, qy, qz, d))


@dataclass
class ConvectiveOperators:
    """Matrix-free C^l, C^l_ij = (phi_j, [grad phi_i]_l)^NI."""

    space: SpectralSpace

    def apply(self, ell: int, q: np.ndarray) -> np.ndarray:
        space = self.space
        geom = element_geometry(space)
        s = geom["wdet"] * q[space.emap]  # (ne, nloc)
        jt = geom["jinvt"][ell]  # [grad phi_i]_l = sum_d J^-T[l,d] Dhat_d phi_i
        return _scatter(space, _grad_ref_t(jt[0] * s, jt[1] * s, jt[2] * s, geom["dmat"]))


def assemble_convective(space: SpectralSpace) -> ConvectiveOperators:
    element_geometry(space)
    return ConvectiveOperators(space)


def _tag_set(space: SpectralSpace, tags) -> set[str]:
    tags = {tags} if isinstance(tags, str) else set(tags)
    missing = tags - space.mesh.tags
    if missing:
        raise ValueError(f"unknown boundary tag(s) {sorted(missing)}; mesh has {sorted(space.mesh.tags)}")
    return tags


def _surface_rules(space: SpectralSpace) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """tag -> read-only collocated surface rule (DOFs, weights), faces in
    ``mesh.boundary`` order; built for every tag at once, cached on the space."""
    geom = element_geometry(space)
    if "surface" not in geom:
        w1 = space.rule.weights
        w2 = np.outer(w1, w1).ravel()  # face ordering: first in-face axis fastest
        elem, face, tag = space.mesh.boundary_arrays()
        corners, ref = space.mesh.corner_coords(), space.local_nodes_ref()
        dofs = np.empty((elem.size, w2.size), dtype=int)
        weights = np.empty((elem.size, w2.size))
        for f, axes in enumerate(FACE_TANGENTS):
            on_f, local = face == f, face_local_nodes(space.degree, f)
            # the two in-face columns of J at the face nodes, (faces, p*p, 3) each
            t0, t1 = np.moveaxis(map_jacobians(corners[elem[on_f]], ref[local])[:, list(axes)], 0, -1)
            dofs[on_f] = space.emap[elem[on_f, None], local]
            weights[on_f] = w2 * np.linalg.norm(np.cross(t0, t1), axis=-1)
        geom["surface"] = {t: (dofs[tag == t].ravel(), weights[tag == t].ravel()) for t in space.mesh.tags}
        for arrays in geom["surface"].values():
            for a in arrays:
                a.flags.writeable = False
    return geom["surface"]


def surface_quadrature(space: SpectralSpace, tags) -> tuple[np.ndarray, np.ndarray]:
    """Collocated surface rule on all boundary faces carrying one of tags.

    Returns (global DOF indices, weights) with weight = 2D GLL weight times
    the face surface Jacobian; repeated DOFs appear once per touching face.
    The rule of each tag is cached on the space and returned read-only.
    """
    parts = [_surface_rules(space)[t] for t in sorted(_tag_set(space, tags))]
    if len(parts) == 1:
        return parts[0]
    dofs, weights = zip(*parts, (np.empty(0, dtype=int), np.empty(0)))
    return np.concatenate(dofs), np.concatenate(weights)


def assemble_damping(space: SpectralSpace, tags, impedance: float, rho0: float, c0: float) -> np.ndarray:
    """Diagonal boundary damping B_i = (rho0 c0^2 / Z) * surface mass of DOF i."""
    if impedance <= 0:
        raise ValueError("impedance must be positive")
    dofs, w = surface_quadrature(space, tags)
    return np.bincount(dofs, weights=(rho0 * c0**2 / impedance) * w, minlength=space.ndof)


def volume_load(space: SpectralSpace, f, t: float, mass: np.ndarray | None = None) -> np.ndarray:
    """Collocated volume load: load_i = M_i f(node_i, t)."""
    if mass is None:
        mass = assemble_mass(space)
    x = space.node_coords
    vals = np.asarray(f(x[:, 0], x[:, 1], x[:, 2], t), dtype=float)
    vals = np.broadcast_to(vals, (space.ndof,))
    if not np.all(np.isfinite(vals)):
        raise ValueError("volume forcing is not finite at some node")
    return mass * vals


def neumann_load(space: SpectralSpace, tags, g, t: float, c0: float) -> np.ndarray:
    """Boundary load c0^2 * integral of g over tagged faces.

    The one surface integral of the package: collocated on the cached
    surface GLL rule of surface_quadrature, so it is exact when g times the
    surface Jacobian is a polynomial of degree <= 2r - 1 in each in-face
    coordinate.  For smooth inhomogeneous data it loses half an order of
    convergence against an over-integrated rule.
    """
    dofs, w = surface_quadrature(space, tags)
    x = space.node_coords[dofs]
    vals = np.broadcast_to(np.asarray(g(x[:, 0], x[:, 1], x[:, 2], t), dtype=float), dofs.shape)
    return np.bincount(dofs, weights=c0**2 * w * vals, minlength=space.ndof)


def point_source_load(space: SpectralSpace, x_source, amplitude: float) -> np.ndarray:
    """Consistent Dirac load: load_i = phi_i(x_S) * amplitude."""
    elem, xi = space.mesh.locate_points(np.asarray(x_source, dtype=float)[None])
    if elem[0] < 0:
        raise ValueError(f"point source {x_source} lies outside the mesh")
    return np.bincount(space.emap[elem[0]], weights=basis_rows(space, xi)[0] * amplitude, minlength=space.ndof)


@dataclass
class AssembledOperators:
    """Diagonal mass M, stiffness K (apply_stiffness), diagonal damping B."""

    space: SpectralSpace
    mass: np.ndarray
    damping: np.ndarray
    c0: float

    def stiffness(self, u: np.ndarray) -> np.ndarray:
        return apply_stiffness(self.space, u)


def assemble_operators(
    space: SpectralSpace, c0: float, rho0: float, impedance: dict[str, float] | None = None
) -> AssembledOperators:
    """Mass, stiffness and (optional) impedance damping in one bundle.

    impedance maps boundary tag -> wall impedance Z in Pa s/m.
    """
    mass = assemble_mass(space)
    damping = np.zeros(space.ndof)
    for tag, z in (impedance or {}).items():
        damping += assemble_damping(space, tag, z, rho0, c0)
    return AssembledOperators(space, mass, damping, c0)
