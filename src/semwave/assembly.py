"""SEM operators with numerical integration (GLL collocation).

The mass matrix is diagonal because quadrature nodes coincide with the
nodal basis points.  The stiffness and convective operators are applied
matrix-free and sum-factorised (Deville, Fischer & Mund 2002, section 4):
matmuls with the 1D differentiation matrix on each (p, p, p) element
block, then the stiffness metric through its 6 symmetric components.
Impedance boundary damping is a diagonal built from the 2D GLL face rule
collocated with the volume DOFs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gll import diff_matrix
from .mesh import FACE_TANGENTS, map_jacobians, shape_gradients
from .space import SpectralSpace, basis_at, face_local_nodes


def _cofactors(space: SpectralSpace) -> tuple[np.ndarray, np.ndarray]:
    """(cof, det) at every local node: cof[a] = J[:, a+1] x J[:, a+2] (indices
    mod 3), the rows of det(J) J^-1, shaped (3, 3, ne, nloc); det (ne, nloc)."""
    jac = map_jacobians(space.mesh.corner_coords(), space.local_nodes_ref())
    cols = jac.transpose(1, 0, 2, 3)  # cols[d, x] = J[x, d], (3, 3, ne, nloc)
    cof = np.stack([np.cross(cols[(a + 1) % 3], cols[(a + 2) % 3], axis=0) for a in range(3)])
    return cof, (cols[0] * cof[0]).sum(axis=0)


def element_geometry(space: SpectralSpace) -> dict:
    """Per-element, per-GLL-node geometric factors, cached on the space.

    Keys: ``wdet`` (ne,nloc), the 3D GLL weight times det J; ``g6``
    (6,ne,nloc), the xx, yy, zz, xy, xz, yz components of the symmetric
    stiffness metric wdet J^-1 J^-T, in closed form w (cof_a . cof_b) / det
    from the cofactors (see _cofactors); and ``dmat``, the 1D
    differentiation matrix.  ``surface`` is added by the first
    surface_quadrature call and ``jinvt`` (J^-T, (3,3,ne,nloc)) by the first
    ConvectiveOperators.apply.
    """
    if "wdet" in space._geom:
        return space._geom
    cof, det = _cofactors(space)
    if np.any(det <= 0):
        raise ValueError("non-positive Jacobian at a quadrature node")
    w = space.tensor_weights()
    scale = w / det
    sym = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    g6 = np.stack([scale * (cof[a, 0] * cof[b, 0] + cof[a, 1] * cof[b, 1] + cof[a, 2] * cof[b, 2]) for a, b in sym])
    space._geom.update(wdet=w * det, g6=g6, dmat=diff_matrix(space.rule))
    return space._geom


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
    """Matrix-free K u, K_ij = (grad phi_j, grad phi_i)^NI."""
    geom = element_geometry(space)
    d, g = geom["dmat"], geom["g6"]
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
        if "jinvt" not in geom:
            cof, det = _cofactors(space)
            geom["jinvt"] = np.swapaxes(cof, 0, 1) / det  # J^-T[l, d] = J^-1[d, l] = cof[d, l] / det
        s = geom["wdet"] * q[space.emap]  # (ne, nloc)
        # [grad phi_i]_l = sum_d J^-T[l,d] Dhat_d phi_i
        jt = geom["jinvt"][ell]
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
            dshape = shape_gradients(ref[local])  # (p*p, 8, 3)
            # the two in-face columns of J at the face nodes, (faces, p*p, 3) each
            t0, t1 = (dshape[:, :, a] @ corners[elem[on_f]] for a in axes)
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


def neumann_load(space: SpectralSpace, tags, g, t: float, c0: float, points: int | None = None) -> np.ndarray:
    """Boundary load c0^2 * integral of g over tagged faces.

    By default the integral is collocated on the surface GLL rule.  That
    loses half an order of convergence for smooth inhomogeneous data, so
    callers chasing optimal rates can over-integrate with a Gauss rule of
    `points` points per face axis.
    """
    if points is not None:
        return _neumann_load_gauss(space, tags, g, t, c0, points)
    dofs, w = surface_quadrature(space, tags)
    x = space.node_coords[dofs]
    vals = np.broadcast_to(np.asarray(g(x[:, 0], x[:, 1], x[:, 2], t), dtype=float), dofs.shape)
    return np.bincount(dofs, weights=c0**2 * w * vals, minlength=space.ndof)


def _neumann_load_gauss(space: SpectralSpace, tags, g, t: float, c0: float, points: int) -> np.ndarray:
    from .gll import lagrange_all
    from .mesh import FACE_AXIS, shape_functions

    tags = _tag_set(space, tags)
    gx, gw = np.polynomial.legendre.leggauss(points)
    lv = lagrange_all(space.rule, gx)  # (points, r+1)
    out = np.zeros(space.ndof)
    mesh = space.mesh
    for e, f, tag in mesh.boundary:
        if tag not in tags:
            continue
        fixed, sign = FACE_AXIS[f]
        ax0, ax1 = FACE_TANGENTS[f]
        # face quadrature grid in reference coordinates, first axis fastest
        idx = np.arange(points * points)
        ia, ib = idx % points, idx // points
        ref = np.empty((points * points, 3))
        ref[:, fixed] = float(sign)
        ref[:, ax0] = gx[ia]
        ref[:, ax1] = gx[ib]
        corners = mesh.corner_coords(e)
        x = shape_functions(ref) @ corners
        jac = np.einsum("cx,qcd->qxd", corners, shape_gradients(ref))
        surf = np.linalg.norm(np.cross(jac[:, :, ax0], jac[:, :, ax1]), axis=1)
        wq = gw[ia] * gw[ib] * surf
        vals = np.asarray(g(x[:, 0], x[:, 1], x[:, 2], t), dtype=float)
        vals = np.broadcast_to(vals, wq.shape)
        # phi restricted to the face: 2D tensor basis of the p^2 face nodes
        basis2d = (lv[ia][:, None, :] * lv[ib][:, :, None]).reshape(len(idx), -1)
        local = face_local_nodes(space.degree, f)
        np.add.at(out, space.emap[e, local], c0**2 * (wq * vals) @ basis2d)
    return out


def point_source_load(space: SpectralSpace, x_source, amplitude: float) -> np.ndarray:
    """Consistent Dirac load: load_i = phi_i(x_S) * amplitude."""
    ref = space.mesh.locate_point(x_source)
    if ref is None:
        raise ValueError(f"point source {x_source} lies outside the mesh")
    out = np.zeros(space.ndof)
    np.add.at(out, space.emap[ref.element], basis_at(space, ref) * amplitude)
    return out


@dataclass
class AssembledOperators:
    """Diagonal mass M, matrix-free stiffness K, diagonal damping B."""

    space: SpectralSpace
    mass: np.ndarray
    damping: np.ndarray
    c0: float
    rho0: float
    impedance: dict[str, float] = field(default_factory=dict)

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
    return AssembledOperators(space, mass, damping, c0, rho0, dict(impedance or {}))
