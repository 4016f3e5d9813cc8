"""Continuous degree-r spectral element space on a hex mesh.

Global degrees of freedom are numbered from the mesh topology, with no
coordinate tolerance.  Local node (i, j, k) of an element gives each corner
c the integer weight w_c = prod over the axes of (i or r - i), whichever the
corner sits at; its key is the sorted set of (vertex id, w_c) pairs with
w_c > 0.  The key names the same node from every element touching it, in
any orientation, whether the node lies on a vertex, an edge, a face or
inside the element.  Equal keys are one DOF, numbered in order of first
appearance (element-major, local node minor).

Local node ordering inside an element is lexicographic with the xi
index fastest: local = i + (r+1) j + (r+1)^2 k.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gll import GllRule, gll_rule, lagrange_all, tensor_rule
from .mesh import CORNER_REF, FACE_AXIS, HexMesh, group_rows, map_cofactors, map_points


@dataclass
class SpectralSpace:
    mesh: HexMesh
    degree: int
    rule: GllRule
    ndof: int
    emap: np.ndarray  # (ne, (r+1)^3) global DOF per local node
    node_coords: np.ndarray  # (ndof, 3)
    _geom: dict = field(default_factory=dict, repr=False)

    @property
    def nloc(self) -> int:
        return (self.degree + 1) ** 3

    def local_nodes_ref(self) -> np.ndarray:
        """Reference coordinates of the local nodes, shape (nloc, 3)."""
        return tensor_rule(self.rule.nodes, self.rule.weights)[0]

    def tensor_weights(self) -> np.ndarray:
        """3D GLL weights per local node, shape (nloc,)."""
        return tensor_rule(self.rule.nodes, self.rule.weights)[1]


def build_space(mesh: HexMesh, r: int) -> SpectralSpace:
    """Number the global GLL DOFs of the degree-r space on mesh."""
    rule = gll_rule(r)
    p = r + 1
    ref = tensor_rule(rule.nodes, rule.weights)[0]  # (nloc, 3), xi fastest
    phys = map_points(mesh.corner_coords(), ref).reshape(-1, 3)

    # corner weights of each local node: (i or r - i) per axis, (nloc, 8)
    q = np.arange(p**3)
    ijk = np.stack([q % p, q // p % p, q // (p * p)], axis=1)
    weight = np.where(CORNER_REF > 0, ijk[:, None, :], r - ijk[:, None, :]).prod(axis=-1)
    keys = mesh.elements[:, None, :] * (r**3 + 1) + weight
    keys[:, weight == 0] = -1
    keys.sort(axis=-1)
    ids, first = group_rows(keys.reshape(-1, 8))
    emap = ids.reshape(mesh.num_elements, -1)
    return SpectralSpace(mesh=mesh, degree=r, rule=rule, ndof=first.size, emap=emap, node_coords=phys[first])


def face_local_nodes(r: int, f: int) -> np.ndarray:
    """Local node indices on local face f, ordered over the two in-face axes
    (the first fastest)."""
    axis, sign = FACE_AXIS[f]
    local = np.arange((r + 1) ** 3).reshape((r + 1,) * 3)  # [k, j, i]
    return np.take(local, 0 if sign < 0 else r, axis=2 - axis).ravel()


@dataclass
class SpectralField:
    space: SpectralSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise ValueError("coefficient vector length does not match the space")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite field coefficients")


def interpolate(space: SpectralSpace, g) -> SpectralField:
    """Nodal interpolant: coefficient i = g(node_i)."""
    x = space.node_coords
    vals = np.asarray(g(x[:, 0], x[:, 1], x[:, 2]), dtype=float)
    vals = np.broadcast_to(vals, (space.ndof,)).copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("interpolated function is not finite at some node")
    return SpectralField(space, vals)


def tensor_rows(lv: np.ndarray) -> np.ndarray:
    """Tensor products of per-axis values lv (n, 3, p), shape (n, p^3): entry
    i + p j + p^2 k of row n is lv[n, 0, i] lv[n, 1, j] lv[n, 2, k], in the
    local node ordering."""
    return np.einsum("ni,nj,nk->nkji", lv[:, 0], lv[:, 1], lv[:, 2]).reshape(len(lv), lv.shape[-1] ** 3)


def basis_rows(space: SpectralSpace, xi: np.ndarray) -> np.ndarray:
    """Values of the nloc element-local basis functions at reference points
    xi (n, 3), shape (n, nloc): one lagrange_all call for every point and axis."""
    return tensor_rows(lagrange_all(space.rule, xi))


def evaluate(space: SpectralSpace, field: SpectralField, x) -> float:
    """Value of field at the physical point x."""
    elem, xi = space.mesh.locate_points(np.asarray(x, dtype=float)[None])
    if elem[0] < 0:
        raise ValueError(f"point {x} is outside the mesh")
    return float(basis_rows(space, xi)[0] @ field.coeffs[space.emap[elem[0]]])


def _gauss_rule(space: SpectralSpace, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule of `points` points per axis on every element:
    (basis (points^3, nloc) from basis_rows, wdet (ne, points^3) = weight times
    det J from mesh.map_cofactors, physical points (ne, points^3, 3) from
    mesh.map_points), point ordering xi fastest."""
    ref, w3 = tensor_rule(*np.polynomial.legendre.leggauss(points))
    corners = space.mesh.corner_coords()
    return basis_rows(space, ref), w3 * map_cofactors(corners, ref)[1], map_points(corners, ref)


def l2_error(space: SpectralSpace, field: SpectralField, exact, points: int | None = None) -> float:
    """L2 norm of (field - exact) over the mesh.

    By default the integral is evaluated with the space's own GLL rule
    (collocation: the discrete nodal norm), weighted by the cached wdet of
    element_geometry.  Passing ``points`` switches to the tensor Gauss rule
    of _gauss_rule, with that many points per axis, which measures
    the true interpolation error between nodes as well.  Both take det J
    from mesh.map_cofactors.
    """
    if points is None:
        from .assembly import element_geometry

        wdet = element_geometry(space)["wdet"]  # (ne, nloc)
        uh = field.coeffs[space.emap]  # (ne, nloc)
        xq = space.node_coords[space.emap]  # (ne, nloc, 3)
    else:
        basis, wdet, xq = _gauss_rule(space, points)
        uh = field.coeffs[space.emap] @ basis.T
    ex = exact(xq[..., 0], xq[..., 1], xq[..., 2])
    return float(np.sqrt(np.sum(wdet * (uh - ex) ** 2)))


def write_vtk(space: SpectralSpace, fields: dict[str, SpectralField], path):
    """Legacy ASCII VTK: each element split into r^3 linear hex sub-cells
    sampled at the GLL nodes (cell type 12).

    Everything before the first SCALARS block (header, POINTS, CELLS,
    CELL_TYPES and the POINT_DATA line) depends on the space alone.  The
    first call formats it once and caches the text in space._geom["vtk"];
    every call writes that text and then each field's SCALARS block, so a
    space's mesh and numbering must not change after its first write (as
    element_geometry already assumes).  Each block is one % format.
    """
    head = space._geom.get("vtk")
    if head is None:
        r = space.degree
        p = r + 1
        # sub-cell origins (i fastest) plus the offsets of the 8 hex corners in VTK order
        origin = np.arange(p**3).reshape(p, p, p)[:r, :r, :r].ravel()
        quad = np.array([0, 1, 1 + p, p])
        cells = space.emap[:, origin[:, None] + np.concatenate([quad, quad + p * p])]
        ncell = cells.size // 8
        head = space._geom["vtk"] = "".join([
            "# vtk DataFile Version 3.0\nsemwave output\nASCII\nDATASET UNSTRUCTURED_GRID\n",
            f"POINTS {space.ndof} double\n",
            "%.16g %.16g %.16g\n" * space.ndof % tuple(space.node_coords.ravel().tolist()),
            f"CELLS {ncell} {9 * ncell}\n",
            "8 %d %d %d %d %d %d %d %d\n" * ncell % tuple(cells.ravel().tolist()),
            f"CELL_TYPES {ncell}\n",
            "12\n" * ncell,
            f"POINT_DATA {space.ndof}\n",
        ])
    with open(path, "w") as fh:
        fh.write(head)
        for name, fld in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write("%.16g\n" * fld.coeffs.size % tuple(fld.coeffs.tolist()))
