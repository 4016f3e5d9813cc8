"""Conforming hexahedral meshes with trilinear reference-to-physical maps.

Conventions (fixed for file interop):

* Corner ordering: corner c = i + 2j + 4k sits at reference coordinates
  (xi, eta, zeta) = (2i-1, 2j-1, 2k-1), i.e. x varies fastest.
* Local faces 0..5 are xi=-1, xi=+1, eta=-1, eta=+1, zeta=-1, zeta=+1.
* The mesh file is JSON with a mandatory ``"version": "1"`` field and
  ``vertices``, ``elements``, ``boundary`` arrays.

The trilinear map is known to this module alone; other modules reach it
through ``map_points`` (x), ``map_jacobians`` (J = dx/dref) and
``map_cofactors`` (det J and the cofactors of J, the rows of det(J) J^-1).
Node and Gauss-point coordinates come from ``map_points``; volume weights,
the metrics, the Gauss rule and the corner check from ``map_cofactors``; the
surface rule's in-face columns of J from ``map_jacobians``.  Only the Newton
point inversion evaluates the shape functions itself.

Point location has one path, ``HexMesh.locate_points``, for probes, point
sources, evaluation and the sampled FV coupling.  A tie on a shared face goes
to the previous point's element if it holds the point, else to the lowest index.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MESH_FORMAT_VERSION = "1"

# reference corner coordinates, corner c = i + 2j + 4k
CORNER_REF = np.array(
    [[2 * (c & 1) - 1, 2 * ((c >> 1) & 1) - 1, 2 * ((c >> 2) & 1) - 1] for c in range(8)],
    dtype=float,
)

# corners of each local face (xi-, xi+, eta-, eta+, zeta-, zeta+)
FACE_CORNERS = np.array(
    [
        [0, 2, 4, 6],
        [1, 3, 5, 7],
        [0, 1, 4, 5],
        [2, 3, 6, 7],
        [0, 1, 2, 3],
        [4, 5, 6, 7],
    ]
)

# (fixed axis, sign) of each local face, plus the two in-face reference axes
FACE_AXIS = [(0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1)]
FACE_TANGENTS = [(1, 2), (1, 2), (0, 2), (0, 2), (0, 1), (0, 1)]


class MeshError(Exception):
    pass


class DegenerateElementError(MeshError):
    pass


@dataclass(frozen=True)
class RefPoint:
    """A point expressed as (element, reference coordinates in [-1,1]^3)."""

    element: int
    xi: np.ndarray


def shape_functions(ref: np.ndarray) -> np.ndarray:
    """Trilinear shape functions N_c at reference points, shape (..., 8)."""
    ref = np.asarray(ref, dtype=float)
    return np.prod(1.0 + ref[..., None, :] * CORNER_REF, axis=-1) / 8.0


def shape_gradients(ref: np.ndarray) -> np.ndarray:
    """dN_c/d(xi,eta,zeta) at reference points, shape (..., 8, 3)."""
    ref = np.asarray(ref, dtype=float)
    terms = 1.0 + ref[..., None, :] * CORNER_REF  # (..., 8, 3)
    grad = np.empty(terms.shape)
    for d in range(3):
        others = [a for a in range(3) if a != d]
        grad[..., d] = CORNER_REF[:, d] * terms[..., others[0]] * terms[..., others[1]]
    return grad / 8.0


def map_points(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """x of the trilinear maps of corners (ne, 8, 3) at the reference points
    ref (nq, 3), shape (ne, nq, 3)."""
    return np.einsum("qc,ecx->eqx", shape_functions(ref), corners)


def map_jacobians(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """J[x, d, e, q] = dx/dref_d of the trilinear maps of corners (ne, 8, 3) at
    the reference points ref (nq, 3), shape (3, 3, ne, nq): one (3*ne, 8) @
    (8, 3*nq) matmul, so each (ne, nq) component is made of contiguous rows."""
    dshape = shape_gradients(ref).transpose(1, 2, 0).reshape(8, -1)  # (8, d * nq)
    jac = corners.transpose(2, 0, 1).reshape(-1, 8) @ dshape  # (x * ne, d * nq)
    return jac.reshape(3, len(corners), 3, len(ref)).transpose(0, 2, 1, 3)


def map_cofactors(corners: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cof, det) of the trilinear maps of corners (ne, 8, 3) at ref (nq, 3):
    cof[a] = J[:, a+1] x J[:, a+2] (indices mod 3) are the rows of det(J) J^-1,
    shaped (3, 3, ne, nq), and det = J[:, 0] . cof[0] is (ne, nq)."""
    cols = map_jacobians(corners, ref).transpose(1, 0, 2, 3)  # cols[d, x] = J[x, d]
    cof = np.stack([np.cross(cols[(a + 1) % 3], cols[(a + 2) % 3], axis=0) for a in range(3)])
    return cof, (cols[0] * cof[0]).sum(axis=0)


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of an integer array in order of first appearance.

    Returns (ids, first): ids[i] is the number of row i's group and first[g]
    the index of the first row of group g.  One lexsort, no Python loop.
    """
    order = np.lexsort(keys.T[::-1])  # stable: each group lists its rows in order
    s = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    first = order[new]
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(first.size)
    ids = np.empty(len(order), dtype=int)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, np.sort(first)


@dataclass
class HexMesh:
    """Conforming hex mesh: vertex coordinates, 8-corner elements, tagged
    boundary faces (element index, local face 0-5, tag)."""

    vertices: np.ndarray  # (nv, 3)
    elements: np.ndarray  # (ne, 8) int
    boundary: list[tuple[int, int, str]]
    _bboxes: np.ndarray = field(default=None, repr=False)
    _h: float = field(default=None, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.elements = np.asarray(self.elements, dtype=int)
        self.validate()

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def h(self) -> float:
        """Characteristic size: the largest element diameter, computed once."""
        if self._h is None:
            i, j = np.triu_indices(8, 1)
            d = self.vertices[self.elements[:, i]] - self.vertices[self.elements[:, j]]  # (ne, 28, 3)
            self._h = float(np.sqrt((d**2).sum(-1).max(initial=0.0)))
        return self._h

    def corner_coords(self, e=None) -> np.ndarray:
        if e is None:
            return self.vertices[self.elements]
        return self.vertices[self.elements[e]]

    @property
    def tags(self) -> set[str]:
        return {t for _, _, t in self.boundary}

    # -- validation -------------------------------------------------------

    def boundary_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(element, local face, tag) of every boundary entry as arrays, in boundary order."""
        elem, face, tag = zip(*self.boundary) if self.boundary else ((), (), ())
        return np.array(elem, dtype=int), np.array(face, dtype=int), np.array(tag)

    def validate(self):
        ne = self.num_elements
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= len(self.vertices):
            raise MeshError("element vertex index out of range")
        # positive Jacobian at all corners
        det = map_cofactors(self.corner_coords(), CORNER_REF)[1]  # (ne, 8)
        if np.any(det <= 0):
            bad = int(np.argwhere(det <= 0)[0][0])
            raise DegenerateElementError(f"element {bad} has non-positive Jacobian at a corner")
        elem, face, _ = self.boundary_arrays()
        missing = (elem < 0) | (elem >= ne) | (face < 0) | (face > 5)
        if missing.any():
            e, f, t = self.boundary[int(np.argmax(missing))]
            raise MeshError(f"boundary face (elem {e}, face {f}, tag {t!r}) does not exist")
        # conformity: every face occurs twice (interior) or once + tagged.  A
        # face is its set of corner ids; faces are numbered in order of first
        # appearance, element faces (element-major) before boundary entries.
        keys = np.sort(np.concatenate([
            self.elements[:, FACE_CORNERS].reshape(-1, 4), self.elements[elem[:, None], FACE_CORNERS[face]],
        ]), axis=1)
        keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = -1  # a repeated corner counts once, as in a set
        keys.sort(axis=1)
        ids, _ = group_rows(keys)
        counts = np.bincount(ids[: 6 * ne], minlength=ids.max(initial=-1) + 1)
        bids = ids[6 * ne:]
        repeated = np.ones(bids.size, dtype=bool)
        repeated[np.unique(bids, return_index=True)[1]] = False
        exterior = counts[bids] == 1
        if np.any(~exterior | repeated):
            i = int(np.argmax(~exterior | repeated))
            e, f, t = self.boundary[i]
            if not exterior[i]:
                raise MeshError(f"boundary face (elem {e}, face {f}, tag {t!r}) is not exterior")
            raise MeshError(f"face (elem {e}, face {f}) tagged more than once")
        tagged = np.zeros(counts.size, dtype=bool)
        tagged[bids] = True
        bad = ((counts == 1) & ~tagged) | (counts > 2)
        if bad.any():
            if counts[np.argmax(bad)] == 1:
                raise MeshError("untagged exterior face found: mesh is non-conforming or boundary is incomplete")
            raise MeshError("face shared by more than two elements")

    # -- geometry ---------------------------------------------------------

    def map_to_physical(self, p: RefPoint) -> np.ndarray:
        return map_points(self.corner_coords(p.element)[None], np.reshape(p.xi, (1, 3)))[0, 0]

    def element_bboxes(self) -> np.ndarray:
        if self._bboxes is None:
            corners = self.corner_coords()
            self._bboxes = np.stack([corners.min(axis=1), corners.max(axis=1)])
        return self._bboxes

    def aligned_boxes(self, x: np.ndarray | None = None) -> bool:
        """Whether every element is an axis-aligned box in reference
        orientation: each corner sits at corner 0's or corner 7's coordinate
        along each axis as CORNER_REF says, to 1e-12 of the largest extent,
        with corner 0 below corner 7 on every axis.  x: the corner_coords()
        of a caller that already holds them."""
        x = self.corner_coords() if x is None else x
        lo, hi = x[:, :1], x[:, 7:]
        tol = 1e-12 * (hi - lo).max(initial=0.0)
        return bool(np.all(hi > lo) and np.all(np.abs(x - np.where(CORNER_REF < 0, lo, hi)) <= tol))

    def locate_point(self, x) -> RefPoint | None:
        """locate_points for the one point x: a RefPoint, ties to the lowest element, or None outside."""
        elem, xi = self.locate_points(np.asarray(x, dtype=float)[None])
        return None if elem[0] < 0 else RefPoint(int(elem[0]), xi[0])

    def locate_points(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(elem (n,), xi (n, 3) in [-1, 1]^3) of the finite (n, 3) points X, else ValueError:
        the first element holding each point by Newton inversion, of the previous point's,
        then its bounding-box candidates in index order; elem -1 and xi NaN outside."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 3 or not np.all(np.isfinite(X)):
            raise ValueError(f"points must be a finite (n, 3) array, got shape {X.shape}")
        if not len(X):  # nothing to place: skip h and the bounding boxes, O(ne) each
            return np.empty(0, dtype=int), np.empty((0, 3))
        pad = 1e-9 * self.h
        lo, hi = self.element_bboxes() + np.array([-pad, pad])[:, None, None]
        elem, xi, prev = np.full(len(X), -1), np.full(X.shape, np.nan), -1
        for n, x in enumerate(X):
            cand = np.nonzero(np.all((x >= lo) & (x <= hi), axis=1))[0].tolist()
            for e in [prev] * (prev >= 0) + cand:
                ref = self._invert_map(e, x)
                if ref is not None and np.all(np.abs(ref) <= 1.0 + 1e-10):
                    elem[n], xi[n], prev = e, np.clip(ref, -1.0, 1.0), e
                    break
        return elem, xi

    def _invert_map(self, e: int, x: np.ndarray) -> np.ndarray | None:
        corners = self.corner_coords(e)
        xi = np.zeros(3)
        for _ in range(50):
            res = shape_functions(xi) @ corners - x
            if np.linalg.norm(res) < 1e-12 * max(self.h, 1e-30):
                return xi
            jac = np.einsum("cx,cd->xd", corners, shape_gradients(xi))
            try:
                xi = xi - np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                return None
            if np.max(np.abs(xi)) > 3.0:  # diverging: x not in this element
                return None
        return None

    # -- file I/O ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": MESH_FORMAT_VERSION,
            "vertices": self.vertices.tolist(),
            "elements": self.elements.tolist(),
            "boundary": [[int(e), int(f), t] for e, f, t in self.boundary],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, data: dict) -> "HexMesh":
        version = data.get("version") if isinstance(data, dict) else None
        if version != MESH_FORMAT_VERSION:
            raise MeshError(f"unsupported mesh file version {version!r}")
        for key in ("vertices", "elements", "boundary"):
            if key not in data:
                raise MeshError(f"mesh file missing {key!r}")
        boundary = [(int(e), int(f), str(t)) for e, f, t in data["boundary"]]
        return cls(np.array(data["vertices"], dtype=float), np.array(data["elements"], dtype=int), boundary)

    @classmethod
    def load(cls, path) -> "HexMesh":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


DEFAULT_BOX_TAGS = {
    "xmin": "xmin",
    "xmax": "xmax",
    "ymin": "ymin",
    "ymax": "ymax",
    "zmin": "zmin",
    "zmax": "zmax",
}


def generate_box_mesh(bounds, divisions, tags: dict[str, str] | None = None) -> HexMesh:
    """Structured hex mesh of an axis-aligned box.

    bounds: ((x0,x1), (y0,y1), (z0,z1)); divisions: (nx, ny, nz);
    tags: optional map from side key (xmin, xmax, ...) to tag name.
    """
    bounds = np.asarray(bounds, dtype=float)
    nx, ny, nz = (int(n) for n in divisions)
    if min(nx, ny, nz) < 1:
        raise ValueError("divisions must be >= 1")
    if np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("box extents must be positive")
    if set(tags or {}) - set(DEFAULT_BOX_TAGS):
        raise ValueError(f"unknown box sides {sorted(set(tags) - set(DEFAULT_BOX_TAGS))} in tags")
    t = dict(DEFAULT_BOX_TAGS)
    t.update(tags or {})

    xs = np.linspace(bounds[0, 0], bounds[0, 1], nx + 1)
    ys = np.linspace(bounds[1, 0], bounds[1, 1], ny + 1)
    zs = np.linspace(bounds[2, 0], bounds[2, 1], nz + 1)
    xg, yg, zg = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.stack([xg.ravel(), yg.ravel(), zg.ravel()], axis=1)

    # element (i, j, k), k fastest; corner c = a + 2b + 4d sits at vertex (i+a, j+b, k+d)
    vid = np.arange(len(vertices)).reshape(nx + 1, ny + 1, nz + 1)
    elements = np.stack(
        [vid[a : a + nx, b : b + ny, d : d + nz] for d in (0, 1) for b in (0, 1) for a in (0, 1)], axis=-1
    ).reshape(-1, 8)

    # per axis, the min and max side faces alternate, the other two axes in order
    eid = np.arange(nx * ny * nz).reshape(nx, ny, nz)
    boundary = []
    for axis, side in enumerate((eid[[0, -1]], eid[:, [0, -1]], eid[:, :, [0, -1]])):
        pairs = np.moveaxis(side, axis, -1).ravel().tolist()
        names = (t["xyz"[axis] + "min"], t["xyz"[axis] + "max"])
        boundary += [(e, 2 * axis + n % 2, names[n % 2]) for n, e in enumerate(pairs)]

    return HexMesh(vertices, elements, boundary)
