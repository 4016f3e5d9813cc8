import numpy as np
import pytest

from semwave import build_space, generate_box_mesh

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def unit_mesh():
    """Single-element unit cube."""
    return generate_box_mesh(UNIT_BOX, (1, 1, 1))


@pytest.fixture(scope="session")
def cube2_mesh():
    return generate_box_mesh(UNIT_BOX, (2, 2, 2))


@pytest.fixture(scope="session")
def unit_space_r1(unit_mesh):
    return build_space(unit_mesh, 1)


@pytest.fixture(scope="session")
def unit_space_r2(unit_mesh):
    return build_space(unit_mesh, 2)


@pytest.fixture(scope="session")
def cube2_space_r2(cube2_mesh):
    return build_space(cube2_mesh, 2)


@pytest.fixture(scope="session")
def perturbed_mesh():
    """3x2x2 box whose interior vertices are randomly moved: every element
    touches one, so every element is non-affine with off-diagonal metric."""
    from semwave.mesh import HexMesh

    box = generate_box_mesh([(0.0, 1.5), (0.0, 1.0), (0.0, 1.0)], (3, 2, 2))
    v = box.vertices.copy()
    inner = np.all((v > 1e-12) & (v < box.vertices.max(axis=0) - 1e-12), axis=1)
    v[inner] += np.random.default_rng(7).uniform(-0.12, 0.12, (inner.sum(), 3))
    return HexMesh(v, box.elements, box.boundary)


@pytest.fixture(scope="session")
def graded_mesh():
    """Axis-aligned 3x2x2 box elements of unequal sizes along every axis."""
    from semwave.mesh import HexMesh

    box = generate_box_mesh(UNIT_BOX, (3, 2, 2))
    v = box.vertices.copy()
    v[:, 0] = 0.5 * v[:, 0] * (1.0 + v[:, 0])
    v[:, 1] = v[:, 1] ** 2
    v[:, 2] = np.sqrt(v[:, 2])
    return HexMesh(v, box.elements, box.boundary)


@pytest.fixture(scope="session")
def rotated_mesh():
    """2x1x1 box elements turned about a skew axis: affine, not axis-aligned."""
    from scipy.spatial.transform import Rotation

    from semwave.mesh import HexMesh

    box = generate_box_mesh([(0.0, 1.0), (0.0, 0.5), (0.0, 0.5)], (2, 1, 1))
    turn = Rotation.from_rotvec([0.3, -0.5, 0.7]).as_matrix()
    return HexMesh(box.vertices @ turn.T, box.elements, box.boundary)


def _invert_map(mesh, e: int, x: np.ndarray) -> np.ndarray | None:
    """Newton inversion of element e's trilinear map at the one point x, from
    xi = 0: xi, or None when it diverges, meets a singular J or does not
    converge in 50 steps."""
    from semwave.mesh import shape_functions, shape_gradients

    corners = mesh.corner_coords(e)
    xi = np.zeros(3)
    for _ in range(50):
        res = shape_functions(xi) @ corners - x
        if np.linalg.norm(res) < 1e-12 * max(mesh.h, 1e-30):
            return xi
        jac = np.einsum("cx,cd->xd", corners, shape_gradients(xi))
        try:
            xi = xi - np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return None
        if np.max(np.abs(xi)) > 3.0:  # diverging: x not in this element
            return None
    return None


def _locate_by_loop(mesh, x):
    """Reference point location, one element at a time: the first bounding-box
    candidate of x (boxes padded by 1e-9 h), in index order, whose inverse map
    lands in [-1, 1]^3 to 1e-10; (element, clipped xi), or None outside."""
    pad = 1e-9 * mesh.h
    lo, hi = mesh.element_bboxes
    for e in np.nonzero(np.all((x >= lo - pad) & (x <= hi + pad), axis=1))[0]:
        ref = _invert_map(mesh, int(e), x)
        if ref is not None and np.all(np.abs(ref) <= 1.0 + 1e-10):
            return int(e), np.clip(ref, -1.0, 1.0)
    return None


@pytest.fixture(scope="session")
def locate_by_loop():
    """The per-point reference location oracle, locate_by_loop(mesh, x)."""
    return _locate_by_loop
