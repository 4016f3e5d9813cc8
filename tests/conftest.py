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
