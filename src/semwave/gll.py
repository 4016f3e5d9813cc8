"""Gauss-Legendre-Lobatto quadrature, nodal Lagrange basis and differentiation.

Everything lives on the reference interval [-1, 1].  The nodes of the
degree-r rule are the roots of (1 - x^2) P_r'(x), computed by Newton
iteration from Chebyshev-Gauss-Lobatto initial guesses (the classic
von Winckel construction).  Lagrange evaluation uses the barycentric
form, which is stable arbitrarily close to the nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_DEGREE = 12


@dataclass(frozen=True)
class GllRule:
    """GLL nodes and weights of degree r: r+1 points including both endpoints.

    Exact for polynomials of degree <= 2r - 1.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    # barycentric weights for stable Lagrange evaluation
    bary: np.ndarray = field(repr=False, default=None)


def _legendre_vandermonde(x: np.ndarray, n: int) -> np.ndarray:
    """Columns P_0(x)..P_n(x) via the three-term recurrence."""
    vand = np.zeros((x.size, n + 1))
    vand[:, 0] = 1.0
    if n >= 1:
        vand[:, 1] = x
    for k in range(1, n):
        vand[:, k + 1] = ((2 * k + 1) * x * vand[:, k] - k * vand[:, k - 1]) / (k + 1)
    return vand


@lru_cache(maxsize=None)
def gll_rule(r: int) -> GllRule:
    """Degree-r GLL rule: nodes are roots of (1-x^2) P_r'(x), weights
    w_i = 2 / (r (r+1) P_r(x_i)^2)."""
    if not 1 <= r <= MAX_DEGREE:
        raise ValueError(f"GLL degree must be in [1, {MAX_DEGREE}], got {r}")
    n = r + 1
    # Chebyshev-Gauss-Lobatto initial guess, ascending
    x = -np.cos(np.pi * np.arange(n) / r)
    x_old = 2.0 * np.ones_like(x)
    vand = np.zeros((n, n))
    while np.max(np.abs(x - x_old)) > 1e-15:
        x_old = x.copy()
        vand = _legendre_vandermonde(x, r)
        x = x_old - (x_old * vand[:, r] - vand[:, r - 1]) / (n * vand[:, r])
    vand = _legendre_vandermonde(x, r)
    w = 2.0 / (r * n * vand[:, r] ** 2)
    x[0], x[-1] = -1.0, 1.0
    if r % 2 == 0:
        x[r // 2] = 0.0
    bary = _barycentric_weights(x)
    return GllRule(degree=r, nodes=x, weights=w, bary=bary)


def tensor_rule(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3D tensor product of a 1D rule, first axis fastest: point i + n j + n^2 k
    is (x_i, x_j, x_k), with weight w_i w_j w_k."""
    points = np.stack(np.meshgrid(x, x, x, indexing="ij")[::-1], axis=-1).reshape(-1, 3)
    return points, ((w[None, :] * w[:, None])[None] * w[:, None, None]).ravel()


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def lagrange_all(rule: GllRule, x) -> np.ndarray:
    """All cardinal polynomial values at x.

    x may be scalar or an array of shape (...,); the result has shape
    (..., r+1).  Barycentric second form; exact at the nodes.
    """
    x = np.asarray(x, dtype=float)
    diff = x[..., None] - rule.nodes
    at_node = np.abs(diff) < 1e-14
    safe = np.where(at_node, 1.0, diff)
    terms = rule.bary / safe
    vals = terms / np.sum(terms, axis=-1, keepdims=True)
    hit = np.any(at_node, axis=-1)
    if np.any(hit):
        vals = np.where(hit[..., None], at_node.astype(float), vals)
    return vals


def diff_matrix(rule: GllRule) -> np.ndarray:
    """D[i, j] = l_j'(x_i), computed from the barycentric weights.

    Rows sum to zero (derivative of the constant).
    """
    x, b = rule.nodes, rule.bary
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (b[None, :] / b[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d
