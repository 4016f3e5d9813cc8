"""GLL rule, barycentric Lagrange evaluation and the differentiation matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semwave.gll import MAX_DEGREE, diff_matrix, gll_rule, lagrange_all


def test_r1_is_endpoint_rule():
    rule = gll_rule(1)
    np.testing.assert_allclose(rule.nodes, [-1.0, 1.0])
    np.testing.assert_allclose(rule.weights, [1.0, 1.0])


def test_r2_weights_are_simpson():
    # frozen from the moment-matching oracle: integrating 1, x, x^2, x^3
    # exactly over [-1, 1] with nodes {-1, 0, 1} forces {1/3, 4/3, 1/3}
    rule = gll_rule(2)
    np.testing.assert_allclose(rule.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], rtol=1e-14)


def test_r4_interior_nodes():
    # roots of (1 - x^2) P4'(x): interior ones at 0 and +-sqrt(3/7)
    rule = gll_rule(4)
    expected = np.array([-1.0, -np.sqrt(3 / 7), 0.0, np.sqrt(3 / 7), 1.0])
    np.testing.assert_allclose(rule.nodes, expected, atol=1e-14)


def test_r4_nodes_satisfy_lobatto_equation():
    rule = gll_rule(4)
    x = rule.nodes[1:-1]
    # P4'(x) via the derivative recurrence on monomial coefficients
    p4 = np.polynomial.legendre.Legendre([0, 0, 0, 0, 1])
    residual = (1 - x**2) * p4.deriv()(x)
    assert np.max(np.abs(residual)) < 1e-14


@pytest.mark.parametrize("r", range(1, MAX_DEGREE + 1))
def test_moment_exactness(r):
    """Exact for all monomials of degree <= 2r - 1."""
    rule = gll_rule(r)
    for k in range(2 * r):
        quad = np.sum(rule.weights * rule.nodes**k)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(quad - exact) < 1e-13


def test_weights_positive_and_sum_to_two():
    for r in range(1, MAX_DEGREE + 1):
        rule = gll_rule(r)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 2.0) < 1e-13


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        gll_rule(0)
    with pytest.raises(ValueError):
        gll_rule(MAX_DEGREE + 1)


def test_cardinal_property():
    rule = gll_rule(2)
    assert lagrange_all(rule, 0.0)[1] == 1.0
    assert lagrange_all(rule, 1.0)[0] == 0.0


def test_l1_at_half():
    # l1(x) = 1 - x^2 for nodes {-1, 0, 1}
    assert abs(lagrange_all(gll_rule(2), 0.5)[1] - 0.75) < 1e-14


def test_lagrange_all_partition_of_unity():
    rule = gll_rule(5)
    x = np.linspace(-1, 1, 41)
    vals = lagrange_all(rule, x)
    np.testing.assert_allclose(vals.sum(axis=-1), 1.0, atol=1e-13)


def test_lagrange_all_exact_at_nodes():
    rule = gll_rule(6)
    vals = lagrange_all(rule, rule.nodes)
    np.testing.assert_allclose(vals, np.eye(7), atol=1e-14)


@given(
    r=st.integers(min_value=1, max_value=8),
    coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=9),
    x=st.floats(-1, 1),
)
@settings(max_examples=60, deadline=None)
def test_interpolation_reproduces_polynomials(r, coeffs, x):
    """Any polynomial of degree <= r is its own GLL interpolant."""
    coeffs = coeffs[: r + 1]
    poly = np.polynomial.Polynomial(coeffs)
    rule = gll_rule(r)
    interp = lagrange_all(rule, x) @ poly(rule.nodes)
    assert abs(interp - poly(x)) < 1e-10


def test_diff_matrix_r1():
    np.testing.assert_allclose(diff_matrix(gll_rule(1)), [[-0.5, 0.5], [-0.5, 0.5]])


def test_diff_matrix_r2_middle_row():
    d = diff_matrix(gll_rule(2))
    np.testing.assert_allclose(d[1], [-0.5, 0.0, 0.5], atol=1e-14)


@pytest.mark.parametrize("r", [1, 3, 7, 12])
def test_diff_matrix_annihilates_constants(r):
    d = diff_matrix(gll_rule(r))
    np.testing.assert_allclose(d @ np.ones(r + 1), 0.0, atol=1e-12)


@given(r=st.integers(min_value=1, max_value=10), k=st.integers(min_value=0, max_value=10))
@settings(max_examples=50, deadline=None)
def test_diff_matrix_exact_on_polynomials(r, k):
    if k > r:
        return
    rule = gll_rule(r)
    d = diff_matrix(rule)
    vals = rule.nodes**k
    deriv = k * rule.nodes ** max(k - 1, 0) if k else np.zeros(r + 1)
    np.testing.assert_allclose(d @ vals, deriv, atol=1e-10)


def test_rule_is_cached():
    assert gll_rule(3) is gll_rule(3)
