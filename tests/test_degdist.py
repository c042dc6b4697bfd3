"""Degree polynomials are coefficient holders; they are evaluated here, as the
package evaluates them, from .coeffs (numpy's polyval, as in scalar_oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp
from numpy.polynomial import polynomial as P

from saturate import EdgePolynomial, NodePolynomial, design_rate, node_from_edge


def test_regular_coefficients():
    assert EdgePolynomial.regular(3).coeffs.tolist() == [0.0, 0.0, 1.0]  # x^2
    assert EdgePolynomial.regular(6).coeffs.tolist() == [0.0] * 5 + [1.0]  # x^5


def test_eval_zero_and_one():
    lam = EdgePolynomial.regular(3)  # x^2
    assert P.polyval(0.0, lam.coeffs) == 0.0
    assert P.polyval(1.0, lam.coeffs) == pytest.approx(1.0, abs=1e-12)


def test_eval_forced_arithmetic():
    lam = EdgePolynomial(np.array([0.0, 0.5, 0.5]))
    assert P.polyval(0.5, lam.coeffs) == pytest.approx(0.375, abs=1e-15)


def test_node_from_edge_regular():
    node, lp1 = node_from_edge(EdgePolynomial.regular(3))  # x^2 -> x^3
    assert lp1 == pytest.approx(3.0, abs=1e-12)
    xs = np.linspace(0, 1, 11)
    assert np.allclose(P.polyval(xs, node.coeffs), xs**3, atol=1e-12)

    node6, lp6 = node_from_edge(EdgePolynomial.regular(6))  # x^5 -> x^6
    assert lp6 == pytest.approx(6.0, abs=1e-12)
    assert np.allclose(P.polyval(xs, node6.coeffs), xs**6, atol=1e-12)


def test_node_from_edge_irregular():
    # int_0^1 (0.5x + 0.5x^2) = 5/12, so L'(1) = 12/5
    lam = EdgePolynomial(np.array([0.0, 0.5, 0.5]))
    node, lp1 = node_from_edge(lam)
    assert lp1 == pytest.approx(12.0 / 5.0, abs=1e-12)
    assert P.polyval(0.0, node.coeffs) == 0.0
    assert P.polyval(1.0, node.coeffs) == pytest.approx(1.0, abs=1e-12)


def test_design_rate_values():
    lam, rho5, rho8 = (EdgePolynomial.regular(k) for k in (3, 6, 9))
    assert design_rate(lam, rho5) == pytest.approx(0.5, abs=1e-12)
    assert design_rate(lam, rho8) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_design_rate_degenerate():
    lam = EdgePolynomial.regular(2)  # x
    with pytest.raises(ValueError, match="degenerate"):
        design_rate(lam, lam)


def test_edge_polynomial_validation():
    with pytest.raises(ValueError):
        EdgePolynomial(np.array([0.2, 0.8]))  # nonzero constant term
    with pytest.raises(ValueError):
        EdgePolynomial(np.array([0.0, 0.5, 0.6]))  # not normalized
    with pytest.raises(ValueError):
        EdgePolynomial(np.array([0.0, 1.5, -0.5]))  # negative coefficient
    too_big = np.zeros(70)
    too_big[69] = 1.0
    with pytest.raises(ValueError, match="degree"):
        EdgePolynomial(too_big)


def test_node_polynomial_validation():
    with pytest.raises(ValueError):
        NodePolynomial(np.array([0.1, 0.9]))  # L(0) != 0
    with pytest.raises(ValueError):
        NodePolynomial(np.array([0.0, 0.5]))  # L(1) != 1


def test_from_degree_map():
    lam = EdgePolynomial.from_degree_map({"2": 0.5, "3": 0.5})
    assert np.allclose(lam.coeffs, [0.0, 0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        EdgePolynomial.from_degree_map({"0": 1.0})
    with pytest.raises(ValueError):
        EdgePolynomial.from_degree_map({})


def _edge_polys():
    return (
        hyp.lists(hyp.floats(0.0, 1.0), min_size=2, max_size=8)
        .filter(lambda c: sum(c) > 1e-3)
        .map(lambda c: EdgePolynomial(np.concatenate([[0.0], np.asarray(c) / sum(c)])))
    )


@settings(max_examples=30, deadline=None)
@given(_edge_polys())
def test_node_derivative_reproduces_edge(lam):
    node, lp1 = node_from_edge(lam)
    xs = np.linspace(0.0, 1.0, 100)
    node_deriv = P.polyder(node.coeffs)
    assert np.max(np.abs(P.polyval(xs, node_deriv) / lp1 - P.polyval(xs, lam.coeffs))) < 1e-10
    assert P.polyval(1.0, node_deriv) == pytest.approx(lp1, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(_edge_polys())
def test_normalized_eval_at_one(lam):
    assert P.polyval(1.0, lam.coeffs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("coeffs", [[], [[0.0, 1.0]]], ids=["empty", "2d"])
@pytest.mark.parametrize("cls", [EdgePolynomial, NodePolynomial])
def test_coefficients_must_be_a_nonempty_list(cls, coeffs):
    with pytest.raises(ValueError, match="nonempty 1-d sequence"):
        cls(np.array(coeffs))
