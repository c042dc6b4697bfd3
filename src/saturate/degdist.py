"""Degree-distribution polynomials for irregular LDPC ensembles.

Edge-perspective polynomials lam(x) = sum_i lam_i x^i and rho(x) describe the
ensemble; node-perspective L(x), R(x) are their normalized antiderivatives.
Coefficients are stored densely with index = degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as _poly

MAX_DEGREE = 64  # highest edge degree; a node polynomial reaches MAX_DEGREE + 1
_NORM_TOL = 1e-12


def _as_coeffs(coeffs, max_degree: int) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient list must be a nonempty 1-d sequence")
    if c.size - 1 > max_degree:
        raise ValueError(f"degree {c.size - 1} exceeds maximum {max_degree}")
    if np.any(c < 0.0):
        raise ValueError("coefficients must be nonnegative")
    return c


def _check_unit_interval(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("polynomial argument outside [0, 1]")
    return x


@dataclass(frozen=True)
class EdgePolynomial:
    """Edge-perspective degree distribution: nonnegative, sums to 1, no x^0 term."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_coeffs(self.coeffs, MAX_DEGREE)
        if c[0] != 0.0:
            raise ValueError("edge-perspective polynomial must have zero constant term")
        if abs(c.sum() - 1.0) > _NORM_TOL:
            raise ValueError(f"coefficients sum to {c.sum()!r}, expected 1")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        return _poly.polyval(_check_unit_interval(x), self.coeffs)

    def deriv(self, x):
        return _poly.polyval(_check_unit_interval(x), _poly.polyder(self.coeffs))

    @classmethod
    def from_degree_map(cls, mapping: dict) -> "EdgePolynomial":
        """Build from a {degree: coefficient} map (the config-file form)."""
        degs = {int(k): float(v) for k, v in mapping.items()}
        if not degs:
            raise ValueError("empty degree map")
        c = np.zeros(max(degs) + 1)
        for deg, val in degs.items():
            if deg < 1:
                raise ValueError("edge-perspective degrees start at 1")
            c[deg] = val
        return cls(c)

    @classmethod
    def regular(cls, degree: int) -> "EdgePolynomial":
        """lam(x) = x^(degree-1): every edge sees a degree-`degree` node."""
        c = np.zeros(degree)
        c[degree - 1] = 1.0
        return cls(c)


@dataclass(frozen=True)
class NodePolynomial:
    """Node-perspective polynomial L(x) (or R(x)): L(0) = 0, L(1) = 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_coeffs(self.coeffs, MAX_DEGREE + 1)  # the antiderivative of an edge polynomial
        if abs(c[0]) > _NORM_TOL:
            raise ValueError("node-perspective polynomial must vanish at 0")
        if abs(c.sum() - 1.0) > _NORM_TOL:
            raise ValueError(f"L(1) = {c.sum()!r}, expected 1")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        return _poly.polyval(_check_unit_interval(x), self.coeffs)

    def deriv(self, x):
        return _poly.polyval(_check_unit_interval(x), _poly.polyder(self.coeffs))

    def deriv_at_one(self) -> float:
        return float(np.arange(len(self.coeffs)) @ self.coeffs)


def node_from_edge(edge: EdgePolynomial) -> tuple[NodePolynomial, float]:
    """Integrate an edge polynomial into its node perspective.

    Returns (L, L'(1)) where L(x) = int_0^x edge / int_0^1 edge, so that
    L'(x) = L'(1) * edge(x) and L'(1) = 1 / int_0^1 edge.
    """
    anti = _poly.polyint(edge.coeffs)
    total = anti.sum()  # int_0^1 edge
    node = NodePolynomial(anti / total)
    return node, 1.0 / total


def design_rate(lam: EdgePolynomial, rho: EdgePolynomial) -> float:
    """gamma = 1 - L'(1)/R'(1); raises for degenerate ensembles outside (0,1)."""
    _, lp1 = node_from_edge(lam)
    _, rp1 = node_from_edge(rho)
    gamma = 1.0 - lp1 / rp1
    if gamma <= 0.0 or gamma >= 1.0:
        raise ValueError(f"degenerate ensemble: design rate {gamma}")
    return gamma
