"""Degree-distribution polynomials for irregular LDPC ensembles.

Edge-perspective polynomials lam(x) = sum_i lam_i x^i and rho(x) describe the
ensemble; node-perspective L(x), R(x) are their normalized antiderivatives.
Coefficients are stored densely with index = degree, as plain float arrays:
EdgePolynomial.coeffs, and the array node_from_edge returns. The systems
built on them evaluate these arrays themselves (models._horner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 64  # highest edge degree; a node polynomial reaches MAX_DEGREE + 1
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class EdgePolynomial:
    """Edge-perspective degree distribution: nonnegative, sums to 1, no x^0 term."""

    coeffs: np.ndarray

    def __post_init__(self):
        # every test is written so that a NaN coefficient fails it
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient list must be a nonempty 1-d sequence")
        if c.size - 1 > MAX_DEGREE:
            raise ValueError(f"degree {c.size - 1} exceeds maximum {MAX_DEGREE}")
        if not np.all(c >= 0.0):
            raise ValueError("coefficients must be nonnegative")
        if c[0] != 0.0:
            raise ValueError("edge-perspective polynomial must have zero constant term")
        if not abs(c.sum() - 1.0) <= _NORM_TOL:
            raise ValueError(f"coefficients sum to {c.sum()!r}, expected 1")
        object.__setattr__(self, "coeffs", c)

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


def node_from_edge(edge: EdgePolynomial) -> tuple[np.ndarray, float]:
    """Integrate an edge polynomial into its node perspective.

    Returns (L, L'(1)): L is the coefficient array, index = degree, of
    L(x) = int_0^x edge / int_0^1 edge, so that L(0) = 0, L(1) = 1,
    L'(x) = L'(1) * edge(x) and L'(1) = 1 / int_0^1 edge.
    """
    c = edge.coeffs
    # [0, c_0/1, c_1/2, ...]: numpy's polyint to the bit
    anti = np.concatenate(([0.0], c / np.arange(1, c.size + 1)))
    total = anti.sum()  # int_0^1 edge
    return anti / total, 1.0 / total


def design_rate(lam: EdgePolynomial, rho: EdgePolynomial) -> float:
    """gamma = 1 - L'(1)/R'(1); raises for degenerate ensembles outside (0,1)."""
    _, lp1 = node_from_edge(lam)
    _, rp1 = node_from_edge(rho)
    gamma = 1.0 - lp1 / rp1
    if gamma <= 0.0 or gamma >= 1.0:
        raise ValueError(f"degenerate ensemble: design rate {gamma}")
    return gamma
