"""Independent brute-force oracle for scalar erasure-channel density evolution.

Everything here is deliberately self-contained (numpy only, no imports from
the package under test): plain fixed-point iteration of the scalar recursion

    x <- eps * lam(1 - rho(1 - x)),

grid-scan + bisection for its nontrivial roots, golden section for their
fold, composite-Simpson quadrature for the scalar potential, and bisections
for the erasure thresholds. Test modules compare package outputs against
these reference routines.
"""

import numpy as np
from numpy.polynomial import polynomial as P

# (3,6)-regular ensemble: lam(x) = x^2, rho(x) = x^5 (coeff index = degree)
LAM_36 = np.array([0.0, 0.0, 1.0])
RHO_36 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def de_step(x, eps, lam, rho):
    return eps * P.polyval(1.0 - P.polyval(1.0 - x, rho), lam)


def de_limit(eps, lam, rho, x0=1.0, tol=1e-12, max_iter=200000):
    """Iterate the scalar recursion from x0; returns (limit, iterations)."""
    x = x0
    for it in range(max_iter):
        xn = de_step(x, eps, lam, rho)
        if abs(xn - x) <= tol:
            return xn, it + 1
        x = xn
    return x, max_iter


def de_trajectory(eps, lam, rho, x0=1.0, n_iter=1000):
    """The first n_iter iterates (excluding x0), for lockstep comparisons."""
    out = np.empty(n_iter)
    x = x0
    for i in range(n_iter):
        x = de_step(x, eps, lam, rho)
        out[i] = x
    return out

def bp_threshold(lam, rho, tol=1e-7, zero_tol=1e-9):
    """Bisection on eps of 'the recursion from 1 dies'."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lim, _ = de_limit(mid, lam, rho)
        if lim < zero_tol:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bp_fold(lam, rho):
    """min over x in (0, 1] of x / lam(1 - rho(1 - x)), the fold of the fixed points.

    Golden section on x, run until its bracket stops shrinking; only the
    interior points are evaluated, so x = 0 never is.
    """

    def eps_at(x):
        return x / P.polyval(1.0 - P.polyval(1.0 - x, rho), lam)

    golden = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c1, c2 = b - golden * (b - a), a + golden * (b - a)
    e1, e2 = eps_at(c1), eps_at(c2)
    while True:
        width = b - a
        if e1 < e2:
            b, c2, e2 = c2, c1, e1
            c1 = b - golden * (b - a)
            e1 = eps_at(c1)
        else:
            a, c1, e1 = c1, c2, e2
            c2 = a + golden * (b - a)
            e2 = eps_at(c2)
        if b - a >= width:
            return float(min(e1, e2))


def nontrivial_fixed_points(eps, lam, rho, n_grid=20001):
    """All roots of eps*lam(1-rho(1-x)) = x in (0,1], by sign scan + bisection."""
    xs = np.linspace(1e-9, 1.0, n_grid)
    h = de_step(xs, eps, lam, rho) - xs
    roots = []
    for a, b, ha, hb in zip(xs[:-1], xs[1:], h[:-1], h[1:]):
        if ha * hb < 0.0 or ha == 0.0:
            lo, hi = a, b
            for _ in range(100):
                m = 0.5 * (lo + hi)
                if ha * (de_step(m, eps, lam, rho) - m) <= 0.0:
                    hi = m
                else:
                    lo = m
            roots.append(0.5 * (lo + hi))
    return [r for r in roots if r > 1e-7]


def scalar_potential(x, eps, lam, rho, n=4096):
    """U(x;eps) = int_0^x (z - eps*lam(g(z))) g'(z) dz with g = 1-rho(1-.).

    Composite Simpson on 2n+1 nodes; D = 1 normalization (thresholds are
    invariant to the overall positive scale).
    """
    zs = np.linspace(0.0, x, 2 * n + 1)
    g = 1.0 - P.polyval(1.0 - zs, rho)
    gp = P.polyval(1.0 - zs, P.polyder(rho))
    integrand = (zs - eps * P.polyval(g, lam)) * gp
    w = np.ones_like(zs)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * integrand) * (x / (2 * n)) / 3.0)


def min_fixed_point_potential(eps, lam, rho):
    fps = nontrivial_fixed_points(eps, lam, rho)
    if not fps:
        return np.inf
    return min(scalar_potential(r, eps, lam, rho) for r in fps)


def potential_threshold(lam, rho, tol=1e-7):
    """Bisection on eps of 'every nontrivial fixed point has U >= 0'."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if min_fixed_point_potential(mid, lam, rho) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
