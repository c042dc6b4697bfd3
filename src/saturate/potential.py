"""Single-system potential, fixed-point machinery, and the three thresholds."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .system import (
    DEFAULT_ITER_TOL,
    DEFAULT_MAX_ITER,
    SystemDefinition,
    _central_difference,
    _step_raw,
    iterate_batch,
    iterate_limit,
)

log = logging.getLogger("saturate")

FP_RESIDUAL_TOL = 1e-9
FP_GRADIENT_TOL = 1e-6
CLUSTER_RADIUS = 1e-6
ZERO_TOL = 1e-8
BISECT_TOL = 1e-6
BISECT_MAX_HALVINGS = 60
NEWTON_DAMPING = 0.5
NEWTON_MAX_ITER = 50
NEWTON_RES_TOL = 1e-12
NEWTON_FD_STEP = 1e-7  # central-difference step of the Newton Jacobians
QUADRATURE_NODES = 64  # Gauss-Legendre nodes of potential_quadrature
FP_GRID = 7  # per-axis points of the d=2 seed grid of fixed_points
FP_MAX_SEEDS = 10000  # lattice rows that seed fixed_points in other dimensions
# bisection levels that one batched bp_threshold pass probes (2**5 - 1 = 31
# eps rows per pass)
BP_BISECT_DEPTH = 5
# grid points of the pinned component on each branch that maxwell_threshold walks
BRANCH_POINTS = 50


def potential(sys: SystemDefinition, x, eps: float):
    """U(x; eps) = g(x) . (w * x) - check_energy(x) - bit_energy(g(x); eps)."""
    x = np.asarray(x, dtype=float)
    g = sys.check_update(x)
    term = np.sum(g * (x * sys.weights), axis=-1)
    return term - sys.check_energy(x) - sys.bit_energy(g, eps)


def check_jacobian(sys: SystemDefinition, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of check_update: [..., k, j] = d g_k / d x_j."""
    return np.swapaxes(_central_difference(sys.check_update, x, h), -1, -2)


def _gradient(sys: SystemDefinition, x: np.ndarray, stepped: np.ndarray) -> np.ndarray:
    """(x - stepped) D g'(x), with g' by differences.

    With stepped the update of x this is the potential gradient, which
    vanishes exactly at the fixed points.
    """
    return np.einsum("...k,...kj->...j", (x - stepped) * sys.weights, check_jacobian(sys, x))


def potential_gradient(sys: SystemDefinition, x, eps: float) -> np.ndarray:
    """Gradient of the potential: (x - step(x)) D g'(x), with g' by differences."""
    x = np.asarray(x, dtype=float)
    return _gradient(sys, x, _step_raw(sys, x, eps))


def potential_quadrature(sys: SystemDefinition, x, eps: float, path: str = "straight") -> float:
    """Line integral of the potential gradient field from 0 to x.

    Cross-checks the closed forms; path independence makes "straight" and the
    axis-aligned "staircase" agree.
    """
    x = np.asarray(x, dtype=float)
    nodes, wts = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    t = (nodes + 1.0) / 2.0
    wts = wts / 2.0
    if path == "straight":
        z = t[:, None] * x
        fld = potential_gradient(sys, z, eps)
        return float(wts @ (fld @ x))
    if path == "staircase":
        total = 0.0
        base = np.zeros(sys.d)
        for k in range(sys.d):
            if x[k] == 0.0:
                base[k] = x[k]
                continue
            z = np.tile(base, (QUADRATURE_NODES, 1))
            z[:, k] = t * x[k]
            fld = potential_gradient(sys, z, eps)
            total += float(wts @ fld[:, k]) * x[k]
            base[k] = x[k]
        return total
    raise ValueError(f"unknown path {path!r}")


# ---------------------------------------------------------------------------
# threshold bisections
# ---------------------------------------------------------------------------


def _subtree_midpoints(lo: float, hi: float, levels: int, tol: float) -> list:
    """Every midpoint the bisection of [lo, hi] can visit in its next levels halvings."""
    if levels <= 0 or hi - lo <= tol:
        return []
    mid = 0.5 * (lo + hi)
    return ([mid] + _subtree_midpoints(lo, mid, levels - 1, tol)
            + _subtree_midpoints(mid, hi, levels - 1, tol))


def _threshold_bisect(true_below, tol: float, name: str,
                      max_halvings: int = BISECT_MAX_HALVINGS, depth: int = 1) -> float:
    """Bisect [0,1] for the edge of a predicate that holds below a threshold.

    true_below maps a 1-d array of eps values to a bool array of verdicts.
    One call evaluates every midpoint of the next depth bisection levels
    (2**depth - 1 of them, fewer where the tol or max_halvings stop prunes
    the tree), and the first call also holds 1.0 and 1e-9. The walk below is
    the one-probe loop, looking its verdicts up in the last call, so for a
    predicate that depends on eps alone the result is the same float at
    every depth.
    """

    def probe(eps_values):
        # sorted(set()) rather than np.unique, which imports numpy.ma (about
        # 0.6 MB of resident memory) on first use
        eps = np.array(sorted(set(eps_values)), dtype=float)
        return dict(zip(eps.tolist(), np.asarray(true_below(eps), dtype=bool).tolist()))

    lo, hi = 1e-9, 1.0
    verdict = probe([1.0, lo] + _subtree_midpoints(lo, hi, min(depth, max_halvings), tol))
    levels_left = depth  # levels of the last call's subtree the walk has not used
    if verdict[1.0]:
        return 1.0
    if not verdict[lo]:
        log.warning("%s: predicate already fails as eps -> 0+ (degenerate)", name)
        return 0.0
    for i in range(max_halvings):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if levels_left == 0:
            verdict = probe(_subtree_midpoints(lo, hi, min(depth, max_halvings - i), tol))
            levels_left = depth
        levels_left -= 1
        if verdict[mid]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bp_threshold(sys: SystemDefinition, tol: float = BISECT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest eps at which the recursion from all-ones collapses to zero.

    A probe collapses when its limit has max below ZERO_TOL. Each pass of
    the bisection iterates one all-ones row per probe eps in one batch (eps
    is the per-row batch axis) and covers BP_BISECT_DEPTH levels of the
    bisection tree. The batch stops together, so a row may run past the step
    at which it would have stopped alone; from all-ones an admissible
    recursion is componentwise non-increasing, so those steps only move it
    closer to its limit. A verdict could differ from the one-probe loop's
    only if a row's step change fell below DEFAULT_ITER_TOL while its max was
    still at least ZERO_TOL and the extra steps then took it below ZERO_TOL.
    A pass that ends with rows still moving (iteration budget spent, or
    rows in period-2 cycles) logs a warning naming their eps; such a row
    counts as not collapsing unless its max is already below ZERO_TOL.
    """

    def dies(eps: np.ndarray) -> np.ndarray:
        X, it, conv = iterate_batch(sys, np.ones((len(eps), sys.d)), eps, max_iter=max_iter)
        if not conv:
            moving = _residual_sup(sys, X, eps) > DEFAULT_ITER_TOL
            log.warning("bp_threshold: %d of %d probes still moving after %d iterations (%s): "
                        "eps = %s", np.count_nonzero(moving), len(eps), it,
                        "period-2 cycle exit" if it < max_iter else "iteration budget exhausted",
                        ", ".join(f"{e:.9g}" for e in eps[moving]))
        return np.max(X, axis=-1) < ZERO_TOL

    return _threshold_bisect(dies, tol, "bp_threshold", depth=BP_BISECT_DEPTH)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


@dataclass
class FixedPointRecord:
    x: np.ndarray
    eps_root: float
    potential_value: float
    residual: float
    gradient_norm: float


def _residual_sup(sys, X, eps):
    return np.abs(X - _step_raw(sys, X, eps)).max(axis=-1)


def _newton_batch(sys, X0, eps):
    """Damped Newton on the fixed-point residual, all seeds in lockstep."""
    X = np.clip(np.asarray(X0, dtype=float), 0.0, 1.0).copy()
    eye = np.eye(sys.d)
    for _ in range(NEWTON_MAX_ITER):
        R = X - _step_raw(sys, X, eps)
        res = np.max(np.abs(R), axis=-1)
        active = res > NEWTON_RES_TOL
        if not active.any():
            break
        Xa = X[active]
        Ra = R[active]
        res_a = res[active]
        # [n, j, k] = d step_k / d x_j
        Jstep = _central_difference(lambda Z: _step_raw(sys, Z, eps), Xa, NEWTON_FD_STEP)
        J = eye[None, :, :] - np.swapaxes(Jstep, -1, -2)
        J = J + 1e-13 * eye  # keep fold-point solves finite
        try:
            dx = np.linalg.solve(J, Ra[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        t = np.ones(len(Xa))
        cand = np.clip(Xa - dx, 0.0, 1.0)
        rc = _residual_sup(sys, cand, eps)
        for _ in range(8):
            bad = rc > (1.0 - 0.25 * t) * res_a
            if not bad.any():
                break
            t[bad] *= NEWTON_DAMPING
            cand[bad] = np.clip(Xa[bad] - t[bad, None] * dx[bad], 0.0, 1.0)
            rc[bad] = _residual_sup(sys, cand[bad], eps)
        X[active] = cand
    return X, _residual_sup(sys, X, eps)


def _cluster(points: np.ndarray, residuals: np.ndarray, radius: float) -> np.ndarray:
    """Greedy sup-norm clustering, keeping the best-converged representative.

    In residual order, a point is kept unless it lies within radius of a point
    kept before it. Each kept point removes its neighbours among the later
    points in one vectorised pass.
    """
    pts = points[np.argsort(residuals, kind="stable")]
    m = len(pts)
    alive = np.ones(m, bool)
    diff = np.empty_like(pts)
    dist = np.empty(m)
    kept = []
    for i in range(m):
        if not alive[i]:
            continue
        kept.append(i)
        rest = slice(i + 1, m)
        buf = np.subtract(pts[rest], pts[i], out=diff[rest])
        np.abs(buf, out=buf)
        alive[rest] &= np.max(buf, axis=-1, out=dist[rest]) > radius
    return pts[kept]


def _make_record(sys, x, eps) -> Optional[FixedPointRecord]:
    resid = float(_residual_sup(sys, x, eps))
    if resid > FP_RESIDUAL_TOL:
        return None
    grad = float(np.max(np.abs(potential_gradient(sys, x, eps))))
    if grad > FP_GRADIENT_TOL:
        log.debug("fixed point at %s rejected: gradient norm %g", x, grad)
        return None
    return FixedPointRecord(
        x=np.asarray(x, dtype=float),
        eps_root=float(eps),
        potential_value=float(potential(sys, x, eps)),
        residual=resid,
        gradient_norm=grad,
    )


def _seed_lattice_2d(grid: int) -> np.ndarray:
    ax = np.linspace(0.03, 0.97, grid)
    inner = np.array([(a, b) for a in ax for b in ax])
    faces = np.concatenate(
        [
            np.stack([np.zeros(grid), ax], axis=1),
            np.stack([ax, np.zeros(grid)], axis=1),
            np.stack([ax, ax], axis=1),
        ]
    )
    return np.concatenate([inner, faces], axis=0)


def _lattice_rows(d: int, per_axis: int, n: int) -> np.ndarray:
    """The first n rows of the per_axis**d grid on [0,1]^d, in np.meshgrid "ij" order."""
    axis = np.linspace(0.0, 1.0, per_axis)
    rows = np.empty((min(n, per_axis**d), d))
    index = np.arange(len(rows))
    for k in range(d - 1, -1, -1):
        rows[:, k] = axis[index % per_axis]
        index //= per_axis
    return rows


def fixed_points(sys: SystemDefinition, eps: float,
                 max_iter: int = DEFAULT_MAX_ITER) -> list[FixedPointRecord]:
    """Numerically enumerate the nontrivial fixed points at a given eps.

    d=2 systems get damped-Newton solves from a lattice of seeds (interior,
    boundary faces, and diagonal) plus the all-ones limit, which also finds
    unstable points; other dimensions fall back to forward iteration from a
    lattice with an all-ones row appended, which finds the stable ones.
    Enumeration is heuristic: nothing proves completeness.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if sys.d == 2:
        ones_lim = iterate_limit(sys, sys.ones(), eps, max_iter=max_iter).limit
        seeds = np.concatenate([_seed_lattice_2d(FP_GRID), ones_lim[None, :]], axis=0)
        cands, res = _newton_batch(sys, seeds, eps)
    else:
        per_axis = max(2, int(min(5, math.floor(FP_MAX_SEEDS ** (1.0 / sys.d)))))
        seeds = np.vstack([_lattice_rows(sys.d, per_axis, FP_MAX_SEEDS), sys.ones()])
        cands, it, conv = iterate_batch(sys, seeds, eps, max_iter=max_iter)
        res = _residual_sup(sys, cands, eps)
        if not conv:
            log.debug("fixed_points: %d of %d lattice rows still moving after %d iterations "
                      "(%s, eps=%g)", np.count_nonzero(res > DEFAULT_ITER_TOL), len(seeds), it,
                      "period-2 cycles" if it < max_iter else "budget exhausted", eps)
    good = (res <= FP_RESIDUAL_TOL) & (np.max(np.abs(cands), axis=-1) > 1e-7)
    pts = _cluster(cands[good], res[good], CLUSTER_RADIUS)
    records = []
    for p in pts:
        rec = _make_record(sys, p, eps)
        if rec is not None:
            records.append(rec)
    records.sort(key=lambda r: tuple(r.x))
    return records


def energy_gap(sys: SystemDefinition, eps: float, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Minimum potential over the nontrivial fixed points; +inf when none exist."""
    fps = fixed_points(sys, eps, max_iter=max_iter)
    if not fps:
        return math.inf
    return min(r.potential_value for r in fps)


def potential_threshold(sys: SystemDefinition, tol: float = BISECT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest eps at which every nontrivial fixed point has nonnegative potential."""

    def nonneg(eps: np.ndarray) -> np.ndarray:
        return np.array([energy_gap(sys, e, max_iter=max_iter) >= 0.0 for e in eps.tolist()])

    return _threshold_bisect(nonneg, tol, "potential_threshold")


def epsilon_of_x(sys: SystemDefinition, x) -> Optional[float]:
    """The unique channel parameter supporting x as a fixed point, if any.

    Bisection along the most eps-sensitive component, then a full-vector
    residual test; None when x is not a fixed point for any eps.
    """
    x = np.asarray(x, dtype=float)
    if np.max(np.abs(x)) <= 1e-12:
        raise ValueError("the zero state is excluded (fixed point at every eps)")
    s0 = _step_raw(sys, x, 0.0)
    s1 = _step_raw(sys, x, 1.0)
    j = int(np.argmax(s1 - s0))
    if s1[j] - s0[j] <= 1e-14:
        return None

    def h(e):
        return _step_raw(sys, x, e)[j] - x[j]

    if h(0.0) > FP_RESIDUAL_TOL or h(1.0) < -FP_RESIDUAL_TOL:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if float(_residual_sup(sys, x, root)) >= FP_RESIDUAL_TOL:
        return None
    return root


def fixed_point_potential(sys: SystemDefinition, x) -> float:
    """Q(x): the potential of a fixed point at its own supporting eps."""
    root = epsilon_of_x(sys, x)
    if root is None:
        raise ValueError("x is not a fixed point of the recursion for any eps")
    return float(potential(sys, x, root))


def maxwell_threshold(sys: SystemDefinition, tol: float = BISECT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Smallest eps at which some fixed point attains negative Q.

    The Maxwell construction along the fixed-point branches. Every fixed
    point at eps=1 with negative potential seeds a branch, walked down in eps
    until Q turns nonnegative; the crossing is bisected on eps by Newton
    solves seeded by linear interpolation until the bracket is at most tol/4.
    Returns the smallest crossing, or 1.0 when no seed has Q < 0; a walk that
    ends with Q still negative contributes the smallest eps it reached and
    logs a warning. Only the eps=1 enumeration is shared with
    potential_threshold.
    """
    crossings = [1.0]
    for seed in fixed_points(sys, 1.0, max_iter=max_iter):
        if seed.potential_value < 0.0:
            crossings.append(_branch_crossing(sys, seed.x, tol))
    return min(crossings)


def _branch_crossing(sys, x0, tol):
    """eps at which Q turns nonnegative on the branch through (x0, eps=1)."""
    hi = None  # (x, eps) of the last branch point with Q < 0
    for x, eps in _branch_points(sys, x0, BRANCH_POINTS):
        if potential(sys, x, eps) >= 0.0:
            break
        hi = (x, eps)
    else:
        log.warning("maxwell_threshold: branch from %s ends at eps=%g with Q still negative",
                    x0, hi[1])
        return float(hi[1])
    (x_lo, e_lo), (x_hi, e_hi) = (x, eps), hi
    while e_hi - e_lo > tol / 4:
        mid = 0.5 * (e_lo + e_hi)
        seed = x_lo + (mid - e_lo) / (e_hi - e_lo) * (x_hi - x_lo)
        x_mid = _newton_batch(sys, seed[None, :], mid)[0][0]
        if potential(sys, x_mid, mid) >= 0.0:
            x_lo, e_lo = x_mid, mid
        else:
            x_hi, e_hi = x_mid, mid
    return float(0.5 * (e_lo + e_hi))


# ---------------------------------------------------------------------------
# fixed-point branch continuation
# ---------------------------------------------------------------------------


def _newton_pinned(sys, j, c, u0):
    """Damped Newton for u = (x without x_j, eps) with x_j pinned at c.

    The d fixed-point equations x = step(x; eps) in d unknowns, with a
    central-difference Jacobian taken in one batched step.
    """
    eye = np.eye(sys.d)

    def resid(u):
        x = np.insert(u[..., :-1], j, c, axis=-1)
        return x - _step_raw(sys, x, u[..., -1])

    u = np.array(u0, dtype=float)
    r = resid(u)
    res = np.max(np.abs(r))
    for _ in range(NEWTON_MAX_ITER):
        if res <= NEWTON_RES_TOL:
            break
        J = _central_difference(resid, u, NEWTON_FD_STEP).T
        try:
            du = np.linalg.solve(J + 1e-13 * eye, r)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        for _ in range(8):
            cand = u - t * du
            cand[:-1] = np.clip(cand[:-1], 0.0, 1.0)
            r_cand = resid(cand)
            res_cand = np.max(np.abs(r_cand))
            if res_cand <= (1.0 - 0.25 * t) * res or t < 1.0 / 64:
                u, r, res = cand, r_cand, res_cand
                break
            t *= NEWTON_DAMPING
    return u, float(res)


def _branch_points(sys, x0, n_points):
    """Yield (x, eps) along the fixed-point branch through (x0, eps=1).

    The first point is (x0, 1.0). The largest component of x0 is pinned and
    swept down on an n_points grid towards zero; at each grid value Newton
    solves for the other components and eps, seeded by a linear predictor.
    Steps whose corrector diverges or hops off the branch (pitchforks at
    symmetric folds) are split; a grid value that still fails is skipped
    and logged. The walk stops when eps leaves (0, 1].
    """
    yield x0, 1.0
    j = int(np.argmax(x0))
    grid = np.linspace(x0[j], max(x0[j] / n_points, 1e-3), n_points)[1:]
    last_c = x0[j]
    u = np.append(np.delete(x0, j), 1.0)
    slope = np.zeros(sys.d)  # d(u)/d(x_j), for the continuation predictor

    def solve_step(c_from, u_from, sl, c_to, depth=0):
        dc = c_to - c_from
        seed = u_from + sl * dc
        u_new, res = _newton_pinned(sys, j, c_to, seed)
        if res <= FP_RESIDUAL_TOL and np.max(np.abs(u_new - seed)) <= max(0.06, 12.0 * abs(dc)):
            return u_new
        if depth >= 6:
            return None
        mid = 0.5 * (c_from + c_to)
        u_mid = solve_step(c_from, u_from, sl, mid, depth + 1)
        if u_mid is None:
            return None
        return solve_step(mid, u_mid, (u_mid - u_from) / (mid - c_from), c_to, depth + 1)

    for c in grid:
        u_try = solve_step(last_c, u, slope, c)
        if u_try is None:
            log.info("curve tracing: Newton diverged at x%d=%g; point skipped", j + 1, c)
            continue
        if u_try[-1] > 1.0 + 1e-6 or u_try[-1] <= 0.0:
            return  # branch left the parameter range
        yield np.insert(u_try[:-1], j, c), min(u_try[-1], 1.0)
        slope = (u_try - u) / (c - last_c)
        u, last_c = u_try, c


def trace_fixed_point_curve(sys: SystemDefinition, n_points: int = 200) -> list[FixedPointRecord]:
    """Trace the fixed-point branch through the all-ones limit at eps=1.

    Continuation in any dimension: the largest component of the eps=1
    endpoint is swept down on an n_points grid while Newton solves for the
    other components and eps, so the curve runs down the stable side to the
    fold (the BP threshold) and back up the unstable side until eps leaves
    (0, 1]. Points that fail the fixed-point record checks are left out.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    x_star = iterate_limit(sys, sys.ones(), 1.0).limit
    if np.max(x_star) < 1e-9:
        log.warning("trace_fixed_point_curve: all-ones limit at eps=1 is zero; empty curve")
        return []
    records = [_make_record(sys, x, eps) for x, eps in _branch_points(sys, x_star, n_points)]
    records = [r for r in records if r is not None]
    if not records:
        log.warning("trace_fixed_point_curve: empty output")
    return records


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------


@dataclass
class ThresholdReport:
    system: str
    bp_threshold: float
    potential_threshold: float
    maxwell_threshold: float
    energy_gap_curve: list = field(default_factory=list)  # (eps, gap) pairs
    tolerances: dict = field(default_factory=dict)
    enumeration: str = "heuristic"

    def validate(self):
        tol = self.tolerances.get("bisect_tol", BISECT_TOL)
        if self.bp_threshold > self.potential_threshold + 2 * tol:
            raise ValueError(
                f"threshold ordering violated: bp {self.bp_threshold} > "
                f"potential {self.potential_threshold}"
            )
        if abs(self.potential_threshold - self.maxwell_threshold) > 2 * tol:
            raise ValueError(
                f"potential threshold {self.potential_threshold} and maxwell "
                f"threshold {self.maxwell_threshold} disagree beyond 2*tol"
            )


def threshold_report(sys: SystemDefinition, gap_grid=None, tol: float = BISECT_TOL) -> ThresholdReport:
    """Compute all three thresholds and an energy-gap curve."""
    bp = bp_threshold(sys, tol)
    pot = potential_threshold(sys, tol)
    mx = maxwell_threshold(sys, tol)
    if gap_grid is None:
        lo = max(bp - 0.02, 0.02)
        gap_grid = np.linspace(lo, min(1.0, pot + 0.1), 13)
    curve = [(float(e), float(energy_gap(sys, float(e)))) for e in gap_grid]
    rep = ThresholdReport(
        system=sys.name,
        bp_threshold=bp,
        potential_threshold=pot,
        maxwell_threshold=mx,
        energy_gap_curve=curve,
        tolerances={
            "bisect_tol": tol,
            "zero_tol": ZERO_TOL,
            "fp_residual_tol": FP_RESIDUAL_TOL,
            "fp_gradient_tol": FP_GRADIENT_TOL,
        },
    )
    rep.validate()
    return rep
