"""Spatially-coupled recursions, the coupled potential, and width bounds.

A chain couples 2L+1 bit-side systems (positions -L..L) with 2L+w check-side
systems (positions -L..L+w-1) through sliding-window averages of width w.
States hold only the check-side rows; everything outside is implicitly zero.
The step and the window operators also take a (k, n, d) stack of k chains,
which is how coupled_bp_threshold iterates the probes of a bisection pass.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .potential import (
    BISECT_TOL,
    ZERO_TOL,
    _gradient,
    _lattice_rows,
    _threshold_bisect,
    check_jacobian,
    energy_gap,
    potential,
)
from .system import (
    DEFAULT_ITER_TOL,
    FD_STEP,
    MONO_SLACK,
    OVERSHOOT_TOL,
    SystemDefinition,
    _central_difference,
    _check_eps,
    _step_raw,
    iterate_limit,
)

log = logging.getLogger("saturate")

COUPLED_MAX_ITER = 200000
# bisection levels that one coupled_bp_threshold pass probes (2**5 - 1 = 31
# chains per pass), chosen by timing depths 1, 3 and 5 at L=32, w=3
COUPLED_BISECT_DEPTH = 5
HESSIAN_SAMPLES = 10000  # lattice size cap and uniform sample count of hessian_bound
HESSIAN_PER_AXIS = 9
HESSIAN_FD_STEP = 1e-5
HESSIAN_CHUNK = 512  # points whose (d, d, d) difference arrays are held at once


@dataclass(frozen=True)
class CouplingSpec:
    """Chain geometry: half-width L, window w, optional one-sided pinning."""

    L: int
    w: int
    one_sided: bool = False

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        if self.w < 1:
            raise ValueError("window size w must be >= 1")

    @property
    def i0(self) -> int:
        return (self.w - 1) // 2

    @property
    def n_rows(self) -> int:
        return 2 * self.L + self.w

    @property
    def n_bit_rows(self) -> int:
        return 2 * self.L + 1

    @property
    def i0_row(self) -> int:
        # row index of position i0 (rows are positions -L..L+w-1)
        return self.L + self.i0

    def positions(self) -> np.ndarray:
        return np.arange(-self.L, self.L + self.w)

    def matrix(self) -> np.ndarray:
        """The dense (2L+1) x (2L+w) window-averaging operator."""
        A = np.zeros((self.n_bit_rows, self.n_rows))
        for i in range(self.n_bit_rows):
            A[i, i : i + self.w] = 1.0 / self.w
        return A


@dataclass
class CoupledState:
    rows: np.ndarray  # (2L+w, d)
    spec: CouplingSpec

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape[0] != self.spec.n_rows:
            raise ValueError(f"state needs {self.spec.n_rows} rows, got {rows.shape[0]}")
        if rows.min() < -OVERSHOOT_TOL or rows.max() > 1.0 + OVERSHOOT_TOL:
            raise ValueError("coupled state outside [0,1]")
        self.rows = np.clip(rows, 0.0, 1.0)

    @classmethod
    def ones(cls, spec: CouplingSpec, d: int) -> "CoupledState":
        return cls(rows=np.ones((spec.n_rows, d)), spec=spec)

    @classmethod
    def zeros(cls, spec: CouplingSpec, d: int) -> "CoupledState":
        return cls(rows=np.zeros((spec.n_rows, d)), spec=spec)

    def max_entry(self) -> float:
        return float(self.rows.max())


def _tie(rows: np.ndarray, i0_row: int) -> np.ndarray:
    """Pin the rows above i0_row to row i0_row, along the row axis -2."""
    rows[..., i0_row + 1 :, :] = rows[..., i0_row : i0_row + 1, :]
    return rows


def _coupled_step_rows(sys: SystemDefinition, rows: np.ndarray, w: int, eps) -> np.ndarray:
    """Matrix-form update A^T f(A g(X); eps) via exact sliding-window sums.

    rows is one chain (n, d) or a stack of chains (k, n, d); with a stack,
    eps is a scalar or a (k, 1) array of per-chain channel parameters.
    """
    G = sys.check_update(rows)
    Y = sys.bit_update(kernels.window_mean_forward(G, w), eps)
    return kernels.window_mean_adjoint(Y, w).clip(0.0, 1.0)


def _chain_step(sys: SystemDefinition, spec: CouplingSpec, rows: np.ndarray, eps) -> np.ndarray:
    """One update of a chain, or a stack of chains, of geometry spec.

    On a one-sided spec the new rows above i0 are pinned to the new row i0.
    """
    new = _coupled_step_rows(sys, rows, spec.w, eps)
    if spec.one_sided:
        _tie(new, spec.i0_row)
    return new


def coupled_step(sys: SystemDefinition, X: CoupledState, eps: float) -> CoupledState:
    """One parallel update of every position of the chain X.spec describes.

    On a one-sided spec the rows above i0 are pinned to row i0 before and
    after the update, as coupled_limit iterates that chain; otherwise this is
    the basic chain's update.
    """
    rows = X.rows
    if X.spec.one_sided:
        rows = _tie(rows.copy(), X.spec.i0_row)
    return CoupledState(rows=_chain_step(sys, X.spec, rows, eps), spec=X.spec)


def coupled_step_indexform(sys: SystemDefinition, X: CoupledState, eps: float) -> CoupledState:
    """Positionwise form of the coupled update, for cross-checking.

    Window terms whose bit-side position falls outside the chain are absent
    (outside positions are perfectly resolved), which is what makes this
    agree with the matrix form to rounding accuracy.
    """
    spec = X.spec
    L, w = spec.L, spec.w
    rows = X.rows
    d = rows.shape[1]
    out = np.zeros_like(rows)
    for i_pos in range(-L, L + w):
        acc = np.zeros(d)
        for k in range(w):
            if not -L <= i_pos - k <= L:
                continue  # no bit-side system there
            inner = np.zeros(d)
            for j in range(w):
                inner += sys.check_update(rows[i_pos + j - k + L])
            acc += sys.bit_update(inner / w, eps)
        out[i_pos + L] = acc / w
    return CoupledState(rows=np.clip(out, 0.0, 1.0), spec=spec)


@dataclass
class CoupledRunReport:
    iterations: int
    converged: bool
    sup_change: float
    is_zero: bool
    monotone_ok: bool
    snapshots: list = field(default_factory=list)  # (iteration, rows) pairs


def _iterate_chains(sys: SystemDefinition, spec: CouplingSpec, rows: np.ndarray, eps,
                    tol: float, max_iter: int, observe=None):
    """Iterate a (k, n, d) stack of chains, each until its own update stalls.

    eps is a scalar or a (k, 1) array of per-chain channel parameters. A
    chain leaves the stack on the step at which its sup-norm change drops to
    tol, so it stops on the same step, in the same state, as it would alone;
    the others go on stepping until they stall or max_iter steps are spent.
    observe(change, X), when given, runs after every step with that step's
    change and the new iterates of the chains still in the stack.

    Returns (rows, iterations, sup_change): the final (k, n, d) stack, and
    per chain its step count and its last sup-norm change (inf for a chain
    that took no step).
    """
    k = rows.shape[0]
    out = rows.copy()
    iterations = np.zeros(k, dtype=int)
    sup_change = np.full(k, math.inf)
    live = np.arange(k)
    X = out
    per_chain_eps = np.ndim(eps) > 0
    it = 0
    while it < max_iter and live.size:
        new = _chain_step(sys, spec, X, eps)
        change = new - X
        X = new
        it += 1
        if observe is not None:
            observe(change, X)
        # the method form: np.max(x, axis=...) adds a few us of dispatch per step
        delta = np.abs(change).max(axis=(-2, -1))
        stalled = (delta <= tol) | (it == max_iter)
        if stalled.any():
            done = live[stalled]
            out[done] = X[stalled]
            iterations[done] = it
            sup_change[done] = delta[stalled]
            keep = ~stalled
            live, X = live[keep], X[keep]
            if per_chain_eps:
                eps = eps[keep]
    return out, iterations, sup_change


def coupled_limit(sys: SystemDefinition, spec: CouplingSpec, eps: float,
                  tol: float = DEFAULT_ITER_TOL, max_iter: int = COUPLED_MAX_ITER,
                  record_every: int = 0):
    """Iterate the coupled chain from all-ones until the update stalls.

    Iterates are checked componentwise non-increasing. record_every > 0
    stores state snapshots that many iterations apart (plus initial and
    final). eps must lie in [0, 1]. Returns (CoupledState, CoupledRunReport).
    """
    _check_eps(eps)
    start = np.ones((1, spec.n_rows, sys.d))
    snapshots = [(0, start[0].copy())] if record_every > 0 else []
    steps = 0
    mono_ok = True

    def observe(change, X):
        nonlocal steps, mono_ok
        steps += 1
        if (change > MONO_SLACK).any():
            mono_ok = False
        if record_every > 0 and steps % record_every == 0:
            snapshots.append((steps, X[0].copy()))

    rows, iterations, sup_change = _iterate_chains(sys, spec, start, eps, tol, max_iter, observe)
    rows, it_total, delta = rows[0], int(iterations[0]), float(sup_change[0])
    converged = delta <= tol
    if not converged:
        log.warning("coupled_limit: no convergence after %d iterations (eps=%g)", it_total, eps)
    if record_every > 0 and snapshots[-1][0] != it_total:
        snapshots.append((it_total, rows.copy()))
    state = CoupledState(rows=rows, spec=spec)
    report = CoupledRunReport(
        iterations=it_total,
        converged=bool(converged),
        sup_change=delta,
        is_zero=bool(rows.max() < ZERO_TOL),
        monotone_ok=mono_ok,
        snapshots=snapshots,
    )
    return state, report


# ---------------------------------------------------------------------------
# coupled potential and shift identities
# ---------------------------------------------------------------------------


def coupled_potential(sys: SystemDefinition, X: CoupledState, eps: float) -> float:
    """Tr(g(X) D X^T) - sum_i check_energy(x_i) - sum_i bit_energy([A g(X)]_i; eps)."""
    rows = X.rows
    G = sys.check_update(rows)
    term = float(np.sum(G * (rows * sys.weights)))
    ge = float(np.sum(sys.check_energy(rows)))
    Y = kernels.window_mean_forward(G, X.spec.w)
    be = float(np.sum(sys.bit_energy(Y, eps)))
    return term - ge - be


def coupled_gradient(sys: SystemDefinition, X: CoupledState, eps: float) -> np.ndarray:
    """Row i holds (x_i - [A^T f(A g(X); eps)]_i) D g'(x_i)."""
    return _gradient(sys, X.rows, _coupled_step_rows(sys, X.rows, X.spec.w, eps))


def shift_rows(rows: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rows)
    out[1:] = rows[:-1]
    return out


def shift(X: CoupledState) -> CoupledState:
    """Down-shift: first row zero, row i takes row i-1."""
    return CoupledState(rows=shift_rows(X.rows), spec=X.spec)


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def verify_shift_lemmas(sys: SystemDefinition, X: CoupledState, eps: float) -> list[CheckOutcome]:
    """Numerical checks of the shift identities at a one-sided fixed point.

    (a) window-averaged rows move by at most 1/w under the shift;
    (b) shifting costs at least the single-system potential of the pinned row;
    (c) the pinned row climbs under the single-system map and its limit does
        not raise the potential;
    (d) the coupled potential is stationary along the shift direction SX - X.
    """
    spec = X.spec
    rows = X.rows
    checks = []

    # the state is window-generated (rows are zero-padded w-window sums of the
    # bit-side block), so the shift moves no entry by more than 1/w and the
    # 1-norm telescopes to the last row for a non-decreasing profile
    diff = shift_rows(rows) - rows
    bound = float(np.max(np.abs(diff)))
    l1 = float(np.sum(np.abs(diff)))
    l1_last = float(np.sum(np.abs(rows[-1])))
    checks.append(
        CheckOutcome(
            "shift_norm_bound",
            bound <= 1.0 / spec.w + 1e-12 and abs(l1 - l1_last) <= 1e-9,
            f"max |SX - X| = {bound:.3e} vs 1/w = {1.0 / spec.w:.3e}; "
            f"1-norm {l1:.6e} vs last row {l1_last:.6e}",
        )
    )

    x_i0 = rows[spec.i0_row]
    u_shift = coupled_potential(sys, shift(X), eps)
    u_base = coupled_potential(sys, X, eps)
    u_row = float(potential(sys, x_i0, eps))
    checks.append(
        CheckOutcome(
            "shift_energy",
            u_shift - u_base <= -u_row + 1e-8,
            f"U(SX)-U(X) = {u_shift - u_base:.6e} vs -U(x_i0) = {-u_row:.6e}",
        )
    )

    stepped = _step_raw(sys, x_i0, eps)
    climbs = bool(np.all(stepped >= x_i0 - MONO_SLACK))
    lim = iterate_limit(sys, x_i0, eps).limit
    u_lim = float(potential(sys, lim, eps))
    checks.append(
        CheckOutcome(
            "pinned_row_limit",
            climbs and u_row >= u_lim - 1e-8,
            f"x_i0 step climbs: {climbs}; U(x_i0) = {u_row:.6e} vs U(limit) = {u_lim:.6e}",
        )
    )

    # one-sided differences of the closed-form potential along SX - X,
    # (4U(X + h v) - U(X + 2h v) - 3U(X)) / 2h, independent of the update
    # residual that vanishes at any fixed point; X + t v stays in [0,1]
    def u_along(t):
        return coupled_potential(sys, CoupledState(rows=rows + t * diff, spec=spec), eps)

    slope = (4.0 * u_along(FD_STEP) - u_along(2.0 * FD_STEP) - 3.0 * u_base) / (2.0 * FD_STEP)
    checks.append(
        CheckOutcome(
            "gradient_orthogonality",
            abs(slope) <= 1e-6,
            f"<U'(X), SX - X> = {slope:.3e}",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# Hessian bound and the sufficient coupling width
# ---------------------------------------------------------------------------


def _sample_lattice(d: int, per_axis: int, cap: int) -> np.ndarray:
    if per_axis**d <= cap:
        pts = _lattice_rows(d, per_axis, cap)
    else:
        rng = np.random.default_rng(0)
        pts = rng.random((cap, d))
    corners = _lattice_rows(d, 2, 256)  # the first 256 corners of the cube
    return np.concatenate([pts, corners], axis=0)


def hessian_bound(sys: SystemDefinition) -> float:
    """Sampled bound on the coupled-potential Hessian norm.

    K = max(weights) * (g'_max + g''_max + 2 g'_max^2 f'_max) with the
    suprema estimated over a lattice plus the corners of the cube (where
    polynomial derivatives peak); f' is taken at eps=1 since the update grows
    with eps. A sampled estimate, not a certified supremum.
    """
    h = HESSIAN_FD_STEP
    g1 = g2 = f1 = -math.inf
    pts = _sample_lattice(sys.d, HESSIAN_PER_AXIS, HESSIAN_SAMPLES)
    for chunk in np.split(pts, range(HESSIAN_CHUNK, len(pts), HESSIAN_CHUNK)):
        Jg = check_jacobian(sys, chunk, h=h)
        g1 = max(g1, float(np.max(np.sum(np.abs(Jg), axis=-1))))
        # second derivatives of the check map: differences of the Jacobian,
        # [n, j, k, i] = d^2 g_k / dx_i dx_j
        Hg = _central_difference(lambda z: check_jacobian(sys, z, h=h), chunk, h)
        g2 = max(g2, float(np.max(np.sum(np.abs(Hg), axis=1))))  # max row sum over the j axis
        Jf = np.swapaxes(_central_difference(lambda z: sys.bit_update(z, 1.0), chunk, h), -1, -2)
        f1 = max(f1, float(np.max(np.sum(np.abs(Jf), axis=-1))))
    return float(np.max(sys.weights)) * (g1 + g2 + 2.0 * g1 * g1 * f1)


def min_coupling_width(sys: SystemDefinition, eps: float, gap: Optional[float] = None,
                       bound: Optional[float] = None) -> float:
    """The sufficient window width d*K/(2*DeltaE(eps)) for collapse to zero.

    Returns 0 when no nontrivial fixed points exist (any width suffices);
    raises when the energy gap is not positive (eps at or above the
    potential threshold).
    """
    if gap is None:
        gap = energy_gap(sys, eps)
    if math.isinf(gap):
        return 0.0
    if gap <= 0.0:
        raise ValueError(f"energy gap {gap} <= 0 at eps={eps}: width bound undefined")
    if bound is None:
        bound = hessian_bound(sys)
    return sys.d * bound / (2.0 * gap)


def coupled_bp_threshold(sys: SystemDefinition, L: int, w: int, tol: float = BISECT_TOL,
                         max_iter: int = COUPLED_MAX_ITER) -> float:
    """Largest eps at which the coupled chain from all-ones collapses to zero.

    The bisection runs in passes: each pass covers COUPLED_BISECT_DEPTH
    levels of the bisection tree and iterates one chain per probe eps in
    one stack. Every chain leaves the stack on the step at which its own
    update stalls, so each verdict is the one a single chain gives alone,
    and the result is the float the one-probe bisection returns. A pass
    lasts as long as its slowest chain, the probe nearest the coupled
    threshold, whose decoding front stalls there for many steps.

    A probe collapses when its chain ends with max below ZERO_TOL, as in
    bp_threshold. A probe still moving after max_iter steps is named in a
    warning; unless its chain is already below ZERO_TOL it counts as not
    collapsing, so near saturation the answer is budget-limited from below.
    Each pass logs every probe's eps, step count and verdict at debug level.
    """
    spec = CouplingSpec(L=L, w=w)

    def dies(eps: np.ndarray) -> np.ndarray:
        start = np.ones((len(eps), spec.n_rows, sys.d))
        rows, steps, sup_change = _iterate_chains(sys, spec, start, eps[:, None],
                                                  DEFAULT_ITER_TOL, max_iter)
        converged = sup_change <= DEFAULT_ITER_TOL
        verdict = np.max(rows, axis=(-2, -1)) < ZERO_TOL
        if log.isEnabledFor(logging.DEBUG):
            log.debug("coupled_bp_threshold pass: %s", ", ".join(
                f"(eps={e:.9g}, steps={s}, {'dies' if v else 'survives'})"
                for e, s, v in zip(eps, steps, verdict)))
        if not converged.all():
            log.warning("coupled_bp_threshold: %d of %d probes still moving after %d iterations "
                        "(iteration budget exhausted): eps = %s", np.count_nonzero(~converged),
                        len(eps), max_iter, ", ".join(f"{e:.9g}" for e in eps[~converged]))
        return verdict

    return _threshold_bisect(dies, tol, "coupled_bp_threshold", depth=COUPLED_BISECT_DEPTH)
