"""Vector admissible systems and the single-system recursion.

A system is the pair of update maps (bit_update, check_update) on [0,1]^d
together with the scalar fields (bit_energy, check_energy) whose gradients
reproduce the maps through a positive diagonal weight vector:

    d/dx bit_energy(x; eps) = bit_update(x; eps) * weights   (componentwise)
    d/dx check_energy(x)    = check_update(x)    * weights

The recursion is x <- bit_update(check_update(x); eps). All evaluators are
batch-aware: they accept arrays of shape (..., d), and eps is either a scalar
shared by every row or an array that broadcasts against x.shape[:-1], giving
each row its own channel parameter.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

log = logging.getLogger("saturate")

OVERSHOOT_TOL = 1e-14
MONO_SLACK = 1e-12
DEFAULT_ITER_TOL = 1e-10
DEFAULT_MAX_ITER = 100000
# steps between period-2 cycle checks in the batch iteration
CYCLE_CHECK_EVERY = 64
# central-difference step of verify_admissible's gradient checks, and the step
# of the lemma battery's differences of the closed-form potential
# (stationary_fixed_points, zero_state_stationary, gradient_orthogonality)
FD_STEP = 1e-6
GRAD_REL_TOL = 1e-5  # relative error those checks allow
# how far apart the members of one partition class may map a class-constant
# state: their products take the same factors in different orders
PARTITION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SystemDefinition:
    """A vector admissible system with closed-form potentials.

    The scalar channel parameter eps is the only free parameter; when the
    underlying model has a vector of channel parameters, the chosen path
    eps -> e(eps) is baked into bit_update/bit_energy at construction.
    """

    d: int
    weights: np.ndarray
    # eps is a float or an array broadcasting against x.shape[:-1]
    bit_update: Callable[[np.ndarray, "float | np.ndarray"], np.ndarray]
    check_update: Callable[[np.ndarray], np.ndarray]
    bit_energy: Callable[[np.ndarray, "float | np.ndarray"], np.ndarray]
    check_energy: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    # False when the model genuinely keeps erasures alive at eps=0 (two-user
    # systems with surviving cross terms); the zero-parameter boundary checks
    # are then informational.
    zero_param_exact: bool = True
    # the class of each component, in 0..n-1, under a partition that both maps
    # keep: a state constant on every class maps to one (make_protograph
    # finds it by colour refinement); None when the system declares none
    partition: Optional[np.ndarray] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if w.shape != (self.d,):
            raise ValueError(f"weights must have shape ({self.d},)")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        zero = np.zeros(self.d)
        for label, val in (
            ("bit_update(0; 0.7)", self.bit_update(zero, 0.7)),
            ("check_update(0)", self.check_update(zero)),
        ):
            if np.max(np.abs(val)) > 1e-12:
                raise ValueError(f"{label} must vanish, got {val}")
        for label, val in (
            ("bit_energy(0; 0.7)", self.bit_energy(zero, 0.7)),
            ("check_energy(0)", self.check_energy(zero)),
        ):
            if abs(float(val)) > 1e-12:
                raise ValueError(f"{label} must vanish, got {val}")
        if self.partition is not None:
            self._check_partition()

    def _check_partition(self):
        """Refuse a partition unless both maps keep a class-constant probe state class-constant.

        So a dataclasses.replace whose maps break the symmetry is refused,
        rather than keeping a partition that no longer holds.
        """
        part = np.asarray(self.partition)
        n = int(part.max()) + 1 if part.size else 0
        if (part.shape != (self.d,) or not np.issubdtype(part.dtype, np.integer)
                or set(part.tolist()) != set(range(n))):
            raise ValueError(f"partition must give each of the {self.d} components a class "
                             f"in 0..n-1, every class used; got {part}")
        object.__setattr__(self, "partition", part)
        reps = _class_representatives(part)
        probe = np.linspace(0.25, 0.75, n)[part]
        for label, val in (
            ("bit_update(.; 0.7)", self.bit_update(probe, 0.7)),
            ("check_update", self.check_update(probe)),
        ):
            if np.max(np.abs(val - val[reps][part])) > PARTITION_TOL:
                raise ValueError(f"{label} does not keep the partition {part.tolist()}: "
                                 f"a class-constant state maps to {val}")

    def ones(self) -> np.ndarray:
        return np.ones(self.d)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.d)


def _class_representatives(partition: np.ndarray) -> np.ndarray:
    """The first component of each class of partition, in class order."""
    return np.argmax(partition == np.arange(partition.max() + 1)[:, None], axis=-1)


@dataclass
class IterationResult:
    limit: np.ndarray
    iterations: int
    converged: bool
    monotone_ok: bool = True
    path: Optional[np.ndarray] = None  # iterates, only when requested


def _check_eps(eps) -> None:
    """Raise unless every channel parameter in eps (scalar or array) lies in [0, 1]."""
    eps_arr = np.asarray(eps, dtype=float)
    if not np.all((eps_arr >= 0.0) & (eps_arr <= 1.0)):
        raise ValueError("eps outside [0,1]")


def _check_state(sys: SystemDefinition, x) -> np.ndarray:
    """x as a float array; raises unless its last axis has length d and it lies in [0,1]^d."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != sys.d:
        raise ValueError(f"state has shape {x.shape}; the system has dimension {sys.d}")
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails too
        raise ValueError("state outside [0,1]^d")
    return x


def _central_difference(fn, x, h: float, axes=slice(None)) -> np.ndarray:
    """Central differences of fn at x along the coordinates axes, in one batched call.

    x has shape (..., d) and fn maps a (..., d) array to an (..., *out) array.
    Returns the (..., k, *out) array, k the number of axes, whose
    [..., i, ...] slice is (fn(x + h e_j) - fn(x - h e_j)) / 2h for j the
    i-th of axes (by default every coordinate).
    """
    x = np.asarray(x, dtype=float)
    eye = np.eye(x.shape[-1])[axes] * h
    return (fn(x[..., None, :] + eye) - fn(x[..., None, :] - eye)) / (2.0 * h)


def _step_raw(sys: SystemDefinition, x: np.ndarray, eps) -> np.ndarray:
    """One recursion step without validation; clamps rounding overshoot."""
    # the method forms here and in the loops below: np.clip and np.max add a
    # few us of dispatch per call, which the one-row steps pay thousands of times
    return sys.bit_update(sys.check_update(x), eps).clip(0.0, 1.0)


def step(sys: SystemDefinition, x, eps) -> np.ndarray:
    """One recursion step with domain validation.

    eps is a scalar or an array of per-row channel parameters that
    broadcasts against x.shape[:-1] without enlarging it. Raises if the
    inputs leave [0,1] or the un-clamped update leaves [0,1]^d by more than
    rounding noise, which signals a broken system.
    """
    x = _check_state(sys, x)
    eps_arr = np.asarray(eps, dtype=float)
    try:
        fits = np.broadcast_shapes(eps_arr.shape, x.shape[:-1]) == x.shape[:-1]
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"eps of shape {eps_arr.shape} does not broadcast against "
                         f"the batch shape {x.shape[:-1]}")
    _check_eps(eps_arr)
    raw = sys.bit_update(sys.check_update(x), eps)
    if np.min(raw) < -OVERSHOOT_TOL or np.max(raw) > 1.0 + OVERSHOOT_TOL:
        raise ValueError(
            f"update left [0,1]^d by more than {OVERSHOOT_TOL}: "
            f"min {np.min(raw)}, max {np.max(raw)} (broken system definition)"
        )
    return np.clip(raw, 0.0, 1.0)


def _classify_direction(delta: np.ndarray) -> np.ndarray:
    up = np.all(delta >= -MONO_SLACK, axis=-1)
    down = np.all(delta <= MONO_SLACK, axis=-1)
    return np.where(up, 1, np.where(down, -1, 0)).astype(np.int8)


def _iterate(sys, X, eps, tol, max_iter, observe=None, settle=None):
    """The batch loop behind iterate_batch and iterate_limit (rules in iterate_batch).

    observe(delta, X), when given, runs after every step with that step's raw
    change, before the cycle exit zeroes any row, and the new iterates.

    settle(rows, X, delta), when given, runs two steps after every cycle
    check, once that check's suspects are confirmed or cleared. rows holds
    the indices of the rows still in the stop test; it returns a bool mask
    over them of the rows whose outcome the caller now knows. Settled rows,
    like cycled ones, leave the stop test, so the loop also ends once every
    row is settled or cycled. They are still stepped.
    """
    X = np.array(X, dtype=float)  # a state in [0,1]^d, checked by the callers
    cycled = np.zeros(X.shape[0], bool)
    left_out = None  # the rows out of the stop test (cycled or settled), once there are any
    # period-2 detection: row sums two steps before a check, then the rows
    # a check suspects and their iterates at the check
    fingerprint = suspects = snapshot = None
    it = 0
    while it < max_iter:
        Xn = _step_raw(sys, X, eps)
        delta = Xn - X
        X = Xn
        it += 1
        if observe is not None:
            observe(delta, X)
        phase = it % CYCLE_CHECK_EVERY
        if phase == CYCLE_CHECK_EVERY - 2:
            fingerprint = X.sum(axis=-1)
        elif phase == 0:
            moved = np.abs(delta).max(axis=-1) > tol
            suspects = np.flatnonzero(moved & ~cycled & (X.sum(axis=-1) == fingerprint))
            snapshot = X[suspects]
        elif phase == 2 and it > CYCLE_CHECK_EVERY:
            # back where it was two steps ago, and not at a fixed point
            back = np.all(X[suspects] == snapshot, axis=-1)
            moving = np.abs(delta[suspects]).max(axis=-1) > tol
            cycled[suspects[back & moving]] = True
            out = cycled.copy() if left_out is None else left_out | cycled
            if settle is not None:
                rows = np.flatnonzero(~out)
                if len(rows):
                    out[rows[settle(rows, X, delta)]] = True
            if out.any():
                left_out = out
        if left_out is not None:
            delta[left_out] = 0.0
        if np.abs(delta).max() <= tol:
            return X, it, not cycled.any()
    return X, it, False


def iterate_batch(sys: SystemDefinition, X, eps, max_iter: int = DEFAULT_MAX_ITER):
    """Iterate each row of X to the recursion limit.

    Returns (limits, iterations, converged). The batch keeps no per-row
    monotonicity record; iterate_limit checks that along its one trajectory.

    eps is a scalar or an array of per-row channel parameters broadcasting
    against X.shape[:-1]. The stop rule is the same either way: the whole
    batch stops together, once the sup-norm change over all rows not in a
    period-2 cycle drops to tol = DEFAULT_ITER_TOL, so a row may run past the
    step at which it would have stopped alone. From all-ones the iterates of
    an admissible system are componentwise non-increasing, so those extra
    steps only bring such a row closer to its limit.

    A row in an exact period-2 cycle never meets the sup-norm test, so it
    would hold the whole batch until max_iter. Every CYCLE_CHECK_EVERY steps
    (at step t) the rows that moved by more than tol on the last step and
    whose row sum equals their row sum at step t-2 become suspects; a suspect
    whose iterate at step t+2 equals, bit for bit, its iterate at step t is
    in a period-2 cycle and stays in it. Cycled rows no longer count in the
    convergence test, the batch stops once every other row has converged,
    and converged is then False. Iterates are never altered: every returned
    row is the plain recursion's iterate after the returned number of steps,
    so a batch without cycles gives the same limits and iteration count as a
    loop without the check. Raises if an eps lies outside [0, 1] or a row
    of X outside [0,1]^d, or if X's rows are not d long.
    """
    _check_eps(eps)
    return _iterate(sys, _check_state(sys, X), eps, DEFAULT_ITER_TOL, max_iter)


def iterate_limit(sys: SystemDefinition, x0, eps: float, tol: float = DEFAULT_ITER_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, keep_path: bool = False) -> IterationResult:
    """Run the recursion from x0 until the sup-norm step change drops below tol.

    A start in an exact period-2 cycle stops early with converged False (the
    rule is in iterate_batch); iterations < max_iter tells it from a spent
    budget. monotone_ok says whether no step after the first moved against
    the first step's direction by more than MONO_SLACK; it is checked step by
    step, without storing the trajectory. Raises if eps lies outside [0, 1]
    or x0 is not a state in [0,1]^d.
    """
    _check_eps(eps)
    x0 = _check_state(sys, x0).reshape(1, sys.d)
    path = [x0] if keep_path else None
    direction = None  # of the first step: 1 up, -1 down, 0 neither
    mono = True

    def observe(delta, X):
        nonlocal direction, mono
        if direction is None:
            direction = int(_classify_direction(delta)[0])
        elif (direction == 1 and np.any(delta < -MONO_SLACK)) or (
                direction == -1 and np.any(delta > MONO_SLACK)):
            mono = False
        if keep_path:
            path.append(X)

    X, it, conv = _iterate(sys, x0, eps, tol, max_iter, observe)
    if not conv and it < max_iter:
        log.warning("iterate_limit: period-2 cycle after %d iterations (eps=%g)", it, eps)
    elif not conv:
        log.warning("iterate_limit: no convergence after %d iterations (eps=%g)", it, eps)
    return IterationResult(
        limit=X[0],
        iterations=it,
        converged=bool(conv),
        monotone_ok=mono,
        path=np.concatenate(path, axis=0) if keep_path else None,
    )


# ---------------------------------------------------------------------------
# admissibility verification
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    condition: str
    witness: dict
    detail: str


@dataclass
class AdmissibilityReport:
    violations: list = field(default_factory=list)
    informational: list = field(default_factory=list)
    smoothness_max_discrepancy: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_admissible(sys: SystemDefinition, n_samples: int = 1000,
                      seed: int = 0) -> AdmissibilityReport:
    """Sample-based check of the admissibility conditions.

    Monotonicity in the state, strict growth in eps, boundary conditions,
    and the gradient-consistency identities are tested at n_samples random
    points. Smoothness cannot be certified numerically; a finite-difference
    stability figure is attested in the report instead.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    rep = AdmissibilityReport()
    d = sys.d

    def add(cond, witness, detail, info=False):
        v = Violation(cond, witness, detail)
        (rep.informational if info else rep.violations).append(v)

    # (ii) monotone in the state, for both maps
    U = rng.random((n_samples, d))
    V = rng.random((n_samples, d))
    lo, hi = np.minimum(U, V), np.maximum(U, V)
    g_lo, g_hi = sys.check_update(lo), sys.check_update(hi)
    bad = np.any(g_lo > g_hi + MONO_SLACK, axis=-1)
    for i in np.flatnonzero(bad)[:3]:
        add("monotone_check_update", {"x": lo[i].tolist(), "y": hi[i].tolist()},
            "check_update not non-decreasing")
    for e in (0.25, 0.75, 1.0):
        f_lo, f_hi = sys.bit_update(lo, e), sys.bit_update(hi, e)
        bad = np.any(f_lo > f_hi + MONO_SLACK, axis=-1)
        for i in np.flatnonzero(bad)[:3]:
            add("monotone_bit_update", {"x": lo[i].tolist(), "y": hi[i].tolist(), "eps": e},
                "bit_update not non-decreasing in the state")

    # (iii) strictly increasing in eps away from the origin; strictness is
    # certified by a margin somewhere, non-decrease everywhere
    X = rng.random((n_samples, d)) * 0.96 + 0.02
    # include axis points: exactly one coordinate active
    for k in range(d):
        ax = np.zeros((8, d))
        ax[:, k] = np.linspace(0.1, 0.9, 8)
        X = np.concatenate([X, ax], axis=0)
    # strictness is vacuous at states whose bit update vanishes identically in
    # eps (no bit column is driven there); such states are never nontrivial
    # fixed points, which is where the property is used
    active = np.max(np.abs(sys.bit_update(X, 1.0)), axis=-1) > 1e-15
    for a, b in [(0.2, 0.6), (0.5, 0.9), (0.1, 1.0)]:
        fa, fb = sys.bit_update(X, a), sys.bit_update(X, b)
        diff = fb - fa
        bad = np.any(diff < -MONO_SLACK, axis=-1)
        for i in np.flatnonzero(bad)[:3]:
            add("strict_eps", {"x": X[i].tolist(), "eps": (a, b)},
                "bit_update decreased with eps")
        weak = active & (np.max(diff, axis=-1) <= MONO_SLACK)
        for i in np.flatnonzero(weak)[:3]:
            add("strict_eps", {"x": X[i].tolist(), "eps": (a, b)},
                "no component strictly increased with eps")

    # (iv) boundary conditions at the zero state (always required; the check
    # side is enforced when the system is constructed)
    zero = np.zeros(d)
    for e in (0.0, 0.3, 1.0):
        if np.max(np.abs(sys.bit_update(zero, e))) > 1e-12:
            add("zero_state", {"eps": e}, "bit_update(0; eps) != 0")
        if abs(float(sys.bit_energy(zero, e))) > 1e-12:
            add("zero_state", {"eps": e}, "bit_energy(0; eps) != 0")

    # (iv) boundary conditions at eps=0; informational for models whose
    # erasure mechanism survives a perfect channel
    probe = rng.random((32, d))
    f0 = sys.bit_update(probe, 0.0)
    F0 = np.atleast_1d(sys.bit_energy(probe, 0.0))
    worst = max(float(np.max(np.abs(f0))), float(np.max(np.abs(F0))))
    if worst > 1e-12:
        i = int(np.argmax(np.max(np.abs(f0), axis=-1)))
        add("zero_parameter", {"x": probe[i].tolist(), "max_residual": worst},
            "update/energy do not vanish at eps=0",
            info=not sys.zero_param_exact)
        if not sys.zero_param_exact:
            rep.notes.append(
                "zero-parameter boundary conditions do not hold for this model "
                "(declared at construction); reported informationally"
            )

    # gradient consistency: d bit_energy = bit_update * weights, and same on
    # the check side
    inner = rng.random((min(n_samples, 256), d)) * (1.0 - 4 * FD_STEP) + 2 * FD_STEP
    sides = [("bit", {"eps": e}, lambda Z, e=e: sys.bit_energy(Z, e),
              lambda Z, e=e: sys.bit_update(Z, e)) for e in (0.35, 0.8)]
    sides.append(("check", {}, sys.check_energy, sys.check_update))
    for side, at, energy, update in sides:
        fd = _central_difference(energy, inner, FD_STEP)
        target = update(inner) * sys.weights
        bad = np.abs(fd - target) > GRAD_REL_TOL * np.maximum(np.abs(target), 1e-2)
        for i in np.flatnonzero(np.any(bad, axis=-1))[:3]:
            add(f"gradient_{side}", {"x": inner[i].tolist(), **at,
                                     "fd": fd[i].tolist(), "expected": target[i].tolist()},
                f"finite-difference gradient of {side}_energy mismatches {side}_update*weights")

    # (i) smoothness: attested by finite-difference stability, not proven
    sample = inner[:64]
    fd_h = _central_difference(lambda Z: sys.bit_energy(Z, 0.6), sample, FD_STEP)
    fd_h2 = _central_difference(lambda Z: sys.bit_energy(Z, 0.6), sample, FD_STEP / 2)
    rep.smoothness_max_discrepancy = float(
        np.max(np.abs(fd_h - fd_h2) / np.maximum(np.abs(fd_h2), 1e-2))
    )
    rep.notes.append(
        f"twice continuous differentiability attested, not proven: finite-difference "
        f"stability {rep.smoothness_max_discrepancy:.3e} across halved steps"
    )
    return rep
