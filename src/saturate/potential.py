"""Single-system potential, fixed-point machinery, and the three thresholds."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .system import (
    DEFAULT_ITER_TOL,
    DEFAULT_MAX_ITER,
    SystemDefinition,
    _central_difference,
    _class_representatives,
    _iterate,
    _step_raw,
)

log = logging.getLogger("saturate")

FP_RESIDUAL_TOL = 1e-9
# a solved point with max at or below it is the zero state, and is not
# recorded. It is wider than ZERO_TOL, which decides verdicts, because a
# Newton solve that ends at the zero state stops short of it once its residual
# passes: on the (2,3) protograph [[1,1,1],[1,1,1]] at eps 0.499 such solves
# stop at max up to 7.2e-9, only 1.4x below ZERO_TOL
FP_ZERO_TOL = 1e-7
CLUSTER_RADIUS = 1e-6
ZERO_TOL = 1e-8
BISECT_TOL = 1e-6
BISECT_MAX_HALVINGS = 60
NEWTON_DAMPING = 0.5
NEWTON_MAX_ITER = 50
NEWTON_RES_TOL = 1e-12
NEWTON_FD_STEP = 1e-7  # central-difference step of the Newton Jacobians
# added to the diagonal of every Newton Jacobian: keeps fold-point solves finite
NEWTON_RIDGE = 1e-13
QUADRATURE_NODES = 64  # Gauss-Legendre nodes of potential_quadrature
FP_GRID = 7  # per-axis points of the d=2 seed grid of fixed_points
FP_MAX_SEEDS = 256  # lattice rows that seed fixed_points in other dimensions
# bisection levels in one batched pass of bp_threshold's fallback and of
# coupled_bp_threshold (2**5 - 1 = 31 eps rows), chosen by timing depths 1, 3
# and 5 on coupled chains at L=32, w=3
BISECT_DEPTH = 5
# sub-solution candidates a bp_threshold pass tries per open row at each cycle
# check: the offsets 4**0, 4**1, ... of X_t - m |delta_t|
SUBSOLUTION_OFFSETS = 12
# grid points of the pinned component on each branch that maxwell_threshold and
# bp_threshold walk
BRANCH_POINTS = 50
# central-difference step of the null-vector equation v = J v in the bp fold solve
FOLD_FD_STEP = 1e-4
# box-component evaluations (boxes x d) after which _exclude gives up, and the
# rounding slack by which it widens each narrowed box
EXCLUDE_BUDGET = 2**17
EXCLUDE_SLACK = 1e-13


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


def _threshold_bisect(true_below, tol: float, name: str, depth: int = 1) -> float:
    """Bisect [0,1] for the edge of a predicate that holds below a threshold.

    true_below maps a 1-d array of eps values to a bool array of verdicts.
    One call evaluates every midpoint of the next depth bisection levels
    (2**depth - 1 of them, fewer where the tol or BISECT_MAX_HALVINGS stop
    prunes the tree), and the first call also holds 1.0 and 1e-9. The walk
    below is the one-probe loop, looking its verdicts up in the last call
    and calling again at the first midpoint that call lacks, so for a
    predicate that depends on eps alone the result is the same float at
    every depth. bp_threshold and potential_threshold walk it only as their fallbacks.
    """

    def probe(eps_values):
        # sorted(set()) rather than np.unique, which imports numpy.ma (about
        # 0.6 MB of resident memory) on first use
        eps = np.array(sorted(set(eps_values)), dtype=float)
        return dict(zip(eps.tolist(), np.asarray(true_below(eps), dtype=bool).tolist()))

    def midpoints(lo, hi, halvings):
        return _subtree_midpoints(lo, hi, min(depth, halvings), tol)

    lo, hi = 1e-9, 1.0
    verdict = probe([1.0, lo] + midpoints(lo, hi, BISECT_MAX_HALVINGS))
    if verdict[1.0]:
        return 1.0
    if not verdict[lo]:
        log.warning("%s: predicate already fails as eps -> 0+ (degenerate)", name)
        return 0.0
    for i in range(BISECT_MAX_HALVINGS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid not in verdict:
            verdict = probe(midpoints(lo, hi, BISECT_MAX_HALVINGS - i))
        if verdict[mid]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bp_threshold(sys: SystemDefinition, tol: float = BISECT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest eps at which the recursion from all-ones collapses to zero.

    A probe collapses when its limit has max below ZERO_TOL. An admissible
    system's update maps are monotone, so from all-ones the iterates fall
    towards the largest fixed point, and the threshold is the fold (the
    smallest eps) of the branch of largest fixed points. _bp_fold locates
    that fold, and its fixed point x, by a branch walk from the eps=1 limit.
    The answer is the fold when the probe at fold - tol/2 dies and the one
    at fold + tol/2 is certified to survive, so the threshold lies within
    tol/2 of it. The lower probe dies "excluded", with no pass, when
    _exclude leaves no box that may hold a fixed point with max >= ZERO_TOL,
    as the iterates fall to the largest one; else one pass iterates it. The
    maps increase in eps, so x is a sub-solution (below) at fold + tol/2,
    which one step checks in floats. Otherwise (no fold located, a verdict
    on the wrong side, or a spent budget) a warning names the failed side
    and the batched bisection below gives the answer. The fold is not the
    threshold when all-ones survives below it on another branch; the lower
    probe then survives and the bisection runs.

    A pass iterates one all-ones row per probe eps in one batch (eps is the
    per-row batch axis); a bisection pass covers BISECT_DEPTH levels of the
    bisection tree. A row survives once it holds a sub-solution, a Y <= X_t
    with step(Y) >= Y and max Y >= ZERO_TOL: then X_s >= Y at every later s.
    The candidates are Y = clip(X_t - m |delta_t|, 0, 1), with delta_t the
    last step's change and m = 4**0, ..., 4**(SUBSOLUTION_OFFSETS - 1), all
    rows' candidates in one batched step, tried at each cycle check of the
    batch loop. Certified rows leave the stop test, and the pass ends once
    every row is certified or the rows still open meet it; an open row then
    dies when its max is below ZERO_TOL. Each pass logs every probe's eps,
    verdict and how it was reached (certified or stop rule) at debug level,
    and the certification logs the fold, the walk length and the two
    verdicts with their hows.

    A system with a partition excludes on its quotient (_quotient), one
    component per class: the maps keep class-constant states class-constant,
    so the limit from all-ones, a fixed point in the class subspace, is the
    expansion of a fixed point of the quotient, and when none of those has
    max >= ZERO_TOL the lower probe dies. The fold and the pass stay on the
    full system.

    The batch stops together, so an open row may run past the step at which
    it would have stopped alone; those steps only move it closer to its
    limit. A verdict could differ from the one-probe loop's only if a row's
    step change fell below DEFAULT_ITER_TOL while its max was still at least
    ZERO_TOL and the extra steps then took it below ZERO_TOL. A pass that
    ends with open rows still moving (iteration budget spent, or rows in
    period-2 cycles) logs a warning naming their eps; such a row counts as
    not collapsing unless its max is already below ZERO_TOL.
    """
    fold, x, note = _bp_fold(sys, max_iter)
    if fold == 1.0:  # all-ones collapses at eps=1 already
        return 1.0
    if fold is not None:
        eps = np.clip([fold - tol / 2, fold + tol / 2], 1e-9, 1.0)
        q = _quotient(sys)
        dies, how = True, "excluded"
        if len(_exclude(q, q.ones(), eps[0], EXCLUDE_BUDGET)):
            (dies,), (how,) = _bp_pass(sys, eps[:1], max_iter)
        certified = np.all(_step_raw(sys, x, eps[1]) >= x) and x.max() >= ZERO_TOL
        log.debug("bp_threshold fold: eps=%.12g after %s; (eps=%.9g, %s, %s), (eps=%.9g, %s)",
                  fold, note, eps[0], "dies" if dies else "survives", how, eps[1],
                  "survives, certified" if certified else "no sub-solution")
        if dies and certified:
            return fold
        note = f"fold {fold:.9g} not certified, " + (
            f"survives ({how}) at eps={eps[0]:.9g} (below side)" if not dies else
            f"the fold point is no sub-solution at eps={eps[1]:.9g} (above side)")
    log.warning("bp_threshold: %s; bisecting", note)
    return _threshold_bisect(lambda eps: _bp_pass(sys, eps, max_iter)[0], tol,
                             "bp_threshold", depth=BISECT_DEPTH)


def _bp_fold(sys, max_iter: int):
    """(fold, x, note): the smallest eps on the branch of the all-ones limit at eps=1.

    The branch walk from that limit stops once eps has risen at two
    consecutive branch points. One _newton solve from the walk's lowest
    point then locates the fold on the extended system in u = (x, v, eps):
    x = step(x; eps), v = J v and sum(v) = 1, with J v the central
    difference of the step along v at FOLD_FD_STEP and v seeded at the unit
    vector of the pinned coordinate. The fold is accepted when the residual
    is at most FP_RESIDUAL_TOL and the pinned coordinate lies between the
    walk's neighbours of that point; x is then its fixed point, else None.
    note gives the walk length, or, with fold None, why no fold was located;
    fold 1.0 means all-ones dies at eps=1.
    """
    X, it, conv = _iterate(sys, sys.ones()[None], 1.0, DEFAULT_ITER_TOL, max_iter)
    if not conv:
        why = "period-2 cycle" if it < max_iter else "iteration budget exhausted"
        return None, None, (f"the eps=1 limit from all-ones still moves after {it} "
                            f"iterations ({why})")
    x0 = X[0]
    if x0.max() < ZERO_TOL:
        return 1.0, None, "all-ones collapses already at eps=1"
    walk = []
    for point in _branch_points(sys, x0, BRANCH_POINTS):
        walk.append(point)
        if len(walk) >= 3 and walk[-1][1] > walk[-2][1] > walk[-3][1]:
            break
    m = min(range(len(walk)), key=lambda k: walk[k][1])
    if not 0 < m < len(walk) - 1:
        return None, None, f"no interior minimum of eps on the walk of {len(walk)} branch points"
    j, d = int(np.argmax(x0)), sys.d

    def resid(u):
        x, v, eps = u[..., :d], u[..., d:-1], u[..., -1]
        h = FOLD_FD_STEP * v
        stepped = _step_raw(sys, np.stack([x, x + h, x - h], -2), eps[..., None])
        jv = (stepped[..., 1, :] - stepped[..., 2, :]) / (2.0 * FOLD_FD_STEP)
        return np.concatenate([x - stepped[..., 0, :], v - jv, v.sum(-1, keepdims=True) - 1.0], -1)

    x, eps = walk[m]
    u, res = _newton(resid, np.concatenate([x, np.eye(d)[j], [eps]]))
    a, b = walk[m + 1][0][j], walk[m - 1][0][j]
    if res <= FP_RESIDUAL_TOL and a <= u[j] <= b:
        return float(u[-1]), u[:d], f"{len(walk)} branch points"
    return None, None, (f"the fold solve failed: residual {res:.3g} at x{j + 1}={u[j]:.9g}, "
                        f"bracket [{a:.9g}, {b:.9g}]")


def _bp_pass(sys, eps: np.ndarray, max_iter: int):
    """One pass of bp_threshold: (dies, how) for the all-ones rows of eps.

    how names the way each verdict was reached: "certified" or "stop rule"
    (the rules are in bp_threshold).
    """
    offsets = 4.0 ** np.arange(SUBSOLUTION_OFFSETS)
    certified = np.zeros(len(eps), bool)

    def settle(rows, X, delta):
        X, delta = X[rows], delta[rows]
        Y = (X[:, None, :] - offsets[:, None] * np.abs(delta[:, None, :])).clip(0.0, 1.0)
        stepped = _step_raw(sys, Y.reshape(-1, sys.d), np.repeat(eps[rows], len(offsets)))
        sub = np.all(stepped.reshape(Y.shape) >= Y, axis=-1) & (Y.max(axis=-1) >= ZERO_TOL)
        cert = sub.any(axis=-1)
        certified[rows[cert]] = True
        return cert

    X, it, conv = _iterate(sys, np.ones((len(eps), sys.d)), eps, DEFAULT_ITER_TOL,
                           max_iter, settle=settle)
    verdict = ~certified & (np.max(X, axis=-1) < ZERO_TOL)
    how = np.where(certified, "certified", "stop rule")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("bp_threshold pass of %d steps: %s", it, ", ".join(
            f"(eps={e:.9g}, {'dies' if v else 'survives'}, {h})"
            for e, v, h in zip(eps, verdict, how)))
    if not conv:
        moving = ~certified & (_residual_sup(sys, X, eps) > DEFAULT_ITER_TOL)
        log.warning("bp_threshold: %d of %d probes still moving after %d iterations (%s): "
                    "eps = %s", np.count_nonzero(moving), len(eps), it,
                    "period-2 cycle exit" if it < max_iter else "iteration budget exhausted",
                    ", ".join(f"{e:.9g}" for e in eps[moving]))
    return verdict, how


def _quotient(sys: SystemDefinition) -> SystemDefinition:
    """sys on the class subspace of its partition, one component per class.

    The maps expand a class state to the full state, evaluate sys's maps
    there and read one representative per class; the weights are the class
    sums, so the energies, read on the expanded state, still have the maps
    as their weighted gradients. With no partition, or one class per
    component, the quotient is sys itself.
    """
    part = sys.partition
    if part is None or part.max() + 1 == sys.d:
        return sys
    reps = _class_representatives(part)
    return SystemDefinition(
        d=len(reps),
        weights=np.bincount(part, weights=sys.weights),
        bit_update=lambda y, eps: sys.bit_update(y[..., part], eps)[..., reps],
        check_update=lambda x: sys.check_update(x[..., part])[..., reps],
        bit_energy=lambda x, eps: sys.bit_energy(x[..., part], eps),
        check_energy=lambda x: sys.check_energy(x[..., part]),
        name=f"quotient of {sys.name}",
        zero_param_exact=sys.zero_param_exact,
    )


def _exclude(sys, hi, eps: float, budget: int) -> np.ndarray:
    """The boxes under [0, hi] that may hold a fixed point with max >= ZERO_TOL.

    Bisects breadth first, each box on its widest side, stepping the corners
    of a level's live boxes in one batch. For a monotone map a <= x <= b
    gives step(a) <= x <= step(b), so each fixed point of [a, b] lies in
    [max(a, step(a)), min(b, step(b))], widened by EXCLUDE_SLACK; each box
    is narrowed to that, and dropped once it is empty (a_j > b_j for some j)
    or has max b < ZERO_TOL, where it holds only points that count as the
    zero state.
    Returns the live boxes (n, 2, d), lower then upper corners, once the
    next level would pass budget box-component evaluations (boxes x d);
    empty when none is left.
    """
    lo, hi = np.zeros((1, sys.d)), np.array(hi, dtype=float).reshape(1, sys.d)
    spent = 0
    while len(lo) and spent + lo.size <= budget:
        spent += lo.size
        stepped = _step_raw(sys, np.concatenate([lo, hi]), eps)
        lo = np.maximum(lo, stepped[:len(lo)] - EXCLUDE_SLACK)
        hi = np.minimum(hi, stepped[len(lo):] + EXCLUDE_SLACK)
        keep = np.all(lo <= hi, axis=-1) & (hi.max(axis=-1) >= ZERO_TOL)
        lo, hi = lo[keep], hi[keep]
        rows, j = np.arange(len(lo)), np.argmax(hi - lo, axis=-1)
        mid = 0.5 * (lo[rows, j] + hi[rows, j])
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[rows, j] = lower_hi[rows, j] = mid
        lo, hi = np.concatenate([lo, upper_lo]), np.concatenate([lower_hi, hi])
    return np.stack([lo, hi], axis=1)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


@dataclass
class FixedPointRecord:
    x: np.ndarray
    eps_root: float
    potential_value: float
    residual: float


def _residual_sup(sys, X, eps):
    return np.abs(X - _step_raw(sys, X, eps)).max(axis=-1)


def _newton_jacobian(sys, X, eps):
    """I - (d step / d x)^T at each row of X, with eps one value per row."""
    # [n, j, k] = d step_k / d x_j
    Jstep = _central_difference(lambda Z: _step_raw(sys, Z, eps[:, None]), X, NEWTON_FD_STEP)
    eye = np.eye(sys.d)
    J = eye[None, :, :] - np.swapaxes(Jstep, -1, -2)
    return J + NEWTON_RIDGE * eye


def _is_singular(J) -> bool:
    try:
        np.linalg.solve(J, np.zeros(len(J)))
    except np.linalg.LinAlgError:
        return True
    return False


def _newton_batch(sys, X0, eps):
    """Damped Newton on the fixed-point residual, all seeds in lockstep.

    eps is a scalar or one value per row. Each row's steps depend on that
    row alone, and a row whose Jacobian is singular stops where it stands
    while the others go on, so a batch ends as one call per row would.
    Residuals are evaluated once and then carried from the line search.
    """
    X = np.clip(np.asarray(X0, dtype=float), 0.0, 1.0)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), X.shape[:-1])
    R = X - _step_raw(sys, X, eps)
    stopped = np.zeros(len(X), bool)
    for _ in range(NEWTON_MAX_ITER):
        res = np.max(np.abs(R), axis=-1)
        active = np.flatnonzero((res > NEWTON_RES_TOL) & ~stopped)
        if not len(active):
            break
        J = _newton_jacobian(sys, X[active], eps[active])
        try:
            dx = np.linalg.solve(J, R[active, :, None])[..., 0]
        except np.linalg.LinAlgError:
            singular = np.array([_is_singular(m) for m in J])
            stopped[active[singular]] = True
            active, J = active[~singular], J[~singular]
            if not len(active):
                break
            dx = np.linalg.solve(J, R[active, :, None])[..., 0]
        Xa = X[active]
        res_a = res[active]
        eps_a = eps[active]
        t = np.ones(len(Xa))
        cand = np.clip(Xa - dx, 0.0, 1.0)
        rc = cand - _step_raw(sys, cand, eps_a)
        for _ in range(8):
            bad = np.max(np.abs(rc), axis=-1) > (1.0 - 0.25 * t) * res_a
            if not bad.any():
                break
            t[bad] *= NEWTON_DAMPING
            cand[bad] = np.clip(Xa[bad] - t[bad, None] * dx[bad], 0.0, 1.0)
            rc[bad] = cand[bad] - _step_raw(sys, cand[bad], eps_a[bad])
        X[active] = cand
        R[active] = rc
    return X, np.max(np.abs(R), axis=-1)


def _cluster(points: np.ndarray, residuals: np.ndarray, radius: float) -> np.ndarray:
    """Greedy sup-norm clustering, keeping the best-converged representative.

    In residual order, a point is kept unless it lies within radius of a point
    kept before it. Each kept point removes its neighbours among the later
    points in one vectorised pass. Returns the indices of the kept points, in
    residual order.
    """
    order = np.argsort(residuals, kind="stable")
    pts = points[order]
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
    return order[kept]


def _seed_lattice_2d(grid: int) -> np.ndarray:
    ax = np.linspace(0.03, 0.97, grid)
    inner = np.array([(a, b) for a in ax for b in ax])
    faces = np.concatenate(
        [
            np.stack([np.zeros(grid), ax], axis=1),
            np.stack([ax, np.zeros(grid)], axis=1),
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


def _records(sys, cands, res, eps: float) -> list[FixedPointRecord]:
    """The fixed-point records of one eps from its solved seeds, sorted by x.

    A seed is accepted on its sup-norm residual res alone, as its solver
    returned it: the gradient (x - step(x)) D g'(x) at such a row is that
    residual times a weight-scaled Jacobian.
    """
    nonzero = np.max(np.abs(cands), axis=-1) > FP_ZERO_TOL
    good = np.flatnonzero((res <= FP_RESIDUAL_TOL) & nonzero)
    kept = good[_cluster(cands[good], res[good], CLUSTER_RADIUS)]
    if not len(kept):
        return []
    pot = potential(sys, cands[kept], eps).tolist()
    records = [FixedPointRecord(x=x, eps_root=float(eps), potential_value=u, residual=r)
               for x, u, r in zip(cands[kept], pot, res[kept].tolist())]
    return sorted(records, key=lambda r: tuple(r.x))


def fixed_points(sys: SystemDefinition, eps: float) -> list[FixedPointRecord]:
    """Numerically enumerate the nontrivial fixed points at a given eps.

    Damped Newton from a lattice of seeds, which finds unstable points as
    well as stable ones. d=2 systems seed from an interior grid and the
    boundary faces; other dimensions from the first FP_MAX_SEEDS rows of a
    per-axis lattice with an all-ones row appended. Enumeration is
    heuristic: nothing proves completeness.
    """
    return _fixed_points_batch(sys, [eps])[0]


def _fixed_points_batch(sys, eps_values) -> list[list[FixedPointRecord]]:
    """fixed_points at every eps of eps_values, one record list per eps.

    The seeds are tiled over all eps and solved in one Newton batch with a
    per-row eps, whose rows never interact, so every list equals that eps's
    fixed_points call.
    """
    eps_values = [float(e) for e in eps_values]
    if not all(0.0 < e <= 1.0 for e in eps_values):
        raise ValueError("eps must lie in (0, 1]")
    if sys.d == 2:
        seeds = _seed_lattice_2d(FP_GRID)
    else:
        per_axis = max(2, int(min(5, math.floor(FP_MAX_SEEDS ** (1.0 / sys.d)))))
        seeds = np.vstack([_lattice_rows(sys.d, per_axis, FP_MAX_SEEDS), sys.ones()])
    n = len(seeds)
    cands, res = _newton_batch(sys, np.tile(seeds, (len(eps_values), 1)),
                               np.repeat(eps_values, n))
    return [_records(sys, cands[i * n:(i + 1) * n], res[i * n:(i + 1) * n], e)
            for i, e in enumerate(eps_values)]


def energy_gap(sys: SystemDefinition, eps: float) -> float:
    """Minimum potential over the nontrivial fixed points; +inf when none exist."""
    return _energy_gaps(sys, [eps])[0]


def _min_potential(records) -> float:
    return min((r.potential_value for r in records), default=math.inf)


def _energy_gaps(sys, eps_values) -> list[float]:
    """energy_gap at every eps of eps_values, from one _fixed_points_batch call."""
    return [_min_potential(recs) for recs in _fixed_points_batch(sys, eps_values)]


def potential_threshold(sys: SystemDefinition, tol: float = BISECT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest eps at which every nontrivial fixed point has nonnegative potential.

    The Maxwell point M = maxwell_threshold(sys) locates it, and one
    enumeration of the fixed points at M - tol/2 and M + tol/2 confirms it:
    the answer is M when the energy gap is >= 0 below and < 0 above, so the
    gap changes sign within tol/2 of M. The enumeration (Newton from the
    seed lattice of fixed_points) does not use the branch walk behind M. If
    either side fails, a warning names it and the plain bisection of the
    gap's sign over (0, 1] gives the answer instead. At M = 1, a gap >= 0 at
    eps=1 alone confirms M. max_iter is unused: no step of this computation
    iterates the recursion. It stays for callers that pass it.
    """
    return _confirm_maxwell(sys, maxwell_threshold(sys), tol)


def _confirm_maxwell(sys, mx: float, tol: float) -> float:
    """mx if the energy gap is >= 0 at mx - tol/2 and < 0 at mx + tol/2, else the bisection."""
    eps = np.clip([mx - tol / 2, mx + tol / 2], 1e-9, 1.0).tolist()
    gaps = _energy_gaps(sys, eps)
    nonneg = [gap >= 0.0 for gap in gaps]
    log.debug("potential_threshold confirm: %s", ", ".join(
        f"(eps={e:.9g}, gap={g:.6g}, {'nonneg' if v else 'negative'})"
        for e, g, v in zip(eps, gaps, nonneg)))
    if nonneg == [True, False] or (mx == 1.0 and nonneg[1]):
        return mx
    k = 0 if not nonneg[0] else 1  # the side that failed
    log.warning("potential_threshold: Maxwell point %.9g not confirmed, gap %.6g at eps=%.9g "
                "(%s side); bisecting", mx, gaps[k], eps[k], ("below", "above")[k])
    return _threshold_bisect(
        lambda e: np.array([gap >= 0.0 for gap in _energy_gaps(sys, e)]),
        tol, "potential_threshold")


def maxwell_threshold(sys: SystemDefinition) -> float:
    """Smallest eps at which some fixed point attains negative Q.

    The Maxwell construction along the fixed-point branches. Every fixed
    point at eps=1 with negative potential seeds a branch, walked down in eps
    until Q turns nonnegative. Each crossing lies within its bracket of branch
    points, so only brackets starting below every bracket's top are solved,
    by Newton on x = step(x; eps), U(x; eps) = 0 from the bracket's midpoint.
    Returns the smallest crossing, or 1.0 when no seed has Q < 0. A walk that
    ends with Q still negative, and a solve whose residual exceeds
    FP_RESIDUAL_TOL or whose eps leaves the bracket, contribute the Q < 0
    end and log a warning. potential_threshold starts from this value.
    """
    brackets = [_branch_bracket(sys, seed.x) for seed in fixed_points(sys, 1.0)
                if seed.potential_value < 0.0]
    top = min([1.0] + [max(lo[1], hi[1]) for lo, hi in brackets])
    return float(min([top] + [_maxwell_crossing(sys, *lo, *hi) for lo, hi in brackets
                              if min(lo[1], hi[1]) < top]))


def _branch_bracket(sys, x0):
    """The first branch point from (x0, eps=1) with Q >= 0 and the one before it, as (x, eps)."""
    hi = None  # (x, eps) of the last branch point with Q < 0
    for x, eps in _branch_points(sys, x0, BRANCH_POINTS):
        if potential(sys, x, eps) >= 0.0:
            return (x, eps), hi
        hi = (x, eps)
    log.warning("maxwell_threshold: branch from %s ends at eps=%g with Q still negative",
                x0, hi[1])
    return hi, hi  # the walk's last point twice


def _maxwell_crossing(sys, x_lo, e_lo, x_hi, e_hi) -> float:
    """eps at which Q turns nonnegative between the branch points (x_lo, e_lo) and (x_hi, e_hi)."""

    def resid(u):
        x, eps = u[..., :-1], u[..., -1]
        return np.concatenate([x - _step_raw(sys, x, eps), potential(sys, x, eps)[..., None]], -1)

    u, res = _newton(resid, np.append(0.5 * (x_lo + x_hi), 0.5 * (e_lo + e_hi)))
    if res <= FP_RESIDUAL_TOL and min(e_lo, e_hi) <= u[-1] <= max(e_lo, e_hi):
        return float(u[-1])
    log.warning("maxwell_threshold: no crossing solved between eps=%.9g (Q >= 0) and eps=%.9g "
                "(Q < 0), residual %.3g; taking eps=%.9g", e_lo, e_hi, res, e_hi)
    return float(e_hi)


# ---------------------------------------------------------------------------
# fixed-point branch continuation
# ---------------------------------------------------------------------------


def _newton_pinned(sys, j, p0):
    """_newton on the d equations x = step(x; eps) in the point p = (x, eps), x_j held at p0[j]."""

    def resid(p):
        return p[..., :-1] - _step_raw(sys, p[..., :-1], p[..., -1])

    return _newton(resid, p0, np.arange(len(p0)) != j)


def _newton(resid, u0, free=slice(None)):
    """(u, sup-norm residual) of damped Newton on resid(u) = 0 in u[free], u[:-1] kept in [0, 1]."""
    u = np.array(u0, dtype=float)
    r = resid(u)
    res = np.max(np.abs(r))
    for _ in range(NEWTON_MAX_ITER):
        if res <= NEWTON_RES_TOL:
            break
        J = _central_difference(resid, u, NEWTON_FD_STEP, free).T
        try:
            du = np.linalg.solve(J + NEWTON_RIDGE * np.eye(len(r)), r)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        for _ in range(8):
            cand = u.copy()
            cand[free] -= t * du
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
    u = np.append(x0, 1.0)  # the branch point (x, eps)
    slope = np.zeros(sys.d + 1)  # d(u)/d(x_j), for the continuation predictor

    def solve_step(c_from, u_from, sl, c_to, depth=0):
        dc = c_to - c_from
        seed = u_from + sl * dc
        seed[j] = c_to
        u_new, res = _newton_pinned(sys, j, seed)
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
        yield u_try[:-1], min(u_try[-1], 1.0)
        slope = (u_try - u) / (c - last_c)
        u, last_c = u_try, c


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


def threshold_report(sys: SystemDefinition, gap_grid, tol: float = BISECT_TOL) -> ThresholdReport:
    """Compute all three thresholds and the energy-gap curve over gap_grid.

    The Maxwell threshold comes first, and the potential threshold is that
    point confirmed as in potential_threshold (one _fixed_points_batch call
    at its two sides), so it is not computed twice; the gap curve is one
    more _fixed_points_batch call.
    """
    bp = bp_threshold(sys, tol)
    mx = maxwell_threshold(sys)
    pot = _confirm_maxwell(sys, mx, tol)
    gap_grid = [float(e) for e in gap_grid]
    curve = list(zip(gap_grid, _energy_gaps(sys, gap_grid)))
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
        },
    )
    rep.validate()
    return rep
