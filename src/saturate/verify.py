"""Numerically checked invariants: the lemma battery behind `saturate verify`.

Every analytic statement the package relies on is re-checked at runtime on
the configured system: order preservation along line segments, potential
descent along iterations, strict monotonicity of the minimum fixed-point
potential, coupled-chain monotonicity and dominance, the shift identities,
and the Taylor-expansion chain of the width bound.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .coupled import (
    CheckOutcome,
    CoupledState,
    CouplingSpec,
    coupled_limit,
    coupled_potential,
    coupled_step,
    coupled_step_indexform,
    hessian_bound,
    shift,
    verify_shift_lemmas,
)
from .potential import (
    ZERO_TOL,
    _fixed_points_batch,
    _min_potential,
    potential,
    potential_quadrature,
    potential_threshold,
    bp_threshold,
)
from .system import (
    FD_STEP,
    MONO_SLACK,
    SystemDefinition,
    _central_difference,
    _step_raw,
    iterate_limit,
)

log = logging.getLogger("saturate")


@dataclass
class BatteryReport:
    eps_values: tuple
    thresholds: dict
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]


def corrupt_bit_energy(sys: SystemDefinition) -> SystemDefinition:
    """Deliberately break the bit-side energy (adds x1^2): a mutation probe
    that the gradient-consistency check must catch."""
    orig = sys.bit_energy

    def bad_energy(x, eps):
        x = np.asarray(x, dtype=float)
        return orig(x, eps) + x[..., 0] ** 2

    return dataclasses.replace(sys, bit_energy=bad_energy, name=sys.name + "+corrupt_F")


def _classified_samples(sys, eps, rng, n=40):
    """Random states split by their order relation to their own update."""
    X = rng.random((n, sys.d))
    S = _step_raw(sys, X, eps)
    up = np.all(S >= X - MONO_SLACK, axis=-1)
    down = np.all(S <= X + MONO_SLACK, axis=-1)
    return X[up & ~down], X[down & ~up]


def lemma_battery(sys: SystemDefinition, eps_values=None, L: int = 16, w: int = 3,
                  seed: int = 0, thresholds: dict | None = None) -> BatteryReport:
    """Run every invariant check at three channel values.

    The defaults place one value below the single-system threshold, one
    between the two thresholds, and one above the potential threshold.
    """
    rng = np.random.default_rng(seed)
    if thresholds is None:
        thresholds = {}
    bp = bp_threshold(sys) if thresholds.get("bp") is None else thresholds["bp"]
    pot = potential_threshold(sys) if thresholds.get("potential") is None else thresholds["potential"]
    if eps_values is None:
        eps_values = (0.85 * bp, 0.5 * (bp + pot), min(1.0, pot + 0.35 * (1.0 - pot)))
    eps_values = tuple(float(e) for e in eps_values)
    rep = BatteryReport(eps_values=eps_values, thresholds={"bp": bp, "potential": pot})
    checks = rep.checks

    # --- single-system order and descent properties -----------------------
    seg_bad, seg_counts = 0, [0, 0]
    descent_worst = 0.0
    ts = np.linspace(0.0, 1.0, 10)
    for eps in eps_values:
        ups, downs = _classified_samples(sys, eps, rng)
        seg_counts[0] += len(ups)
        seg_counts[1] += len(downs)
        for X, sign in ((ups, +1), (downs, -1)):
            S = _step_raw(sys, X, eps)
            Z = X[:, None, :] + ts[:, None] * (S - X)[:, None, :]  # (m, 10, d) segment points
            SZ = _step_raw(sys, Z, eps)
            bad = Z > SZ + MONO_SLACK if sign > 0 else Z < SZ - MONO_SLACK
            seg_bad += int(np.count_nonzero(bad.any(axis=(1, 2))))
            drops = potential(sys, X, eps) - potential(sys, S, eps)
            descent_worst = min([descent_worst] + drops.tolist())
    checks.append(CheckOutcome(
        "line_segment_preservation",
        seg_bad == 0,
        f"{seg_counts[0]} climbing / {seg_counts[1]} descending samples, {seg_bad} violations",
    ))
    checks.append(CheckOutcome(
        "iteration_descent",
        descent_worst >= -1e-10,
        f"worst potential drop along one update: {descent_worst:.3e}",
    ))

    margin = math.inf
    X = rng.random((40, sys.d)) * 0.96 + 0.02
    for e1, e2 in [(0.2, 0.5), (0.5, 0.8), (0.3, 1.0)]:
        diff = np.asarray(potential(sys, X, e1) - potential(sys, X, e2))
        margin = min(margin, float(diff.min()))
    checks.append(CheckOutcome(
        "potential_eps_monotone",
        margin > 0.0,
        f"min U(x;e1) - U(x;e2) over samples: {margin:.3e}",
    ))

    # every fixed-point enumeration of the battery in one batch: the checks
    # below read eps_values[1:], the eps_values above bp and the grid
    grid = np.linspace(bp + 2e-3, min(1.0, pot + 0.8 * (1.0 - pot)), 20).tolist()
    wanted = list(dict.fromkeys([e for i, e in enumerate(eps_values) if i > 0 or e > bp] + grid))
    fps_at = dict(zip(wanted, _fixed_points_batch(sys, wanted)))

    # differences of the closed-form potential, independent of the update
    # residual on which fixed_points accepts a record
    fps = [r for eps in eps_values[1:] for r in fps_at[eps]]
    n_fps, grad_worst = len(fps), 0.0
    if fps:
        eps_rows = np.array([r.eps_root for r in fps])[:, None]
        grad = _central_difference(lambda z: potential(sys, z, eps_rows),
                                   np.array([r.x for r in fps]), FD_STEP)
        grad_worst = float(np.max(np.abs(grad)))
    checks.append(CheckOutcome(
        "stationary_fixed_points",
        grad_worst <= 1e-6,
        f"{n_fps} fixed points, max potential-gradient sup-norm {grad_worst:.3e}",
    ))

    limit_ok = True
    limit_details = []
    for eps in eps_values:
        res = iterate_limit(sys, sys.ones(), eps)
        drop = float(potential(sys, sys.ones(), eps) - potential(sys, res.limit, eps))
        limit_ok &= res.converged and res.monotone_ok and drop >= -1e-10
        limit_details.append(f"down@{eps:.3f}: conv={res.converged} drop={drop:.2e}")
        fps = fps_at[eps] if eps > bp else []
        if fps:
            x0 = 0.8 * fps[-1].x + 0.05 * fps[0].x
            s = _step_raw(sys, x0, eps)
            if np.all(s >= x0 - MONO_SLACK):
                res = iterate_limit(sys, x0, eps)
                drop = float(potential(sys, x0, eps) - potential(sys, res.limit, eps))
                limit_ok &= res.converged and res.monotone_ok and drop >= -1e-10
                limit_details.append(f"up@{eps:.3f}: conv={res.converged} drop={drop:.2e}")
    checks.append(CheckOutcome(
        "monotone_limits", limit_ok, "; ".join(limit_details)))

    gaps = [_min_potential(fps_at[e]) for e in grid]
    drops = [a - b for a, b in zip(gaps[:-1], gaps[1:])
             if math.isfinite(a) and math.isfinite(b)]
    checks.append(CheckOutcome(
        "compare_mins",
        bool(drops) and min(drops) > 0.0,
        f"min Q strictly decreasing on {len(drops) + 1} populated grid points "
        f"(smallest drop {min(drops) if drops else float('nan'):.3e})",
    ))

    # --- coupled-chain properties -----------------------------------------
    spec = CouplingSpec(L=L, w=w)
    ospec = CouplingSpec(L=L, w=w, one_sided=True)
    K = hessian_bound(sys)
    for eps in eps_values:
        basic, brep = coupled_limit(sys, spec, eps)
        onesided, orep = coupled_limit(sys, ospec, eps)
        dom = bool(np.all(onesided.rows >= basic.rows - MONO_SLACK))
        nondecr = bool(np.all(np.diff(onesided.rows, axis=0) >= -MONO_SLACK))
        checks.append(CheckOutcome(
            f"coupled_monotone_dominance@{eps:.3f}",
            brep.monotone_ok and orep.monotone_ok and dom and nondecr,
            f"monotone basic/one-sided: {brep.monotone_ok}/{orep.monotone_ok}, "
            f"dominance: {dom}, non-decreasing profile: {nondecr}",
        ))
        for c in verify_shift_lemmas(sys, onesided, eps):
            checks.append(CheckOutcome(f"{c.name}@{eps:.3f}", c.passed, c.detail))
        du = coupled_potential(sys, shift(onesided), eps) - coupled_potential(sys, onesided, eps)
        hess_ok = abs(du) <= sys.d / (2.0 * w) * K + 1e-6
        checks.append(CheckOutcome(
            f"shift_cost_hessian_bound@{eps:.3f}",
            hess_ok,
            f"|U(SX)-U(X)| = {abs(du):.3e} vs (d/2w)K = {sys.d / (2.0 * w) * K:.3e}",
        ))

    # Taylor chain needs a nontrivial one-sided fixed point between the
    # thresholds; wide windows saturate to zero there, so check at w=1
    eps_mid = eps_values[1]
    chain_detail = "no nontrivial one-sided fixed point (vacuous)"
    chain_ok = True
    if eps_mid > bp:
        narrow = CouplingSpec(L=min(L, 8), w=1, one_sided=True)
        state, _ = coupled_limit(sys, narrow, eps_mid)
        if state.max_entry() > ZERO_TOL:
            gap = _min_potential(fps_at[eps_mid])
            du = coupled_potential(sys, shift(state), eps_mid) - coupled_potential(
                sys, state, eps_mid)
            chain_ok = du <= -gap + 1e-6
            chain_detail = f"U(SX)-U(X) = {du:.6e} vs -gap = {-gap:.6e} (w=1)"
    checks.append(CheckOutcome("taylor_chain_width_bound", chain_ok, chain_detail))

    # --- representation cross-checks ---------------------------------------
    small = CouplingSpec(L=4, w=max(2, w))
    worst = 0.0
    for eps in eps_values:
        state = CoupledState(rows=rng.random((small.n_rows, sys.d)), spec=small)
        a = coupled_step(sys, state, eps).rows
        b = coupled_step_indexform(sys, state, eps).rows
        worst = max(worst, float(np.max(np.abs(a - b))))
    checks.append(CheckOutcome(
        "matrix_index_agreement", worst <= 1e-12,
        f"sup disagreement {worst:.3e}"))

    qworst = pworst = 0.0
    for x in rng.random((5, sys.d)):
        u = float(potential(sys, x, eps_values[1]))
        qs = potential_quadrature(sys, x, eps_values[1], path="straight")
        qc = potential_quadrature(sys, x, eps_values[1], path="staircase")
        qworst = max(qworst, abs(u - qs))
        pworst = max(pworst, abs(qs - qc))
    checks.append(CheckOutcome(
        "potential_quadrature_agreement", qworst <= 1e-8,
        f"closed form vs line integral: {qworst:.3e}"))
    checks.append(CheckOutcome(
        "path_independence", pworst <= 1e-7,
        f"straight vs staircase path: {pworst:.3e}"))

    # the zero state is a stationary point of the potential: one-sided
    # differences of the closed form at the corner, (4U(h e_j) - U(2h e_j)
    # - 3U(0)) / 2h, accurate to second order in h and independent of the update
    steps = np.eye(sys.d) * FD_STEP
    slope = (4.0 * potential(sys, steps, eps_mid) - potential(sys, 2.0 * steps, eps_mid)
             - 3.0 * potential(sys, sys.zeros(), eps_mid)) / (2.0 * FD_STEP)
    gr = float(np.max(np.abs(slope)))
    checks.append(CheckOutcome(
        "zero_state_stationary", gr <= 1e-6, f"one-sided |U'(0)| = {gr:.3e}"))

    return rep
