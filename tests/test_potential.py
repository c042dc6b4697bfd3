import dataclasses
import functools
import importlib
import itertools
import logging
import math
import re

import numpy as np
import pytest

import saturate as st
from saturate.potential import (
    BISECT_DEPTH,
    BISECT_MAX_HALVINGS,
    BRANCH_POINTS,
    CLUSTER_RADIUS,
    EXCLUDE_BUDGET,
    FP_GRID,
    FP_MAX_SEEDS,
    FP_RESIDUAL_TOL,
    NEWTON_RIDGE,
    ZERO_TOL,
    _branch_bracket,
    _branch_points,
    _cluster,
    _exclude,
    _fixed_points_batch,
    _lattice_rows,
    _maxwell_crossing,
    _seed_lattice_2d,
    _threshold_bisect,
    check_jacobian,
)
from saturate.system import DEFAULT_MAX_ITER, iterate_batch

from scalar_oracle import (
    LAM_36,
    RHO_36,
    bp_fold as oracle_fold,
    bp_threshold as oracle_bp,
    nontrivial_fixed_points,
    potential_threshold as oracle_pot,
)

# the package re-exports the function potential() under the submodule's name
potential_module = importlib.import_module("saturate.potential")


def test_potential_vanishes_at_zero(all_systems):
    for sys in all_systems:
        for eps in (0.1, 0.6, 1.0):
            assert float(st.potential(sys, sys.zeros(), eps)) == 0.0


def test_potential_strictly_decreasing_in_eps(all_systems):
    rng = np.random.default_rng(0)
    for sys in all_systems:
        X = rng.random((30, sys.d)) * 0.9 + 0.05
        diff = st.potential(sys, X, 0.3) - st.potential(sys, X, 0.7)
        assert np.min(diff) > 0.0


def test_potential_near_zero_at_potential_threshold(sys36, thresholds36):
    eps_star = thresholds36["potential"]
    fp = st.iterate_limit(sys36, sys36.ones(), eps_star).limit
    assert abs(float(st.potential(sys36, fp, eps_star))) < 1e-4


def test_gradient_vanishes_at_fixed_points(sys36):
    recs = st.fixed_points(sys36, 0.47)
    assert recs
    for rec in recs:
        assert np.max(np.abs(st.potential_gradient(sys36, rec.x, rec.eps_root))) <= 1e-6


def test_fixed_points_do_not_depend_on_the_weight_scale(sys36):
    # weights and both energies scaled together leave the recursion, and so
    # its fixed points, unchanged; the potential gradient scales with them
    scaled = dataclasses.replace(
        sys36, weights=1e10 * sys36.weights,
        bit_energy=lambda y, eps: 1e10 * sys36.bit_energy(y, eps),
        check_energy=lambda x: 1e10 * sys36.check_energy(x))
    want = [r.x for r in st.fixed_points(sys36, 0.47)]
    assert len(want) == 2
    assert np.array_equal([r.x for r in st.fixed_points(scaled, 0.47)], want)


def test_gradient_zero_state(all_systems):
    for sys in all_systems:
        g = st.potential_gradient(sys, sys.zeros(), 0.5)
        assert np.max(np.abs(g)) == 0.0


def test_gradient_matches_finite_differences(emac36):
    rng = np.random.default_rng(1)
    X = rng.random((50, 2)) * 0.9 + 0.05
    h = 1e-6
    eye = np.eye(2) * h
    fd = (st.potential(emac36, X[:, None, :] + eye, 0.55)
          - st.potential(emac36, X[:, None, :] - eye, 0.55)) / (2 * h)
    an = st.potential_gradient(emac36, X, 0.55)
    assert np.max(np.abs(fd - an) / np.maximum(np.abs(an), 1e-2)) < 1e-5


def test_check_jacobian_entries(sys36):
    x = np.array([0.3, 0.6])
    J = check_jacobian(sys36, x)
    # g1 = 1 - (1-x1)^2 (1-x2)^3
    assert J[0, 0] == pytest.approx(2 * 0.7 * 0.4**3, rel=1e-6)
    assert J[0, 1] == pytest.approx(3 * 0.7**2 * 0.4**2, rel=1e-6)


def test_bp_threshold_matches_oracle(sys36):
    ref = oracle_bp(LAM_36, RHO_36)
    assert st.bp_threshold(sys36) == pytest.approx(ref, abs=1e-3)


def test_bp_threshold_converges_in_one_step_at_zero(sys36):
    res = st.iterate_limit(sys36, sys36.ones(), 0.0)
    assert np.max(res.limit) == 0.0
    assert res.iterations <= 2


def test_bp_threshold_decoupled_slepian_wolf(sw_free):
    assert st.bp_threshold(sw_free) == pytest.approx(0.42944, abs=1e-3)


def _one_probe_bisect(true_below, tol, max_halvings=BISECT_MAX_HALVINGS):
    """The bisection with one eps per predicate call, kept as the reference."""
    if true_below(1.0):
        return 1.0
    if not true_below(1e-9):
        return 0.0
    lo, hi = 1e-9, 1.0
    for _ in range(max_halvings):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if true_below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_EDGES = np.random.default_rng(11).random(4).tolist()


_MULTISECTION_CASES = [
    *[(e, False, 1e-6, BISECT_MAX_HALVINGS) for e in _EDGES],
    (0.5 * (1e-9 + 1.0), True, 1e-6, BISECT_MAX_HALVINGS),  # edge on the first midpoint
    (1.0, True, 1e-6, BISECT_MAX_HALVINGS),  # holds at 1.0
    (1.0, False, 1e-6, BISECT_MAX_HALVINGS),  # fails only at 1.0
    (5e-10, False, 1e-6, BISECT_MAX_HALVINGS),  # fails already at 1e-9
    (_EDGES[0], False, 1.0, BISECT_MAX_HALVINGS),
    (_EDGES[0], False, 3.0, BISECT_MAX_HALVINGS),
    (_EDGES[1], False, 1e-6, 7),  # max_halvings cut, not a multiple of the depth
    (_EDGES[2], False, 0.0, BISECT_MAX_HALVINGS),  # halves until midpoints repeat in the last bit
]


@pytest.mark.parametrize("edge, inclusive, tol, max_halvings", _MULTISECTION_CASES)
def test_multisection_visits_the_one_probe_midpoints(edge, inclusive, tol, max_halvings,
                                                     monkeypatch):
    monkeypatch.setattr(potential_module, "BISECT_MAX_HALVINGS", max_halvings)

    def holds(eps):
        return eps <= edge if inclusive else eps < edge

    seq = []
    ref = _one_probe_bisect(lambda e: seq.append(e) or holds(e), tol, max_halvings)
    halvings = max(len(seq) - 2, 0)
    for depth in (1, 3, BISECT_DEPTH):
        calls = []

        def batched(eps):
            assert eps.ndim == 1 and len(eps)
            calls.append(eps.tolist())
            return holds(eps)

        got = _threshold_bisect(batched, tol, "synthetic", depth=depth)
        assert got == ref
        one_per_depth = max(1, -(-halvings // depth))
        if tol == 0.0:  # a midpoint that repeats in the last bit is looked up, not probed again
            assert len(calls) <= one_per_depth
        else:
            assert len(calls) == one_per_depth
        assert max(map(len, calls), default=0) <= 2 ** depth + 1
        assert set(seq) <= {e for c in calls for e in c}


@functools.lru_cache(maxsize=None)
def _one_probe_bp(sys, tol, max_iter=DEFAULT_MAX_ITER):
    def dies(eps):
        res = st.iterate_limit(sys, sys.ones(), eps, max_iter=max_iter)
        return bool(np.max(res.limit) < ZERO_TOL)

    return _one_probe_bisect(dies, tol)


@pytest.fixture(scope="module")
def sw_theta_zero(lam36, rho36):
    return _sw_half_on(lam36, rho36, 0.0)


@pytest.fixture(scope="module")
def sw_theta_quarter(lam36, rho36):
    return _sw_half_on(lam36, rho36, 0.25)


@pytest.fixture(scope="module")
def sw_theta_half(lam36, rho36):
    return _sw_half_on(lam36, rho36, 0.5)


def _assert_certified_bp(sys, tol, caplog):
    """bp_threshold answers without a fallback, within tol of the one-probe
    bisection, and plain limits at its answer -/+ tol/2 die and survive."""
    got = st.bp_threshold(sys, tol=tol)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert abs(got - _one_probe_bp(sys, tol)) <= tol
    below, above = (st.iterate_limit(sys, sys.ones(), got + s * tol / 2) for s in (-1, 1))
    assert below.converged and above.converged
    assert np.max(below.limit) < ZERO_TOL <= np.max(above.limit)


@pytest.mark.parametrize("name", ["sys36", "lift36", "emac36", "sw_half", "sw_free", "table", "irregular"])
def test_bp_threshold_equals_one_probe_bisection(name, request, caplog):
    sys = request.getfixturevalue(name)
    if name == "table":  # takes the fallback, the bisection walk itself
        assert st.bp_threshold(sys, tol=1e-5) == _one_probe_bp(sys, 1e-5)
    else:
        _assert_certified_bp(sys, 1e-5, caplog)


# the other systems' tol 1e-5 cases are those of the test above; sw_half is
# Slepian-Wolf on the diagonal path, theta=1
@pytest.mark.parametrize("name, tol", [
    *[(name, 1e-6) for name in ("sys36", "lift36", "emac36", "sw_half", "sw_free", "irregular",
                                "sw_theta_quarter", "sw_theta_half")],
    ("sw_theta_quarter", 1e-5), ("sw_theta_half", 1e-5)])
def test_bp_threshold_is_the_certified_fold(name, tol, request, caplog):
    _assert_certified_bp(request.getfixturevalue(name), tol, caplog)


def test_bp_threshold_falls_back_below_a_fold_that_is_not_the_threshold(table, caplog):
    fold, _, _ = potential_module._bp_fold(table, DEFAULT_MAX_ITER)
    assert fold == pytest.approx(0.37758, abs=1e-5)
    # all-ones survives at fold - tol/2, so exclusion must give up there
    assert len(_exclude(table, table.ones(), fold - 0.5e-5, EXCLUDE_BUDGET))
    got = st.bp_threshold(table, tol=1e-5)
    assert f"fold {fold:.9g} not certified, survives (certified) at eps=" in caplog.text
    assert "(below side); bisecting" in caplog.text
    assert got == _one_probe_bp(table, 1e-5) == pytest.approx(0.34317, abs=1e-5)


@pytest.mark.parametrize("offset, side", [(10, "below"), (-10, "above")])
def test_bp_threshold_falls_back_when_the_fold_is_off(offset, side, sys36, monkeypatch, caplog):
    tol = 1e-5
    fold, x, note = potential_module._bp_fold(sys36, DEFAULT_MAX_ITER)
    monkeypatch.setattr(potential_module, "_bp_fold",
                        lambda sys, max_iter: (fold + offset * tol, x, note))
    got = st.bp_threshold(sys36, tol=tol)
    assert f"({side} side); bisecting" in caplog.text
    assert got == _one_probe_bp(sys36, tol)


def _cut_walk(sys, monkeypatch):
    # the walk from the eps=1 limit, cut before its fold
    walk = potential_module._branch_points
    monkeypatch.setattr(potential_module, "_branch_points",
                        lambda sys, x0, n: itertools.islice(walk(sys, x0, n), 5))


def _patch_fold_solve(sys, monkeypatch, point, res):
    # the whole walk, precomputed, then a fold solve that returns point(seed)
    # with residual res
    walk = list(_branch_points(sys, st.iterate_limit(sys, sys.ones(), 1.0).limit, BRANCH_POINTS))
    monkeypatch.setattr(potential_module, "_branch_points", lambda sys, x0, n: iter(walk))
    monkeypatch.setattr(potential_module, "_newton",
                        lambda resid, u0, free=slice(None): (point(np.array(u0)), res))


def _unsolved_fold(sys, monkeypatch):
    # a solve that never leaves its seed
    _patch_fold_solve(sys, monkeypatch, lambda u: u, 1.0)


def _fold_outside_bracket(sys, monkeypatch):
    # an exact solve at x = (1, 1), above the walk's bracket of the pinned coordinate
    def outside(u):
        u[:2] = 1.0
        return u

    _patch_fold_solve(sys, monkeypatch, outside, 0.0)


@pytest.mark.parametrize("patch, note", [
    (_cut_walk, "no interior minimum of eps on the walk of 5 branch points"),
    (_unsolved_fold, "the fold solve failed: residual 1 at x1="),
    (_fold_outside_bracket, "the fold solve failed: residual 0 at x1=1,"),
])
def test_bp_threshold_falls_back_when_no_fold_is_located(patch, note, sys36, monkeypatch, caplog):
    patch(sys36, monkeypatch)
    fold, x, got_note = potential_module._bp_fold(sys36, DEFAULT_MAX_ITER)
    assert fold is None and x is None and got_note.startswith(note)
    got = st.bp_threshold(sys36, tol=1e-3)
    assert f"bp_threshold: {note}" in caplog.text and "; bisecting" in caplog.text
    assert got == _one_probe_bp(sys36, 1e-3)


# the fold's floats, bit for bit; sw_theta_half and sw_half are the Slepian-Wolf
# systems of the benchmark's threshold sweep (theta 0.5 and 1)
@pytest.mark.parametrize("name, fold", [
    ("sys36", 0.42943981441949186),
    ("sw_theta_half", 0.062116239951652844),
    ("sw_half", 0.04623497437144891)])
def test_bp_fold_keeps_its_float(name, fold, request):
    assert potential_module._bp_fold(request.getfixturevalue(name), DEFAULT_MAX_ITER)[0] == fold


@pytest.fixture(scope="module")
def ones36():
    """The (3,6) ensemble as the all-ones 3x6 protograph (d=18)."""
    return st.make_protograph(st.ProtographSpec(H=np.ones((3, 6), dtype=int)))


@pytest.mark.parametrize("name", ["sys36", "lift36", "ones36", "sw_free"])
def test_bp_fold_matches_the_scalar_oracle(name, request):
    # four forms of the (3,6) recursion, whose fold is the scalar one
    fold, _, _ = potential_module._bp_fold(request.getfixturevalue(name), DEFAULT_MAX_ITER)
    assert fold == pytest.approx(oracle_fold(LAM_36, RHO_36), abs=3e-14)


def test_bp_threshold_falls_back_when_all_ones_collapses_at_one(caplog):
    # x -> eps x / 2 has no nonzero fixed point: all-ones collapses at every
    # eps, so every threshold is 1.0, read at eps=1 with neither a bisection
    # nor a warning
    def zero(x, *_):
        return np.zeros(np.shape(x)[:-1])

    halve = st.SystemDefinition(d=1, weights=np.ones(1), check_update=lambda x: x,
                                bit_energy=zero, check_energy=zero,
                                bit_update=lambda y, eps: 0.5 * np.asarray(eps)[..., None] * y)
    assert st.bp_threshold(halve, tol=1e-5) == 1.0
    assert st.maxwell_threshold(halve) == st.potential_threshold(halve, tol=1e-5) == 1.0
    rep = st.threshold_report(halve, gap_grid=[0.5], tol=1e-5)
    assert (rep.bp_threshold, rep.potential_threshold, rep.maxwell_threshold) == (1.0, 1.0, 1.0)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_bp_threshold_logs_rows_still_moving(sys36, sw_free, caplog):
    # at tol 1e-5 exclusion gives up on the lower probe of Slepian-Wolf with
    # gamma=0, so a pass iterates it and spends its budget
    got = st.bp_threshold(sw_free, tol=1e-5, max_iter=3)
    assert "iteration budget exhausted" in caplog.text
    # a budget-exhausted row counts as collapsing only below zero_tol, as before
    assert got == _one_probe_bp(sw_free, 1e-5, max_iter=3)
    # on (3,6) the lower probe is excluded and the fold point certifies the
    # upper one, so nothing is iterated past eps=1 and the budget is not spent
    caplog.clear()
    fold, _, _ = potential_module._bp_fold(sys36, 3)
    assert st.bp_threshold(sys36, tol=1e-3, max_iter=3) == fold
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("max_iter", [1, 2])
def test_coupled_bp_threshold_counts_a_spent_budget_below_zero_tol_as_collapsing(
        sys36, max_iter, caplog):
    # the rule of bp_threshold: a chain still moving when its budget runs out
    # has collapsed if it is already below ZERO_TOL
    spec = st.CouplingSpec(L=4, w=2)

    def dies(eps):
        return st.coupled_limit(sys36, spec, eps, max_iter=max_iter)[1].is_zero

    got = st.coupled_bp_threshold(sys36, L=4, w=2, tol=1e-3, max_iter=max_iter)
    assert "coupled_bp_threshold: " in caplog.text and "iteration budget exhausted" in caplog.text
    assert got == _one_probe_bisect(dies, 1e-3) > 0.0


def test_bp_threshold_logs_period_two_cycles(flip, caplog):
    # flip alternates between (1, 1) and (1, 0): no probe collapses, and the
    # batch leaves through the cycle exit
    assert st.bp_threshold(flip) == 0.0
    assert "period-2 cycle exit" in caplog.text
    assert "eps = 1e-09" in caplog.text


def test_bp_threshold_logs_each_pass(sys36, sw_free, caplog):
    caplog.set_level(logging.DEBUG, logger="saturate")

    def logged(sys):
        caplog.clear()
        got = st.bp_threshold(sys, tol=1e-5)
        messages = [r.getMessage() for r in caplog.records]
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        return got, ([m for m in messages if m.startswith("bp_threshold fold: ")],
                     [m for m in messages if m.startswith("bp_threshold pass of ")])

    # on (3,6) both probes are proved without a pass, and nothing bisects
    got, (folds, passes) = logged(sys36)
    assert len(folds) == 1 and not passes
    found = re.fullmatch(r"bp_threshold fold: eps=(\S+) after (\d+) branch points; "
                         r"\(eps=([^,]+), dies, excluded\), "
                         r"\(eps=([^,]+), survives, certified\)", folds[0])
    assert found
    fold, walked, lo, hi = found.groups()
    assert float(fold) == pytest.approx(got, abs=1e-11)
    assert 3 <= int(walked) <= BRANCH_POINTS
    assert float(lo) < got < float(hi) and float(hi) - float(lo) == pytest.approx(1e-5)
    # where exclusion gives up, one pass iterates the lower probe alone
    _, (folds, passes) = logged(sw_free)
    assert len(folds) == len(passes) == 1
    lo = re.search(r"; \(eps=([^,]+), dies, stop rule\), \(eps=[^,]+, survives, certified\)$",
                   folds[0]).group(1)
    assert re.fullmatch(rf"bp_threshold pass of \d+ steps: \(eps={re.escape(lo)}, dies, "
                        r"stop rule\)", passes[0])


@functools.lru_cache(maxsize=None)
def _grid_limits(sys):
    """eps on a grid close around the bp threshold, and whether the plain
    limit from all-ones dies there."""
    center = st.bp_threshold(sys, tol=1e-6)
    eps = np.array(sorted(center + s * 10.0**-k for k in range(3, 8) for s in (-1, 1)))
    limits = [st.iterate_limit(sys, sys.ones(), e) for e in eps]
    assert all(res.converged for res in limits)
    return eps, np.array([np.max(res.limit) < ZERO_TOL for res in limits])


@pytest.mark.parametrize("name", ["sys36", "lift36", "sw_half", "emac36"])
def test_bp_pass_verdicts_match_one_probe_limits(name, request):
    # certificates against the plain limit on a grid close around the threshold
    sys = request.getfixturevalue(name)
    eps, plain = _grid_limits(sys)
    dies, how = potential_module._bp_pass(sys, eps, DEFAULT_MAX_ITER)
    assert not plain[how == "certified"].any()
    assert np.array_equal(dies, plain)
    assert "certified" in how


@pytest.mark.parametrize("name", ["sys36", "emac36", "sw_half", "sw_theta_half"])
def test_exclusion_never_resolves_where_the_limit_survives(name, request):
    # a disagreement here is a soundness fault of the exclusion, not a tolerance
    sys = request.getfixturevalue(name)
    eps, plain = _grid_limits(sys)
    resolved = np.array([len(_exclude(sys, sys.ones(), e, EXCLUDE_BUDGET)) == 0 for e in eps])
    assert not resolved[~plain].any()
    assert resolved[0]  # 1e-3 below the threshold


@pytest.mark.parametrize("name", ["sw_half", "sw_theta_half"])
def test_exclusion_resolves_below_the_fold_at_tol_1e6(name, request, caplog):
    # the narrowed boxes resolve the Slepian-Wolf lower probe at tol 1e-6, so
    # bp_threshold does not iterate it through the fold's bottleneck
    caplog.set_level(logging.DEBUG, logger="saturate")
    sys, tol = request.getfixturevalue(name), 1e-6
    fold, _, _ = potential_module._bp_fold(sys, DEFAULT_MAX_ITER)
    assert not len(_exclude(sys, sys.ones(), fold - tol / 2, EXCLUDE_BUDGET))
    assert st.bp_threshold(sys, tol=tol) == fold
    assert "dies, excluded)" in caplog.text


_PINNED = ["sys36", "lift36", "emac36", "sw_half", "sw_free", "table", "irregular",
           "sw_theta_quarter", "sw_theta_half"]


@pytest.mark.parametrize("name", _PINNED)
def test_exclusion_gives_up_above_the_fold(name, request):
    sys = request.getfixturevalue(name)
    fold, _, _ = potential_module._bp_fold(sys, DEFAULT_MAX_ITER)
    for tol in (1e-5, 1e-6):
        assert len(_exclude(sys, sys.ones(), fold + tol / 2, EXCLUDE_BUDGET))


def test_exclusion_spends_at_most_its_budget(lift36, sw_free, monkeypatch, caplog):
    # on the full d=8 lift exclusion cannot resolve: it gives up within its budget
    fold, _, _ = potential_module._bp_fold(lift36, DEFAULT_MAX_ITER)
    stepped = []
    step_raw = potential_module._step_raw
    monkeypatch.setattr(potential_module, "_step_raw",
                        lambda sys, x, eps: stepped.append(len(x)) or step_raw(sys, x, eps))
    assert len(_exclude(lift36, lift36.ones(), fold - 0.5e-5, EXCLUDE_BUDGET))
    # each level steps both corners of its boxes
    assert EXCLUDE_BUDGET / 2 < sum(stepped) // 2 * lift36.d <= EXCLUDE_BUDGET
    # Slepian-Wolf with gamma=0 has no partition, and exclusion gives up on it:
    # the pass iterates the lower probe, and the answer is the certified fold
    caplog.set_level(logging.DEBUG, logger="saturate")
    assert sw_free.partition is None
    fold, _, _ = potential_module._bp_fold(sw_free, DEFAULT_MAX_ITER)
    assert st.bp_threshold(sw_free, tol=1e-5) == fold
    assert "dies, stop rule), (eps=" in caplog.text and "excluded" not in caplog.text


# bp_threshold's floats on the lifted forms of (3,6), as they were before
# the lower probe was excluded on the quotient
_LIFTED_BP = {"lift36": 0.4294398144195082, "ones36": 0.4294398144194919}


@pytest.mark.parametrize("tol", [1e-5, 1e-6])
@pytest.mark.parametrize("name", list(_LIFTED_BP))
def test_lifted_lower_probe_is_excluded_on_the_quotient(name, tol, request, caplog):
    caplog.set_level(logging.DEBUG, logger="saturate")
    sys = request.getfixturevalue(name)
    assert potential_module._quotient(sys).d == 1
    assert st.bp_threshold(sys, tol=tol) == _LIFTED_BP[name]
    fold = [m for m in caplog.messages if m.startswith("bp_threshold fold: ")]
    assert len(fold) == 1 and "dies, excluded)" in fold[0]
    assert "survives, certified)" in fold[0]


def test_full_lift_dies_below_the_fold(lift36):
    # the plain recursion on all eight components, with no quotient in it
    res = st.iterate_limit(lift36, lift36.ones(), _LIFTED_BP["lift36"] - 0.5e-5)
    assert res.converged and np.max(res.limit) < ZERO_TOL


@pytest.fixture(scope="module")
def irregular_lift():
    """An irregular 2x4 protograph whose edges fall into 6 classes."""
    return st.make_protograph(st.ProtographSpec(H=np.array([[1, 3, 1, 1], [2, 1, 1, 2]])))


@pytest.mark.parametrize("name", [*_PINNED, "ones36", "irregular_lift"])
def test_fold_point_is_a_sub_solution_above_the_fold(name, request):
    # the upper probe's certificate: step(x; fold + tol/2) >= x in floats with
    # max x >= ZERO_TOL, for x the fixed point at the fold; the same x must
    # fail at fold - tol/2, so a fold placed too low cannot certify its upper side
    sys = request.getfixturevalue(name)
    fold, x, _ = potential_module._bp_fold(sys, DEFAULT_MAX_ITER)
    tols = np.array([1e-5, 1e-6, 1e-7])
    assert x.max() >= ZERO_TOL
    for tol in tols:
        assert np.all(st.step(sys, x, fold + tol / 2) >= x)
        assert not np.all(st.step(sys, x, fold - tol / 2) >= x)
    # the plain recursion agrees: all-ones survives at every fold + tol/2
    limits, _, converged = iterate_batch(sys, np.ones((len(tols), sys.d)), fold + tols / 2)
    assert converged and np.all(limits.max(axis=-1) >= ZERO_TOL)


@pytest.mark.parametrize("name, d", [("lift36", 1), ("ones36", 1), ("irregular_lift", 6)])
def test_quotient_is_an_admissible_system(name, d, request):
    sys = request.getfixturevalue(name)
    q = potential_module._quotient(sys)
    assert q.d == d and q.weights.sum() == sys.weights.sum()
    # its weights are the class sums, so its energies' gradients are its maps
    rep = st.verify_admissible(q, n_samples=200, seed=0)
    assert rep.ok, rep.violations
    # its step is the full step on the expanded state, up to the rounding by
    # which members of one class differ
    y = np.random.default_rng(3).random((20, d))
    full, quotient = st.step(sys, y[:, sys.partition], 0.45), st.step(q, y, 0.45)
    assert np.max(np.abs(full - quotient[:, sys.partition])) <= 1e-12


def test_quotient_is_the_system_without_a_coarser_partition(sw_half):
    assert potential_module._quotient(sw_half) is sw_half
    split = st.make_protograph(st.ProtographSpec(H=np.array([[3, 3]]), node_scale=[1.0, 0.5]))
    assert split.partition.tolist() == [0, 1]
    assert potential_module._quotient(split) is split


@pytest.mark.parametrize("name", ["lift36", "irregular_lift"])
def test_quotient_exclusion_never_resolves_where_the_limit_survives(name, request):
    # the quotient's exclusion decides the full system's lower probe, so it
    # must never resolve where the full system's plain limit survives
    sys = request.getfixturevalue(name)
    q = potential_module._quotient(sys)
    eps, plain = _grid_limits(sys)
    resolved = np.array([len(_exclude(q, q.ones(), e, EXCLUDE_BUDGET)) == 0 for e in eps])
    assert not resolved[~plain].any()
    assert resolved[0]  # 1e-3 below the threshold


def test_fixed_points_empty_below_threshold(sys36, thresholds36):
    assert st.fixed_points(sys36, 0.9 * thresholds36["bp"]) == []


def test_fixed_points_two_roots_on_diagonal(sys36):
    recs = st.fixed_points(sys36, 0.46)
    assert len(recs) == 2
    roots = sorted(nontrivial_fixed_points(0.46, LAM_36, RHO_36))
    for rec, ref in zip(recs, roots):
        assert rec.x[0] == pytest.approx(rec.x[1], abs=1e-10)  # diagonal
        assert rec.x[0] == pytest.approx(ref, abs=1e-7)
        assert rec.residual <= 1e-9


def test_fixed_points_contains_ones_limit_at_full_erasure(emac36):
    x_star = st.iterate_limit(emac36, emac36.ones(), 1.0).limit
    recs = st.fixed_points(emac36, 1.0)
    assert any(np.max(np.abs(r.x - x_star)) < 1e-8 for r in recs)
    assert all(r.residual < 1e-9 for r in recs)


def test_energy_gap_signs(sys36, thresholds36):
    bp, pot = thresholds36["bp"], thresholds36["potential"]
    assert st.energy_gap(sys36, bp + 0.01) > 0.0
    assert abs(st.energy_gap(sys36, pot)) < 1e-4
    assert math.isinf(st.energy_gap(sys36, 0.5 * bp))


def test_energy_gap_negative_at_full_erasure(all_systems):
    for sys in all_systems:
        assert st.energy_gap(sys, 1.0) < 0.0


def test_potential_threshold_matches_oracle(sys36):
    ref = oracle_pot(LAM_36, RHO_36)
    assert st.potential_threshold(sys36) == pytest.approx(ref, abs=1e-3)


def test_potential_threshold_decoupled_slepian_wolf(sw_free):
    assert st.potential_threshold(sw_free) == pytest.approx(0.48815, abs=1e-3)


def test_potential_threshold_at_least_bp(all_systems):
    for sys in all_systems:
        assert st.potential_threshold(sys) >= st.bp_threshold(sys) - 1e-6


def test_maxwell_equals_potential_threshold(all_systems):
    for sys in all_systems:
        pot = st.potential_threshold(sys)
        mx = st.maxwell_threshold(sys)
        assert abs(pot - mx) <= 2e-6


@pytest.mark.parametrize("theta", [0.0, 0.25])
def test_maxwell_walks_every_negative_q_branch(theta, lam36, rho36):
    sys = st.make_slepian_wolf(st.SlepianWolfParams(
        lam36, rho36, lam36, rho36, gamma=0.5, p=0.5, path=st.ScaledPath(theta=theta)))
    tol = 1e-5
    pot = st.potential_threshold(sys, tol=tol)
    assert abs(st.maxwell_threshold(sys) - pot) <= 2 * tol
    if theta == 0.0:
        # the branch through the all-ones limit crosses late (about 0.47925,
        # against 0.47630): the real crossing is on a second branch, on the face x2 = 0
        x_star = st.iterate_limit(sys, sys.ones(), 1.0).limit
        lo, hi = _branch_bracket(sys, x_star)
        assert _maxwell_crossing(sys, *lo, *hi) == pytest.approx(0.47925, abs=1e-5)
        assert _maxwell_crossing(sys, *lo, *hi) - pot > 2 * tol


def test_maxwell_invariant_under_lifting(sys36, lift36):
    tol = 1e-5
    assert abs(st.maxwell_threshold(sys36) - st.maxwell_threshold(lift36)) <= tol


def _sw_half_on(lam36, rho36, theta):
    """Slepian-Wolf gamma=0.5, p=0.5 on the scaled path of slope theta."""
    return st.make_slepian_wolf(st.SlepianWolfParams(
        lam36, rho36, lam36, rho36, gamma=0.5, p=0.5, path=st.ScaledPath(theta=theta)))


def _count_batches(monkeypatch):
    calls = []
    batch = potential_module._fixed_points_batch
    monkeypatch.setattr(potential_module, "_fixed_points_batch",
                        lambda sys, eps: calls.append(list(eps)) or batch(sys, eps))
    return calls


SW_HALF_MAXWELL = 0.32805526906908344  # Maxwell point of Slepian-Wolf theta=0.5


def test_potential_threshold_is_one_batch_after_maxwell(lam36, rho36, monkeypatch):
    # Maxwell's eps=1 enumeration, then both confirming gaps in one call
    calls = _count_batches(monkeypatch)
    assert st.potential_threshold(_sw_half_on(lam36, rho36, 0.5), tol=1e-5) == SW_HALF_MAXWELL
    assert calls == [[1.0], [SW_HALF_MAXWELL - 5e-6, SW_HALF_MAXWELL + 5e-6]]


def test_threshold_report_batches_its_enumerations(lam36, rho36, monkeypatch):
    # one call for the two confirming gaps and one for the gap curve, counted
    # rather than timed, so a per-eps loop or a second Maxwell run fails here
    calls = _count_batches(monkeypatch)
    grid = [0.1, 0.2, 0.3, 0.4]
    rep = st.threshold_report(_sw_half_on(lam36, rho36, 0.5), gap_grid=grid, tol=1e-5)
    assert rep.potential_threshold == rep.maxwell_threshold == SW_HALF_MAXWELL
    assert len(calls) == 3
    assert calls[0] == [1.0]  # maxwell_threshold
    assert calls[1] == [SW_HALF_MAXWELL - 5e-6, SW_HALF_MAXWELL + 5e-6]  # the confirmation
    assert calls[2] == grid


# potential_threshold before it became the confirmed Maxwell point: the
# bisection's float at tol 1e-5 and 1e-6
BISECTED_POTENTIAL = {
    "sys36": (0.4881477361075554, 0.48815107396765944),
    "lift36": (0.4881477361075554, 0.48815107396765944),
    "emac36": (0.33231735296260456, 0.3323159224511314),
    "sw_half": (0.24671554640758137, 0.24671220854747727),  # the diagonal path, theta=1
    "sw_theta_half": (0.3280525214239006, 0.3280549056096893),
}


@pytest.mark.parametrize("tol", [1e-5, 1e-6])
@pytest.mark.parametrize("name", list(BISECTED_POTENTIAL))
def test_potential_threshold_is_the_confirmed_maxwell_point(name, tol, request):
    sys = request.getfixturevalue(name)
    mx = st.maxwell_threshold(sys)
    below, above = potential_module._energy_gaps(sys, [mx - tol / 2, mx + tol / 2])
    assert below >= 0.0 > above
    got = st.potential_threshold(sys, tol=tol)
    assert got == mx
    assert abs(got - BISECTED_POTENTIAL[name][tol == 1e-6]) <= tol


# maxwell_threshold while it bisected each crossing to tol/4: its float at tol 1e-6
BISECTED_MAXWELL = {
    "sys36": 0.4881509042201384,
    "lift36": 0.4881509042201635,
    "emac36": 0.332316348093408,
    "sw_theta_zero": 0.4763017555806275,
    "sw_theta_quarter": 0.39109739059257437,
    "sw_theta_half": 0.32805526300075116,
    "sw_half": 0.24671183143037262,  # the diagonal path, theta=1
    "sw_free": 0.4881509042201384,
}


@pytest.mark.parametrize("name", list(BISECTED_MAXWELL))
def test_maxwell_point_is_a_sign_change_of_the_lattice_gap(name, request, caplog):
    # the gap read from the lattice enumeration, not from the branch walk
    # behind M, changes sign within 1e-8 of M
    sys = request.getfixturevalue(name)
    mx = st.maxwell_threshold(sys)
    assert st.energy_gap(sys, mx - 1e-8) >= 0.0 > st.energy_gap(sys, mx + 1e-8)
    assert abs(mx - BISECTED_MAXWELL[name]) <= 1e-6 / 4
    assert st.potential_threshold(sys, tol=1e-5) == st.potential_threshold(sys, tol=1e-6) == mx
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("failure", ["residual", "outside"])
def test_maxwell_takes_the_negative_end_of_a_failed_crossing(failure, sys36, monkeypatch,
                                                             caplog):
    # a failed solve contributes the bracket's Q < 0 end, a proven upper bound;
    # the confirmation then fails below, and the plain bisection answers
    tol = 1e-5
    mx = st.maxwell_threshold(sys36)
    newton = potential_module._newton

    def solve(resid, u0, free=None):  # the branch walk pins one unknown, the crossing none
        if free is not None:
            return newton(resid, u0, free)
        if failure == "residual":
            return u0, 1.0
        u, _ = newton(resid, u0)
        return np.append(u[:-1], 0.3), 0.0  # converged, but outside the bracket

    monkeypatch.setattr(potential_module, "_newton", solve)
    assert st.maxwell_threshold(sys36) == pytest.approx(0.49278, abs=1e-5)
    assert "maxwell_threshold: no crossing solved between eps=0.481079439 (Q >= 0) and " \
           "eps=0.492783687 (Q < 0)" in caplog.text
    got = st.potential_threshold(sys36, tol=tol)
    assert "(below side); bisecting" in caplog.text
    assert abs(got - mx) <= 2 * tol


def test_potential_threshold_logs_its_confirmation(sys36, caplog):
    caplog.set_level(logging.DEBUG, logger="saturate")
    got = st.potential_threshold(sys36, tol=1e-5)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("potential_threshold confirm: ")]
    assert len(lines) == 1
    probes = re.findall(r"\(eps=([^,]+), gap=([^,]+), (nonneg|negative)\)", lines[0])
    assert [verdict for *_, verdict in probes] == ["nonneg", "negative"]
    (lo, gap_lo, _), (hi, gap_hi, _) = probes
    assert float(lo) < got < float(hi) and float(hi) - float(lo) == pytest.approx(1e-5)
    assert float(gap_lo) >= 0.0 > float(gap_hi)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("offset, side", [(10, "below"), (-10, "above")])
def test_potential_threshold_falls_back_when_maxwell_is_off(offset, side, sys36, monkeypatch,
                                                            caplog):
    # a wrong estimate fails one side of the confirmation; the plain walk then
    # decides, so the answer still lies within 2*tol of the true Maxwell point
    tol = 1e-5
    mx = st.maxwell_threshold(sys36)
    monkeypatch.setattr(potential_module, "maxwell_threshold",
                        lambda sys: mx + offset * tol)
    got = st.potential_threshold(sys36, tol=tol)
    assert f"({side} side); bisecting" in caplog.text
    assert got == _one_probe_bisect(lambda e: st.energy_gap(sys36, e) >= 0.0, tol)
    assert abs(got - mx) <= 2 * tol


def test_maxwell_makes_one_fixed_points_call(sw_half, monkeypatch):
    calls = []
    enumerate_at = potential_module.fixed_points
    monkeypatch.setattr(potential_module, "fixed_points",
                        lambda sys, eps, **kw: calls.append(eps) or enumerate_at(sys, eps, **kw))
    st.maxwell_threshold(sw_half)
    assert calls == [1.0]


def test_maxwell_makes_one_newton_batch_call(sw_theta_half, monkeypatch):
    # the eps=1 enumeration of 63 seeds; each crossing is one _newton solve on (x, eps)
    calls = []
    solve = potential_module._newton_batch
    monkeypatch.setattr(potential_module, "_newton_batch",
                        lambda sys, X0, eps: calls.append(len(X0)) or solve(sys, X0, eps))
    assert st.maxwell_threshold(sw_theta_half) == SW_HALF_MAXWELL
    assert calls == [len(_seed_lattice_2d(FP_GRID))]


def test_maxwell_walk_ending_early_warns(sys36, monkeypatch, caplog):
    # a branch that ends while Q is still negative contributes the smallest eps it reached
    monkeypatch.setattr(potential_module, "_branch_points",
                        lambda sys, x0, n: iter([(x0, 1.0), (x0, 0.9)]))
    assert st.maxwell_threshold(sys36) == 0.9
    assert "with Q still negative" in caplog.text


def test_branch_points_split_steps_stay_on_the_branch(lam36, rho36, monkeypatch):
    # from the eps=1 limit of SW gamma=0.5, p=0.5 on theta=0, five grid steps
    # need split corrector steps; every point yielded must still be a fixed point
    sys = st.make_slepian_wolf(st.SlepianWolfParams(
        lam36, rho36, lam36, rho36, gamma=0.5, p=0.5, path=st.ScaledPath(theta=0.0)))
    solves = []
    solve = potential_module._newton_pinned
    monkeypatch.setattr(potential_module, "_newton_pinned",
                        lambda *a: solves.append(a) or solve(*a))
    x0 = st.iterate_limit(sys, sys.ones(), 1.0).limit
    points = list(_branch_points(sys, x0, 6))
    assert len(points) == 6
    assert len(solves) > len(points) - 1
    for x, eps in points:
        assert float(potential_module._residual_sup(sys, x, eps)) <= FP_RESIDUAL_TOL


def test_branch_points_skip_a_grid_value_whose_solves_fail(sw_half, monkeypatch, caplog):
    # every solve with the pinned component in [0.8, 0.85) leaves a residual
    # above FP_RESIDUAL_TOL, so the step to 0.8 and each of its split
    # mid-points fail, six splits deep, and 0.8 is skipped with a log line;
    # the first solve at 0.65 is singular, so that step is split and its
    # point still found, and the walk goes on to the end of the grid
    caplog.set_level(logging.INFO, logger="saturate")
    x0 = st.iterate_limit(sw_half, sw_half.ones(), 1.0).limit
    j = int(np.argmax(x0))
    want = list(_branch_points(sw_half, x0, 20))
    pinned_at = [x[j] for x, _ in want]
    prev, skip, singular = pinned_at[3], pinned_at[4], pinned_at[7]
    assert (prev, skip, singular) == pytest.approx((0.85, 0.8, 0.65))
    solve = potential_module._newton_pinned
    difference = potential_module._central_difference
    solves = []

    def failing(sys, j, p0):
        c = p0[j]
        solves.append(c)
        p, res = solve(sys, j, p0)
        return p, (1.0 if skip <= c < prev else res)

    def singular_once(fn, u, h, axes=slice(None)):
        if solves[-1] == singular and solves.count(singular) == 1:
            return -NEWTON_RIDGE * np.eye(sw_half.d)  # J + NEWTON_RIDGE I is zero
        return difference(fn, u, h, axes)

    monkeypatch.setattr(potential_module, "_newton_pinned", failing)
    monkeypatch.setattr(potential_module, "_central_difference", singular_once)
    got = list(_branch_points(sw_half, x0, 20))
    assert f"Newton diverged at x{j + 1}={skip:g}; point skipped" in caplog.text
    assert sum(skip <= c < prev for c in solves) > 6 and solves.count(singular) == 2
    kept = [p for p in want if p[0][j] != skip]
    assert [x[j] for x, _ in got] == [x[j] for x, _ in kept]
    for (x, eps), (x_want, eps_want) in zip(got, kept):
        assert np.allclose(x, x_want, rtol=0.0, atol=1e-9) and eps == pytest.approx(eps_want)


@pytest.mark.parametrize("name", ["sw_half", "lift36"])
def test_newton_pinned_holds_its_pinned_component(name, request):
    # started off the branch, the solve lands on it with x_j exactly where the start put it
    sys = request.getfixturevalue(name)
    x0 = st.iterate_limit(sys, sys.ones(), 1.0).limit
    j = int(np.argmax(x0))
    x, eps = list(_branch_points(sys, x0, 20))[5]
    p0 = np.append(x, eps) + 1e-3
    p, res = potential_module._newton_pinned(sys, j, p0)
    assert p[j] == p0[j] and res <= FP_RESIDUAL_TOL


def test_fixed_points_appends_ones_row_to_the_lattice(lift36):
    # d != 2: the all-ones start rides in the lattice batch, with no one-row run
    assert not hasattr(potential_module, "iterate_limit")
    recs = st.fixed_points(lift36, 1.0)
    x_star = st.iterate_limit(lift36, lift36.ones(), 1.0).limit
    assert any(np.max(np.abs(r.x - x_star)) < 1e-8 for r in recs)


@pytest.mark.parametrize("name", ["sys36", "emac36", "sw_half", "sw_free"])
def test_fixed_points_contain_the_all_ones_limit(name, request):
    # fixed_points seeds Newton from its lattice alone; the eps=1 limit from
    # all-ones, once a seed of its own, is still among the points it finds
    sys = request.getfixturevalue(name)
    x_star = st.iterate_limit(sys, sys.ones(), 1.0).limit
    recs = st.fixed_points(sys, 1.0)
    assert min(np.max(np.abs(r.x - x_star)) for r in recs) <= 1e-8


def _pinned_systems(lam36, rho36):
    return [_sw_half_on(lam36, rho36, 0.5), _sw_half_on(lam36, rho36, 1.0),
            st.make_emac(lam36, rho36, lam36, rho36), st.regular_protograph(3, 6)]


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.x, b.x)
        assert (a.eps_root, a.potential_value, a.residual) == (
            b.eps_root, b.potential_value, b.residual)


def test_fixed_points_batch_equals_per_eps_calls(lam36, rho36):
    # the seed lattice tiled over 31 eps in one Newton batch, record for record
    eps_values = np.linspace(0.02, 1.0, 31).tolist()
    for sys in _pinned_systems(lam36, rho36):
        batch = _fixed_points_batch(sys, eps_values)
        assert sum(map(len, batch)) > len(eps_values)
        for eps, recs in zip(eps_values, batch):
            _assert_same_records(recs, st.fixed_points(sys, eps))


def test_seed_lattice_rows_are_distinct():
    # identical seeds give identical candidates: each lattice point seeds once
    seeds = _seed_lattice_2d(FP_GRID)
    assert len(np.unique(seeds, axis=0)) == len(seeds)


def test_newton_batch_carries_its_residuals(lam36, rho36, monkeypatch):
    # the whole batch is stepped twice, for its start residual and for its
    # first Newton candidates; every later step covers only the rows still
    # moving, and the residuals returned are those of the returned rows
    sys = _sw_half_on(lam36, rho36, 0.5)
    seeds = _seed_lattice_2d(FP_GRID)
    eps = np.repeat([0.3, 0.33, 0.5, 1.0], len(seeds))
    X0 = np.tile(seeds, (4, 1))
    shapes = []
    step = potential_module._step_raw
    monkeypatch.setattr(potential_module, "_step_raw",
                        lambda sys, X, e: shapes.append(X.shape) or step(sys, X, e))
    X, res = potential_module._newton_batch(sys, X0, eps)
    monkeypatch.undo()
    residual_rows = [shape[0] for shape in shapes if len(shape) == 2]  # not the Jacobian stencils
    assert residual_rows[:2] == [len(X0), len(X0)] and len(residual_rows) > 2
    assert max(residual_rows[2:]) < len(X0)
    assert np.array_equal(res, potential_module._residual_sup(sys, X, eps))


@pytest.mark.parametrize("rows", ["all", "some"])
def test_singular_jacobian_stops_only_its_own_eps(rows, sw_half, monkeypatch):
    # a singular solve stops only the rows whose Jacobian is singular, where
    # their seeds stood; the other rows of that eps go on, no row of any other
    # eps notices, and the batch still equals one call per eps
    eps_values, bad = [0.3, 0.35, 0.5, 1.0], 0.35
    want = {eps: st.fixed_points(sw_half, eps) for eps in eps_values}
    assert want[bad]
    survivors = []
    if rows == "some":  # one column of the seed lattice is singular
        seeds = _seed_lattice_2d(FP_GRID)
        X, res = potential_module._newton_batch(sw_half, seeds[seeds[:, 0] != 0.97], bad)
        survivors = potential_module._records(sw_half, X, res, bad)
        assert survivors
    jacobian = potential_module._newton_jacobian

    def singular_at_bad(sys, X, eps):
        J = jacobian(sys, X, eps)
        hit = eps == bad
        if rows == "some":
            hit &= X[:, 0] == 0.97
        J[hit] = 0.0
        return J

    monkeypatch.setattr(potential_module, "_newton_jacobian", singular_at_bad)
    alone = st.fixed_points(sw_half, bad)
    # the points of the seeds whose Jacobians are not singular, and no others
    _assert_same_records(alone, survivors)
    batch = _fixed_points_batch(sw_half, eps_values)
    for eps, recs in zip(eps_values, batch):
        _assert_same_records(recs, alone if eps == bad else want[eps])


def test_singular_seeds_do_not_hide_the_fixed_points_of_the_others(sw_half, monkeypatch):
    # the seeds of the x1 = 0.97 lattice column have singular Jacobians at
    # eps 0.35; the other seeds still find all four fixed points, so the
    # energy gap that the potential threshold reads is unchanged
    want, gap = st.fixed_points(sw_half, 0.35), st.energy_gap(sw_half, 0.35)
    assert len(want) == 4 and gap < 0.0
    jacobian = potential_module._newton_jacobian

    def singular_column(sys, X, eps):
        J = jacobian(sys, X, eps)
        J[(eps == 0.35) & (X[:, 0] == 0.97)] = 0.0
        return J

    monkeypatch.setattr(potential_module, "_newton_jacobian", singular_column)
    assert st.energy_gap(sw_half, 0.35) == gap
    got = st.fixed_points(sw_half, 0.35)
    assert len(got) == 4
    for rec in got:
        assert min(np.max(np.abs(rec.x - w.x)) for w in want) <= CLUSTER_RADIUS


def test_thresholds_pinned_on_the_two_user_systems(lam36, rho36):
    # bp, potential and Maxwell thresholds at tol 1e-5, to the last bit
    pinned = {
        ("sw", 0.5): (0.062116239951652844, 0.32805526906908344, 0.32805526906908344),
        ("sw", 1.0): (0.04623497437144891, 0.2467118460524133, 0.2467118460524133),
        ("emac", None): (0.12255147068962187, 0.33231639356682025, 0.33231639356682025),
    }
    for (kind, theta), want in pinned.items():
        if kind == "sw":
            sys = _sw_half_on(lam36, rho36, theta)
        else:
            sys = st.make_emac(lam36, rho36, lam36, rho36)
        got = (st.bp_threshold(sys, tol=1e-5), st.potential_threshold(sys, tol=1e-5),
               st.maxwell_threshold(sys))
        assert got == want, (kind, theta)


def _lattice_seeds(sys, monkeypatch):
    # the seed rows fixed_points hands to the Newton batch, without solving
    class Seeds(Exception):
        pass

    def capture(sys, seeds, eps):
        raise Seeds(seeds)

    monkeypatch.setattr(potential_module, "_newton_batch", capture)
    with pytest.raises(Seeds) as caught:
        st.fixed_points(sys, 0.5)
    seeds = caught.value.args[0]
    assert np.array_equal(seeds[-1], sys.ones())
    return seeds[:-1]


@pytest.mark.parametrize("d", [2, 8, 14, 18])
def test_fixed_points_lattice_is_the_meshgrid_prefix(d, monkeypatch):
    sys = st.make_protograph(st.ProtographSpec(H=np.ones((2, d // 2), dtype=int)))
    per_axis = max(2, min(5, math.floor(FP_MAX_SEEDS ** (1.0 / d))))
    mesh = np.meshgrid(*[np.linspace(0.0, 1.0, per_axis)] * d, indexing="ij", copy=False)
    full = np.stack(mesh, axis=-1).reshape(-1, d)
    assert np.array_equal(_lattice_rows(d, per_axis, FP_MAX_SEEDS), full[:FP_MAX_SEEDS])
    if d != 2:  # d = 2 solves from its own seed grid
        assert np.array_equal(_lattice_seeds(sys, monkeypatch), full[:FP_MAX_SEEDS])


def test_fixed_points_lattice_at_d40_builds_only_the_kept_rows(monkeypatch):
    # 2**40 lattice points exist; the kept rows are the first corners in order
    sys = st.make_protograph(st.ProtographSpec(H=np.ones((2, 20), dtype=int)))
    rows = _lattice_seeds(sys, monkeypatch)
    corners = itertools.islice(itertools.product([0.0, 1.0], repeat=40), FP_MAX_SEEDS)
    assert np.array_equal(rows, np.array(list(corners)))


def test_compare_mins_strictly_decreasing(sys36, thresholds36):
    grid = np.linspace(thresholds36["bp"] + 2e-3, 1.0, 20)
    gaps = [st.energy_gap(sys36, float(e)) for e in grid]
    finite = [g for g in gaps if math.isfinite(g)]
    assert len(finite) == len(gaps)
    assert all(a > b for a, b in zip(finite[:-1], finite[1:]))


def _all_ones_branch(sys, n_points):
    """The branch walk from the all-ones limit at eps=1, as that limit, x rows and eps."""
    x_star = st.iterate_limit(sys, sys.ones(), 1.0).limit
    X, eps = zip(*_branch_points(sys, x_star, n_points))
    return x_star, np.array(X), np.array(eps)


@pytest.mark.parametrize("name", ["sys36", "lift36"])
def test_trace_curve_fold_is_bp_threshold(name, request, thresholds36):
    sys = request.getfixturevalue(name)
    x_star, X, eps = _all_ones_branch(sys, 150)
    assert len(eps) > 50
    assert eps.min() == pytest.approx(thresholds36["bp"], abs=1e-3)
    # endpoint: the all-ones limit at eps=1
    assert np.array_equal(X[0], x_star) and eps[0] == 1.0


def test_trace_curve_symmetric_emac(emac36):
    _, X, _ = _all_ones_branch(emac36, 80)
    assert len(X) > 20
    assert np.allclose(X[:, 0], X[:, 1], rtol=0.0, atol=1e-9)


def test_trace_curve_q_decreasing_on_stable_branch(sw_half):
    # the stable branch runs from the eps=1 endpoint down to the fold; along
    # it the fixed-point potential strictly decreases as eps increases, which
    # is the Q = -(1-gamma)P consistency the branch exposes
    _, X, eps = _all_ones_branch(sw_half, 60)
    assert len(eps) > 20
    fold = int(np.argmin(eps))
    assert eps[0] == 1.0 and fold > 5
    qs = st.potential(sw_half, X[: fold + 1], eps[: fold + 1])  # walked from eps=1 to the fold
    assert np.all(np.diff(qs) > 0.0)  # Q grows as eps drops


def test_quadrature_cross_checks(all_systems):
    rng = np.random.default_rng(7)
    for sys in all_systems:
        for x in rng.random((4, sys.d)):
            u = float(st.potential(sys, x, 0.55))
            qs = st.potential_quadrature(sys, x, 0.55, path="straight")
            qc = st.potential_quadrature(sys, x, 0.55, path="staircase")
            assert abs(u - qs) < 1e-8
            assert abs(qs - qc) < 1e-7


def test_descent_along_trajectories(sys36):
    # potential never increases along a monotone trajectory
    res = st.iterate_limit(sys36, sys36.ones(), 0.47, keep_path=True)
    us = np.asarray(st.potential(sys36, res.path, 0.47))
    assert np.all(np.diff(us) <= 1e-10)
    assert us[0] >= us[-1] - 1e-10


def test_threshold_report_validates(sys36):
    rep = st.threshold_report(sys36, gap_grid=[0.44, 0.47, 0.5], tol=1e-6)
    assert rep.bp_threshold <= rep.potential_threshold
    assert rep.enumeration == "heuristic"
    assert len(rep.energy_gap_curve) == 3
    rep.validate()
    with pytest.raises(ValueError, match="ordering violated"):
        dataclasses.replace(rep, bp_threshold=rep.potential_threshold + 3e-6).validate()
    with pytest.raises(ValueError, match="disagree beyond 2[*]tol"):
        dataclasses.replace(rep, maxwell_threshold=rep.potential_threshold - 3e-6).validate()


def _greedy_loop_cluster(points, residuals, radius):
    """The greedy clustering loop before vectorisation, kept as the reference."""
    order = np.argsort(residuals, kind="stable")
    kept = []
    for i in order:
        p = points[i]
        if all(np.max(np.abs(p - q)) > radius for q in kept):
            kept.append(p)
    return np.array(kept) if kept else np.empty((0, points.shape[-1]))


@pytest.mark.parametrize("seed", range(6))
def test_cluster_matches_greedy_loop(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 4
    centres = rng.random((8, d))
    picks = rng.integers(0, len(centres), 300)
    # offsets on the scale of the radius make chains of near-duplicates whose
    # clustering depends on the greedy order; a few exact copies and repeated
    # residuals exercise the stable tie-break
    pts = centres[picks] + rng.uniform(-1.5, 1.5, (300, d)) * CLUSTER_RADIUS
    pts[::17] = centres[picks[::17]]
    res = rng.integers(0, 5, 300) * 1e-12
    got = pts[_cluster(pts, res, CLUSTER_RADIUS)]
    want = _greedy_loop_cluster(pts, res, CLUSTER_RADIUS)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert len(got) > len(centres)  # the radius-scale offsets do split clusters


def test_cluster_empty():
    assert _cluster(np.empty((0, 3)), np.empty(0), CLUSTER_RADIUS).shape == (0,)


def test_thresholds_invariant_under_lifting(sys36, lift36):
    # (3,6) as [[3, 3]] and as the 2x4 lift [[1,2,1,2],[2,1,2,1]] is one ensemble
    tol = 1e-4
    for threshold in (st.bp_threshold, st.potential_threshold):
        assert abs(threshold(sys36, tol=tol) - threshold(lift36, tol=tol)) <= 2 * tol


@pytest.mark.parametrize("call, match", [
    (lambda sys: st.fixed_points(sys, 0.0), r"eps must lie in \(0, 1\]"),
    (lambda sys: st.fixed_points(sys, 1.5), r"eps must lie in \(0, 1\]"),
    (lambda sys: _fixed_points_batch(sys, [0.5, 1.5]),
     r"eps must lie in \(0, 1\]"),
    (lambda sys: _fixed_points_batch(sys, [0.0]), r"eps must lie in \(0, 1\]"),
    (lambda sys: st.potential_quadrature(sys, np.array([0.3, 0.4]), 0.5, path="curved"),
     "unknown path 'curved'"),
], ids=["fp_zero", "fp_above_one", "batch_above_one", "batch_zero", "quadrature_path"])
def test_potential_inputs_are_checked(sys36, call, match):
    with pytest.raises(ValueError, match=match):
        call(sys36)


def test_lift_enumerates_the_fixed_points_of_its_base(sys36, lift36):
    # at eps 0.47 [[3,3]] has an unstable (0.1625·1) and a stable (0.3994·1)
    # nontrivial fixed point; its 2x4 lift is the same ensemble
    recs = st.fixed_points(lift36, 0.47)
    assert len(recs) == len(st.fixed_points(sys36, 0.47))
    roots = sorted(nontrivial_fixed_points(0.47, LAM_36, RHO_36))
    assert len(roots) == 2
    for rec, root in zip(recs, roots):
        assert np.max(np.abs(rec.x - root)) <= 1e-7  # 0.1625·1, then 0.3994·1


ITERATED_SEEDS = 10000  # the lattice rows of the forward-iteration enumerator


def _iterated_records(sys, eps):
    """The fixed points that forward iteration of a 10 000-row lattice (plus all-ones) reaches.

    An independent enumerator: it finds only points that attract some lattice row.
    """
    per_axis = max(2, min(5, math.floor(ITERATED_SEEDS ** (1.0 / sys.d))))
    seeds = np.vstack([_lattice_rows(sys.d, per_axis, ITERATED_SEEDS), sys.ones()])
    limits, _, _ = iterate_batch(sys, seeds, eps)
    return potential_module._records(
        sys, limits, potential_module._residual_sup(sys, limits, eps), eps)


@pytest.mark.parametrize("spec", [
    st.ProtographSpec(H=np.array([[1, 2, 1, 2], [2, 1, 2, 1]])),
    st.ProtographSpec(H=np.array([[1, 3, 1, 1], [2, 1, 1, 2]])),
    st.ProtographSpec(H=np.ones((3, 6), dtype=int)),
    st.ProtographSpec(H=np.ones((2, 4), dtype=int), punctured_columns=frozenset({0})),
    st.ProtographSpec(H=np.ones((2, 4), dtype=int), node_scale=[1.0, 1.0, 0.5, 1.0]),
], ids=["lift", "irregular", "ones-3x6", "punctured", "scaled"])
def test_newton_enumeration_finds_every_iterated_fixed_point(spec):
    # every limit of the iterated lattice is within CLUSTER_RADIUS of a Newton
    # point, and the minimum potentials (the energy gaps) agree
    sys = st.make_protograph(spec)
    eps_values = np.linspace(0.3, 1.0, 15).tolist()
    found = _fixed_points_batch(sys, eps_values)
    n_reference = 0
    for eps, recs in zip(eps_values, found):
        reference = _iterated_records(sys, eps)
        n_reference += len(reference)
        points = np.array([r.x for r in recs]).reshape(-1, sys.d)
        for ref in reference:
            assert np.min(np.max(np.abs(points - ref.x), axis=-1)) <= CLUSTER_RADIUS, (eps, ref.x)
        want = potential_module._min_potential(reference)
        got = potential_module._min_potential(recs)
        assert got == want or abs(got - want) <= 1e-12, eps
    assert n_reference > 0
