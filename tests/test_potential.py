import dataclasses
import importlib
import itertools
import math

import numpy as np
import pytest

import saturate as st
from saturate.potential import (
    BISECT_MAX_HALVINGS,
    BP_BISECT_DEPTH,
    CLUSTER_RADIUS,
    FP_GRID,
    FP_MAX_SEEDS,
    FP_RESIDUAL_TOL,
    ZERO_TOL,
    _branch_crossing,
    _branch_points,
    _cluster,
    _lattice_rows,
    _make_record,
    _newton_batch,
    _seed_lattice_2d,
    _threshold_bisect,
    check_jacobian,
)
from saturate.system import DEFAULT_MAX_ITER

from scalar_oracle import (
    LAM_36,
    RHO_36,
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
    for rec in st.fixed_points(sys36, 0.47):
        assert rec.gradient_norm <= 1e-6


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


@pytest.mark.parametrize("edge, inclusive, tol, max_halvings", [
    *[(e, False, 1e-6, BISECT_MAX_HALVINGS) for e in _EDGES],
    (0.5 * (1e-9 + 1.0), True, 1e-6, BISECT_MAX_HALVINGS),  # edge on the first midpoint
    (1.0, True, 1e-6, BISECT_MAX_HALVINGS),  # holds at 1.0
    (1.0, False, 1e-6, BISECT_MAX_HALVINGS),  # fails only at 1.0
    (5e-10, False, 1e-6, BISECT_MAX_HALVINGS),  # fails already at 1e-9
    (_EDGES[0], False, 1.0, BISECT_MAX_HALVINGS),
    (_EDGES[0], False, 3.0, BISECT_MAX_HALVINGS),
    (_EDGES[1], False, 1e-6, 7),  # max_halvings cut, not a multiple of the depth
    (_EDGES[2], False, 0.0, BISECT_MAX_HALVINGS),  # halves until midpoints repeat in the last bit
])
def test_multisection_visits_the_one_probe_midpoints(edge, inclusive, tol, max_halvings):
    def holds(eps):
        return eps <= edge if inclusive else eps < edge

    seq = []
    ref = _one_probe_bisect(lambda e: seq.append(e) or holds(e), tol, max_halvings)
    for depth in (1, 3, BP_BISECT_DEPTH):
        calls = []

        def batched(eps):
            assert eps.ndim == 1
            calls.append(eps.tolist())
            return holds(eps)

        assert _threshold_bisect(batched, tol, "synthetic", max_halvings, depth=depth) == ref
        halvings = max(len(seq) - 2, 0)
        assert len(calls) == max(1, -(-halvings // depth))
        assert max(map(len, calls)) <= 2 ** depth + 1
        assert set(seq) <= {e for c in calls for e in c}


def _one_probe_bp(sys, tol, max_iter=DEFAULT_MAX_ITER):
    def dies(eps):
        res = st.iterate_limit(sys, sys.ones(), eps, max_iter=max_iter)
        return bool(np.max(res.limit) < ZERO_TOL)

    return _one_probe_bisect(dies, tol)


@pytest.mark.parametrize("name", ["sys36", "lift36", "emac36", "sw_half", "sw_free", "table", "irregular"])
def test_bp_threshold_equals_one_probe_bisection(name, request, lam36, rho36):
    if name == "table":
        path = st.TablePath(knots=[0.0, 0.5, 1.0], eps1=[0.0, 0.4, 1.0], eps2=[0.0, 0.6, 1.0])
        sys = st.make_slepian_wolf(
            st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.2, p=0.5, path=path))
    elif name == "irregular":
        lam = st.EdgePolynomial(np.array([0.0, 0.3, 0.7]))  # lambda_2 = 0.3
        sys = st.make_slepian_wolf(st.SlepianWolfParams(lam, rho36, lam, rho36, gamma=0.3, p=0.5))
    else:
        sys = request.getfixturevalue(name)
    assert st.bp_threshold(sys, tol=1e-5) == _one_probe_bp(sys, 1e-5)


def test_bp_threshold_logs_rows_still_moving(sys36, caplog):
    got = st.bp_threshold(sys36, tol=1e-3, max_iter=3)
    assert "iteration budget exhausted" in caplog.text
    # a budget-exhausted row counts as collapsing only below zero_tol, as before
    assert got == _one_probe_bp(sys36, 1e-3, max_iter=3)


def test_bp_threshold_logs_period_two_cycles(caplog):
    # (x1, x2) -> (x1, x1 (1 - x2)) alternates between (1, 1) and (1, 0):
    # no probe collapses, and the batch leaves through the cycle exit
    def zero(x, *_):
        return np.zeros(np.shape(x)[:-1])

    flip = st.SystemDefinition(
        d=2, weights=np.ones(2), check_update=lambda x: x, bit_energy=zero, check_energy=zero,
        bit_update=lambda y, eps: np.stack([y[..., 0], y[..., 0] * (1.0 - y[..., 1])], axis=-1))
    assert st.bp_threshold(flip) == 0.0
    assert "period-2 cycle exit" in caplog.text
    assert "eps = 1e-09" in caplog.text


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
    assert abs(st.maxwell_threshold(sys, tol=tol) - pot) <= 2 * tol
    if theta == 0.0:
        # the branch through the all-ones limit crosses late (about 0.4792):
        # the real crossing is on a second branch, on the face x2 = 0
        x_star = st.iterate_limit(sys, sys.ones(), 1.0).limit
        assert _branch_crossing(sys, x_star, tol) - pot > 2 * tol


def test_maxwell_invariant_under_lifting(sys36, lift36):
    tol = 1e-5
    assert abs(st.maxwell_threshold(sys36, tol=tol) - st.maxwell_threshold(lift36, tol=tol)) <= tol


def test_maxwell_makes_one_fixed_points_call(sw_half, monkeypatch):
    calls = []
    enumerate_at = potential_module.fixed_points
    monkeypatch.setattr(potential_module, "fixed_points",
                        lambda sys, eps, **kw: calls.append(eps) or enumerate_at(sys, eps, **kw))
    st.maxwell_threshold(sw_half, tol=1e-5)
    assert calls == [1.0]


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


def test_fixed_points_appends_ones_row_to_the_lattice(lift36, monkeypatch):
    # d != 2: the all-ones start rides in the lattice batch, with no one-row run
    monkeypatch.setattr(potential_module, "iterate_limit", None)
    recs = st.fixed_points(lift36, 1.0)
    x_star = st.iterate_limit(lift36, lift36.ones(), 1.0).limit
    assert any(np.max(np.abs(r.x - x_star)) < 1e-8 for r in recs)


def _seedless_fixed_points(sys, eps):
    # fixed_points' d = 2 enumeration without the all-ones limit among its seeds
    cands, res = _newton_batch(sys, _seed_lattice_2d(FP_GRID), eps)
    good = (res <= FP_RESIDUAL_TOL) & (np.max(np.abs(cands), axis=-1) > 1e-7)
    records = [_make_record(sys, p, eps) for p in _cluster(cands[good], res[good], CLUSTER_RADIUS)]
    return [r for r in records if r is not None]


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_fixed_points_same_without_the_all_ones_seed(p, lam36, rho36):
    # SW gamma=0: the one-row all-ones limit that fixed_points puts among its
    # Newton seeds adds no fixed point that the seed lattice misses
    grids = np.concatenate([np.linspace(0.005, 1.0, 16), np.linspace(0.4294, 0.431, 8)])
    for theta in (0.0, 0.5, 1.0):
        sys = st.make_slepian_wolf(st.SlepianWolfParams(
            lam36, rho36, lam36, rho36, gamma=0.0, p=p, path=st.ScaledPath(theta=theta)))
        for eps in grids.tolist():
            with_seed = np.array([r.x for r in st.fixed_points(sys, eps)]).reshape(-1, 2)
            seedless = np.array([r.x for r in _seedless_fixed_points(sys, eps)]).reshape(-1, 2)
            assert len(with_seed) == len(seedless), (theta, eps)
            for a, b in ((with_seed, seedless), (seedless, with_seed)):
                for x in a:
                    assert np.min(np.max(np.abs(b - x), axis=-1)) <= CLUSTER_RADIUS, (theta, eps)


def test_thresholds_pinned_on_the_two_user_systems(lam36, rho36):
    # bp, potential and Maxwell thresholds at tol 1e-5, to the last bit
    pinned = {
        ("sw", 0.5): (0.06211471651405716, 0.3280525214239006, 0.3280546913037936),
        ("sw", 1.0): (0.046237946510402694, 0.24671554640758137, 0.24671267299183325),
        ("emac", None): (0.12255477993017962, 0.33231735296260456, 0.3323169132473562),
    }
    for (kind, theta), want in pinned.items():
        if kind == "sw":
            sys = st.make_slepian_wolf(st.SlepianWolfParams(
                lam36, rho36, lam36, rho36, gamma=0.5, p=0.5, path=st.ScaledPath(theta=theta)))
        else:
            sys = st.make_emac(lam36, rho36, lam36, rho36)
        got = (st.bp_threshold(sys, tol=1e-5), st.potential_threshold(sys, tol=1e-5),
               st.maxwell_threshold(sys, tol=1e-5))
        assert got == want, (kind, theta)


def _lattice_seeds(sys, monkeypatch):
    # the seed rows fixed_points hands to the batch iteration, without iterating
    class Seeds(Exception):
        pass

    def capture(sys, seeds, eps, **kw):
        raise Seeds(seeds)

    monkeypatch.setattr(potential_module, "iterate_batch", capture)
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


def test_epsilon_of_x_round_trip(sys36):
    fp = st.iterate_limit(sys36, sys36.ones(), 0.45).limit
    assert st.epsilon_of_x(sys36, fp) == pytest.approx(0.45, abs=1e-6)


def test_epsilon_of_x_full_erasure_endpoint(emac36):
    # all-ones is a fixed point of the full-erasure channel
    assert st.epsilon_of_x(emac36, np.ones(2)) == pytest.approx(1.0, abs=1e-9)


def test_epsilon_of_x_zero_entry_pattern(sys36):
    # protograph rows couple the components: a state with one dead entry
    # cannot be a fixed point at any eps
    assert st.epsilon_of_x(sys36, np.array([0.0, 0.5])) is None


def test_epsilon_of_x_rejects_zero(sys36):
    with pytest.raises(ValueError):
        st.epsilon_of_x(sys36, np.zeros(2))


def test_fixed_point_potential(sys36, thresholds36):
    eps_star = thresholds36["potential"]
    fp = st.iterate_limit(sys36, sys36.ones(), eps_star).limit
    assert abs(st.fixed_point_potential(sys36, fp)) < 1e-4
    with pytest.raises(ValueError, match="not a fixed point"):
        st.fixed_point_potential(sys36, np.array([0.9, 0.1]))


def test_compare_mins_strictly_decreasing(sys36, thresholds36):
    grid = np.linspace(thresholds36["bp"] + 2e-3, 1.0, 20)
    gaps = [st.energy_gap(sys36, float(e)) for e in grid]
    finite = [g for g in gaps if math.isfinite(g)]
    assert len(finite) == len(gaps)
    assert all(a > b for a, b in zip(finite[:-1], finite[1:]))


@pytest.mark.parametrize("name", ["sys36", "lift36"])
def test_trace_curve_fold_is_bp_threshold(name, request, thresholds36):
    sys = request.getfixturevalue(name)
    curve = st.trace_fixed_point_curve(sys, n_points=150)
    assert len(curve) > 50
    assert min(r.eps_root for r in curve) == pytest.approx(thresholds36["bp"], abs=1e-3)
    # endpoint: the all-ones limit at eps=1
    x_star = st.iterate_limit(sys, sys.ones(), 1.0).limit
    assert np.max(np.abs(curve[0].x - x_star)) < 1e-9
    assert curve[0].eps_root == 1.0


def test_trace_curve_symmetric_emac(emac36):
    curve = st.trace_fixed_point_curve(emac36, n_points=80)
    assert len(curve) > 20
    for rec in curve:
        assert rec.x[0] == pytest.approx(rec.x[1], abs=1e-9)


def test_trace_curve_q_decreasing_on_stable_branch(sw_half):
    # the stable branch runs from the eps=1 endpoint down to the fold; along
    # it the fixed-point potential strictly decreases as eps increases, which
    # is the Q = -(1-gamma)P consistency the curve exposes
    curve = st.trace_fixed_point_curve(sw_half, n_points=60)
    assert len(curve) > 20
    eps = np.array([r.eps_root for r in curve])
    fold = int(np.argmin(eps))
    stable = curve[: fold + 1]  # traced from eps=1 toward the fold
    assert eps[0] == 1.0 and fold > 5
    qs = [r.potential_value for r in stable]
    assert all(a < b for a, b in zip(qs[:-1], qs[1:]))  # Q grows as eps drops


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
    got = _cluster(pts, res, CLUSTER_RADIUS)
    want = _greedy_loop_cluster(pts, res, CLUSTER_RADIUS)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert len(got) > len(centres)  # the radius-scale offsets do split clusters


def test_cluster_empty():
    assert _cluster(np.empty((0, 3)), np.empty(0), CLUSTER_RADIUS).shape == (0, 3)


def test_thresholds_invariant_under_lifting(sys36, lift36):
    # (3,6) as [[3, 3]] and as the 2x4 lift [[1,2,1,2],[2,1,2,1]] is one ensemble
    tol = 1e-4
    for threshold in (st.bp_threshold, st.potential_threshold):
        assert abs(threshold(sys36, tol=tol) - threshold(lift36, tol=tol)) <= 2 * tol
