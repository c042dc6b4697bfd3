import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import saturate as st
from saturate import kernels
from saturate.coupled import (
    _iterate_chains,
    coupled_step_indexform,
    shift_rows,
)
from saturate.system import DEFAULT_ITER_TOL, _step_raw


def test_coupling_spec_validation():
    spec = st.CouplingSpec(L=4, w=3)
    assert spec.i0 == 1
    assert spec.n_rows == 11
    A = spec.matrix()
    assert A.shape == (9, 11)
    assert np.allclose(A.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        st.CouplingSpec(L=-1, w=3)
    with pytest.raises(ValueError):
        st.CouplingSpec(L=4, w=0)
    assert st.CouplingSpec(L=np.int64(4), w=np.int32(3)) == spec  # numpy integers are sizes too


@pytest.mark.parametrize("L, w, match", [(float("nan"), 3, "L must"), (4, float("nan"), "w must"),
                                         (float("nan"), float("nan"), "L must"),
                                         (2.5, 3, "L must be an integer"),
                                         (2.0, 3, "L must be an integer"),
                                         (4, 2.0, "w must be an integer"),
                                         (True, 3, "L must be an integer"),
                                         (4, False, "w must be an integer")])
def test_coupling_spec_refuses_nan(L, w, match):
    with pytest.raises(ValueError, match=match):
        st.CouplingSpec(L=L, w=w)


@pytest.mark.parametrize("one_sided", ["no", "", 0, 1, 1.0, None, np.int64(1)])
def test_coupling_spec_refuses_a_non_bool_one_sided(one_sided):
    # only the value's truth was read, so "no" ran the one-sided chain
    with pytest.raises(ValueError, match="one_sided must be a bool"):
        st.CouplingSpec(L=4, w=3, one_sided=one_sided)
    assert st.CouplingSpec(L=4, w=3, one_sided=np.bool_(True)).one_sided


def test_coupled_step_zero_and_dead_channel(sys36):
    spec = st.CouplingSpec(L=3, w=2)
    zero = st.CoupledState.zeros(spec, sys36.d)
    assert st.coupled_step(sys36, zero, 0.7).max_entry() == 0.0
    ones = st.CoupledState.ones(spec, sys36.d)
    assert st.coupled_step(sys36, ones, 0.0).max_entry() == 0.0


def test_coupled_step_w1_is_single_system(sys36):
    spec = st.CouplingSpec(L=1, w=1)
    rng = np.random.default_rng(0)
    rows = rng.random((spec.n_rows, 2))
    out = st.coupled_step(sys36, st.CoupledState(rows=rows, spec=spec), 0.6)
    for i in range(spec.n_rows):
        assert np.allclose(out.rows[i], _step_raw(sys36, rows[i], 0.6), atol=1e-15)


@pytest.mark.parametrize("L, w", [(0, 1), (0, 3), (2, 1), (4, 3), (5, 4)])
def test_matrix_vs_index_form(all_systems, L, w):
    rng = np.random.default_rng(1)
    spec = st.CouplingSpec(L=L, w=w)
    for sys in all_systems:
        X = st.CoupledState(rows=rng.random((spec.n_rows, sys.d)), spec=spec)
        a = st.coupled_step(sys, X, 0.5).rows
        b = coupled_step_indexform(sys, X, 0.5).rows
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("L, w", [(3, 1), (3, 2), (5, 4)])
def test_window_ops_match_dense_matrix(L, w):
    rng = np.random.default_rng(2)
    spec = st.CouplingSpec(L=L, w=w)
    A = spec.matrix()
    Z = rng.random((spec.n_rows, 2))
    Y = rng.random((spec.n_bit_rows, 2))
    assert np.max(np.abs(kernels.window_mean_forward(Z, w) - A @ Z)) < 1e-14
    assert np.max(np.abs(kernels.window_mean_adjoint(Y, w) - A.T @ Y)) < 1e-14


def test_matrix_vs_dense_operator(sys36):
    rng = np.random.default_rng(2)
    spec = st.CouplingSpec(L=5, w=4)
    rows = rng.random((spec.n_rows, 2))
    A = spec.matrix()
    ref = A.T @ sys36.bit_update(A @ sys36.check_update(rows), 0.6)
    out = st.coupled_step(sys36, st.CoupledState(rows=rows, spec=spec), 0.6)
    assert np.max(np.abs(out.rows - ref)) < 1e-13


def test_one_sided_upper_bounds_basic(sys36):
    spec = st.CouplingSpec(L=8, w=3)
    ospec = st.CouplingSpec(L=8, w=3, one_sided=True)
    basic, _ = st.coupled_limit(sys36, spec, 0.50)
    onesided, _ = st.coupled_limit(sys36, ospec, 0.50)
    assert np.all(onesided.rows >= basic.rows - 1e-12)
    assert np.all(np.diff(onesided.rows, axis=0) >= -1e-12)
    # the rows above i0 are pinned to row i0
    assert np.all(onesided.rows[ospec.i0_row + 1 :] == onesided.rows[ospec.i0_row])


def test_one_sided_step_dominates_basic(sys36):
    # below the pinned position the two updates coincide; along the all-ones
    # trajectory the pinning keeps the whole one-sided state above the basic one
    spec = st.CouplingSpec(L=6, w=3)
    ospec = st.CouplingSpec(L=6, w=3, one_sided=True)
    rng = np.random.default_rng(8)
    rows = np.sort(rng.random((spec.n_rows, 2)), axis=0)
    rows[ospec.i0_row + 1 :] = rows[ospec.i0_row]
    basic = st.coupled_step(sys36, st.CoupledState(rows=rows.copy(), spec=spec), 0.5)
    onesided = st.coupled_step(sys36, st.CoupledState(rows=rows.copy(), spec=ospec), 0.5)
    assert np.allclose(onesided.rows[: ospec.i0_row + 1],
                       basic.rows[: ospec.i0_row + 1], atol=1e-15)

    b = st.CoupledState.ones(spec, sys36.d)
    o = st.CoupledState.ones(ospec, sys36.d)
    for _ in range(12):
        b = st.coupled_step(sys36, b, 0.5)
        o = st.coupled_step(sys36, o, 0.5)
        assert np.all(o.rows >= b.rows - 1e-12)


def test_coupled_limit_saturation_demo(sys36):
    spec = st.CouplingSpec(L=16, w=3)
    state, rep = st.coupled_limit(sys36, spec, 0.47)
    assert rep.converged and rep.is_zero and rep.monotone_ok
    assert state.max_entry() < 1e-8
    state, rep = st.coupled_limit(sys36, spec, 0.50)
    assert rep.converged and not rep.is_zero
    assert state.max_entry() > 0.4


def test_coupled_limit_dead_channel(sys36):
    spec = st.CouplingSpec(L=4, w=2)
    state, rep = st.coupled_limit(sys36, spec, 0.0)
    assert rep.is_zero and rep.iterations <= 2


def test_coupled_limit_reports_a_rise(flip, caplog):
    # with w = 1 each row steps alone, and flip's second component climbs
    # back from 0 to 1 on every other step: the run is not monotone, and it
    # never stalls before its budget
    state, rep = st.coupled_limit(flip, st.CouplingSpec(L=1, w=1), 0.5, max_iter=5)
    assert not rep.monotone_ok and not rep.converged
    assert rep.iterations == 5 and "no convergence after 5 iterations" in caplog.text
    assert np.array_equal(state.rows, np.tile([1.0, 0.0], (3, 1)))


def test_coupled_limit_snapshots(sys36):
    spec = st.CouplingSpec(L=4, w=2)
    state, rep = st.coupled_limit(sys36, spec, 0.45, record_every=10)
    assert rep.snapshots[0][0] == 0
    assert rep.snapshots[-1][0] == rep.iterations
    iters = [it for it, _ in rep.snapshots]
    assert iters == sorted(iters)


def test_coupled_limit_recording_keeps_the_run(sys36):
    # snapshots every 7 steps land on the same state after the same count
    spec = st.CouplingSpec(L=8, w=3)
    a, rep_a = st.coupled_limit(sys36, spec, 0.5)
    b, rep_b = st.coupled_limit(sys36, spec, 0.5, record_every=7)
    assert rep_a.iterations == rep_b.iterations
    assert np.array_equal(a.rows, b.rows)
    n = rep_b.iterations
    assert [it for it, _ in rep_b.snapshots] == list(range(0, n, 7)) + [n]
    assert np.array_equal(rep_b.snapshots[-1][1], b.rows)


@pytest.mark.parametrize("one_sided", [False, True], ids=["basic", "one_sided"])
def test_coupled_step_walks_the_coupled_limit_run(sys36, one_sided):
    # one update per chain geometry: coupled_step, iterated from all-ones,
    # lands on coupled_limit's rows after as many steps
    spec = st.CouplingSpec(L=8, w=3, one_sided=one_sided)
    limit, rep = st.coupled_limit(sys36, spec, 0.5)
    X = st.CoupledState.ones(spec, sys36.d)
    for _ in range(rep.iterations):
        X = st.coupled_step(sys36, X, 0.5)
    assert np.array_equal(X.rows, limit.rows)


def test_coupled_limit_table_path_slepian_wolf(lam36, rho36):
    path = st.TablePath(knots=[0, 1], eps1=[0, 1], eps2=[0, 1])
    sys = st.make_slepian_wolf(
        st.SlepianWolfParams(lam36, rho36, lam36, rho36, gamma=0.1, p=0.2, path=path)
    )
    state, rep = st.coupled_limit(sys, st.CouplingSpec(L=4, w=2), 0.2, max_iter=20000)
    assert rep.converged


def test_coupled_potential_zero(all_systems):
    spec = st.CouplingSpec(L=3, w=2)
    for sys in all_systems:
        zero = st.CoupledState.zeros(spec, sys.d)
        assert st.coupled_potential(sys, zero, 0.6) == 0.0


def test_coupled_potential_w1_sums_single(sys36):
    spec = st.CouplingSpec(L=2, w=1)
    rng = np.random.default_rng(3)
    rows = rng.random((spec.n_rows, 2))
    X = st.CoupledState(rows=rows, spec=spec)
    total = st.coupled_potential(sys36, X, 0.55)
    singles = sum(float(st.potential(sys36, rows[i], 0.55)) for i in range(spec.n_rows))
    assert total == pytest.approx(singles, abs=1e-12)


def test_coupled_gradient_matches_finite_differences(sys36):
    spec = st.CouplingSpec(L=3, w=2)
    rng = np.random.default_rng(4)
    rows = rng.random((spec.n_rows, 2)) * 0.9 + 0.05
    X = st.CoupledState(rows=rows, spec=spec)
    grad = st.coupled_gradient(sys36, X, 0.6)
    h = 1e-6
    for i in (0, 3, spec.n_rows - 1):
        for k in (0, 1):
            rp, rm = rows.copy(), rows.copy()
            rp[i, k] += h
            rm[i, k] -= h
            fd = (st.coupled_potential(sys36, st.CoupledState(rows=rp, spec=spec), 0.6)
                  - st.coupled_potential(sys36, st.CoupledState(rows=rm, spec=spec), 0.6)) / (2 * h)
            assert fd == pytest.approx(grad[i, k], rel=1e-5, abs=1e-8)


def test_coupled_gradient_vanishes_at_fixed_point(sys36):
    spec = st.CouplingSpec(L=8, w=3)
    state, rep = st.coupled_limit(sys36, spec, 0.50, tol=1e-13)
    grad = st.coupled_gradient(sys36, state, 0.50)
    assert np.max(np.abs(grad)) <= 1e-6


def test_one_sided_gradient_structure(sys36):
    ospec = st.CouplingSpec(L=8, w=3, one_sided=True)
    state, _ = st.coupled_limit(sys36, ospec, 0.52, tol=1e-13)
    assert state.max_entry() > 0.1
    grad = st.coupled_gradient(sys36, state, 0.52)
    # rows up to the pinned position are stationary
    assert np.max(np.abs(grad[: ospec.i0_row + 1])) <= 1e-6
    # orthogonality of the gradient and the shift direction
    inner = float(np.sum(grad * (shift_rows(state.rows) - state.rows)))
    assert abs(inner) <= 1e-8


def test_shift_operator(sys36):
    spec = st.CouplingSpec(L=2, w=2)
    ones = st.CoupledState.ones(spec, 2)
    sh = st.shift(ones)
    assert np.all(sh.rows[0] == 0.0)
    assert np.all(sh.rows[1:] == 1.0)
    zero = st.CoupledState.zeros(spec, 2)
    assert st.shift(zero).max_entry() == 0.0


def test_shift_one_norm_telescopes():
    # non-decreasing columns: the 1-norm of SX - X collapses to the last row
    rows = np.linspace(0, 1, 12)[:, None] * np.array([[1.0, 0.5]])
    diff = shift_rows(rows) - rows
    assert np.sum(np.abs(diff)) == pytest.approx(np.sum(np.abs(rows[-1])), abs=1e-12)


def test_verify_shift_lemmas_protograph(sys36):
    ospec = st.CouplingSpec(L=16, w=3, one_sided=True)
    for eps in (0.47, 0.52):
        state, _ = st.coupled_limit(sys36, ospec, eps, tol=1e-13)
        for c in st.verify_shift_lemmas(sys36, state, eps):
            assert c.passed, f"{eps}: {c.name}: {c.detail}"


def test_verify_shift_lemmas_emac(emac36):
    # window 4 between the EMAC thresholds
    ospec = st.CouplingSpec(L=16, w=4, one_sided=True)
    state, _ = st.coupled_limit(emac36, ospec, 0.25, tol=1e-13)
    for c in st.verify_shift_lemmas(emac36, state, 0.25):
        assert c.passed, f"{c.name}: {c.detail}"


def test_verify_shift_lemmas_zero_state(sys36):
    spec = st.CouplingSpec(L=4, w=3, one_sided=True)
    zero = st.CoupledState.zeros(spec, 2)
    for c in st.verify_shift_lemmas(sys36, zero, 0.4):
        assert c.passed


@pytest.fixture(scope="module")
def ones36():
    """(3,6) as the all-ones 3x6 protograph (d=18)."""
    return st.make_protograph(st.ProtographSpec(H=np.ones((3, 6), dtype=int)))


@pytest.fixture(scope="module")
def proto_irregular():
    return st.make_protograph(st.ProtographSpec(H=np.array([[1, 3, 1, 1], [2, 1, 1, 2]])))


# derivatives peak at the cube's corners: on [[3, 3]] the g' row sum is 5, g'' 12
# and f' 2, so K = 3 (5 + 12 + 2 * 25 * 2); on the erasure MAC f' peaks at eps=0
HESSIAN_PINNED = {
    "sys36": 3.0 * (5.0 + 12.0 + 2.0 * 25.0 * 2.0),
    "lift36": 226.0,
    "ones36": 109.0,
    "proto_irregular": 501.0,
    "emac36": 3.0 * (5.0 + 20.0 + 2.0 * 25.0 * 2.5),
    "sw_half": 487.5,
    "irregular": 337.9962,
}


@pytest.mark.parametrize("name", HESSIAN_PINNED)
def test_hessian_bound_protograph(name, request):
    K = st.hessian_bound(request.getfixturevalue(name))
    assert K == pytest.approx(HESSIAN_PINNED[name], rel=1e-6)


def test_hessian_bound_linear_check_side():
    # with a linear check map the curvature term drops out
    w = np.array([2.0, 1.5])
    sys = st.SystemDefinition(
        d=2,
        weights=w,
        bit_update=lambda y, eps: eps * np.asarray(y, float),
        check_update=lambda x: np.asarray(x, float),
        bit_energy=lambda x, eps: eps * np.sum(w * np.asarray(x, float) ** 2, axis=-1) / 2.0,
        check_energy=lambda x: np.sum(w * np.asarray(x, float) ** 2, axis=-1) / 2.0,
        name="linear",
    )
    K = st.hessian_bound(sys)
    assert K == pytest.approx(2.0 * (1.0 + 0.0 + 2.0 * 1.0 * 1.0), rel=1e-4)


def test_hessian_bound_scales_with_weights(sys36):
    doubled = dataclasses.replace(sys36, weights=2.0 * sys36.weights)
    assert st.hessian_bound(doubled) == pytest.approx(2.0 * st.hessian_bound(sys36), rel=1e-9)


def _differences(fn, pts, h=1e-5):
    # [..., j, k] = d fn_k / dz_j at each point, by central differences
    eye = h * np.eye(pts.shape[-1])
    return (fn(pts[..., None, :] + eye) - fn(pts[..., None, :] - eye)) / (2.0 * h)


def _sampled_hessian_bound(sys):
    # the bound's three suprema over samples: a lattice a hair inside the cube
    # plus uniform points, with f' on an eps grid from 0 to 1
    d = sys.d
    axis = np.linspace(1e-4, 1.0 - 1e-4, max(2, round(256 ** (1.0 / d))))
    lattice = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    pts = np.vstack([lattice, np.random.default_rng(0).random((64, d))])
    g1 = np.max(np.sum(np.abs(_differences(sys.check_update, pts)), axis=-2))
    g2 = np.max(np.sum(np.abs(_differences(lambda z: _differences(sys.check_update, z), pts)),
                       axis=-3))
    f1 = max(np.max(np.sum(np.abs(_differences(lambda z: sys.bit_update(z, eps), pts)), axis=-2))
             for eps in np.linspace(0.0, 1.0, 11))
    return float(np.max(sys.weights)) * (g1 + g2 + 2.0 * g1 * g1 * f1)


@pytest.mark.parametrize("name", ["sys36", "lift36", "emac36", "sw_half", "table", "irregular"])
def test_hessian_bound_covers_a_sampled_supremum(name, request):
    sys = request.getfixturevalue(name)
    K = st.hessian_bound(sys)
    sampled = _sampled_hessian_bound(sys)
    assert sampled <= K * (1.0 + 1e-9)
    assert sampled > 0.99 * K  # the corners are a supremum, approached from inside


def test_hessian_bound_memory_at_d8(lift36):
    # differences at the corners only: (1, 8, 8, 8) arrays, far below the cap
    tracemalloc.start()
    try:
        st.hessian_bound(lift36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_min_coupling_width(sys36, thresholds36):
    assert st.min_coupling_width(sys36, 0.5 * thresholds36["bp"]) == 0.0
    w45 = st.min_coupling_width(sys36, 0.45)
    assert math.isfinite(w45) and w45 > 0
    # diverges approaching the potential threshold
    grid = [0.45, 0.46, 0.47, 0.48]
    bounds = [st.min_coupling_width(sys36, e) for e in grid]
    assert all(a < b for a, b in zip(bounds[:-1], bounds[1:]))
    with pytest.raises(ValueError, match="gap"):
        st.min_coupling_width(sys36, thresholds36["potential"] + 0.01)


def test_coupled_bp_threshold_degenerate_coupling(sys36, thresholds36):
    cbp = st.coupled_bp_threshold(sys36, L=0, w=1, tol=1e-4)
    assert cbp == pytest.approx(thresholds36["bp"], abs=2e-4)


def test_coupled_bp_threshold_monotone_in_w(sys36):
    vals = [st.coupled_bp_threshold(sys36, L=16, w=w, tol=5e-4, max_iter=30000)
            for w in (1, 2, 3)]
    assert vals[0] <= vals[1] + 5e-4
    assert vals[1] <= vals[2] + 5e-4
    assert vals[2] > vals[0] + 0.04  # saturation lift


def test_taylor_chain_at_w1_fixed_point(sys36, thresholds36):
    # between the thresholds the uncoupled (w=1) one-sided chain keeps a
    # nontrivial fixed point, where the shift costs at least the energy gap
    eps = 0.5 * (thresholds36["bp"] + thresholds36["potential"])
    ospec = st.CouplingSpec(L=8, w=1, one_sided=True)
    state, _ = st.coupled_limit(sys36, ospec, eps, tol=1e-13)
    assert state.max_entry() > 1e-3
    du = st.coupled_potential(sys36, st.shift(state), eps) - st.coupled_potential(
        sys36, state, eps)
    gap = st.energy_gap(sys36, eps)
    assert du <= -gap + 1e-6
    K = st.hessian_bound(sys36)
    assert abs(du) <= sys36.d / 2.0 * K + 1e-6


def _window_forward_reference(Z, w):
    # one chain (n, d), summed the way the sliding-window operator always has
    if w == 1:
        return Z.copy()
    return sliding_window_view(Z, w, axis=0).sum(axis=-1) / w


def _window_adjoint_reference(Y, w):
    if w == 1:
        return Y.copy()
    pad = np.zeros((w - 1, Y.shape[1]))
    return _window_forward_reference(np.concatenate([pad, Y, pad], axis=0), w)


@pytest.mark.parametrize("L, w", [(3, 1), (3, 2), (5, 4), (32, 3), (256, 3), (64, 7)])
@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("k", [1, 3])
def test_stacked_window_ops_match_sliding_window_sums(L, w, d, k):
    rng = np.random.default_rng(L * 100 + w * 10 + d)
    Z = rng.random((k, 2 * L + w, d))
    Y = rng.random((k, 2 * L + 1, d))
    fwd = kernels.window_mean_forward(Z, w)
    adj = kernels.window_mean_adjoint(Y, w)
    assert fwd.shape == (k, 2 * L + 1, d) and adj.shape == Z.shape
    for i in range(k):
        assert np.array_equal(fwd[i], _window_forward_reference(Z[i], w))
        assert np.array_equal(adj[i], _window_adjoint_reference(Y[i], w))
        # a single chain passed as (n, d) gives the same rows
        assert np.array_equal(kernels.window_mean_forward(Z[i], w), fwd[i])
        assert np.array_equal(kernels.window_mean_adjoint(Y[i], w), adj[i])


@pytest.mark.parametrize("name", ["sys36", "emac36", "sw_half"])
@pytest.mark.parametrize("spec", [st.CouplingSpec(L=4, w=2), st.CouplingSpec(L=6, w=3, one_sided=True)])
def test_chain_stack_matches_one_chain_runs(name, spec, request):
    # every chain stops on the step at which it would stop alone, including
    # chains cut by the budget
    sys = request.getfixturevalue(name)
    eps = np.array([0.2, 0.3, 0.45, 0.5, 0.6])
    max_iter = 60
    start = np.ones((len(eps), spec.n_rows, sys.d))
    rows, iterations, sup_change = _iterate_chains(sys, spec, start, eps[:, None],
                                                   DEFAULT_ITER_TOL, max_iter)
    assert np.all(start == 1.0)
    for i, e in enumerate(eps):
        state, rep = st.coupled_limit(sys, spec, float(e), max_iter=max_iter)
        assert np.array_equal(rows[i], state.rows)
        assert iterations[i] == rep.iterations
        assert sup_change[i] == rep.sup_change
    assert np.any(iterations == max_iter) and np.any(iterations < max_iter)


def _one_probe_coupled_bp_threshold(sys, L, w, tol):
    # the one-chain-per-probe bisection the batched passes must reproduce
    spec = st.CouplingSpec(L=L, w=w)

    def dies(eps):
        _, rep = st.coupled_limit(sys, spec, eps)
        return rep.converged and rep.is_zero

    lo, hi = 1e-9, 1.0
    if dies(1.0):
        return 1.0
    if not dies(lo):
        return 0.0
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if dies(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("name", ["sys36", "emac36", "sw_half"])
def test_coupled_bp_threshold_equals_one_probe_bisection(name, request):
    sys = request.getfixturevalue(name)
    assert (st.coupled_bp_threshold(sys, L=8, w=3, tol=1e-3)
            == _one_probe_coupled_bp_threshold(sys, 8, 3, 1e-3))


def test_coupled_bp_threshold_logs_probes(sys36, caplog):
    caplog.set_level(logging.DEBUG, logger="saturate")
    st.coupled_bp_threshold(sys36, L=4, w=2, tol=0.1, max_iter=40)
    passes = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG
              and r.getMessage().startswith("coupled_bp_threshold pass")]
    assert passes and "(eps=1, steps=" in passes[0] and "survives)" in passes[0]
    assert "(eps=1e-09, steps=" in passes[0] and "dies)" in passes[0]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("iteration budget exhausted" in m and "eps = " in m for m in warnings)


@pytest.mark.parametrize("eps", [1.5, -0.2])
def test_coupled_limit_rejects_eps_outside_unit_interval(sys36, eps):
    with pytest.raises(ValueError, match="eps outside"):
        st.coupled_limit(sys36, st.CouplingSpec(L=4, w=2), eps)


@pytest.mark.parametrize("rows, match", [
    (np.zeros((10, 2)), "state needs 11 rows, got 10"),
    (np.full((11, 2), 1.5), r"coupled state outside \[0,1\]"),
    (np.full((11, 2), -0.5), r"coupled state outside \[0,1\]"),
], ids=["row_count", "above_one", "below_zero"])
def test_coupled_state_refuses_bad_rows(rows, match):
    with pytest.raises(ValueError, match=match):
        st.CoupledState(rows=rows, spec=st.CouplingSpec(L=4, w=3))
