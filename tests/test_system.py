import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import saturate as st
from saturate.system import (
    CYCLE_CHECK_EVERY,
    DEFAULT_ITER_TOL,
    DEFAULT_MAX_ITER,
    MONO_SLACK,
    _central_difference,
    _classify_direction,
    _step_raw,
    iterate_batch,
)

from scalar_oracle import LAM_36, RHO_36, de_limit


def test_step_zero_state(all_systems):
    for sys in all_systems:
        for eps in (0.2, 0.7, 1.0):
            assert np.max(np.abs(st.step(sys, sys.zeros(), eps))) == 0.0


def test_step_zero_parameter(sys36):
    # the protograph channel vanishes at eps=0 for any state
    rng = np.random.default_rng(1)
    for x in rng.random((5, 2)):
        assert np.max(np.abs(st.step(sys36, x, 0.0))) == 0.0


def test_step_protograph_ones():
    sys = st.regular_protograph(3, 6)
    out = st.step(sys, np.ones(2), 0.5)
    assert np.allclose(out, 0.5, atol=1e-15)


def test_step_domain_errors(sys36):
    with pytest.raises(ValueError):
        st.step(sys36, [1.2, 0.5], 0.5)
    with pytest.raises(ValueError, match="shape"):
        st.step(sys36, np.ones(3), 0.5)
    with pytest.raises(ValueError):
        st.step(sys36, [0.5, 0.5], 1.5)


_NOT_STATES = {  # of the (3,6) protograph, d=2
    "three entries": (np.ones(3), "shape"),
    "outside [0,1]": (np.array([2.0, -1.0]), "outside"),
    "NaN entry": (np.array([np.nan, 0.5]), "outside"),
}


@pytest.mark.parametrize("bad", list(_NOT_STATES))
def test_iterate_limit_rejects_what_is_not_a_state(sys36, bad, caplog):
    # not a "limit" read from a column the system never wrote, nor a silent clip
    x, match = _NOT_STATES[bad]
    with pytest.raises(ValueError, match=match):
        st.iterate_limit(sys36, x, 0.4)
    assert not caplog.records


@pytest.mark.parametrize("bad", list(_NOT_STATES))
def test_iterate_batch_rejects_what_is_not_a_state(sys36, bad):
    x, match = _NOT_STATES[bad]
    with pytest.raises(ValueError, match=match):
        iterate_batch(sys36, np.stack([x, x]), 0.4)


def test_step_per_row_eps(sw_half):
    rng = np.random.default_rng(2)
    X = rng.random((6, 2))
    e = np.linspace(0.0, 1.0, 6)
    rows = np.stack([st.step(sw_half, X[i], float(e[i])) for i in range(6)])
    assert np.array_equal(st.step(sw_half, X, e), rows)
    assert np.array_equal(st.step(sw_half, X.reshape(2, 3, 2), e.reshape(2, 3)), rows.reshape(2, 3, 2))
    # a shorter eps axis broadcasts along the batch: row (a, b) sees e[b]
    per_column = [st.step(sw_half, X[i], float(e[i % 3])) for i in range(6)]
    assert np.array_equal(st.step(sw_half, X.reshape(2, 3, 2), e[:3]),
                          np.reshape(per_column, (2, 3, 2)))
    for bad_shape in (e[:5], e.reshape(6, 1)):
        with pytest.raises(ValueError, match="broadcast"):
            st.step(sw_half, X, bad_shape)
    with pytest.raises(ValueError, match="broadcast"):
        st.step(sw_half, X[0], e)  # would enlarge a single state into a batch
    for bad in (1.5, -0.1, np.nan):
        e_bad = e.copy()
        e_bad[3] = bad
        with pytest.raises(ValueError, match="eps outside"):
            st.step(sw_half, X, e_bad)


def test_step_broken_system_flagged(sys36):
    broken = dataclasses.replace(
        sys36,
        bit_update=lambda y, eps: sys36.bit_update(y, eps) * 1.5,
    )
    with pytest.raises(ValueError, match="broken"):
        st.step(broken, np.ones(2), 0.9)


def test_iterate_limit_eps_zero(sys36):
    res = st.iterate_limit(sys36, sys36.ones(), 0.0)
    assert res.converged
    assert np.max(res.limit) == 0.0


def test_iterate_limit_below_threshold(sys36):
    res = st.iterate_limit(sys36, sys36.ones(), 0.40)
    assert res.converged and res.monotone_ok
    assert np.max(res.limit) < 1e-10


def test_iterate_limit_above_threshold_matches_scalar_oracle(sys36):
    res = st.iterate_limit(sys36, sys36.ones(), 0.45)
    ref, _ = de_limit(0.45, LAM_36, RHO_36)
    assert res.converged
    assert np.allclose(res.limit, ref, atol=1e-9)


def test_iterate_limit_keep_path(sys36):
    res = st.iterate_limit(sys36, sys36.ones(), 0.45, keep_path=True)
    assert res.path is not None
    assert res.path.shape[1] == 2
    # iterates decrease componentwise from all-ones
    assert np.all(np.diff(res.path, axis=0) <= 1e-12)


def test_monotone_direction_up(sys36):
    # between the unstable and stable fixed points the recursion climbs
    fps = st.fixed_points(sys36, 0.46)
    mid = 0.5 * (fps[0].x + fps[1].x)
    res = st.iterate_limit(sys36, mid, 0.46)
    assert res.monotone_ok and np.all(res.limit > mid)
    assert np.allclose(res.limit, fps[1].x, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(hyp.integers(0, 2**32 - 1))
def test_step_preserves_partial_order(seed):
    sys = st.regular_protograph(3, 6)
    rng = np.random.default_rng(seed)
    u, v = rng.random(2), rng.random(2)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    eps = rng.random()
    assert np.all(_step_raw(sys, lo, eps) <= _step_raw(sys, hi, eps) + 1e-12)


def test_line_segment_preservation(sys36):
    # states ordered against their own update keep that order along the segment
    rng = np.random.default_rng(5)
    ts = np.linspace(0, 1, 10)
    checked = 0
    for x in rng.random((60, 2)):
        s = _step_raw(sys36, x, 0.46)
        if np.all(x <= s):
            checked += 1
            z = x + ts[:, None] * (s - x)
            assert np.all(z <= _step_raw(sys36, z, 0.46) + 1e-12)
        elif np.all(x >= s):
            checked += 1
            z = x + ts[:, None] * (s - x)
            assert np.all(z >= _step_raw(sys36, z, 0.46) - 1e-12)
    assert checked > 10


def test_weights_must_be_positive(sys36):
    with pytest.raises(ValueError, match="positive"):
        st.SystemDefinition(
            d=2,
            weights=np.array([3.0, 0.0]),
            bit_update=sys36.bit_update,
            check_update=sys36.check_update,
            bit_energy=sys36.bit_energy,
            check_energy=sys36.check_energy,
        )


def test_verify_admissible_passes(all_systems):
    for sys in all_systems:
        rep = st.verify_admissible(sys, n_samples=1000, seed=11)
        assert rep.ok, rep.violations


def test_verify_admissible_zero_parameter_flags(sys36, emac36, sw_half, sw_free):
    # the protograph and the un-punctured gamma=0 system vanish at eps=0;
    # the surviving-correlation models are flagged informationally
    assert not st.verify_admissible(sys36, 200, seed=0).informational
    assert not st.verify_admissible(sw_free, 200, seed=0).informational
    assert st.verify_admissible(emac36, 200, seed=0).informational
    assert st.verify_admissible(sw_half, 200, seed=0).informational


def test_verify_admissible_catches_corrupt_energy(sys36):
    from saturate.verify import corrupt_bit_energy

    rep = st.verify_admissible(corrupt_bit_energy(sys36), n_samples=300, seed=2)
    assert not rep.ok
    conditions = {v.condition for v in rep.violations}
    assert "gradient_bit" in conditions
    witness = next(v for v in rep.violations if v.condition == "gradient_bit").witness
    assert "x" in witness and "fd" in witness


@pytest.mark.parametrize("field, mutate, condition, detail", [
    ("check_update", lambda g: lambda x: g(x) * (1.0 - x),
     "monotone_check_update", "check_update not non-decreasing"),
    ("bit_update", lambda f: lambda y, eps: f(y, eps) * (1.0 - y),
     "monotone_bit_update", "bit_update not non-decreasing in the state"),
    ("bit_update", lambda f: lambda y, eps: f(y, 1.0 - eps),
     "strict_eps", "bit_update decreased with eps"),
    ("bit_update", lambda f: lambda y, eps: f(y, 0.5),
     "strict_eps", "no component strictly increased with eps"),
    # zero at eps 0.7, where the constructor evaluates the maps at the zero state
    ("bit_update", lambda f: lambda y, eps: f(y, eps) + 1e-3 * (eps - 0.7) ** 2,
     "zero_state", "bit_update(0; eps) != 0"),
    ("bit_energy", lambda F: lambda x, eps: F(x, eps) + 1e-3 * (eps - 0.7) ** 2,
     "zero_state", "bit_energy(0; eps) != 0"),
], ids=["check_monotone", "bit_monotone", "eps_decreasing", "eps_constant",
        "zero_state_update", "zero_state_energy"])
def test_verify_admissible_catches_a_broken_map(sys36, field, mutate, condition, detail):
    mutant = dataclasses.replace(sys36, **{field: mutate(getattr(sys36, field))})
    rep = st.verify_admissible(mutant, n_samples=200, seed=0)
    assert (condition, detail) in {(v.condition, v.detail) for v in rep.violations}


def test_verify_admissible_smoothness_note(sys36):
    rep = st.verify_admissible(sys36, 100, seed=0)
    assert any("attested, not proven" in n for n in rep.notes)
    assert rep.smoothness_max_discrepancy < 1e-4


def test_verify_admissible_rejects_zero_samples(sys36):
    with pytest.raises(ValueError):
        st.verify_admissible(sys36, n_samples=0)


def _plain_iterate_batch(sys, X, eps, tol, max_iter):
    """The batch loop without the period-2 exit, kept as the reference."""
    X = np.clip(np.asarray(X, dtype=float), 0.0, 1.0).copy()
    n = X.shape[0]
    dirs = np.zeros(n, np.int8)
    mono = np.ones(n, bool)
    it = 0
    converged = False
    while it < max_iter:
        Xn = _step_raw(sys, X, eps)
        delta = Xn - X
        if it == 0:
            dirs = _classify_direction(delta)
        else:
            bad_up = (dirs == 1) & np.any(delta < -MONO_SLACK, axis=-1)
            bad_down = (dirs == -1) & np.any(delta > MONO_SLACK, axis=-1)
            mono &= ~(bad_up | bad_down)
        X = Xn
        it += 1
        if np.max(np.abs(delta)) <= tol:
            converged = True
            break
    return X, it, converged, mono


def _lattice(d, per_axis=3):
    mesh = np.meshgrid(*[np.linspace(0.0, 1.0, per_axis)] * d, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def test_unit_seeds_of_lift_exit_on_period_two_cycle(lift36, caplog):
    # at eps=1 every unit seed of the lifted (3,6) protograph alternates
    # between two 0/1 vectors forever
    for k in range(lift36.d):
        caplog.clear()
        res = st.iterate_limit(lift36, np.eye(lift36.d)[k], 1.0)
        assert not res.converged
        assert res.iterations <= 2 * CYCLE_CHECK_EVERY
        assert f"period-2 cycle after {res.iterations} iterations" in caplog.text
        assert np.array_equal(st.step(lift36, st.step(lift36, res.limit, 1.0), 1.0), res.limit)


@pytest.mark.parametrize("eps", [1.0, 0.47])
def test_lattice_batch_matches_plain_loop(lift36, eps):
    seeds = _lattice(lift36.d)
    X, it, conv = iterate_batch(lift36, seeds, eps)
    # iterates are never altered, so the reference run for the same number of
    # steps ends bit for bit where the cycle exit stopped
    Xr, itr, convr, _ = _plain_iterate_batch(
        lift36, seeds, eps, DEFAULT_ITER_TOL, DEFAULT_MAX_ITER if eps < 1.0 else it
    )
    assert np.array_equal(X, Xr)
    assert it == itr
    if eps == 1.0:
        assert not conv and not convr
        assert it <= 2 * CYCLE_CHECK_EVERY
    else:
        assert conv and convr


def _zero(x, *_):
    return np.zeros(np.shape(x)[:-1])


def _rotation(d):
    """x -> x shifted by one coordinate: period d, row sums never change."""
    return st.SystemDefinition(d=d, weights=np.ones(d), bit_update=lambda y, eps: np.roll(y, 1, -1),
                               check_update=lambda x: x, bit_energy=_zero, check_energy=_zero)


def _logistic():
    """d=1, y -> 3.5 y (1 - y): from 0.9 it falls, then rises."""
    return st.SystemDefinition(d=1, weights=np.ones(1), bit_update=lambda y, eps: 3.5 * y * (1 - y),
                               check_update=lambda x: x, bit_energy=_zero, check_energy=_zero)


def test_iterate_limit_monotone_matches_per_step_loop(sys36, lift36):
    # (system, start, eps, max_iter, expected monotone_ok; None for a cycle exit)
    cases = [
        (sys36, np.ones(2), 0.45, DEFAULT_MAX_ITER, True),
        (sys36, np.full(2, 0.3), 0.46, DEFAULT_MAX_ITER, True),
        (sys36, np.ones(2), 0.0, DEFAULT_MAX_ITER, True),
        (_logistic(), np.full(1, 0.9), 1.0, 200, False),
        (_rotation(3), np.eye(3)[0], 1.0, 3 * CYCLE_CHECK_EVERY, True),
        (lift36, np.eye(lift36.d)[0], 1.0, DEFAULT_MAX_ITER, None),
    ]
    for sys, x0, eps, max_iter, ok in cases:
        res = st.iterate_limit(sys, x0, eps, max_iter=max_iter)
        # the reference has no cycle exit, so it runs for the steps taken
        Xr, itr, _, mono = _plain_iterate_batch(sys, x0[None, :], eps, DEFAULT_ITER_TOL,
                                                   res.iterations)
        assert res.iterations == itr
        assert np.array_equal(res.limit, Xr[0])
        assert res.monotone_ok == bool(mono[0])
        if ok is not None:
            assert res.monotone_ok == ok
        else:
            assert not res.converged and res.iterations < max_iter


def test_cycle_exit_needs_exact_return_not_just_equal_row_sums():
    # period 3: every check suspects the row by its sum, no confirmation holds
    _, it, conv = iterate_batch(_rotation(3), np.eye(3)[:1], 1.0, max_iter=5 * CYCLE_CHECK_EVERY)
    assert not conv and it == 5 * CYCLE_CHECK_EVERY
    # period 2: confirmed at the first check
    _, it, conv = iterate_batch(_rotation(2), np.eye(2)[:1], 1.0)
    assert not conv and it == CYCLE_CHECK_EVERY + 2


def test_per_row_eps_batch_runs_numpy_loop(sys36):
    e = np.array([1e-9, 0.3, 0.4294, 0.45, 1.0])
    X, it, conv = iterate_batch(sys36, np.ones((len(e), 2)), e)
    assert conv
    # each row is its own recursion, run for the batch's number of steps
    for i in range(len(e)):
        x = np.ones(2)
        for _ in range(it):
            x = _step_raw(sys36, x, float(e[i]))
        assert np.array_equal(X[i], x)
    assert np.max(X[:3]) < 1e-8 and np.min(X[3:]) > 0.1


@pytest.mark.parametrize("eps", [1.5, -0.2])
def test_iterate_rejects_eps_outside_unit_interval(sys36, eps):
    with pytest.raises(ValueError, match="eps outside"):
        st.iterate_limit(sys36, sys36.ones(), eps)
    with pytest.raises(ValueError, match="eps outside"):
        iterate_batch(sys36, np.ones((2, 2)), np.array([0.3, eps]))


@pytest.mark.parametrize("shape", [(6, 2), (3, 5, 2), (4, 8), (2, 3, 8)])
def test_central_difference_equals_a_per_coordinate_loop(sys36, lift36, shape):
    sys = sys36 if shape[-1] == 2 else lift36
    x = np.random.default_rng(4).random(shape) * 0.9 + 0.05
    h = 1e-6
    # a scalar field gives (..., d), a map (..., d, d)
    for fn in (lambda z: sys.bit_energy(z, 0.6), sys.check_update):
        got = _central_difference(fn, x, h)
        for j in range(x.shape[-1]):
            e = np.zeros(x.shape[-1])
            e[j] = h
            want = (fn(x + e) - fn(x - e)) / (2.0 * h)
            assert np.array_equal(np.take(got, j, axis=x.ndim - 1), want)


@pytest.mark.parametrize("changes, match", [
    ({"d": 0}, "dimension must be positive"),
    ({"weights": np.ones(3)}, r"weights must have shape \(2,\)"),
    ({"bit_update": lambda x, eps: x + 0.1}, r"bit_update\(0; 0.7\) must vanish"),
    ({"check_update": lambda x: x + 0.1}, r"check_update\(0\) must vanish"),
    ({"bit_energy": lambda x, eps: np.sum(x, axis=-1) + 0.1}, r"bit_energy\(0; 0.7\) must vanish"),
    ({"check_energy": lambda x: np.sum(x, axis=-1) + 0.1}, r"check_energy\(0\) must vanish"),
], ids=["d", "weights_shape", "bit_update", "check_update", "bit_energy", "check_energy"])
def test_system_definition_refuses_a_broken_mutant(sys36, changes, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(sys36, **changes)
