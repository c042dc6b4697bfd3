import dataclasses

import numpy as np
import pytest

import saturate as st
import saturate.verify as verify_mod
from saturate.system import _step_raw
from saturate.verify import corrupt_bit_energy, lemma_battery


def test_lemma_battery_keeps_supplied_zero_thresholds(sys36, monkeypatch):
    # 0.0 is the degenerate value bp_threshold can return; a supplied one is used
    def recomputed(*_, **__):
        raise AssertionError("supplied threshold recomputed")

    monkeypatch.setattr(verify_mod, "bp_threshold", recomputed)
    monkeypatch.setattr(verify_mod, "potential_threshold", recomputed)
    rep = lemma_battery(sys36, eps_values=(0.3, 0.45, 0.6), L=4, w=2,
                        thresholds={"bp": 0.0, "potential": 0.0})
    assert rep.thresholds == {"bp": 0.0, "potential": 0.0}


def test_stationary_fixed_points_catches_a_corrupt_bit_energy(sys36, thresholds36):
    # the fixed points come from the update maps, which the corruption leaves
    # alone; only differences of the closed-form potential can see it
    rep = lemma_battery(corrupt_bit_energy(sys36), L=4, w=2, thresholds=thresholds36)
    assert "stationary_fixed_points" in [c.name for c in rep.failed()]


def test_gradient_orthogonality_catches_a_corrupt_bit_energy(sys36, thresholds36):
    # the one-sided fixed point comes from the update maps, so its own
    # residual is orthogonal to SX - X whatever the energies; only
    # differences of the closed-form coupled potential can see the corruption
    rep = lemma_battery(corrupt_bit_energy(sys36), L=4, w=2, thresholds=thresholds36)
    assert any(c.name.startswith("gradient_orthogonality@") for c in rep.failed())


def test_zero_state_stationary_catches_a_linear_bit_energy_term(sys36, thresholds36):
    # a bit-energy term linear at 0 leaves every update map, and so every
    # fixed point and the zero-state checks of the constructor, alone
    orig = sys36.bit_energy
    mutant = dataclasses.replace(
        sys36, bit_energy=lambda x, eps: orig(x, eps) + 1e-3 * np.asarray(x)[..., 0])
    rep = lemma_battery(mutant, L=4, w=2, thresholds=thresholds36)
    assert "zero_state_stationary" in [c.name for c in rep.failed()]


def test_lemma_battery_enumerates_fixed_points_in_one_batch(sys36, thresholds36, monkeypatch):
    calls = []
    batch = verify_mod._fixed_points_batch
    monkeypatch.setattr(verify_mod, "_fixed_points_batch",
                        lambda sys, eps: calls.append(list(eps)) or batch(sys, eps))
    rep = lemma_battery(sys36, L=4, w=2, thresholds=thresholds36)
    assert rep.ok
    assert len(calls) == 1
    # eps_values[1:] and the 20-point compare_mins grid, each once
    assert len(calls[0]) == len(set(calls[0])) == 22


def _order_and_descent_details(sys, eps_values, seed):
    """The two details lemma_battery derives from its random samples, one sample at a time."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, 10)
    seg_bad, counts, worst = 0, [0, 0], 0.0
    for eps in eps_values:
        ups, downs = verify_mod._classified_samples(sys, eps, rng)
        counts[0] += len(ups)
        counts[1] += len(downs)
        for X, sign in ((ups, +1), (downs, -1)):
            for x in X:
                s = _step_raw(sys, x, eps)
                z = x[None, :] + ts[:, None] * (s - x)[None, :]
                sz = _step_raw(sys, z, eps)
                if sign > 0 and np.any(z > sz + 1e-12):
                    seg_bad += 1
                if sign < 0 and np.any(z < sz - 1e-12):
                    seg_bad += 1
                worst = min(worst, float(st.potential(sys, x, eps) - st.potential(sys, s, eps)))
    return {"line_segment_preservation":
            f"{counts[0]} climbing / {counts[1]} descending samples, {seg_bad} violations",
            "iteration_descent": f"worst potential drop along one update: {worst:.3e}"}


@pytest.mark.parametrize("name", ["sys36", "emac36", "sw_theta_half"])
def test_battery_samples_step_in_one_batch(name, request, lam36, rho36, monkeypatch):
    # bp and potential thresholds at tol 1e-5 set the battery's eps values
    if name == "sw_theta_half":
        sys = st.make_slepian_wolf(st.SlepianWolfParams(
            lam36, rho36, lam36, rho36, gamma=0.5, p=0.5, path=st.ScaledPath(theta=0.5)))
        thresholds = {"bp": 0.06211471651405716, "potential": 0.3280525214239006}
    elif name == "emac36":
        sys = request.getfixturevalue(name)
        thresholds = {"bp": 0.12255477993017962, "potential": 0.33231735296260456}
    else:
        sys = request.getfixturevalue(name)
        thresholds = request.getfixturevalue("thresholds36")
    calls = []
    step = verify_mod._step_raw
    monkeypatch.setattr(verify_mod, "_step_raw", lambda *a: calls.append(a) or step(*a))
    rep = lemma_battery(sys, L=4, w=2, thresholds=thresholds)
    details = {c.name: c.detail for c in rep.checks}
    want = _order_and_descent_details(sys, rep.eps_values, 0)
    assert {k: details[k] for k in want} == want
    # per eps: the classifier, and S and the segment points of each sign
    assert len([a for a in calls if a[1].ndim == 3]) == 2 * len(rep.eps_values)
