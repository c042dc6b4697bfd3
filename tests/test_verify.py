import dataclasses

import numpy as np

import saturate.verify as verify_mod
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
                        lambda sys, eps, max_iter: calls.append(list(eps)) or batch(sys, eps, max_iter))
    rep = lemma_battery(sys36, L=4, w=2, thresholds=thresholds36)
    assert rep.ok
    assert len(calls) == 1
    # eps_values[1:] and the 20-point compare_mins grid, each once
    assert len(calls[0]) == len(set(calls[0])) == 22
