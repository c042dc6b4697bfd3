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
