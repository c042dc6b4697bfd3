import saturate.verify as verify_mod
from saturate.verify import lemma_battery


def test_lemma_battery_keeps_supplied_zero_thresholds(sys36, monkeypatch):
    # 0.0 is the degenerate value bp_threshold can return; a supplied one is used
    def recomputed(*_, **__):
        raise AssertionError("supplied threshold recomputed")

    monkeypatch.setattr(verify_mod, "bp_threshold", recomputed)
    monkeypatch.setattr(verify_mod, "potential_threshold", recomputed)
    rep = lemma_battery(sys36, eps_values=(0.3, 0.45, 0.6), L=4, w=2,
                        thresholds={"bp": 0.0, "potential": 0.0})
    assert rep.thresholds == {"bp": 0.0, "potential": 0.0}
