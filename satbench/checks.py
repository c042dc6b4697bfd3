"""Answer checks against the reference recorded at the seed commit.

Each check returns a list of failure strings; an empty list means the job's
answer is right. A job that raises, a CLI command that exits non-zero, or an
answer that misses its reference counts as one failed job.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# the (3,6)-regular ensemble, whatever protograph encodes it
REGULAR_36 = {"bp": 0.42944, "potential": 0.48815}


def load_reference() -> dict:
    """Recorded answers by workload and job; empty before the first recording,
    which makes every referenced check fail."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def _near(label, value, expected, tol) -> list[str]:
    if value is None or not abs(value - expected) <= tol:
        return [f"{label} = {value}, expected {expected} within {tol:g}"]
    return []


def _rc(answer) -> list[str]:
    return [] if answer["rc"] == 0 else [f"exit code {answer['rc']}"]


def _same_gap(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):  # "inf" where no fixed point exists
        return a == b
    return abs(a - b) <= 1e-6


def check_threshold(answer, ref, tol) -> list[str]:
    """Every threshold of every sweep cell within 2*tol of the reference."""
    fails = _rc(answer)
    for cell, want in ref["cells"].items():
        got = answer["cells"].get(cell)
        if got is None:
            fails.append(f"missing report for {cell}")
            continue
        for key in ("bp", "potential", "maxwell"):
            fails += _near(f"{cell} {key}", got[key], want[key], 2 * tol)
        curve, want_curve = got["energy_gap_curve"], want["energy_gap_curve"]
        if len(curve) != len(want_curve) or not all(
            e == we and _same_gap(g, wg) for (e, g), (we, wg) in zip(curve, want_curve)
        ):
            fails.append(f"{cell} energy-gap curve {curve} differs from {want_curve}")
    return fails


def check_regular_36(answer, ref, tol) -> list[str]:
    """bp and potential thresholds of a (3,6) encoding: reference and literature."""
    fails = []
    for key in ("bp", "potential"):
        if key in answer:
            fails += _near(key, answer[key], ref[key], 2 * tol)
            fails += _near(f"{key} vs (3,6)", answer[key], REGULAR_36[key], 2 * tol)
    return fails


def check_verify(answer, ref, tol) -> list[str]:
    fails = _rc(answer) + check_regular_36(answer, ref, tol)
    if not answer["admissibility_ok"]:
        fails.append("admissibility check not ok")
    if not answer["battery_ok"]:
        fails.append("lemma battery not ok")
    return fails


def check_coupled(answer, ref, tol) -> list[str]:
    """Per-eps decode verdicts match; the coupled threshold saturates."""
    fails = _rc(answer)
    if answer["decodes"] != ref["decodes"]:
        fails.append(f"decode verdicts {answer['decodes']} differ from {ref['decodes']}")
    want = ref.get("coupled_bp_threshold")
    if want is not None:
        got = answer.get("coupled_bp_threshold")
        fails += _near("coupled threshold", got, want, 2 * tol)
        lo, hi = REGULAR_36["bp"] + 0.04, REGULAR_36["potential"] + 2 * tol
        if got is not None and not lo < got <= hi:
            fails.append(f"coupled threshold {got} outside ({lo}, {hi}]")
    return fails


def check_exit_code(answer, ref, tol) -> list[str]:
    return _rc(answer) if "rc" in answer else []
