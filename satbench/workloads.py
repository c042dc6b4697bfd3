"""The benchmark's workloads: inputs made from a seed, jobs, and their checks.

Why each workload exists:

- single-system: `saturate threshold` on a Slepian-Wolf sweep and
  `saturate verify` on the (3,6) ensemble. The d=2 path: bisections that
  drive thousands of one-row iteration steps, Newton fixed points and the
  lemma battery. Per-call overhead dominates, not array work.
- coupled-chain: `saturate coupled` on the (3,6) chain (L=32, including the
  5728-step run near threshold and the coupled bisection) and on a long
  erasure-MAC chain (L=256, 515 rows), where per-element cost starts to
  count. The only workload where the window operators A and A^T and the
  coupled layer do most of the work; the others bypass them.
- lifted-protograph: library threshold calls on the same (3,6) ensemble
  written as a 2x4 protograph (d=8). The protograph maps run on 6561-row
  lattice batches, the opposite of their one-row use in single-system, so a
  change that helps one and costs the other shows up. The iteration budget
  of 1000 keeps the period-2 seeds at eps=1 (which burn the whole budget)
  inside one run instead of the 170 s they take at the default budget.
- smoke: a scaled-down mix of all three, for the benchmark's own test.

The seed reaches the program only through the generated inputs: the
`analysis.seed` of every CLI config (the verify sampler draws from it) and
the row and column order of the lifted protograph, which leaves the ensemble
unchanged.

A workload function does the set-up (writes configs, builds systems) and
returns the jobs; a job's `run` returns its answer and `check` lists what
is wrong with it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable

import numpy as np

import checks

CONFIGS = Path(__file__).with_name("configs")
LIFTED_36 = [[1, 2, 1, 2], [2, 1, 2, 1]]
# The CLI commands run their cells one at a time. Their work holds the GIL
# (CPU time equals wall time at --jobs 2), so a second pool thread adds no
# speed, only hand-offs between the two vCPUs; and a process that stays on
# one vCPU is what the calibration loop (calibration.py) measures.
ONE_THREAD = ("--jobs", "1")


@dataclasses.dataclass
class Job:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict, dict, float], list]
    tol: float


def _config(name: str, seed: int, work: Path, **analysis) -> Path:
    cfg = json.loads((CONFIGS / name).read_text())
    cfg["analysis"].update(analysis, seed=seed)
    path = work / name
    path.write_text(json.dumps(cfg))
    return path


def _cli(command: str, config: Path, out: Path, answer: Callable, *extra: str):
    import saturate.cli

    def run():
        rc = saturate.cli.main([command, "--config", str(config), "--out", str(out), *extra])
        reports = {p.name: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
        return {"rc": rc, **answer(reports),
                "bytes": sum(p.stat().st_size for p in out.iterdir())}

    return run


def _threshold_answer(reports):
    cells = {}
    for rep in reports.values():
        cells[f"theta_{rep['theta']:g}"] = {**rep["thresholds"],
                                           "energy_gap_curve": rep["energy_gap_curve"]}
    return {"cells": cells}


def _verify_answer(reports):
    rep = reports["verify_report.json"]
    battery = rep["battery"] or {}
    return {"admissibility_ok": rep["admissibility"]["ok"], "battery_ok": battery.get("ok"),
            **battery.get("thresholds", {})}


def _coupled_answer(reports):
    rep = reports["coupled_report.json"]
    return {"decodes": {f"{r['eps']:g}": r["converged_to_zero"] for r in rep["runs"]},
            "coupled_bp_threshold": rep.get("coupled_bp_threshold")}


def _threshold_job(name, seed, work, tol, **analysis):
    cfg = _config("single-system-threshold.json", seed, work, bisect_tol=tol, **analysis)
    run = _cli("threshold", cfg, work / name, _threshold_answer, *ONE_THREAD)
    return Job(name, run, checks.check_threshold, tol)


def _verify_job(name, seed, work, tol, **analysis):
    cfg = _config("single-system-verify.json", seed, work, **analysis)
    return Job(name, _cli("verify", cfg, work / name, _verify_answer), checks.check_verify, tol)


def _coupled_job(name, config, seed, work, tol, **analysis):
    cfg = _config(config, seed, work, **analysis)
    run = _cli("coupled", cfg, work / name, _coupled_answer, *ONE_THREAD)
    return Job(name, run, checks.check_coupled, tol)


def _lifted_system(seed: int):
    """The lifted (3,6) protograph with its rows and columns shuffled by seed."""
    import saturate.config

    rng = np.random.default_rng(seed)
    H = np.asarray(LIFTED_36)[rng.permutation(2)][:, rng.permutation(4)]
    return saturate.config.build_system({"type": "protograph", "matrix": H.tolist()})


def _lifted_jobs(prefix, seed, tol, max_iter):
    import saturate

    system = _lifted_system(seed)
    check = checks.check_regular_36
    return [
        Job(f"{prefix}bp", lambda: {"bp": saturate.bp_threshold(system, tol=tol)}, check, tol),
        Job(f"{prefix}potential",
            lambda: {"potential": saturate.potential_threshold(system, tol=tol,
                                                               max_iter=max_iter)},
            check, tol),
    ]


def single_system(seed: int, work: Path) -> list[Job]:
    return [
        _threshold_job("threshold", seed, work, 1e-5),
        _verify_job("verify", seed, work, 1e-5),
    ]


def coupled_chain(seed: int, work: Path) -> list[Job]:
    return [
        _coupled_job("chain-36", "coupled-chain-36.json", seed, work, 1e-3),
        _coupled_job("chain-emac", "coupled-chain-emac.json", seed, work, 1e-3),
    ]


def lifted_protograph(seed: int, work: Path) -> list[Job]:
    return _lifted_jobs("", seed, 1e-5, 1000)


def smoke(seed: int, work: Path) -> list[Job]:
    """Every layer at test size; only exit codes are checked."""
    jobs = [
        _threshold_job("threshold", seed, work, 1e-2, gap_grid=[0.2]),
        _verify_job("verify", seed, work, 1e-2, n_samples=50, L=4, w=2),
        _coupled_job("chain", "coupled-chain-36.json", seed, work, 1e-2, L=4,
                     eps_values=[0.45, 0.5]),
        *_lifted_jobs("lifted-", seed, 0.1, 20),
    ]
    return [dataclasses.replace(job, check=checks.check_exit_code) for job in jobs]


WORKLOADS = {
    "single-system": single_system,
    "coupled-chain": coupled_chain,
    "lifted-protograph": lifted_protograph,
    "smoke": smoke,
}
