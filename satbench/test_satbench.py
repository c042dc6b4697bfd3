"""The benchmark's own tests.

    python3 -m pytest satbench

Run from the repository root. Two traced smoke repetitions of the same code
must give identical deterministic counts, and the benchmark must refuse,
without a result, to run where there are no saturate sources.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import DETERMINISTIC  # noqa: E402


def _traced_smoke(tmp_path, i):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "smoke", "--seed", "5",
           "--work", str(tmp_path / f"work{i}"), "--trace", str(tmp_path / f"spans{i}.gz")]
    proc = subprocess.run(cmd, cwd=ROOT, env=run.child_env(ROOT), capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_counts_repeat_across_traced_runs(tmp_path):
    first, second = (_traced_smoke(tmp_path, i) for i in range(2))
    assert first["failures"] == [] and second["failures"] == []
    counts = [{k: out["layers"][k] for k in DETERMINISTIC} for out in (first, second)]
    assert counts[0] == counts[1]
    # every layer was reached
    for key in ("models.g_calls", "kernels.window_fwd_calls", "system.iterations",
                "potential.bp_probes", "potential.maxwell_probes", "potential.seeds",
                "coupled.steps", "coupled.threshold_probes", "verify.checks",
                "cli.bytes_written"):
        assert counts[0][key] > 0, key
    assert (tmp_path / "spans0.gz").stat().st_size > 0


def test_refuses_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "smoke",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
