"""The saturate benchmark: one command, one workload, checked answers.

    python3 satbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (saturate is imported from `src/`). Each
repetition is a fresh interpreter (worker.py) that sets up the workload,
runs its jobs one after another and checks every answer; repetitions run
one at a time, each single-process, with BLAS pinned to one thread. The run
keeps adding repetitions while the next one is expected to end within S
seconds (at least three untraced ones, or one untraced and one traced).

Prints a JSON line with the environment and every repetition, then, as the
last line, the result: with --trace 0 the end-to-end metrics (medians over
repetitions), with --trace 1 the per-layer metrics from the traced
repetitions, whose deterministic counts must agree exactly. The end-to-end
times are scaled to the reference host speed by the calibration loop that
every repetition times before its first job and after its last
(calibration.py). Exits 2 without a result when the checkout holds no
saturate sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import DETERMINISTIC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = Path(".satbench_out")
HARD_LIMIT_S = 170.0  # the whole run, including the last repetition
CAL_REF_S = 0.025  # one calibration pass at the reference host speed


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # the workloads and the tracer assume the numpy lane
    env["SATURATE_NO_NUMBA"] = "1"
    # the same string hashes, and so the same dict and set layouts, in every
    # repetition
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(args, env, rep: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(OUT / f"work-{os.getpid()}-{rep}")]
    if traced:
        cmd += ["--trace", str(OUT / f"spans-{args.workload}.jsonl.gz")]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": "timed out"}
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
    except (ValueError, IndexError) as e:  # JSONDecodeError is a ValueError
        return {"traced": traced, "error": f"{e}: {proc.stderr[-2000:]}"}
    out.pop("answers")
    out["setup_s"] = out.pop("ready") - launched
    out["traced"] = traced
    return out


def end_to_end(reps: list, failed_frac: float, calibration_s: float) -> dict:
    scale = CAL_REF_S / calibration_s
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in reps) * scale,
                   "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in reps) * scale,
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                        "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed_frac, "unit": "frac"},
    }


def per_layer(plain: list, traced: list) -> tuple[dict, list]:
    """Medians of the traced layer metrics; problems if counts disagree."""
    layers = [r["layers"] for r in traced]
    problems = [f"{k} differs between traced repetitions: {[l[k] for l in layers]}"
                for k in DETERMINISTIC if len({l[k] for l in layers}) > 1]
    metrics = {k: {"value": v if k in DETERMINISTIC else statistics.median(l[k] for l in layers),
                   "unit": unit_of(k)}
               for k, v in layers[0].items() if k != "trace.spans"}
    metrics["process.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in plain),
                                "unit": "s"}
    for name in ("wall_s", "setup_s"):  # unscaled
        metrics[f"process.raw_{name}"] = {
            "value": statistics.median(r[name] for r in plain), "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0,
        "unit": "frac"}
    return metrics, problems


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "_frac")):
        return "frac"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "saturate" / "__init__.py").is_file():
        print(f"no saturate sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env(root)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # compile and cache the package once so no repetition pays for it; a
    # package that fails to import shows up in the first repetition
    subprocess.run([sys.executable, "-c", "import saturate.cli"], env=env,
                   capture_output=True, timeout=60)

    reps, rep_s = [], []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append(run_rep(args, env, len(reps), traced, deadline))
        rep_s.append(time.monotonic() - t0)
        if "error" in reps[-1]:
            break
        enough = len(reps) >= (2 if args.trace else 3)
        # the next repetition would be traced or plain like the one two back
        expected = max(rep_s[-2:]) if args.trace else statistics.median(rep_s)
        if enough and time.monotonic() + expected > start + args.seconds:
            break

    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    calibration = [t for r in plain for t in r["calibration"]]
    calibration_s = statistics.median(calibration) if calibration else None
    env_record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "calibration_s": calibration_s,
        "calibration_passes": len(calibration),
        **(good[0]["env"] if good else {}),
    }
    problems = [f"repetition {i}: {r.get('error')}" for i, r in enumerate(reps)
                if "error" in r]
    problems += [f"repetition {i}: {f}" for i, r in enumerate(reps) for f in r.get("failures", [])]
    env_record["valid"] = not any(r["env"]["compiled_lane"] for r in good)
    if not env_record["valid"]:
        problems.append("invalid run: the compiled lane is active")

    # a repetition that crashed or timed out counts as one failed job
    attempted = max(1, sum(r.get("attempted", 1) for r in reps))
    failed = sum(r.get("failed", 1) for r in reps)
    metrics = {}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics, count_problems = per_layer(plain, traced)
            problems += count_problems
        else:
            metrics = end_to_end(plain, failed / attempted, calibration_s)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env_record, "failed_frac": failed / attempted,
              "problems": problems,
              "repetitions": [{k: v for k, v in r.items() if k not in ("layers", "env")}
                              for r in reps]}
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems and bool(metrics),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
