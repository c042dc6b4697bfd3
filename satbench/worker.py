"""One repetition of a workload in a fresh interpreter.

    python3 satbench/worker.py --workload NAME --seed N [--trace FILE]

Run from the root of a checkout; saturate is imported from its `src/`. The
last stdout line is a JSON object: the monotonic time at which set-up ended
(`ready`), `wall_s` from the start of the first job to the end of the last
with every answer checked, `calibration` (the calibration loop's pass times,
taken right before the first job and right after the last), `peak_rss_mb`,
`cpu_s`, job counts, failures and the answers. With --trace the saturate
layers are wrapped before set-up, the result adds `layers` (per-layer
metrics) and the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this gzip JSONL file")
    ap.add_argument("--work", required=True, help="scratch directory, removed at the end")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy
    import saturate
    import saturate.cli  # noqa: F401

    import checks
    import spans
    from calibration import calibrate
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    work = Path(args.work)
    work.mkdir(parents=True)
    try:
        jobs = WORKLOADS[args.workload](args.seed, work)
        reference = checks.load_reference().get(args.workload, {})
        ready = time.monotonic()

        failures, answers, failed = [], {}, 0
        calibration = calibrate()
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job_id = i
            try:
                answers[job.name] = answer = job.run()
                problems = job.check(answer, reference.get(job.name, {}), job.tol)
            except Exception as e:  # a job that raises is a failed job
                problems = [f"raised {e!r}"]
            finally:
                if tracer:
                    tracer.job_id = None
            failed += bool(problems)
            failures += [f"{job.name}: {m}" for m in problems]
        wall = time.perf_counter() - t0
        calibration += calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    try:
        from saturate import kernels

        compiled = bool(kernels.enabled())
    except (ImportError, AttributeError):  # the compiled lane is gone
        compiled = False
    out = {
        "ready": ready,
        "wall_s": wall,
        "calibration": calibration,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "attempted": len(jobs),
        "failed": failed,
        "failures": failures,
        "answers": answers,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "saturate": saturate.__version__, "compiled_lane": compiled},
    }
    if tracer:
        written = sum(a.get("bytes", 0) for a in answers.values())
        out["layers"] = spans.layer_metrics(tracer.spans, written)
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
