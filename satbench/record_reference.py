"""Record the reference answers that checks.py compares against.

    python3 satbench/record_reference.py

Run once, from the root of a checkout of the commit whose answers are the
reference; it runs each workload at seed 0 and overwrites reference.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
KEEP = ("cells", "bp", "potential", "decodes", "coupled_bp_threshold")


def main() -> int:
    reference = {}
    for workload in ("single-system", "coupled-chain", "lifted-protograph"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "0",
             "--work", str(Path(".satbench_out") / "record")],
            capture_output=True, text=True, check=True)
        answers = json.loads(proc.stdout.splitlines()[-1])["answers"]
        reference[workload] = {job: {k: v for k, v in ans.items() if k in KEEP}
                               for job, ans in answers.items()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
