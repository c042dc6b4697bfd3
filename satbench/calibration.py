"""A fixed loop that measures how fast the host is running a process.

The shared host's speed drifts: the same CPU-bound loop takes up to twice as
long in a slow spell as in a fast one, and spells last from seconds to
minutes. Each repetition (worker.py) times this loop in its own process,
right before its first job and right after its last, and `run.py` scales the
median wall and set-up times by the median pass. Timed in the parent `run.py` process
instead, between repetitions, the loop did not track the repetitions' speed:
the slow spells hit single processes (vCPUs), not the whole host.
"""

from __future__ import annotations

import time


def calibrate(passes: int = 5) -> list:
    """Seconds taken by each of `passes` runs of a fixed loop.

    The loop mixes interpreter work and numpy calls on small arrays with a
    few calls on a lattice-sized array, as the workloads do. It calls no
    saturate code, so no change to the program's own work can move it.
    """
    import numpy as np

    times = []
    for _ in range(passes):
        x = np.linspace(0.1, 0.9, 64).reshape(32, 2)
        lattice = np.linspace(0.0, 1.0, 6561 * 8).reshape(6561, 8)
        t0 = time.perf_counter()
        for i in range(1600):
            y = 0.45 * (1.0 - (1.0 - x) ** 5) ** 2
            rows = {j: float(y[j, 0]) for j in range(8)}
            x = np.minimum(y + 1e-9 * sum(rows.values()) + 0.1, 0.9)
            if i % 50 == 0:
                lattice = np.sqrt(lattice * 0.5 + 0.25)
        times.append(time.perf_counter() - t0)
    return times
