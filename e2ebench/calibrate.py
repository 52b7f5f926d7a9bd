"""A fixed slice of host work that times how fast the host runs right now.

The benchmark's host changes speed by tens of percent from one minute to
the next (see ``e2ebench/README.md``), and interpreter-bound Python slows
down the most.  Timing this slice next to every phase lets the benchmark
report each phase's time at one reference host speed.  The slice is plain
interpreted Python (dict building, attribute-free arithmetic, a generator
sum), the kind of work the campaign phases spend most of their time in;
numpy kernels did not track the host's slow periods at all.  It imports
nothing from the program, so a change to the program never moves it.
"""

from __future__ import annotations

import time

#: Seconds :func:`work` takes on the reference host: a 2-vCPU Intel Xeon
#: container at a nominal 2.0 GHz running CPython 3.11 (the median of 604
#: slices timed over 21 tuning runs).  Reported times are scaled to it.
REFERENCE_S = 0.040


def work() -> float:
    rows = [
        {"frame": i, "time_s": i * 1e-3, "energy_j": (i % 7) * 0.5, "opp": i % 13}
        for i in range(60000)
    ]
    return sum(row["energy_j"] * row["time_s"] for row in rows if row["opp"] != 3)


def slice_s() -> float:
    """Seconds one call of :func:`work` takes now."""
    started = time.perf_counter()
    work()
    return time.perf_counter() - started
