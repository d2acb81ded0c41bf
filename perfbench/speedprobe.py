"""A fixed piece of pure-Python work used to track the host's speed.

The reference host (2 shared x86-64 CPUs) runs the same code up to ~1.7x
slower for seconds to minutes at a time, so runs a few minutes apart differ
by up to a third in raw seconds.  Timing this probe right before and right after
each op, on the same pinned CPU, measures the speed the op ran at, so run.py
can report times at the reference host's quiet speed (see REFERENCE_S).
"""

from __future__ import annotations

import math
import os
import time

# probe() on the reference host when nothing else slows it down; corrected
# times are raw times scaled by REFERENCE_S / probe time
REFERENCE_S = 0.0055


def probe() -> float:
    """Seconds for a fixed mix of small-int loops, big-int roots and small
    allocations, the three kinds of work ln_kit does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    d = 19**11
    for y in range(5_400_001, 5_420_001, 2):
        c = 4 * y**2 - d
        if c > 0:
            math.isqrt(c)
    for _ in range(8):
        rows = [{"k": i, "v": (i, str(i))} for i in range(500)]
    del rows
    return time.perf_counter() - t0


def pin_to_fastest_cpu() -> dict[str, object]:
    """Pin this process, and the children it starts, to the CPU that ran the
    probe fastest, so the probe and the op it brackets share one CPU."""
    best: dict[int, float] = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(probe() for _ in range(3))
    chosen = min(best, key=best.get)
    os.sched_setaffinity(0, {chosen})
    return {"cpu": chosen, "probe_s": best}
