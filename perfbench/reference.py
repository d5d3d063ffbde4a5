"""Reference loop: the host's current speed, measured beside the program.

Other tenants of a shared host slow every process in states that last
seconds to minutes (1.6–1.9× on the 2-vCPU VM this was written on), so a
raw operation time says as much about the host as about the program.
This loop does a fixed amount of pure-Python work of the kind the miner
does (big-int AND/shift/popcount, dict and set updates, small sorts) and
never touches the library, so no change to the program moves it.

Every timed piece of a run is bracketed by reference runs and reported as
``seconds × REFERENCE_S / reference``: its time on a host where this loop
takes ``REFERENCE_S``.  When the host slows, the piece and the loop slow
together and the ratio stays.  The raw times stay in ``perfbench_env``.
"""

from __future__ import annotations

import os
import random
from time import perf_counter
from typing import List, Sequence

#: Nominal time of one reference run: about its time on the VM this was
#: written on (0.07–0.12 s across that host's speed states).
REFERENCE_S = 0.1

_MASKS = [random.Random(7).getrandbits(1024) for _ in range(64)]


def run() -> float:
    """Time one reference run (seconds)."""
    started = perf_counter()
    acc, table, seen = 0, {}, set()
    for i in range(30000):
        a, b = _MASKS[i & 63], _MASKS[(i * 7) & 63]
        acc += ((a & b) | (a >> 3)).bit_count()
        table[i % 977] = table.get(i % 977, 0) + acc % 13
        seen.add((i * 31) % 2053)
        small = [(j * i) % 101 for j in range(12)]
        small.sort()
        acc += small[5]
    return perf_counter() - started


#: Every CPU this process may use, read at import before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def run_each_cpu() -> float:
    """Mean time of one reference run pinned to each of :data:`CPUS` in turn.

    For work spread over several processes: the host slows each vCPU on
    its own, and an unpinned run samples only the one it lands on.  The
    calling thread's CPUs are restored.
    """
    restore = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            times.append(run())
    finally:
        os.sched_setaffinity(0, restore)
    return sum(times) / len(times)


def scaled(seconds: float, refs: Sequence[float]) -> float:
    """``seconds`` in reference time, given reference runs made around it."""
    return seconds * REFERENCE_S / (sum(refs) / len(refs))


def scaled_each(durations: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Scale ``durations[i]`` by ``refs[i]`` and ``refs[i + 1]`` around it."""
    return [scaled(d, refs[i:i + 2]) for i, d in enumerate(durations)]
