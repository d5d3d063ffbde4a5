"""HTTP load for ``serve-read``: request mix, open-loop schedule, capacity.

Users are independent, so the loop is open: request ``i`` is due at
``start + i / rate`` whether or not earlier requests finished, and its
latency is measured from that due time, so a stall also charges the wait
it imposes on the requests queued behind it.  At most ``connections``
keep-alive connections are in flight (one client thread each).  The
generator reports how late it sent (``lateness``) so a result produced by
a starved client can be recognised.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from typing import Dict, List, Sequence
from urllib.parse import quote


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: Request kinds of the mix and their shares.
MIX = (("id", 0.50), ("attributes", 0.15), ("vertex", 0.15), ("top", 0.15), ("runs", 0.05))


def _systematic(items: Sequence, count: int, rng) -> List:
    """``count`` items evenly spaced over ``items`` from a seeded offset."""
    step = len(items) / count
    offset = rng.random() * step
    return [items[int(offset + i * step) % len(items)] for i in range(count)]


def build_mix(rng, popularity, reader, count: int, windows: int = 1) -> List[str]:
    """A seeded request mix over the latest stored run.

    Every window of ``count / windows`` requests holds each kind in its
    exact share of :data:`MIX`: ``/patterns/<id>`` with Zipf-skewed ids
    (rank r ∝ r^-1.1 over a permutation of the pattern ids drawn from
    ``popularity``, so that which patterns are hot, and what they cost,
    can stay fixed while ``rng`` varies the rest),
    ``/patterns?attributes=…`` alternating ``mode=all|any``,
    ``/patterns?vertex=…``, ``/top?k=10`` and ``/runs``, in seeded order.
    Attribute sets and vertices are drawn by systematic sampling over
    their sorted lists, so the mix's cost hardly depends on the seed.
    """
    run_id = reader.latest_run_id()
    result = reader.load_result(run_id)
    pattern_ids = sorted(
        {p.pattern_id for r in result.qualified
         for p in reader.patterns_with_attributes(list(map(str, r.attributes)), mode="all")
         if p.run_id == run_id}
    )
    popularity.shuffle(pattern_ids)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pattern_ids))]
    attribute_sets = sorted(",".join(map(str, r.attributes)) for r in result.qualified)
    vertices = sorted({v for p in result.patterns for v in p.vertices}, key=repr)
    per_window = count // windows
    paths: List[str] = []
    for _ in range(windows):
        sizes = {kind: int(round(share * per_window)) for kind, share in MIX}
        sizes["id"] += per_window - sum(sizes.values())
        window = [f"/patterns/{i}" for i in rng.choices(pattern_ids, weights, k=sizes["id"])]
        for n, filters in enumerate(_systematic(attribute_sets, sizes["attributes"], rng)):
            mode = ("all", "any")[n % 2]
            window.append(f"/patterns?attributes={quote(filters, safe=',')}&mode={mode}")
        window += [f"/patterns?vertex={quote(str(v))}"
                   for v in _systematic(vertices, sizes["vertex"], rng)]
        window += ["/top?k=10"] * sizes["top"] + ["/runs"] * sizes["runs"]
        rng.shuffle(window)
        paths += window
    return paths


@dataclass
class LoadResult:
    latencies: List[float]
    lateness: List[float]
    statuses: List[int]
    bodies: Dict[int, bytes] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return sum(1 for status in self.statuses if status != 200)


def run_open_loop(host: str, port: int, paths: Sequence[str], rate: float,
                  connections: int = 2, keep: Sequence[int] = ()) -> LoadResult:
    """Offer ``paths`` at ``rate`` req/s over ``connections`` connections."""
    count = len(paths)
    latencies = [0.0] * count
    lateness = [0.0] * count
    statuses = [0] * count
    bodies: Dict[int, bytes] = {}
    keep = set(keep)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.005

    def client() -> None:
        connection = HTTPConnection(host, port, timeout=10)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                due = start + index / rate  # rate = inf: every request due at once
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    connection.request("GET", paths[index])
                    response = connection.getresponse()
                    body = response.read()
                    statuses[index] = response.status
                except (OSError, HTTPException):
                    statuses[index] = -1
                    connection.close()
                    connection = HTTPConnection(host, port, timeout=10)
                    body = b""
                done = time.perf_counter()
                latencies[index] = done - due
                lateness[index] = sent - due
                if index in keep:
                    bodies[index] = body
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator threads did not finish")
    return LoadResult(latencies, lateness, statuses, bodies)


def saturation(host: str, port: int, paths: Sequence[str]) -> tuple:
    """Saturation throughput: ``paths`` sent back to back.

    Every request is due at once, so each of the two connections sends
    its next request as soon as the previous answer arrived (a closed
    loop at full load).  Returns ``(req/s, result)``; the result's
    requests count as attempted.
    """
    started = time.perf_counter()
    result = run_open_loop(host, port, paths, rate=float("inf"))
    return len(paths) / (time.perf_counter() - started), result
