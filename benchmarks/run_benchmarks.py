#!/usr/bin/env python
"""Run the engine benchmarks and record a perf-trajectory entry.

Times the core mining operations over a grid of engines, worker counts and
schedules on a deterministic synthetic workload, then **appends** one run
block to a ``BENCH_results.json`` trajectory file.  Each run block carries
the grid entries ``(op, num_vertices, num_edges, engine, n_jobs, schedule,
seconds)`` plus enough environment metadata (python version, usable cores,
scale) to judge comparability — so future PRs can diff the trajectory and
catch hot-path regressions instead of re-deriving baselines by hand.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full size
    PYTHONPATH=src python benchmarks/run_benchmarks.py --scale 0.2  # CI smoke
    PYTHONPATH=src python benchmarks/run_benchmarks.py --output /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.correlation.parameters import SCPMParams
from repro.correlation.scpm import mine_scpm
from repro.correlation.structural import structural_correlation
from repro.datasets.synthetic import CommunitySpec, SyntheticSpec, generate
from repro.itemsets.eclat import EclatConfig, EclatMiner
from repro.quasiclique import kernel
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.search import QuasiCliqueSearch
from repro.serve import PatternStoreReader
from repro.store import PatternStore

# The kernel-vs-oracle row times the test suite's from-scratch loop.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.quasiclique.oracle import OracleSearch  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_results.json"


def build_graph(scale: float):
    """Deterministic attribute-community workload, sized by ``scale``."""
    num_communities = max(2, int(round(6 * scale)))
    block = max(12, int(round(40 * scale)))
    communities = tuple(
        CommunitySpec(
            attributes=tuple(f"c{j}_a{i}" for i in range(4)),
            size=block + 2 * j,
            density=0.5,
        )
        for j in range(num_communities)
    )
    return generate(
        SyntheticSpec(
            num_vertices=max(120, int(round(700 * scale))),
            background_degree=2.5,
            vocabulary_size=20,
            attributes_per_vertex=0.5,
            communities=communities,
            seed=1234,
        )
    ), block


def timed(operation) -> float:
    started = time.perf_counter()
    operation()
    return time.perf_counter() - started


def entry(op, graph, seconds, engine="auto", n_jobs=1, schedule=None, **extra):
    """One grid row; ``extra`` carries op-specific counters (memo, kernel)."""
    row = {
        "op": op,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "engine": engine,
        "n_jobs": n_jobs,
        "schedule": schedule,
        "seconds": round(seconds, 6),
    }
    row.update(extra)
    return row


def run_grid(scale: float, jobs_grid, engines, schedules):
    graph, block = build_graph(scale)
    min_support = block - 2
    entries = []

    for engine in engines:
        config = EclatConfig(min_support=min_support)
        # use_bitsets engages the engine under test (a frozenset run would
        # ignore `engine` entirely) and warms the graph's bitset index, so
        # the coverage rows below time the search, not index construction.
        seconds = timed(
            lambda: EclatMiner(config, use_bitsets=True, engine=engine).mine_all(graph)
        )
        entries.append(entry("eclat_mine_all", graph, seconds, engine=engine))

    qc = QuasiCliqueParams(gamma=0.6, min_size=4)
    heaviest = f"c{0}_a{0}"
    for engine in engines:
        seconds = timed(
            lambda: structural_correlation(graph, (heaviest,), qc, engine=engine)
        )
        entries.append(entry("quasiclique_coverage", graph, seconds, engine=engine))

    # Incremental-counter kernel vs the from-scratch oracle on the same
    # whole-graph coverage search (the kernel-op trajectory; the ≥2×
    # acceptance bar lives in bench_search_kernel.py's harder workload).
    for search_class, op in (
        (OracleSearch, "coverage_kernel_oracle"),
        (QuasiCliqueSearch, "coverage_kernel_incremental"),
    ):
        # engine pinned so the recorded label stays true at any --scale
        search = search_class(graph, qc, engine="dense")
        seconds = timed(search.covered_mask)
        entries.append(
            entry(
                op,
                graph,
                seconds,
                engine="dense",
                nodes_expanded=search.stats.nodes_expanded,
                counter_updates=search.stats.counter_updates,
            )
        )

    # Counter-lane backend rows: the same dense coverage search once per
    # kernel backend, each row labelled with the backend/dtype
    # (``bigint`` / ``numpy(uint8)`` / ``numpy(uint16)``) so the
    # trajectory attributes kernel perf moves to the lane representation.
    # The ≥3× acceptance bar lives in bench_numpy_kernel.py's wide
    # workload; this graph is deliberately the small trajectory one.
    # Each backend is forced through the factory's working-set threshold.
    default_threshold = kernel.NUMPY_AUTO_MIN_VERTICES
    for threshold in (kernel.KERNEL_MAX_VERTICES + 1, 0):
        kernel.NUMPY_AUTO_MIN_VERTICES = threshold
        try:
            search = QuasiCliqueSearch(graph, qc, engine="dense")
        finally:
            kernel.NUMPY_AUTO_MIN_VERTICES = default_threshold
        seconds = timed(search.covered_mask)
        entries.append(
            entry(
                "coverage_kernel_backend",
                graph,
                seconds,
                engine="dense",
                kernel_backend=search.stats.kernel_backend_label(),
                nodes_expanded=search.stats.nodes_expanded,
                counter_updates=search.stats.counter_updates,
            )
        )

    for engine in engines:
        for n_jobs in jobs_grid:
            for schedule in schedules if n_jobs > 1 else (schedules[0],):
                params = SCPMParams(
                    min_support=min_support,
                    gamma=0.6,
                    min_size=4,
                    min_epsilon=0.2,
                    top_k=5,
                    engine=engine,
                    n_jobs=n_jobs,
                    schedule=schedule,
                )
                box = {}
                seconds = timed(
                    lambda: box.setdefault(
                        "result", mine_scpm(graph, params, collect_patterns=False)
                    )
                )
                counters = box["result"].counters
                entries.append(
                    entry(
                        "scpm_mine",
                        graph,
                        seconds,
                        engine=engine,
                        n_jobs=n_jobs,
                        schedule=schedule,
                        memo_hits=counters.coverage_memo_hits,
                        memo_misses=counters.coverage_memo_misses,
                        kernel_counter_updates=counters.kernel_counter_updates,
                        kernel_backends=dict(counters.kernel_backends),
                    )
                )

    entries.extend(store_entries(scale))
    entries.extend(http_entries(scale))
    return entries


# Pattern collection (the store needs full patterns, unlike the
# collect_patterns=False scpm_mine rows above) enumerates top-k
# quasi-cliques per qualified set, and that cost explodes with the
# community block size: ~0.8s at scale 0.2, ~3s at 0.35, minutes at
# 0.5+.  The store rows time the store, not the mine, so the feeder
# workload is capped here.
STORE_WORKLOAD_MAX_SCALE = 0.35


def store_entries(scale, readers=8, reader_queries=150):
    """Pattern-store rows: save cost plus the serving read path.

    One mine with patterns feeds a throwaway WAL store; the rows time
    the atomic save, cold vs LRU-warm point lookups, the materialised
    top-k listing, and ``readers`` concurrent reader threads issuing a
    fixed query budget (wall seconds recorded; lock errors would fail
    the gating benchmark, ``bench_pattern_store.py``, before this runs).
    """
    graph, block = build_graph(min(scale, STORE_WORKLOAD_MAX_SCALE))
    params = SCPMParams(
        min_support=block - 2, gamma=0.6, min_size=4, min_epsilon=0.2, top_k=5
    )
    result = mine_scpm(graph, params)
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench_store.sqlite"
        with PatternStore(path) as store:
            seconds = timed(lambda: store.save(result, params=params))
        entries.append(
            entry("store_save", graph, seconds, num_patterns=len(result.patterns))
        )

        with PatternStoreReader(path, cache_size=0) as reader:
            ids = [
                stored.pattern_id
                for record in result.qualified
                for stored in reader.patterns_with_attributes(
                    record.attributes, mode="all"
                )
            ]
            ids = sorted(set(ids)) or []
            rounds = 20
            seconds = timed(
                lambda: [reader.get_pattern(i) for _ in range(rounds) for i in ids]
            )
        entries.append(
            entry("store_get_pattern_cold", graph, seconds,
                  lookups=len(ids) * rounds)
        )
        with PatternStoreReader(path, cache_size=4096) as reader:
            for pattern_id in ids:
                reader.get_pattern(pattern_id)  # prime the LRU
            seconds = timed(
                lambda: [reader.get_pattern(i) for _ in range(rounds) for i in ids]
            )
            entries.append(
                entry("store_get_pattern_warm", graph, seconds,
                      lookups=len(ids) * rounds, lru_hits=reader.cache.hits)
            )
            seconds = timed(lambda: [reader.top_k(10) for _ in range(rounds)])
            entries.append(entry("store_top_k", graph, seconds, lookups=rounds))

        def reader_load():
            with PatternStoreReader(path) as reader:
                for index in range(reader_queries):
                    if index % 2:
                        reader.top_k(5)
                    else:
                        reader.patterns_with_attributes(
                            result.qualified[0].attributes, mode="any"
                        )

        threads = [
            threading.Thread(target=reader_load, daemon=True)
            for _ in range(readers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        entries.append(
            entry(
                "store_concurrent_read",
                graph,
                time.perf_counter() - started,
                readers=readers,
                queries=readers * reader_queries,
            )
        )
    return entries


def http_entries(scale, clients=8, client_requests=60):
    """HTTP serving rows: the ``scpm serve`` stack over a real socket.

    The same feeder workload as :func:`store_entries` is served by
    :mod:`repro.serve.http` on an ephemeral loopback port; the rows time
    warm sequential request throughput on one keep-alive connection and
    ``clients`` concurrent connections each issuing a fixed request
    budget (zero-5xx gating lives in ``bench_http_serve.py``).
    """
    import json as json_module
    from http.client import HTTPConnection

    from repro.serve.http import create_server

    graph, block = build_graph(min(scale, STORE_WORKLOAD_MAX_SCALE))
    params = SCPMParams(
        min_support=block - 2, gamma=0.6, min_size=4, min_epsilon=0.2, top_k=5
    )
    result = mine_scpm(graph, params)
    entries = []

    def get(connection, request_path):
        connection.request("GET", request_path)
        response = connection.getresponse()
        return response.status, json_module.loads(response.read())

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench_store.sqlite"
        with PatternStore(path) as store:
            store.save(result, params=params)
        server = create_server(path)
        host, port = server.server_address[:2]
        server_thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.05),
            daemon=True,
        )
        server_thread.start()
        try:
            probe = HTTPConnection(host, port, timeout=10)
            status, top = get(probe, "/top?k=5")
            label = top["entries"][0]["label"].split()[0]
            paths = (
                "/patterns/1",
                "/top?k=5",
                f"/patterns?attributes={label}&mode=any",
                "/runs",
            )
            for request_path in paths:  # warm the pool's LRU
                get(probe, request_path)
            rounds = 30
            seconds = timed(
                lambda: [
                    get(probe, request_path)
                    for _ in range(rounds)
                    for request_path in paths
                ]
            )
            probe.close()
            entries.append(
                entry("http_sequential_read", graph, seconds,
                      requests=rounds * len(paths))
            )

            def client_load():
                connection = HTTPConnection(host, port, timeout=10)
                for index in range(client_requests):
                    get(connection, paths[index % len(paths)])
                connection.close()

            client_threads = [
                threading.Thread(target=client_load, daemon=True)
                for _ in range(clients)
            ]
            started = time.perf_counter()
            for client_thread in client_threads:
                client_thread.start()
            for client_thread in client_threads:
                client_thread.join()
            entries.append(
                entry(
                    "http_concurrent_read",
                    graph,
                    time.perf_counter() - started,
                    clients=clients,
                    requests=clients * client_requests,
                )
            )
        finally:
            server.stop()
            server_thread.join(timeout=30)
    return entries


def append_run(output: Path, run: dict) -> dict:
    trajectory = {"version": 1, "runs": []}
    if output.exists():
        try:
            loaded = json.loads(output.read_text(encoding="utf-8"))
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                trajectory = loaded
        except json.JSONDecodeError:
            pass  # corrupted trajectory: start fresh rather than crash
    trajectory["runs"].append(run)
    output.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return trajectory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"trajectory file (default {DEFAULT_OUTPUT})")
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4],
                        help="n_jobs grid for the SCPM runs")
    parser.add_argument("--engines", nargs="+", default=["dense", "sparse"],
                        help="vertex-set engines to time")
    parser.add_argument("--schedules", nargs="+", default=["steal", "stripe"],
                        help="parallel schedules to time (first is also "
                             "used for the sequential rows)")
    args = parser.parse_args(argv)

    entries = run_grid(args.scale, args.jobs, args.engines, args.schedules)
    run = {
        "recorded_unix": round(time.time(), 3),
        "scale": args.scale,
        "python": platform.python_version(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1),
        "entries": entries,
    }
    trajectory = append_run(args.output, run)

    width = max(len(e["op"]) for e in entries) + 2
    print(f"{'op':<{width}}{'engine':>8}{'n_jobs':>8}{'schedule':>10}{'seconds':>10}")
    for e in entries:
        print(
            f"{e['op']:<{width}}{e['engine']:>8}{e['n_jobs']:>8}"
            f"{str(e['schedule'] or '-'):>10}{e['seconds']:>10.3f}"
        )
    print(f"\nwrote run #{len(trajectory['runs'])} to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
