"""Incremental-counter kernel benchmark — coverage search vs the oracle.

Times :meth:`~repro.quasiclique.search.QuasiCliqueSearch.covered_mask`
on planted-community graphs with the incremental-counter kernel
(:mod:`repro.quasiclique.kernel`) against the from-scratch mask
recomputation the test suite keeps as its oracle
(``tests/quasiclique/oracle.py``), on a **node budget**: both loops
visit the identical set-enumeration tree (the differential suite proves
it), so capping the expanded-node count times the same work on both
sides regardless of how long the full enumeration would run.

The workload is the kernel's target regime: γ < 0.5 disables the
diameter bound, so candidate sets stay fat and the oracle re-popcounts
every candidate at every node and every fixpoint round — exactly the
sweeps the kernel's lane vectors replace with O(|V|/64)-word operations.
The acceptance bar is a ≥ 2× wall-clock speedup; in practice the kernel
wins by ~4–5×.  (γ ≥ 0.5 workloads and the lattice-wide
:class:`~repro.quasiclique.memo.CoverageMemo` are covered by
``run_benchmarks.py``.)
"""

from __future__ import annotations

import time

from repro.datasets.synthetic import CommunitySpec, SyntheticSpec, generate
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.search import QuasiCliqueSearch, SearchBudgetExceeded
from tests.quasiclique.oracle import OracleSearch

from conftest import bench_scale

MIN_REQUIRED_SPEEDUP = 2.0

#: Expanded-node cap per timed run (scaled by REPRO_BENCH_SCALE).
NODE_BUDGET = 100_000


def _build_graph():
    """Planted communities whose density sits near the γ threshold."""
    return generate(
        SyntheticSpec(
            num_vertices=300,
            background_degree=2.0,
            vocabulary_size=10,
            attributes_per_vertex=0.5,
            communities=tuple(
                CommunitySpec(attributes=(f"community{j}",), size=50, density=0.35)
                for j in range(4)
            ),
            seed=5,
        )
    )


def _timed_coverage(graph, params, budget, search_class):
    search = search_class(graph, params, node_budget=budget)
    started = time.perf_counter()
    try:
        covered = search.covered_mask()
    except SearchBudgetExceeded:
        covered = None
    return time.perf_counter() - started, search.stats, covered


def test_search_kernel_speedup(emit):
    graph = _build_graph()
    params = QuasiCliqueParams(gamma=0.45, min_size=4)
    budget = max(10_000, int(NODE_BUDGET * bench_scale()))

    oracle_seconds, oracle_stats, oracle_covered = _timed_coverage(
        graph, params, budget, OracleSearch
    )
    kernel_seconds, kernel_stats, kernel_covered = _timed_coverage(
        graph, params, budget, QuasiCliqueSearch
    )

    # identical work: same tree, same prunes, same (partial) answer
    assert kernel_stats.nodes_expanded == oracle_stats.nodes_expanded
    assert kernel_stats.pruned_hopeless == oracle_stats.pruned_hopeless
    assert kernel_covered == oracle_covered
    assert kernel_stats.counter_updates > 0
    assert oracle_stats.counter_updates == 0

    speedup = oracle_seconds / kernel_seconds
    lines = [
        "Incremental-counter kernel — coverage search on planted communities",
        f"graph: {graph.num_vertices} vertices / {graph.num_edges} edges, "
        f"gamma={params.gamma} min_size={params.min_size} "
        f"node_budget={budget}",
        f"{'loop':<24}{'seconds':>10}{'nodes':>10}{'updates':>12}",
        f"{'from-scratch oracle':<24}{oracle_seconds:>10.3f}"
        f"{oracle_stats.nodes_expanded:>10}{oracle_stats.counter_updates:>12}",
        f"{'incremental kernel':<24}{kernel_seconds:>10.3f}"
        f"{kernel_stats.nodes_expanded:>10}{kernel_stats.counter_updates:>12}",
        f"speedup: {speedup:.2f}x (required ≥ {MIN_REQUIRED_SPEEDUP}x)",
    ]
    emit("bench_search_kernel", "\n".join(lines))
    assert speedup >= MIN_REQUIRED_SPEEDUP, (
        f"incremental kernel only {speedup:.2f}x faster than the "
        f"from-scratch oracle (required {MIN_REQUIRED_SPEEDUP}x)"
    )
