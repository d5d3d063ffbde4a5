"""Property suite for the incremental-counter search kernel.

Two families of guarantees:

* **Counter invariants** — at every expanded node the kernel's
  ``indeg_ext`` lane vector must equal the from-scratch mask
  recomputation (checked by wrapping ``SearchKernel.restrict`` on
  randomized graphs, every search mode, both traversal orders).
* **Scope rebuild** — a restriction that drops more vertices than it
  keeps rebuilds the counter vector from the kept scope; the grid's
  sparse γ ≥ 0.5 row drives that branch, and a 1 024-vertex patch
  search pins its cost.
* **Differential identity** — every search mode must return
  byte-identical results and identical statistics (``counter_updates``
  aside) on the kernel-driven :class:`QuasiCliqueSearch` and on the
  from-scratch :class:`~tests.quasiclique.oracle.OracleSearch`, across a
  randomized size/density grid, high and low γ (the γ < 0.5 regime
  disables distance pruning), both orders, and both engines.

Seeds are fixed so failures replay; CI appends one more seed through the
``REPRO_FUZZ_SEED`` environment variable, exactly like the sparse/dense
differential suite.
"""

import os

import pytest

from repro.datasets.evolving import patch_scenario
from repro.datasets.synthetic import random_attributed_graph
from repro.errors import KernelCapacityError
from repro.quasiclique import kernel
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.kernel import (
    BIGINT_BACKEND,
    KERNEL_MAX_VERTICES,
    NUMPY_BACKEND,
    SearchKernel,
    spread_lanes,
    threshold_table,
)
from repro.quasiclique.search import BFS, DFS, QuasiCliqueSearch
from tests.quasiclique.oracle import (
    CounterInvariantChecker,
    OracleSearch,
    comparable_stats,
)

BASE_SEEDS = (5, 23)

#: (num_vertices, edge_probability, γ, min_size) — shapes from
#: near-empty to dense.  γ < 0.5 rows run without the diameter bound —
#: the regime with the fattest candidate sets — and are paired with
#: sizes/densities whose exhaustive trees stay small.  The last row is
#: wide and sparse under the diameter bound: the distance rule drops most
#: of the scope, so restrictions take the rebuild side of ``_remove``.
CASE_GRID = (
    (10, 0.1, 0.4, 3),
    (14, 0.3, 0.4, 3),
    (16, 0.25, 0.45, 3),
    (16, 0.25, 0.6, 3),
    (20, 0.4, 0.6, 3),
    (18, 0.5, 0.8, 4),
    (30, 0.2, 0.6, 3),
    (20, 0.4, 1.0, 3),
    (60, 0.05, 0.6, 3),
)


def fuzz_seeds():
    seeds = list(BASE_SEEDS)
    extra = os.environ.get("REPRO_FUZZ_SEED")
    if extra is not None:
        seeds.append(int(extra))
    return seeds


def fuzz_graph(seed, num_vertices, edge_probability):
    return random_attributed_graph(
        num_vertices=num_vertices,
        edge_probability=edge_probability,
        attributes=["a", "b"],
        attribute_probability=0.6,
        seed=seed * 977 + num_vertices,
    )


# ----------------------------------------------------------------------
# counter invariants at every restricted node
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", CASE_GRID[:5] + CASE_GRID[-1:]
)
def test_indeg_ext_invariant_at_every_expanded_node(
    seed, num_vertices, edge_probability, gamma, min_size, monkeypatch
):
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    checker = CounterInvariantChecker(monkeypatch)
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    for order in (DFS, BFS):
        QuasiCliqueSearch(graph, params, order=order).covered_vertices()
        QuasiCliqueSearch(graph, params, order=order).enumerate_maximal()
        QuasiCliqueSearch(graph, params, order=order).top_k(3)
    assert checker.nodes_checked > 0


# ----------------------------------------------------------------------
# scope rebuild: retire by the smaller side
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", fuzz_seeds())
def test_case_grid_reaches_the_scope_rebuild(seed, monkeypatch):
    """The grid drives ``_rebuild``, so the identity suites fuzz it."""
    calls = []
    rebuild = SearchKernel._rebuild

    def counted(kernel, node, kept):
        calls.append(kept)
        rebuild(kernel, node, kept)

    monkeypatch.setattr(SearchKernel, "_rebuild", counted)
    for num_vertices, edge_probability, gamma, min_size in CASE_GRID:
        graph = fuzz_graph(seed, num_vertices, edge_probability)
        params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
        QuasiCliqueSearch(graph, params).covered_vertices()
    assert calls


def test_sparse_patch_coverage_rebuilds_the_scope(
    monkeypatch, force_kernel_backend
):
    """A 1 024-vertex sparse patch: the distance rule drops nearly every
    candidate once a member is added.  Retiring those one ``SPREAD``
    subtraction each would cost 1 318 397 counter updates; rebuilding
    from the kept scope costs 44 786, on the same tree and on both
    backends.
    """
    scenario = patch_scenario(seed=11, num_patches=2, edges_per_vertex=1.5)
    graph = scenario.initial_graph()
    patch = [v for v in scenario.vertices if v < 1024]
    params = QuasiCliqueParams(gamma=0.6, min_size=3)
    checker = CounterInvariantChecker(monkeypatch)
    runs = []
    for backend in (BIGINT_BACKEND, NUMPY_BACKEND):
        force_kernel_backend(backend)
        search = QuasiCliqueSearch(graph, params, vertices=patch)
        assert search.stats.kernel_backend == backend
        covered = search.covered_mask()
        stats = dict(vars(search.stats))
        del stats["kernel_backend"], stats["kernel_dtype"]
        runs.append((covered, stats))
    assert runs[0] == runs[1]
    stats = runs[0][1]
    assert stats["nodes_expanded"] == 983
    assert stats["counter_updates"] <= 100_000
    assert checker.nodes_checked > 0


# ----------------------------------------------------------------------
# differential identity: kernel vs from-scratch oracle
# ----------------------------------------------------------------------
def all_modes(search_class, graph, params, **options):
    """Results and comparable stats of every search mode on one loop."""
    coverage = search_class(graph, params, **options)
    enumerate_search = search_class(graph, params, **options)
    topk = search_class(graph, params, **options)
    return (
        coverage.covered_vertices(),
        comparable_stats(coverage.stats),
        enumerate_search.enumerate_maximal(),  # order included
        comparable_stats(enumerate_search.stats),
        topk.top_k(4),
        comparable_stats(topk.stats),
    )


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", CASE_GRID
)
def test_kernel_byte_identical_to_oracle(
    seed, num_vertices, edge_probability, gamma, min_size
):
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    for order in (DFS, BFS):
        assert all_modes(
            QuasiCliqueSearch, graph, params, order=order
        ) == all_modes(OracleSearch, graph, params, order=order)


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_kernel_byte_identical_on_both_engines(seed):
    graph = fuzz_graph(seed, 22, 0.35)
    params = QuasiCliqueParams(gamma=0.6, min_size=3)
    results = set()
    for engine in ("dense", "sparse"):
        for search_class in (OracleSearch, QuasiCliqueSearch):
            search = search_class(graph, params, engine=engine)
            results.add(
                (search.covered_vertices(), tuple(search.enumerate_maximal()))
            )
    assert len(results) == 1


def test_vertex_restricted_search_identical(example_graph, example_qc_params):
    vertices = list(example_graph.vertices())[:8]
    kernel_result, oracle_result = (
        search_class(
            example_graph, example_qc_params, vertices=vertices
        ).covered_vertices()
        for search_class in (QuasiCliqueSearch, OracleSearch)
    )
    assert kernel_result == oracle_result


# ----------------------------------------------------------------------
# kernel plumbing
# ----------------------------------------------------------------------
def test_deep_member_paths_use_the_lane_compare():
    # A 14-clique forces |X| past the small-set bound, exercising the SWAR
    # branches of the hopeless/lookahead rules; the oracle stays the
    # ground truth.
    from repro.graph.attributed_graph import AttributedGraph

    graph = AttributedGraph()
    clique = list(range(14))
    # full 14-clique, except vertex 0 misses four edges — the root
    # lookahead fails and the search recurses into member paths longer
    # than the small-set bound
    missing = {(0, 1), (0, 2), (0, 3), (0, 4)}
    for v in clique:
        graph.add_vertex(v)
    for i in clique:
        for j in clique[i + 1:]:
            if (i, j) not in missing:
                graph.add_edge(i, j)
    params = QuasiCliqueParams(gamma=0.9, min_size=10)
    results = {
        search_class: (
            search_class(graph, params).enumerate_maximal(),
            search_class(graph, params).covered_vertices(),
        )
        for search_class in (OracleSearch, QuasiCliqueSearch)
    }
    assert results[QuasiCliqueSearch] == results[OracleSearch]
    assert frozenset(clique[1:]) in results[QuasiCliqueSearch][0]


def test_counter_updates_stat_counts_kernel_work(example_graph):
    params = QuasiCliqueParams(gamma=0.6, min_size=4)
    kernel_search = QuasiCliqueSearch(example_graph, params)
    kernel_search.covered_vertices()
    oracle_search = OracleSearch(example_graph, params)
    oracle_search.covered_vertices()
    assert kernel_search.stats.counter_updates > 0
    assert oracle_search.stats.counter_updates == 0


def test_kernel_refuses_oversized_local_space():
    table = threshold_table(QuasiCliqueParams(gamma=0.5, min_size=2), 4)
    assert table == [0, 0, 1, 1, 2]
    with pytest.raises(ValueError):
        SearchKernel(
            [0] * (KERNEL_MAX_VERTICES + 1),
            QuasiCliqueParams(gamma=0.5, min_size=2),
            None,
            None,
        )


def test_search_beyond_kernel_capacity_raises(example_graph, monkeypatch):
    """Every search runs on the kernel: no silent fallback past its lanes."""
    params = QuasiCliqueParams(gamma=0.6, min_size=4)
    working = len(QuasiCliqueSearch(example_graph, params).working_vertices)
    monkeypatch.setattr(kernel, "KERNEL_MAX_VERTICES", working - 1)
    with pytest.raises(KernelCapacityError) as caught:
        QuasiCliqueSearch(example_graph, params)
    assert caught.value.working_set_size == working
    assert caught.value.limit == working - 1


def test_search_at_kernel_capacity_runs(example_graph, monkeypatch):
    """A working set of exactly the lane capacity still fits the kernel."""
    params = QuasiCliqueParams(gamma=0.6, min_size=4)
    expected = OracleSearch(example_graph, params).enumerate_maximal()
    working = len(QuasiCliqueSearch(example_graph, params).working_vertices)
    monkeypatch.setattr(kernel, "KERNEL_MAX_VERTICES", working)
    search = QuasiCliqueSearch(example_graph, params)
    assert search.enumerate_maximal() == expected


@pytest.mark.parametrize("mode", ("enumerate", "coverage", "top_k"))
def test_small_searches_run_on_the_kernel(example_graph, mode):
    """Tiny working sets use the kernel too: no size rule picks another loop."""
    params = QuasiCliqueParams(gamma=0.6, min_size=4)
    search = QuasiCliqueSearch(example_graph, params)
    assert len(search.working_vertices) < 16
    if mode == "enumerate":
        search.enumerate_maximal()
    elif mode == "coverage":
        search.covered_vertices()
    else:
        search.top_k(3)
    assert search.stats.kernel_backend_label() == "bigint"
    assert search.stats.counter_updates > 0


def test_spread_lanes():
    assert spread_lanes(0) == 0
    assert spread_lanes(0b1) == 1
    assert spread_lanes(0b101) == (1 << 32) | 1
    # every bit lands at 16×its position, nothing else is set
    mask = 0b1101001
    spread = spread_lanes(mask)
    for v in range(8):
        expected = 1 if mask >> v & 1 else 0
        assert (spread >> (16 * v)) & 0xFFFF == expected
