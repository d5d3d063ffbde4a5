"""Property suite for the numpy counter-lane kernel backend.

Mirrors ``test_kernel.py`` one level up the backend seam: where that
suite proves the big-int SWAR kernel byte-identical to the from-scratch
oracle, this one proves the vectorized numpy backend
(:mod:`repro.quasiclique.kernel_numpy`) byte-identical to the big-int
kernel — same emitted sets, same expansion/pruning statistics and the
same ``counter_updates`` tally, across the randomized grid, both
traversal orders and both vertex-set engines.  The big-int backend thus
stays the differential reference for any future lane representation.
Backends are forced through the ``force_kernel_backend`` fixture, which
patches the working-set-size threshold of :func:`make_search_kernel`.

The grid's last row drives the scope rebuild of ``_remove``, so the
identity test covers both retirement sides.  Also covered: the per-dtype
lane selection (uint8 up to 127 working vertices, uint16 beyond), the
typed :class:`KernelCapacityError` on both capacity limits and the
working-set-size selection rule.

Seeds are fixed so failures replay; CI appends one more seed through the
``REPRO_FUZZ_SEED`` environment variable, exactly like ``test_kernel.py``.
"""

import os

import pytest

from repro.datasets.synthetic import random_attributed_graph
from repro.errors import KernelCapacityError
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.kernel import (
    BIGINT_BACKEND,
    KERNEL_MAX_VERTICES,
    NUMPY_AUTO_MIN_VERTICES,
    NUMPY_BACKEND,
    NUMPY_UINT8_MAX_VERTICES,
    SearchKernel,
    make_search_kernel,
)
from repro.quasiclique.kernel_numpy import NumpySearchKernel
from repro.quasiclique.search import BFS, DFS, QuasiCliqueSearch, SearchStats
from tests.quasiclique.oracle import CounterInvariantChecker

BASE_SEEDS = (5, 23)

#: (num_vertices, edge_probability, γ, min_size) — the lean subset of the
#: ``test_kernel.py`` grid: γ < 0.5 rows exercise the no-diameter-bound
#: regime the numpy lanes target, γ ≥ 0.5 the distance-pruned one, and
#: every row's exhaustive tree stays small (γ=0.4 at min_size=2 explodes
#: to ~10M counter updates — deliberately excluded).  The last row is wide
#: and sparse under the diameter bound, so restrictions take the rebuild
#: side of ``_remove``.
CASE_GRID = (
    (10, 0.1, 0.4, 3),
    (14, 0.3, 0.4, 3),
    (16, 0.25, 0.45, 3),
    (16, 0.25, 0.6, 3),
    (20, 0.4, 0.6, 3),
    (18, 0.5, 0.8, 4),
    (30, 0.2, 0.6, 3),
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


def stats_tuple(stats):
    """Every statistic both backends must agree on (labels aside)."""
    return (
        stats.nodes_expanded,
        stats.lookahead_hits,
        stats.satisfying_sets_found,
        stats.pruned_hopeless,
        stats.pruned_covered,
        stats.pruned_by_size,
        stats.counter_updates,
    )


def all_modes(graph, params, order):
    def searcher():
        return QuasiCliqueSearch(graph, params, order=order)

    coverage, enum, topk = searcher(), searcher(), searcher()
    return (
        coverage.covered_vertices(),
        stats_tuple(coverage.stats),
        enum.enumerate_maximal(),  # order included
        stats_tuple(enum.stats),
        topk.top_k(4),
        stats_tuple(topk.stats),
    )


# ----------------------------------------------------------------------
# differential identity: numpy backend vs big-int backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", CASE_GRID
)
def test_numpy_byte_identical_to_bigint(
    seed, num_vertices, edge_probability, gamma, min_size, force_kernel_backend
):
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    for order in (DFS, BFS):
        force_kernel_backend(BIGINT_BACKEND)
        bigint = all_modes(graph, params, order)
        force_kernel_backend(NUMPY_BACKEND)
        vectorized = all_modes(graph, params, order)
        assert vectorized == bigint


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_numpy_byte_identical_on_both_engines(seed, force_kernel_backend):
    graph = fuzz_graph(seed, 22, 0.35)
    params = QuasiCliqueParams(gamma=0.6, min_size=3)
    results = set()
    for engine in ("dense", "sparse"):
        for backend in (BIGINT_BACKEND, NUMPY_BACKEND):
            force_kernel_backend(backend)
            search = QuasiCliqueSearch(graph, params, engine=engine)
            assert search.stats.kernel_backend == backend
            results.add(
                (search.covered_vertices(), tuple(search.enumerate_maximal()))
            )
    assert len(results) == 1


# ----------------------------------------------------------------------
# counter invariants at every restricted node (shared restrict)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", CASE_GRID[:4] + CASE_GRID[-1:]
)
def test_numpy_indeg_ext_invariant_at_every_expanded_node(
    seed,
    num_vertices,
    edge_probability,
    gamma,
    min_size,
    force_kernel_backend,
    monkeypatch,
):
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    force_kernel_backend(NUMPY_BACKEND)
    checker = CounterInvariantChecker(monkeypatch)
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    for order in (DFS, BFS):
        QuasiCliqueSearch(graph, params, order=order).covered_vertices()
        QuasiCliqueSearch(graph, params, order=order).enumerate_maximal()
        QuasiCliqueSearch(graph, params, order=order).top_k(3)
    assert checker.nodes_checked > 0


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_case_grid_reaches_the_scope_rebuild(
    seed, monkeypatch, force_kernel_backend
):
    """The grid drives the numpy ``_rebuild``, so the identity suite fuzzes it."""
    calls = []
    rebuild = NumpySearchKernel._rebuild

    def counted(kernel, node, kept):
        calls.append(kept)
        rebuild(kernel, node, kept)

    monkeypatch.setattr(NumpySearchKernel, "_rebuild", counted)
    force_kernel_backend(NUMPY_BACKEND)
    for num_vertices, edge_probability, gamma, min_size in CASE_GRID:
        graph = fuzz_graph(seed, num_vertices, edge_probability)
        params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
        QuasiCliqueSearch(graph, params).covered_vertices()
    assert calls


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_row_loop_sweep_identical_to_cumsum(
    seed, monkeypatch, force_kernel_backend
):
    """Both retirement-sweep strategies must agree byte-for-byte.

    ``children()`` batches the sibling retirement with ``np.cumsum`` for
    small sibling blocks and an explicit SIMD row loop past
    ``_CUMSUM_CELLS_MAX`` cells; forcing the threshold to zero runs the
    row loop on the small fuzz graphs too, so the branch the benchmark
    workload exercises is differentially pinned here.
    """
    from repro.quasiclique import kernel_numpy

    graph = fuzz_graph(seed, 16, 0.35)
    params = QuasiCliqueParams(gamma=0.45, min_size=3)
    force_kernel_backend(NUMPY_BACKEND)
    default = all_modes(graph, params, DFS)
    monkeypatch.setattr(kernel_numpy, "_CUMSUM_CELLS_MAX", 0)
    forced_row_loop = all_modes(graph, params, DFS)
    assert forced_row_loop == default
    force_kernel_backend(BIGINT_BACKEND)
    assert default == all_modes(graph, params, DFS)


def test_empty_working_set_kernel():
    """A zero-vertex working set builds a (0, 0) kernel without tripping."""
    kernel = _kernel_for(0)
    assert kernel.backend_label == NUMPY_BACKEND


# ----------------------------------------------------------------------
# dtype selection and capacity limits
# ----------------------------------------------------------------------
def _kernel_for(n, kernel_class=NumpySearchKernel):
    params = QuasiCliqueParams(gamma=0.5, min_size=3)
    return kernel_class([0] * n, params, None, SearchStats())


def test_dtype_uint8_up_to_127_vertices():
    for n in (1, NUMPY_UINT8_MAX_VERTICES):
        kernel = _kernel_for(n)
        assert kernel.backend_label == NUMPY_BACKEND
        assert kernel.dtype_name == "uint8"


def test_dtype_uint16_beyond_127_vertices():
    for n in (NUMPY_UINT8_MAX_VERTICES + 1, 500):
        kernel = _kernel_for(n)
        assert kernel.dtype_name == "uint16"


def test_numpy_capacity_error_beyond_uint16():
    with pytest.raises(KernelCapacityError) as caught:
        _kernel_for(KERNEL_MAX_VERTICES + 1)
    error = caught.value
    assert error.working_set_size == KERNEL_MAX_VERTICES + 1
    assert error.limit == KERNEL_MAX_VERTICES
    assert error.backend == NUMPY_BACKEND
    assert "uint8" in str(error) and "uint16" in str(error)


def test_bigint_capacity_error_beyond_lane_limit():
    with pytest.raises(KernelCapacityError) as caught:
        _kernel_for(KERNEL_MAX_VERTICES + 1, kernel_class=SearchKernel)
    error = caught.value
    assert error.limit == KERNEL_MAX_VERTICES
    assert error.backend == BIGINT_BACKEND


def test_search_reports_backend_and_dtype(force_kernel_backend):
    graph = fuzz_graph(1, 20, 0.4)
    params = QuasiCliqueParams(gamma=0.6, min_size=3)
    force_kernel_backend(NUMPY_BACKEND)
    search = QuasiCliqueSearch(graph, params)
    assert search.stats.kernel_backend == NUMPY_BACKEND
    assert search.stats.kernel_dtype == "uint8"
    assert search.stats.kernel_backend_label() == "numpy(uint8)"


# ----------------------------------------------------------------------
# backend selection: working-set size alone
# ----------------------------------------------------------------------
def test_backend_picked_by_working_set_size():
    params = QuasiCliqueParams(gamma=0.5, min_size=3)

    def backend_for(n):
        return make_search_kernel(
            [0] * n, params, None, SearchStats()
        ).backend_label

    assert backend_for(NUMPY_AUTO_MIN_VERTICES - 1) == BIGINT_BACKEND
    assert backend_for(NUMPY_AUTO_MIN_VERTICES) == NUMPY_BACKEND
    # beyond the lane capacity every backend refuses
    with pytest.raises(KernelCapacityError):
        backend_for(KERNEL_MAX_VERTICES + 1)


def test_backend_choice_ignores_environment(monkeypatch):
    """No environment variable steers the backend; size alone decides."""
    params = QuasiCliqueParams(gamma=0.5, min_size=3)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    small = make_search_kernel([0] * 4, params, None, SearchStats())
    assert small.backend_label == BIGINT_BACKEND
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bigint")
    wide = make_search_kernel(
        [0] * NUMPY_AUTO_MIN_VERTICES, params, None, SearchStats()
    )
    assert wide.backend_label == NUMPY_BACKEND
