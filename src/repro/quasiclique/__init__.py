"""Quasi-clique substrate: definitions, pruned search engine, chunk-level
delta invalidation, reference miners."""

from repro.quasiclique.delta import (
    chunk_of,
    chunks_of_native,
    invalidate_memo,
    native_touches,
)
from repro.quasiclique.definitions import (
    QuasiCliqueParams,
    gamma_of,
    restricted_adjacency,
    satisfies_degree_condition,
)
from repro.quasiclique.kernel import SearchKernel
from repro.quasiclique.memo import CoverageMemo
from repro.quasiclique.reference import (
    brute_force_covered_vertices,
    brute_force_maximal_quasi_cliques,
    brute_force_satisfying_sets,
    brute_force_structural_correlation,
)
from repro.quasiclique.search import (
    BFS,
    DFS,
    QuasiCliqueSearch,
    SearchBudgetExceeded,
    SearchStats,
    find_quasi_cliques,
    top_k_quasi_cliques,
    vertices_in_quasi_cliques,
)

__all__ = [
    "BFS",
    "CoverageMemo",
    "DFS",
    "QuasiCliqueParams",
    "QuasiCliqueSearch",
    "SearchBudgetExceeded",
    "SearchKernel",
    "SearchStats",
    "brute_force_covered_vertices",
    "brute_force_maximal_quasi_cliques",
    "brute_force_satisfying_sets",
    "brute_force_structural_correlation",
    "chunk_of",
    "chunks_of_native",
    "invalidate_memo",
    "native_touches",
    "find_quasi_cliques",
    "gamma_of",
    "restricted_adjacency",
    "satisfies_degree_condition",
    "top_k_quasi_cliques",
    "vertices_in_quasi_cliques",
]
