"""Structural correlation of attribute sets (Definition 2).

``epsilon(S)`` is the fraction of vertices of the induced graph ``G(S)``
that belong to at least one γ-quasi-clique of ``G(S)``.  The functions here
wrap the coverage and top-k modes of the quasi-clique search for a given
attribute set and expose the Theorem-3 vertex restriction used by SCPM.

Everything runs on the graph's cached bitset index
(:meth:`~repro.graph.attributed_graph.AttributedGraph.bitset_index`):
``V(S)`` is an ``&`` over attribute holder masks and the quasi-clique search
is vertex-restricted to it, so no induced subgraph is ever materialised.
The ``*_bitset`` variants keep the covered set as a
:class:`~repro.graph.vertexset.VertexBitset` for the SCPM hot path; the
classic entry points convert to ``frozenset`` at the boundary.  Both
the coverage and the top-k search accept an optional
:class:`~repro.quasiclique.memo.CoverageMemo`, the lattice-wide memo
SCPM shares across attribute sets with the same working set.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, List, Optional, Tuple, Union

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.vertexset import VertexBitset
from repro.itemsets.itemset import canonical_itemset
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.memo import CoverageMemo
from repro.quasiclique.search import DFS, QuasiCliqueSearch
from repro.correlation.patterns import StructuralCorrelationPattern

Attribute = Hashable
Vertex = Hashable
VertexRestriction = Union[Iterable[Vertex], VertexBitset, None]


def structural_correlation_bitset(
    graph: AttributedGraph,
    attributes: Iterable[Attribute],
    params: QuasiCliqueParams,
    order: str = DFS,
    candidate_vertices: VertexRestriction = None,
    engine: str = "auto",
    memo: Optional[CoverageMemo] = None,
    counters=None,
) -> Tuple[float, VertexBitset]:
    """Return ``(ε(S), K_S)`` with the covered set as a bitset view.

    This is the hot-path variant used inside SCPM: the covered set stays in
    the graph's dense id space so the Theorem-3 intersection for extended
    attribute sets is one native ``&`` — an integer AND on the dense engine,
    a chunk-wise AND on the sparse one (``engine`` selects, see
    :mod:`repro.graph.engine`).

    ``memo`` optionally short-circuits the coverage search through a
    :class:`~repro.quasiclique.memo.CoverageMemo`: identical working sets
    recur across the attribute lattice (Theorem-3 siblings), and the
    covered set is a pure function of ``(working set, γ, min_size)``, so
    a hit returns byte-identical output without constructing a search.
    ``counters`` (a :class:`~repro.correlation.patterns.MiningCounters`)
    receives the memo hit/miss and kernel instrumentation, including a
    per-backend tally of coverage searches keyed by ``"bigint"`` /
    ``"numpy(uint8)"`` / ``"numpy(uint16)"`` labels.
    """
    index = graph.bitset_index(engine)
    members = index.members_mask(attributes)
    if not members:
        return 0.0, index.bitset(0)
    if candidate_vertices is None:
        working = members
    else:
        working = index.working_mask(candidate_vertices) & members
    if working.bit_count() < params.min_size:
        return 0.0, index.bitset(0)
    covered, search = covered_native(
        graph,
        params,
        index,
        working,
        order=order,
        engine=engine,
        memo=memo,
    )
    if counters is not None:
        if search is None:
            counters.coverage_memo_hits += 1
        else:
            if memo is not None:
                counters.coverage_memo_misses += 1
            counters.kernel_counter_updates += search.stats.counter_updates
            label = search.stats.kernel_backend_label()
            counters.kernel_backends[label] = (
                counters.kernel_backends.get(label, 0) + 1
            )
    return covered.bit_count() / members.bit_count(), index.bitset(covered)


def covered_native(
    graph: AttributedGraph,
    params: QuasiCliqueParams,
    index,
    working,
    order: str = DFS,
    engine: str = "auto",
    memo: Optional[CoverageMemo] = None,
):
    """Covered set of one working set as an engine native, memo-aware.

    The single place the memo consult/search/populate sequence lives —
    SCPM's ε evaluation and the simulation null model's per-sample
    searches both go through it, so the key shape and the covered-native
    representation can never drift apart between them.  Returns
    ``(covered_native, search)`` where ``search`` is ``None`` on a memo
    hit (callers account hit/miss/kernel statistics off it).
    """
    if memo is not None:
        key = memo.key(working, params.gamma, params.min_size)
        cached = memo.get(key)
        if cached is not None:
            return cached, None
    search = QuasiCliqueSearch(
        graph,
        params,
        vertices=index.bitset(working),
        order=order,
        engine=engine,
    )
    covered = search.covered_to_global(search.covered_mask(), index)
    if memo is not None:
        search.stats.memo_misses += 1
        memo.put(key, covered)
    return covered, search


def structural_correlation(
    graph: AttributedGraph,
    attributes: Iterable[Attribute],
    params: QuasiCliqueParams,
    order: str = DFS,
    candidate_vertices: VertexRestriction = None,
    engine: str = "auto",
    memo: Optional[CoverageMemo] = None,
) -> Tuple[float, FrozenSet[Vertex]]:
    """Return ``(ε(S), K_S)`` for the attribute set ``attributes``.

    Parameters
    ----------
    graph:
        The attributed graph G.
    attributes:
        The attribute set S.
    params:
        Quasi-clique parameters ``(γ, min_size)``.
    order:
        Traversal order of the coverage search (``"dfs"`` or ``"bfs"``).
    candidate_vertices:
        Optional restriction of the vertices that may appear in quasi-cliques
        of ``G(S)``.  SCPM passes the intersection of the parents' covered
        sets here (Theorem 3): vertices outside it cannot be covered, so the
        search works on a smaller graph.
    memo:
        Optional :class:`~repro.quasiclique.memo.CoverageMemo` consulted
        before (and populated after) the coverage search.

    Examples
    --------
    >>> from repro.datasets import paper_example_graph
    >>> graph = paper_example_graph()
    >>> params = QuasiCliqueParams(gamma=0.6, min_size=4)
    >>> epsilon, covered = structural_correlation(graph, ["A"], params)
    >>> round(epsilon, 2), len(covered)
    (0.82, 9)
    """
    epsilon, covered = structural_correlation_bitset(
        graph,
        attributes,
        params,
        order=order,
        candidate_vertices=candidate_vertices,
        engine=engine,
        memo=memo,
    )
    return epsilon, covered.to_frozenset()


def coverage_search(
    graph: AttributedGraph,
    attributes: Iterable[Attribute],
    params: QuasiCliqueParams,
    order: str = DFS,
    candidate_vertices: VertexRestriction = None,
    engine: str = "auto",
) -> QuasiCliqueSearch:
    """Build (without running) the coverage search object for ``G(S)``.

    Exposed so callers (benchmarks, tests) can inspect
    :class:`repro.quasiclique.search.SearchStats` after running a mode.
    """
    index = graph.bitset_index(engine)
    members = index.members_mask(attributes)
    working = (
        members
        if candidate_vertices is None
        else index.working_mask(candidate_vertices) & members
    )
    return QuasiCliqueSearch(
        graph,
        params,
        vertices=index.bitset(working),
        order=order,
        engine=engine,
    )


def top_k_patterns(
    graph: AttributedGraph,
    attributes: Iterable[Attribute],
    params: QuasiCliqueParams,
    k: int,
    order: str = DFS,
    candidate_vertices: VertexRestriction = None,
    engine: str = "auto",
    memo: Optional[CoverageMemo] = None,
    counters=None,
) -> List[StructuralCorrelationPattern]:
    """Return the top-``k`` structural correlation patterns induced by ``S``.

    Patterns are ranked by size (primary) then density (secondary), exactly
    as in Section 3.2.3 of the paper.

    ``memo`` optionally short-circuits the search through a
    :class:`~repro.quasiclique.memo.CoverageMemo`, keyed by
    :meth:`~repro.quasiclique.memo.CoverageMemo.topk_key`: Theorem-3
    siblings share covered sets, so many qualifying attribute sets rank
    patterns over the same working set, and the ranked
    ``(vertex set, γ)`` list — approximate ranks 2..k included — is a
    pure function of ``(working set, γ, min_size, k, order)``.  A hit
    rebuilds byte-identical patterns for ``S`` without constructing a
    search.  ``counters`` (a
    :class:`~repro.correlation.patterns.MiningCounters`) receives the
    ``topk_memo_hits``/``topk_memo_misses`` tally.
    """
    canonical = canonical_itemset(attributes)
    index = graph.bitset_index(engine)
    members = index.members_mask(canonical)
    if members.bit_count() < params.min_size:
        return []
    working = (
        members
        if candidate_vertices is None
        else index.working_mask(candidate_vertices) & members
    )
    ranked = None
    if memo is not None:
        key = memo.topk_key(working, params.gamma, params.min_size, k, order)
        ranked = memo.get(key)
        if counters is not None:
            if ranked is None:
                counters.topk_memo_misses += 1
            else:
                counters.topk_memo_hits += 1
    if ranked is None:
        search = QuasiCliqueSearch(
            graph,
            params,
            vertices=index.bitset(working),
            order=order,
            engine=engine,
        )
        ranked = search.top_k(k)
        if memo is not None:
            memo.put(key, ranked)
    return [
        StructuralCorrelationPattern(
            attributes=canonical, vertices=vertex_set, gamma=gamma
        )
        for vertex_set, gamma in ranked
    ]


def all_patterns(
    graph: AttributedGraph,
    attributes: Iterable[Attribute],
    params: QuasiCliqueParams,
    order: str = DFS,
    engine: str = "auto",
) -> List[StructuralCorrelationPattern]:
    """Return *every* maximal pattern induced by ``S`` (naive enumeration)."""
    canonical = canonical_itemset(attributes)
    index = graph.bitset_index(engine)
    members = index.members_mask(canonical)
    if members.bit_count() < params.min_size:
        return []
    search = QuasiCliqueSearch(
        graph, params, vertices=index.bitset(members), order=order, engine=engine
    )
    member_set = index.bitset(members).to_frozenset()
    adjacency = {v: graph.neighbor_set(v) & member_set for v in member_set}
    patterns = []
    for vertex_set in search.enumerate_maximal():
        min_degree = min(len(adjacency[v] & vertex_set) for v in vertex_set)
        gamma = min_degree / (len(vertex_set) - 1)
        patterns.append(
            StructuralCorrelationPattern(
                attributes=canonical, vertices=vertex_set, gamma=gamma
            )
        )
    patterns.sort(key=lambda p: (-p.size, -p.gamma, sorted(map(repr, p.vertices))))
    return patterns
