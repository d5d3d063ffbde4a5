"""Set-enumeration search engine for quasi-cliques (Algorithm 1 of the paper).

One engine drives the three tasks the paper needs:

* :meth:`QuasiCliqueSearch.enumerate_maximal` — all maximal γ-quasi-cliques
  (used by the Naive baseline, mirroring the Quick algorithm);
* :meth:`QuasiCliqueSearch.covered_vertices` — the set ``K`` of vertices that
  belong to at least one quasi-clique, computed with *cover pruning* and
  early termination (this is how SCPM evaluates the structural correlation);
* :meth:`QuasiCliqueSearch.top_k` — the k largest/densest patterns with the
  dynamically increasing size threshold of Section 3.2.3.

Candidates ``(X, candExts(X))`` are explored over a set-enumeration tree
(Figure 2 of the paper).  A deque gives the BFS strategy, a stack the DFS
strategy.  One loop, :meth:`QuasiCliqueSearch._run`, drives every mode: it
evaluates the pruning rules of Sections 3.2.1–3.2.3 on the incremental
degree counters of :mod:`repro.quasiclique.kernel`, which maintains them
across the tree instead of recomputing them per node.  The global vertex
pruning and the diameter bound live in :mod:`repro.quasiclique.pruning`.

Internally the engine runs on the **bitset vertex-set engine**
(:mod:`repro.graph.vertexset`): the working vertices are relabelled to dense
local ids in ascending-degree order (the classical Eclat-style heuristic that
keeps candidate sets small near the root), adjacency becomes one int mask per
id, and every degree check of the inner loop is a single ``&`` plus a
popcount instead of a hashed set intersection.  Local id order *is* the
candidate-expansion rank, so iterating the set bits of a candidate mask in
ascending position replaces the seed implementation's per-node sort.  All
public entry points keep accepting and returning plain vertices and
``frozenset`` objects; a :class:`repro.graph.vertexset.VertexBitset` (or
:class:`repro.graph.sparseset.SparseVertexBitset`) bound to the graph's own
index is accepted as a zero-copy ``vertices=`` restriction.

The *global* vertex-set representation behind the search is pluggable
(``engine="dense"|"sparse"|"auto"``, see :mod:`repro.graph.engine`): the
index hands over the working adjacency already projected into the local id
space, so the enumeration core below is engine-agnostic and its results are
byte-identical across engines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.vertexset import VertexBitset, iter_bits
from repro.quasiclique.definitions import (
    QuasiCliqueParams,
    gamma_of_mask,
    satisfies_degree_condition_mask,
)
from repro.quasiclique.kernel import make_search_kernel
from repro.quasiclique.pruning import MaskDistanceIndex, prune_low_degree_masks

Vertex = Hashable
VertexRestriction = Union[Iterable[Vertex], VertexBitset, None]

BFS = "bfs"
DFS = "dfs"
_ORDERS = (BFS, DFS)


class SearchBudgetExceeded(RuntimeError):
    """Raised when a node budget is set and the search would exceed it."""


@dataclass
class SearchStats:
    """Counters describing one quasi-clique search run.

    ``counter_updates`` counts the ``indeg_ext`` lane units the
    incremental kernel added or subtracted: the root's degree table
    counts one per working vertex, retiring a vertex by subtraction
    counts its degree, and a scope rebuild (a restriction that drops more
    vertices than it keeps) counts the degrees of every vertex of the
    kept scope ``X ∪ cand``.  ``kernel_backend`` /
    ``kernel_dtype`` name the kernel backend that drove the search
    (``"bigint"``/``"int"`` or ``"numpy"``/``"uint8"``/``"uint16"``; every
    search runs on one).  ``memo_hits``/``memo_misses``
    describe the :class:`~repro.quasiclique.memo.CoverageMemo` consultation
    that surrounded this search, when a caller such as
    :func:`repro.correlation.structural.structural_correlation_bitset`
    consulted one — a search object only ever exists after a miss, so on a
    search's own stats ``memo_hits`` stays 0 and ``memo_misses`` is at most
    1; the mining-level totals live in
    :class:`~repro.correlation.patterns.MiningCounters`.
    """

    nodes_expanded: int = 0
    lookahead_hits: int = 0
    satisfying_sets_found: int = 0
    pruned_hopeless: int = 0
    pruned_covered: int = 0
    pruned_by_size: int = 0
    counter_updates: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    kernel_backend: str = ""
    kernel_dtype: str = ""

    def kernel_backend_label(self) -> str:
        """Attribution label of the kernel that drove this search.

        ``"bigint"`` for the SWAR kernel, ``"numpy(uint8)"`` /
        ``"numpy(uint16)"`` for the vectorised one (``""`` only on a
        bare :class:`SearchStats` no search has filled) — the vocabulary of
        :attr:`repro.correlation.patterns.MiningCounters.kernel_backends`.
        """
        if self.kernel_dtype in ("", "int"):
            return self.kernel_backend
        return f"{self.kernel_backend}({self.kernel_dtype})"


class QuasiCliqueSearch:
    """Quasi-clique search over a graph or a vertex-restricted subgraph.

    Parameters
    ----------
    graph:
        The graph to search.  Only its adjacency is used; a vertex
        restriction makes the search equivalent to running on the induced
        subgraph without materialising it.
    params:
        Quasi-clique parameters ``(γ, min_size)``.
    vertices:
        Optional restriction of the working vertex set (used by SCPM's
        Theorem-3 vertex pruning: only vertices covered for every parent
        attribute set need to be considered).  Accepts any iterable of
        vertices or a :class:`~repro.graph.vertexset.VertexBitset` bound to
        ``graph.bitset_index()`` (zero-copy fast path).
    order:
        ``"dfs"`` (default) or ``"bfs"`` — the traversal strategy.
    use_distance_pruning:
        Enable the diameter-based candidate restriction (only effective for
        γ ≥ 0.5, where the bound is valid).
    node_budget:
        Optional hard cap on expanded nodes; exceeding it raises
        :class:`SearchBudgetExceeded`.  ``None`` (default) means unlimited.
    engine:
        Vertex-set engine of the graph index (``"dense"``, ``"sparse"`` or
        ``"auto"``; see :mod:`repro.graph.engine`).  Either engine yields
        byte-identical results; only memory/speed trade-offs differ.

    Every search runs on the incremental-counter kernel
    (:func:`repro.quasiclique.kernel.make_search_kernel` picks its
    counter-lane backend by working-set size).  A working set beyond the
    kernel's :data:`~repro.quasiclique.kernel.KERNEL_MAX_VERTICES` lane
    capacity makes construction raise
    :class:`~repro.errors.KernelCapacityError`.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        params: QuasiCliqueParams,
        vertices: VertexRestriction = None,
        order: str = DFS,
        use_distance_pruning: bool = True,
        node_budget: Optional[int] = None,
        engine: str = "auto",
    ) -> None:
        if order not in _ORDERS:
            raise ParameterError(f"order must be one of {_ORDERS}, got {order!r}")
        self.params = params
        self.order = order
        self.node_budget = node_budget
        self.stats = SearchStats()

        index = graph.bitset_index(engine)
        working = index.working_mask(vertices)
        # Working adjacency in a provisional local id space (ascending global
        # id order).  The index materialises the dense local masks — the
        # sparse engine's only dense allocation, bounded by the working set —
        # and may pre-drop provably hopeless vertices (the dense prune below
        # reaches the same unique fixpoint either way).
        global_ids, provisional = index.local_adjacency(
            working, min_degree=params.base_degree_threshold
        )

        # Global vertex pruning (Section 3.2.1), then relabel the survivors
        # so that ascending local id == ascending (degree, repr) rank.
        alive, pruned = prune_low_degree_masks(provisional, params)
        vertex_of_global = index.indexer.vertex_of
        survivors = sorted(
            iter_bits(alive),
            key=lambda i: (pruned[i].bit_count(), repr(vertex_of_global(global_ids[i]))),
        )
        relabel = {old: new for new, old in enumerate(survivors)}
        self._adjacency: List[int] = []
        for old in survivors:
            mask = 0
            for neighbor in iter_bits(pruned[old]):
                mask |= 1 << relabel[neighbor]
            self._adjacency.append(mask)
        self._vertex_of: List[Vertex] = [
            vertex_of_global(global_ids[old]) for old in survivors
        ]
        self._id_of: Dict[Vertex, int] = {
            v: i for i, v in enumerate(self._vertex_of)
        }
        self._universe: int = (1 << len(survivors)) - 1
        self._distance_index = (
            MaskDistanceIndex(self._adjacency, params.distance_bound)
            if use_distance_pruning
            else None
        )
        self._kernel = make_search_kernel(
            self._adjacency, params, self._distance_index, self.stats
        )
        self.stats.kernel_backend = self._kernel.backend_label
        self.stats.kernel_dtype = self._kernel.dtype_name
        # Per-mask (size, γ, repr-rank) sort keys the top-k re-sorts reuse —
        # gamma_of_mask and the repr sort are pure functions of the mask.
        self._pattern_keys: Dict[int, Tuple] = {}

    # ------------------------------------------------------------------
    # public modes
    # ------------------------------------------------------------------
    @property
    def working_vertices(self) -> FrozenSet[Vertex]:
        """Vertices that survived the global minimum-degree pruning."""
        return frozenset(self._vertex_of)

    def enumerate_maximal(self) -> List[FrozenSet[Vertex]]:
        """Enumerate every maximal γ-quasi-clique of size ≥ ``min_size``.

        Maximality follows Definition 1: a satisfying vertex set with no
        satisfying proper superset.  The search emits every satisfying set
        that is not subsumed by a lookahead hit and a containment filter
        removes non-maximal emissions, which yields exactly the maximal
        sets (each satisfying set is contained in some emitted set).
        """
        emitted: List[int] = []
        self._run(mode="enumerate", emitted=emitted)
        return [self._to_frozenset(mask) for mask in _maximal_only(emitted)]

    def covered_vertices(
        self, targets: Optional[Iterable[Vertex]] = None
    ) -> FrozenSet[Vertex]:
        """Return the vertices covered by at least one quasi-clique.

        ``targets`` optionally limits the vertices whose coverage status is
        required; the search stops as soon as every target is covered and
        skips subtrees that cannot cover a new target.  The returned set
        contains exactly the covered vertices among the targets (all working
        vertices when ``targets`` is ``None``).
        """
        return self._to_frozenset(self.covered_mask(targets))

    def covered_mask(self, targets: Optional[Iterable[Vertex]] = None) -> int:
        """Like :meth:`covered_vertices` but returning a local-id mask.

        Exposed for callers that immediately re-index the result (the SCPM
        hot path); :meth:`covered_to_global` maps it back to graph space.
        """
        targets_mask = self._restriction_mask(targets)
        covered = [self._greedy_cover(targets_mask)]
        if targets_mask & ~covered[0]:
            self._run(mode="coverage", covered=covered, targets=targets_mask)
        return covered[0] & targets_mask

    def top_k(self, k: int) -> List[Tuple[FrozenSet[Vertex], float]]:
        """Return the top-``k`` patterns ranked by size then density (γ).

        The result is a list of ``(vertex_set, gamma)`` pairs, best first.
        Following Section 3.2.3, the minimum size threshold is raised as the
        result set fills up, pruning subtrees that cannot beat the current
        k-th best pattern.

        Guarantees: the largest pattern is exact, every returned set
        satisfies Definition 1's degree/size condition, and the results are
        pairwise incomparable.  Because the pruning threshold is driven by
        the *current* pattern set — which can momentarily contain
        non-maximal candidates, exactly as in the paper's rule — patterns
        ranked 2..k may occasionally be larger than the true k-th maximal
        pattern would allow smaller ones to appear; in practice this only
        shows up on adversarial tiny graphs (see the property tests).
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        current_top: List[int] = []
        # Seed the result set with greedily found quasi-cliques so the dynamic
        # size threshold of Section 3.2.3 starts pruning immediately.
        for seed in self._greedy_satisfying_sets(self._universe):
            self._record(seed, "topk", current_top, None, k)
        self._run(mode="topk", emitted=current_top, k=k)
        ranked = sorted(current_top, key=self._pattern_sort_key)
        # The cached key already carries -γ; reuse it instead of another
        # gamma_of_mask sweep per returned pattern.
        return [
            (self._to_frozenset(mask), -self._pattern_sort_key(mask)[1])
            for mask in ranked[:k]
        ]

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def _to_frozenset(self, mask: int) -> FrozenSet[Vertex]:
        table = self._vertex_of
        return frozenset(table[i] for i in iter_bits(mask))

    def covered_to_global(self, mask: int, index):
        """Map a local-id mask into ``index``'s native global representation."""
        id_of = index.indexer.id_of
        table = self._vertex_of
        return index.native_from_ids(id_of(table[i]) for i in iter_bits(mask))

    def _restriction_mask(self, targets: Optional[Iterable[Vertex]]) -> int:
        if targets is None:
            return self._universe
        id_of = self._id_of
        mask = 0
        for vertex in targets:
            index = id_of.get(vertex)
            if index is not None:
                mask |= 1 << index
        return mask

    # ------------------------------------------------------------------
    # greedy coverage seed
    # ------------------------------------------------------------------
    def _greedy_satisfying_sets(self, targets: int) -> List[int]:
        """Cheap sound pre-pass that finds obvious quasi-cliques around dense vertices.

        For each still-unvisited target (densest first) the closed
        neighbourhood is shrunk greedily — dropping the weakest vertex while
        the γ degree condition fails — and, whenever a satisfying set
        remains, it is recorded.  Only verified satisfying sets are returned,
        so the pre-pass never over-reports; the exact search that follows
        settles everything else.  In dense planted communities this removes
        almost all the enumeration work.
        """
        adjacency = self._adjacency
        params = self.params
        found: List[int] = []
        seen = 0
        order = sorted(iter_bits(targets), key=lambda i: -adjacency[i].bit_count())
        for vertex in order:
            if (seen >> vertex) & 1:
                continue
            candidate = adjacency[vertex] | (1 << vertex)
            while candidate.bit_count() >= params.min_size:
                if satisfies_degree_condition_mask(adjacency, candidate, params):
                    found.append(candidate)
                    seen |= candidate
                    break
                weakest = min(
                    iter_bits(candidate & ~(1 << vertex)),
                    key=lambda v: ((adjacency[v] & candidate).bit_count(), v),
                )
                candidate &= ~(1 << weakest)
        return found

    def _greedy_cover(self, targets: int) -> int:
        """Mask covered by the greedy pre-pass (see ``_greedy_satisfying_sets``)."""
        covered = 0
        for satisfying in self._greedy_satisfying_sets(targets):
            self.stats.satisfying_sets_found += 1
            covered |= satisfying
        return covered

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _run(
        self,
        mode: str,
        emitted: Optional[List[int]] = None,
        covered: Optional[List[int]] = None,
        targets: int = 0,
        k: int = 0,
    ) -> None:
        """Drive the set-enumeration search in the requested ``mode``.

        Every pruning rule is evaluated from the node's ``indeg_ext``
        counter vector (see :mod:`repro.quasiclique.kernel` for the
        invariants).  The cover and top-k size rules are probed twice:
        first on the unrestricted union, then after candidate restriction.
        Restriction only shrinks the union, so a node failing the early
        probe provably fails the exact post-restriction check too — the
        pruned set and every statistic are those of the single late check,
        but the ~90 % of coverage nodes that die early never pay for the
        restriction.
        """
        if not self._universe:
            return
        kernel = self._kernel
        frontier: deque = deque()
        frontier.append(kernel.root())

        while frontier:
            node = frontier.popleft() if self.order == BFS else frontier.pop()
            self.stats.nodes_expanded += 1
            if self.node_budget is not None and self.stats.nodes_expanded > self.node_budget:
                raise SearchBudgetExceeded(
                    f"expanded more than {self.node_budget} candidate quasi-cliques"
                )

            members_mask = node.members_mask
            if mode == "coverage":
                assert covered is not None
                covered_mask = covered[0]
                if not targets & ~covered_mask:
                    return
                union = members_mask | node.candidates
                if not union & ~covered_mask or not union & targets & ~covered_mask:
                    self.stats.pruned_covered += 1
                    continue
            elif mode == "topk" and emitted is not None and len(emitted) >= k:
                smallest_top = min(pattern.bit_count() for pattern in emitted)
                if (members_mask | node.candidates).bit_count() < smallest_top:
                    self.stats.pruned_by_size += 1
                    continue

            kernel.restrict(node)
            candidates = node.candidates

            if mode == "coverage":
                union = members_mask | candidates
                if not union & ~covered_mask or not union & targets & ~covered_mask:
                    self.stats.pruned_covered += 1
                    continue

            if mode == "topk" and emitted is not None and len(emitted) >= k:
                smallest_top = min(pattern.bit_count() for pattern in emitted)
                if (members_mask | candidates).bit_count() < smallest_top:
                    self.stats.pruned_by_size += 1
                    continue

            if kernel.is_hopeless(node):
                self.stats.pruned_hopeless += 1
                continue

            if candidates and kernel.union_satisfies(node):
                # Lookahead: X ∪ candExts(X) is itself a quasi-clique — it
                # subsumes every satisfying set of this subtree.
                self.stats.lookahead_hits += 1
                self._record(members_mask | candidates, mode, emitted, covered, k)
                continue

            if kernel.members_satisfy(node):
                self._record(members_mask, mode, emitted, covered, k)

            if not candidates:
                continue
            children = kernel.children(node)
            if self.order == DFS:
                # push in reverse so the smallest-ranked extension is explored first
                children.reverse()
            frontier.extend(children)

    def _record(
        self,
        vertex_mask: int,
        mode: str,
        emitted: Optional[List[int]],
        covered: Optional[List[int]],
        k: int,
    ) -> None:
        """Register a satisfying vertex set according to the search mode."""
        self.stats.satisfying_sets_found += 1
        if mode == "coverage":
            assert covered is not None
            covered[0] |= vertex_mask
            return
        assert emitted is not None
        if mode == "enumerate":
            emitted.append(vertex_mask)
            return
        # top-k mode: keep only the current best, containment-filtered, so the
        # dynamic size threshold reflects k *distinct* candidate patterns.
        if any(vertex_mask & ~existing == 0 for existing in emitted):
            return
        emitted[:] = [
            existing
            for existing in emitted
            if not (existing != vertex_mask and existing & ~vertex_mask == 0)
        ]
        emitted.append(vertex_mask)
        # Tie-break on vertex reprs (not raw mask order) so the k retained
        # patterns match the naive baseline's ranking when (size, γ) tie.
        # Keys are cached per mask: the re-sort on every insertion would
        # otherwise recompute gamma_of_mask and the repr sort for every
        # retained pattern each time.
        emitted.sort(key=self._pattern_sort_key)
        del emitted[k:]

    def _pattern_sort_key(self, vertex_mask: int) -> Tuple:
        """Cached ``(-size, -γ, repr-ranked vertices)`` ranking key."""
        key = self._pattern_keys.get(vertex_mask)
        if key is None:
            key = (
                -vertex_mask.bit_count(),
                -gamma_of_mask(self._adjacency, vertex_mask),
                sorted(map(repr, self._to_frozenset(vertex_mask))),
            )
            self._pattern_keys[vertex_mask] = key
        return key


def _maximal_only(masks: Sequence[int]) -> List[int]:
    """Filter a collection of vertex-set masks down to the inclusion-maximal ones."""
    unique = list(dict.fromkeys(masks))
    unique.sort(key=int.bit_count, reverse=True)
    maximal: List[int] = []
    for candidate in unique:
        if not any(
            candidate != other and candidate & ~other == 0 for other in maximal
        ):
            maximal.append(candidate)
    return maximal


# ----------------------------------------------------------------------
# convenience functions
# ----------------------------------------------------------------------
def find_quasi_cliques(
    graph: AttributedGraph,
    gamma: float,
    min_size: int,
    order: str = DFS,
    vertices: VertexRestriction = None,
    engine: str = "auto",
) -> List[FrozenSet[Vertex]]:
    """Enumerate the maximal γ-quasi-cliques of ``graph``.

    Examples
    --------
    >>> from repro.datasets import paper_example_graph
    >>> cliques = find_quasi_cliques(paper_example_graph(), gamma=0.6, min_size=4)
    >>> sorted(map(len, cliques))
    [4, 4, 4, 4, 6]
    """
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    search = QuasiCliqueSearch(
        graph, params, vertices=vertices, order=order, engine=engine
    )
    return search.enumerate_maximal()


def vertices_in_quasi_cliques(
    graph: AttributedGraph,
    gamma: float,
    min_size: int,
    order: str = DFS,
    vertices: VertexRestriction = None,
    targets: Optional[Iterable[Vertex]] = None,
    engine: str = "auto",
) -> FrozenSet[Vertex]:
    """Return the set ``K`` of vertices belonging to at least one quasi-clique."""
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    search = QuasiCliqueSearch(
        graph, params, vertices=vertices, order=order, engine=engine
    )
    return search.covered_vertices(targets=targets)


def top_k_quasi_cliques(
    graph: AttributedGraph,
    gamma: float,
    min_size: int,
    k: int,
    order: str = DFS,
    vertices: VertexRestriction = None,
    engine: str = "auto",
) -> List[Tuple[FrozenSet[Vertex], float]]:
    """Return the top-``k`` quasi-cliques of ``graph`` by size then density."""
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    search = QuasiCliqueSearch(
        graph, params, vertices=vertices, order=order, engine=engine
    )
    return search.top_k(k)
