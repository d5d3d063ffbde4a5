"""From-scratch quasi-clique search: the differential reference for the kernel.

The production search (:class:`repro.quasiclique.search.QuasiCliqueSearch`)
evaluates every pruning rule on incremental degree counters
(:mod:`repro.quasiclique.kernel`).  This module keeps the loop those
counters replaced: :class:`OracleSearch` re-derives every degree from the
node's masks at every node, with the pruning rules below.  It must visit
the same set-enumeration tree, emit the same sets and produce the same
statistics (``counter_updates`` aside — it stays 0 here), which is what
the kernel fuzz suites and ``benchmarks/bench_search_kernel.py`` check.
:class:`CounterInvariantChecker` checks the kernel's counters themselves
against a from-scratch recomputation at every node.

Two layers of pruning rules (Section 3.2.1/3.2.2 of the paper and the
Quick algorithm of Liu & Wong, PKDD 2008):

* the **set-based rules** over ``{vertex: set(neighbours)}`` adjacency —
  the readable specification;
* their **mask twins** over dense-id adjacency masks, which
  :class:`OracleSearch` runs, and which the differential suite pins to the
  set-based rules bit for bit.

:class:`OracleSearch` inherits the constructor, so its stats carry the
label of the kernel the constructor built, unused.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.vertexset import iter_bits
from repro.quasiclique.definitions import (
    QuasiCliqueParams,
    satisfies_degree_condition_mask,
)
from repro.quasiclique.kernel import (
    LANE_BITS,
    KernelNode,
    SearchKernel,
    spread_lanes,
)
from repro.quasiclique.pruning import MaskDistanceIndex
from repro.quasiclique.search import (
    BFS,
    DFS,
    QuasiCliqueSearch,
    SearchBudgetExceeded,
)

Vertex = Hashable
Adjacency = Dict[Vertex, Set[Vertex]]


# ----------------------------------------------------------------------
# set-based rules — the readable specification
# ----------------------------------------------------------------------
def prune_low_degree_vertices(
    adjacency: Adjacency, params: QuasiCliqueParams
) -> Adjacency:
    """Iteratively remove vertices with degree < ``ceil(γ(min_size-1))``.

    Returns a new adjacency mapping restricted to the surviving vertices.
    No member of any vertex set that satisfies the degree condition is ever
    removed: all its neighbours inside the set survive with it, so its
    working degree never drops below the threshold.
    """
    threshold = params.base_degree_threshold
    working: Adjacency = {v: set(neighbors) for v, neighbors in adjacency.items()}
    queue: List[Vertex] = [v for v, neighbors in working.items() if len(neighbors) < threshold]
    removed: Set[Vertex] = set(queue)
    while queue:
        vertex = queue.pop()
        for neighbor in working[vertex]:
            neighbors = working[neighbor]
            neighbors.discard(vertex)
            if neighbor not in removed and len(neighbors) < threshold:
                removed.add(neighbor)
                queue.append(neighbor)
        working[vertex] = set()
    return {v: neighbors for v, neighbors in working.items() if v not in removed}


class DistanceIndex:
    """Lazy distance-≤ 2 neighbourhood index over a working adjacency.

    For γ ≥ 0.5 every pair of vertices of a quasi-clique is at distance at
    most 2 (at most 1 for γ = 1), so a candidate extension must lie inside
    the (closed) distance-bound neighbourhood of every vertex already in X.
    """

    def __init__(self, adjacency: Adjacency, distance_bound: int) -> None:
        self._adjacency = adjacency
        self._distance_bound = distance_bound
        self._cache: Dict[Vertex, Set[Vertex]] = {}

    @property
    def enabled(self) -> bool:
        """``True`` when the γ value yields a usable distance bound."""
        return self._distance_bound in (1, 2)

    def reachable(self, vertex: Vertex) -> Set[Vertex]:
        """Closed neighbourhood of ``vertex`` within the distance bound."""
        cached = self._cache.get(vertex)
        if cached is not None:
            return cached
        neighbors = self._adjacency[vertex]
        result = set(neighbors)
        if self._distance_bound != 1:
            for neighbor in neighbors:
                result |= self._adjacency[neighbor]
        result.add(vertex)
        self._cache[vertex] = result
        return result

    def allowed_extensions(
        self, members: Iterable[Vertex], candidates: AbstractSet[Vertex]
    ) -> Set[Vertex]:
        """Return the candidates within the distance bound of every member."""
        allowed = set(candidates)
        for member in members:
            allowed &= self.reachable(member)
            if not allowed:
                break
        return allowed


def filter_candidates_by_degree(
    adjacency: Adjacency,
    members: AbstractSet[Vertex],
    candidates: Set[Vertex],
    params: QuasiCliqueParams,
) -> Set[Vertex]:
    """Drop candidate extensions that cannot reach the degree requirement.

    A candidate ``u`` added to any set ``Q`` in this subtree gives
    ``|Q| ≥ max(min_size, |X| + 1)`` and ``deg_Q(u) ≤ |N(u) ∩ (X ∪ cand)|``,
    so the latter must reach ``ceil(γ (max(min_size, |X|+1) - 1))``.
    The filter is applied to a fixpoint because removing one candidate can
    invalidate another.
    """
    required = params.degree_threshold(max(params.min_size, len(members) + 1))
    remaining = set(candidates)
    changed = True
    while changed:
        changed = False
        scope = members | remaining
        for candidate in list(remaining):
            if len(adjacency[candidate] & scope) < required:
                remaining.discard(candidate)
                changed = True
    return remaining


def subtree_is_hopeless(
    adjacency: Adjacency,
    members: AbstractSet[Vertex],
    candidates: AbstractSet[Vertex],
    params: QuasiCliqueParams,
) -> bool:
    """Return ``True`` when no satisfying set exists in the subtree.

    Checks that the subtree can still reach ``min_size`` and that every
    vertex already in X can reach the degree requirement of the *smallest*
    feasible final size using only vertices of ``X ∪ cand``.  Both are
    necessary conditions for any satisfying superset of X inside the
    subtree, so returning ``True`` never discards a valid quasi-clique.
    """
    if not members:
        return len(candidates) < params.min_size
    total = len(members) + len(candidates)
    if total < params.min_size:
        return True
    required = params.degree_threshold(max(params.min_size, len(members)))
    scope = members | candidates
    for member in members:
        if len(adjacency[member] & scope) < required:
            return True
    return False


def restrict_candidates(
    adjacency: Adjacency,
    members: AbstractSet[Vertex],
    candidates: Set[Vertex],
    params: QuasiCliqueParams,
    distance_index: Optional[DistanceIndex] = None,
) -> Set[Vertex]:
    """Apply every candidate-level pruning rule and return the reduced set."""
    reduced = set(candidates)
    if distance_index is not None and distance_index.enabled and members:
        reduced = distance_index.allowed_extensions(members, reduced)
    if reduced:
        reduced = filter_candidates_by_degree(adjacency, members, reduced, params)
    return reduced


# ----------------------------------------------------------------------
# mask twins — the same rules over dense-id adjacency masks
# ----------------------------------------------------------------------
def allowed_extensions_masks(
    distance_index: MaskDistanceIndex, members: Iterable[int], candidates: int
) -> int:
    """Mask twin of :meth:`DistanceIndex.allowed_extensions`."""
    allowed = candidates
    for member in members:
        allowed &= distance_index.reachable(member)
        if not allowed:
            break
    return allowed


def filter_candidates_by_degree_masks(
    adjacency: Sequence[int],
    members_mask: int,
    candidates_mask: int,
    params: QuasiCliqueParams,
) -> int:
    """Mask twin of :func:`filter_candidates_by_degree` (fixpoint)."""
    required = params.degree_threshold(
        max(params.min_size, members_mask.bit_count() + 1)
    )
    remaining = candidates_mask
    changed = True
    while changed:
        changed = False
        scope = members_mask | remaining
        for candidate in iter_bits(remaining):
            if (adjacency[candidate] & scope).bit_count() < required:
                remaining &= ~(1 << candidate)
                changed = True
    return remaining


def subtree_is_hopeless_masks(
    adjacency: Sequence[int],
    members_mask: int,
    candidates_mask: int,
    params: QuasiCliqueParams,
) -> bool:
    """Mask twin of :func:`subtree_is_hopeless`."""
    member_count = members_mask.bit_count()
    if not member_count:
        return candidates_mask.bit_count() < params.min_size
    if member_count + candidates_mask.bit_count() < params.min_size:
        return True
    required = params.degree_threshold(max(params.min_size, member_count))
    scope = members_mask | candidates_mask
    for member in iter_bits(members_mask):
        if (adjacency[member] & scope).bit_count() < required:
            return True
    return False


def restrict_candidates_masks(
    adjacency: Sequence[int],
    members: Sequence[int],
    members_mask: int,
    candidates_mask: int,
    params: QuasiCliqueParams,
    distance_index: Optional[MaskDistanceIndex] = None,
) -> int:
    """Mask twin of :func:`restrict_candidates`."""
    reduced = candidates_mask
    if distance_index is not None and distance_index.enabled and members:
        reduced = allowed_extensions_masks(distance_index, members, reduced)
    if reduced:
        reduced = filter_candidates_by_degree_masks(
            adjacency, members_mask, reduced, params
        )
    return reduced


# ----------------------------------------------------------------------
# the from-scratch search loop
# ----------------------------------------------------------------------
@dataclass
class _Node:
    """A search-tree node: the growing set X and its candidate extensions.

    ``members`` keeps the extension path as a tuple of local ids (cheap
    prefix sharing between siblings); ``members_mask`` and ``candidates``
    are masks in the same local id space.
    """

    members: Tuple[int, ...]
    members_mask: int
    candidates: int


class OracleSearch(QuasiCliqueSearch):
    """:class:`QuasiCliqueSearch` with the from-scratch set-enumeration loop.

    Same constructor, same public modes, same greedy pre-pass and same
    result recording; only :meth:`_run` differs — it recomputes every
    degree from masks at every node instead of reading kernel counters.
    """

    def _run(
        self,
        mode: str,
        emitted: Optional[List[int]] = None,
        covered: Optional[List[int]] = None,
        targets: int = 0,
        k: int = 0,
    ) -> None:
        if not self._universe:
            return
        params = self.params
        adjacency = self._adjacency
        frontier: deque = deque()
        frontier.append(_Node(members=(), members_mask=0, candidates=self._universe))

        while frontier:
            node = frontier.popleft() if self.order == BFS else frontier.pop()
            self.stats.nodes_expanded += 1
            if self.node_budget is not None and self.stats.nodes_expanded > self.node_budget:
                raise SearchBudgetExceeded(
                    f"expanded more than {self.node_budget} candidate quasi-cliques"
                )

            members_mask = node.members_mask
            candidates = restrict_candidates_masks(
                adjacency,
                node.members,
                members_mask,
                node.candidates,
                params,
                self._distance_index,
            )

            if mode == "coverage":
                assert covered is not None
                covered_mask = covered[0]
                if not targets & ~covered_mask:
                    return
                union = members_mask | candidates
                if not union & ~covered_mask or not union & targets & ~covered_mask:
                    self.stats.pruned_covered += 1
                    continue

            if mode == "topk" and emitted is not None and len(emitted) >= k:
                smallest_top = min(pattern.bit_count() for pattern in emitted)
                if (members_mask | candidates).bit_count() < smallest_top:
                    self.stats.pruned_by_size += 1
                    continue

            if subtree_is_hopeless_masks(adjacency, members_mask, candidates, params):
                self.stats.pruned_hopeless += 1
                continue

            union = members_mask | candidates
            if candidates and satisfies_degree_condition_mask(adjacency, union, params):
                # Lookahead: X ∪ candExts(X) is itself a quasi-clique — it
                # subsumes every satisfying set of this subtree.
                self.stats.lookahead_hits += 1
                self._record(union, mode, emitted, covered, k)
                continue

            if members_mask.bit_count() >= params.min_size and (
                satisfies_degree_condition_mask(adjacency, members_mask, params)
            ):
                self._record(members_mask, mode, emitted, covered, k)

            if not candidates:
                continue
            # Ascending bit position == ascending rank: the relabelling in
            # the constructor makes a per-node candidate sort unnecessary.
            children: List[_Node] = []
            rest = candidates
            for vertex in iter_bits(candidates):
                rest &= ~(1 << vertex)
                children.append(
                    _Node(
                        members=node.members + (vertex,),
                        members_mask=members_mask | (1 << vertex),
                        candidates=rest,
                    )
                )
            if self.order == DFS:
                # push in reverse so the smallest-ranked extension is explored first
                children.reverse()
            frontier.extend(children)


def recompute_counters(kernel, node) -> List[int]:
    """From-scratch ``indeg_ext`` for every vertex of the kernel's working graph."""
    scope = node.members_mask | node.candidates
    return [(mask & scope).bit_count() for mask in kernel.adjacency]


def lane_high(mask: int) -> int:
    """The top bit of every 16-bit lane whose vertex is in ``mask``."""
    return spread_lanes(mask) << (LANE_BITS - 1)


class CounterInvariantChecker:
    """Checks the kernel's counter invariant after every restriction.

    Wraps ``SearchKernel.restrict`` (shared by both backends) through
    ``monkeypatch``: after each call the node's live ``indeg_ext`` lanes
    must equal :func:`recompute_counters` — for every vertex, in or out
    of scope.  On big-int nodes the ``members_high`` / ``cand_high``
    lane-top-bit masks must also match ``members_mask`` / ``candidates``
    (a retirement rewrites ``cand_high``; the SWAR compares trust it).
    """

    def __init__(self, monkeypatch) -> None:
        self.nodes_checked = 0
        restrict = SearchKernel.restrict

        def checked_restrict(kernel, node) -> None:
            restrict(kernel, node)
            self.nodes_checked += 1
            live = kernel.unpack(node)
            expected = recompute_counters(kernel, node)
            assert live == expected, (
                f"indeg_ext diverged at node X={node.members!r} "
                f"cand={bin(node.candidates)}: {live} != {expected}"
            )
            if isinstance(node, KernelNode):
                assert node.members_high == lane_high(node.members_mask), (
                    f"members_high diverged at node X={node.members!r}"
                )
                assert node.cand_high == lane_high(node.candidates), (
                    f"cand_high diverged at node X={node.members!r} "
                    f"cand={bin(node.candidates)}"
                )

        monkeypatch.setattr(SearchKernel, "restrict", checked_restrict)


def comparable_stats(stats) -> dict:
    """Every :class:`SearchStats` field both loops must agree on.

    ``counter_updates`` is kernel bookkeeping (always 0 on the oracle), so
    it is the one field left out.
    """
    fields = dict(vars(stats))
    del fields["counter_updates"]
    return fields
