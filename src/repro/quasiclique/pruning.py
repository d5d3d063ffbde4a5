"""Working-set pruning for the quasi-clique set-enumeration search.

The rules follow Section 3.2.1/3.2.2 of the paper and the Quick algorithm
(Liu & Wong, PKDD 2008) it builds on.  This module holds the two that run
*before* or *beside* the per-node counter rules of
:mod:`repro.quasiclique.kernel`:

* **Vertex pruning** — iteratively drop vertices whose degree in the working
  graph is below ``ceil(γ (min_size - 1))``; they cannot belong to any
  quasi-clique (their degree inside any candidate set is even smaller).
  :func:`prune_low_degree_masks` runs it over dense local masks,
  :func:`prune_low_degree_sparse` over the sparse engine's chunked sets.
* **Diameter bound** — for γ ≥ 0.5 every pair of vertices of a
  quasi-clique is at distance at most 2 (at most 1 for γ = 1);
  :class:`MaskDistanceIndex` serves the closed distance-bound
  neighbourhoods the kernel intersects candidate sets with.

Every rule removes only vertices that provably cannot contribute a vertex
set satisfying the γ degree condition with size ≥ ``min_size``; soundness
is covered by property-based tests against a brute-force reference miner.
The readable set-based specification of every rule lives with the test
suite's from-scratch search loop (``tests/quasiclique/oracle.py``).
"""

from __future__ import annotations

from typing import Collection, Dict, List, Sequence, Set, Tuple

from repro.graph.vertexset import iter_bits
from repro.quasiclique.definitions import QuasiCliqueParams


def prune_low_degree_masks(
    adjacency: Sequence[int], params: QuasiCliqueParams
) -> Tuple[int, List[int]]:
    """Iteratively remove vertices with degree < ``ceil(γ(min_size-1))``.

    ``adjacency[i]`` is the neighbour mask of dense vertex id ``i``.
    Returns ``(alive_mask, masks)`` where ``alive_mask`` marks the surviving
    dense ids and ``masks`` is the adjacency restricted to the survivors
    (pruned entries are zeroed, not removed, so indexing stays dense).
    No member of any vertex set that satisfies the degree condition is ever
    removed: all its neighbours inside the set survive with it, so its
    working degree never drops below the threshold.
    """
    threshold = params.base_degree_threshold
    working = list(adjacency)
    n = len(working)
    removed = 0
    queue: List[int] = []
    for vertex in range(n):
        if working[vertex].bit_count() < threshold:
            removed |= 1 << vertex
            queue.append(vertex)
    while queue:
        vertex = queue.pop()
        for neighbor in iter_bits(working[vertex]):
            mask = working[neighbor] & ~(1 << vertex)
            working[neighbor] = mask
            if not (removed >> neighbor) & 1 and mask.bit_count() < threshold:
                removed |= 1 << neighbor
                queue.append(neighbor)
        working[vertex] = 0
    alive = ((1 << n) - 1) & ~removed
    return alive, working


class MaskDistanceIndex:
    """Lazy distance-bound neighbourhood index over dense adjacency masks.

    A candidate extension must lie inside the closed distance-bound
    neighbourhood of every vertex already in X; the search kernel
    intersects each node's candidates with :meth:`reachable` of the
    newest member.  Neighbourhoods are cached per search.
    """

    __slots__ = ("_adjacency", "_distance_bound", "_cache")

    def __init__(self, adjacency: Sequence[int], distance_bound: int) -> None:
        self._adjacency = adjacency
        self._distance_bound = distance_bound
        self._cache: Dict[int, int] = {}

    @property
    def enabled(self) -> bool:
        """``True`` when the γ value yields a usable distance bound."""
        return self._distance_bound in (1, 2)

    def reachable(self, vertex: int) -> int:
        """Closed neighbourhood mask of ``vertex`` within the bound."""
        cached = self._cache.get(vertex)
        if cached is not None:
            return cached
        neighbors = self._adjacency[vertex]
        result = neighbors
        if self._distance_bound != 1:
            for neighbor in iter_bits(neighbors):
                result |= self._adjacency[neighbor]
        result |= 1 << vertex
        self._cache[vertex] = result
        return result


def prune_low_degree_sparse(
    adjacency: Dict[int, Collection[int]], threshold: int
) -> List[int]:
    """Sparse twin of :func:`prune_low_degree_masks` over chunked sets.

    ``adjacency`` maps a dense vertex id to its neighbour set *already
    restricted to the working vertices* — any sized, iterable container
    works; the sparse engine passes
    :class:`repro.graph.sparseset.SparseBitset` values.  Iteratively drops
    ids whose restricted degree is below ``threshold`` and returns the
    surviving ids in ascending order.

    The removal fixpoint is unique (the rule is monotone), so running this
    *before* materialising dense local masks and then re-running the dense
    :func:`prune_low_degree_masks` afterwards yields exactly the survivors
    and degrees a dense-only pipeline produces — the property the
    cross-engine differential tests rely on.
    """
    degrees = {vertex: len(neighbors) for vertex, neighbors in adjacency.items()}
    queue: List[int] = [v for v, degree in degrees.items() if degree < threshold]
    removed: Set[int] = set(queue)
    while queue:
        vertex = queue.pop()
        for neighbor in adjacency[vertex]:
            if neighbor in removed:
                continue
            degrees[neighbor] -= 1
            if degrees[neighbor] < threshold:
                removed.add(neighbor)
                queue.append(neighbor)
    return sorted(v for v in degrees if v not in removed)
