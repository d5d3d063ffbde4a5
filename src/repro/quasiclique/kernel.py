"""Incremental-counter search kernel for the quasi-clique enumeration.

Every pruning rule of Sections 3.2.1–3.2.3 (and of the Quick algorithm
they build on) is a function of two per-vertex counters:

* ``indeg_x[v]``  — neighbours of ``v`` inside the growing set ``X``;
* ``indeg_ext[v]`` — neighbours of ``v`` inside ``X ∪ candExts(X)`` (the
  node's *scope*).

Recomputing those counters at every search node takes an
``(adjacency[v] & scope).bit_count()`` sweep — one big-int AND plus a
popcount *per vertex* per node, repeated to a fixpoint by the candidate
filter.  This kernel instead *maintains* the counters across the
set-enumeration tree, and it does so bit-parallel: the whole counter
table is one arbitrary-precision integer of 16-bit lanes
(``lane v = bits [16v, 16v+16)``), so a counter update or a threshold
test over *all* vertices at once is a handful of machine-word-level
big-int operations instead of a per-vertex (or per-edge) Python loop.

The vector invariant:

* ``ext_vec`` — lane ``v`` holds ``|N(v) ∩ scope|`` **for every vertex
  of the working graph**, in or out of scope.  A vertex ``u`` exhausted
  by the sibling sweep leaves the scope by one subtraction of the
  precomputed *spread neighbourhood* ``SPREAD[u]`` (the adjacency mask
  of ``u`` expanded to one unit per 16-bit lane).  A restriction (the
  distance rule, each degree-filter round) retires a whole mask and
  takes its smaller side: it subtracts ``SPREAD`` of every dropped
  vertex, or, when more vertices are dropped than the scope keeps,
  rebuilds ``ext_vec`` as the sum of ``SPREAD`` over the kept scope.
  On a large sparse working set the γ ≥ 0.5 distance rule drops nearly
  the whole scope once the first member is added, which is where the
  rebuild pays.  Either way only full neighbourhoods are added or
  subtracted, so each lane always counts a real set intersection and
  can never underflow — there are no stale entries to guard.

``indeg_x`` is not carried as a vector: it is only ever read for the
|X| members of the rare nodes that reach the final degree-condition
check, where |X| masked popcounts are already O(1)-per-vertex — see
:meth:`SearchKernel.members_satisfy`.

The vector is an immutable Python int, so a child node *shares* its
parent's vector at zero cost — the sibling sweep of
:meth:`SearchKernel.children` produces each child with one subtraction,
and no copy-on-write machinery exists at all.

Threshold tests use the classic SWAR borrow trick: with ``H`` the mask
of every lane's top bit and ``r_vec`` the threshold replicated into
every lane, ``(vec | H) - r_vec`` leaves lane ``v``'s top bit set
exactly when ``counter[v] ≥ r`` (no borrow ever crosses a lane: counters
and thresholds stay below 2¹⁵).  Masking the complement with the
*member lanes* or *candidate lanes* high-bit masks (``members_high``,
``cand_high`` — maintained incrementally alongside the vertex masks)
answers "does any member/candidate fall short of the threshold?" in
O(|V|/64) machine words:

* the candidate degree filter → one compare per fixpoint round plus
  the retirement of the candidates it drops (a from-scratch filter
  re-popcounts every candidate every round);
* the hopelessness rule, the lookahead check and the degree condition
  → one compare each.

Counter invariants are asserted by the property suite against a
from-scratch recomputation at every expanded node (through
:meth:`SearchKernel.unpack`).  The kernel changes *how* the counters are
produced, never *which* nodes are pruned: the candidate-filter fixpoint
is unique and every check is a pure function of the counters, so the
search visits the same tree as a from-scratch loop.  The test suite
keeps such a loop (``tests/quasiclique/oracle.py``) and fuzzes the
kernel against it for identical output and statistics.

The 16-bit lanes bound the local id space at :data:`KERNEL_MAX_VERTICES`
vertices per search — far above any working set the searches materialise
dense local masks for; beyond it the kernel constructor raises
:class:`~repro.errors.KernelCapacityError`.

Two backends implement the same node/method surface: this class
(``"bigint"``) and :class:`repro.quasiclique.kernel_numpy.NumpySearchKernel`
(``"numpy"`` — the counter lanes as a numpy array, retirement and threshold
rules as bulk vector ops).  :func:`make_search_kernel` picks one per search
by working-set size alone.  Whatever the backend, the mined output and the
search statistics are byte-identical; the big-int path doubles as the
differential reference the numpy backend is fuzzed against.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import KernelCapacityError
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.pruning import MaskDistanceIndex

#: Width of one counter lane in bits.
LANE_BITS = 16

#: Largest vertex count (and therefore largest counter value) one search
#: kernel supports: counters and thresholds must stay below the 2¹⁵ SWAR
#: compare bit.
KERNEL_MAX_VERTICES = (1 << (LANE_BITS - 1)) - 1

#: Vertex sets at or below this size are checked with per-vertex masked
#: popcounts instead of a full-width SWAR compare: k n-bit ANDs touch
#: fewer machine words than one 16n-bit lane operation while k ≪ 16.
_SMALL_SET = 8

#: Backend labels reported in :class:`~repro.quasiclique.search.SearchStats`
#: and tallied by ``MiningCounters.kernel_backends``.
BIGINT_BACKEND = "bigint"
NUMPY_BACKEND = "numpy"

#: Working sets at or below this size keep ``uint8`` counter lanes on the
#: numpy backend: counters never exceed n-1 ≤ 126, comfortably inside the
#: dtype, and the arrays are half the width of ``uint16``.
NUMPY_UINT8_MAX_VERTICES = 127

#: Below this working-set size :func:`make_search_kernel` keeps the
#: big-int backend: per-call numpy dispatch overhead (~1 µs per array op,
#: and a few dozen ops per node) beats the few-machine-word big-int lane
#: arithmetic until the counter vectors are wide.  Measured on
#: planted-community coverage searches the crossover sits around
#: 1 000–1 200 working vertices (0.5× at n=300, 1.1× at n=1500, 2.6× at
#: n=3000), so the threshold is set just below it.  Tests and benchmarks
#: force a backend by patching this value (forked workers inherit it).
NUMPY_AUTO_MIN_VERTICES = 1024

#: ``_SPREAD_BYTES[b]`` is byte value ``b`` expanded to eight 16-bit
#: lanes (little-endian) — the building block that turns an adjacency
#: mask into its spread-neighbourhood vector with one ``bytes.join``.
_SPREAD_BYTES = []
for _b in range(256):
    _lanes = bytearray(2 * 8)
    for _i in range(8):
        if _b >> _i & 1:
            _lanes[2 * _i] = 1
    _SPREAD_BYTES.append(bytes(_lanes))
del _b, _lanes, _i


def spread_lanes(mask: int) -> int:
    """Expand a bit mask to one unit per 16-bit lane.

    ``spread_lanes(0b101) == 0x0000_0001_0000_0000_0001`` — bit ``v`` of
    ``mask`` becomes the unit of lane ``v``.  Runs as one bytes join plus
    one ``int.from_bytes`` (C speed), not a per-bit Python loop.
    """
    if not mask:
        return 0
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    table = _SPREAD_BYTES
    return int.from_bytes(b"".join(table[b] for b in raw), "little")


def threshold_table(params: QuasiCliqueParams, max_size: int) -> List[int]:
    """Precomputed ``ceil(γ(size-1))`` for every ``size`` in ``0..max_size``.

    The kernel consults a degree threshold at every node; indexing a list
    replaces the per-call ``math.ceil``/``round`` arithmetic of
    :meth:`~repro.quasiclique.definitions.QuasiCliqueParams.degree_threshold`
    (whose values these are, exactly).
    """
    return [params.degree_threshold(size) for size in range(max_size + 1)]


class KernelNode:
    """One search-tree node plus its incremental counter vectors.

    ``members`` is the extension path as a tuple of local ids,
    ``members_mask``/``candidates`` are masks in the same local id space.
    ``ext_vec`` is the lane-packed counter vector and ``members_high`` /
    ``cand_high`` the matching lane-top-bit masks described in the module
    docstring.
    All five are plain ints — node state is immutable values, shared
    freely between relatives.
    """

    __slots__ = (
        "members",
        "members_mask",
        "candidates",
        "ext_vec",
        "members_high",
        "cand_high",
    )

    def __init__(
        self,
        members: Tuple[int, ...],
        members_mask: int,
        candidates: int,
        ext_vec: int,
        members_high: int,
        cand_high: int,
    ) -> None:
        self.members = members
        self.members_mask = members_mask
        self.candidates = candidates
        self.ext_vec = ext_vec
        self.members_high = members_high
        self.cand_high = cand_high


class SearchKernel:
    """Incremental degree bookkeeping over one search's local adjacency.

    One kernel serves one :class:`~repro.quasiclique.search.QuasiCliqueSearch`
    instance: it shares the search's local-id adjacency masks and its
    :class:`~repro.quasiclique.search.SearchStats` (``counter_updates``
    counts the lane units the vector operations add or subtract — a
    vertex's degree per ``SPREAD`` vector, see the stats docstring).

    The rule methods are written once here, :meth:`_remove`'s choice of
    retirement side included; a backend subclass (the numpy kernel)
    overrides only the lane representation — :meth:`_build_lanes`,
    :meth:`root`, :meth:`children`, the two retirement sides
    :meth:`_subtract` and :meth:`_rebuild`, :meth:`unpack` and the three
    threshold compares :meth:`_failing`, :meth:`_members_short` and
    :meth:`_scope_short`.
    """

    __slots__ = (
        "adjacency",
        "params",
        "distance_index",
        "stats",
        "_thresholds",
        "_spread",
        "_ones",
        "_high",
        "_required_vecs",
    )

    #: Backend identity reported in stats/counters — the backend label
    #: plus the lane representation.
    backend_label = BIGINT_BACKEND
    dtype_name = "int"

    def __init__(
        self,
        adjacency: Sequence[int],
        params: QuasiCliqueParams,
        distance_index: Optional[MaskDistanceIndex],
        stats,
    ) -> None:
        n = len(adjacency)
        if n > KERNEL_MAX_VERTICES:
            raise KernelCapacityError(n, KERNEL_MAX_VERTICES, self.backend_label)
        self.adjacency = adjacency
        self.params = params
        self.distance_index = distance_index
        self.stats = stats
        # Largest size ever consulted: max(min_size, |X|+1) with |X| ≤ n —
        # and min_size may exceed a tiny working graph.
        self._thresholds = threshold_table(
            params, max(n + 1, params.min_size)
        )
        self._build_lanes()

    # ------------------------------------------------------------------
    # lane representation — what a backend overrides
    # ------------------------------------------------------------------
    def _build_lanes(self) -> None:
        """Precompute the spread-neighbourhood table and lane masks."""
        adjacency = self.adjacency
        self._spread = [spread_lanes(mask) for mask in adjacency]
        self._ones = spread_lanes((1 << len(adjacency)) - 1)
        self._high = self._ones << (LANE_BITS - 1)
        self._required_vecs: Dict[int, int] = {}

    def _kept_high(self, node: KernelNode, required: int) -> int:
        """Lane top bits set exactly where ``indeg_ext ≥ required``."""
        required_vec = self._required_vecs.get(required)
        if required_vec is None:
            required_vec = required * self._ones
            self._required_vecs[required] = required_vec
        return (node.ext_vec | self._high) - required_vec

    def _failing(self, node: KernelNode, candidates: int, required: int) -> int:
        """Mask of the ``candidates`` whose ``indeg_ext`` is below ``required``.

        ``node.cand_high`` tracks exactly ``candidates``, so this is one
        SWAR compare.
        """
        failing_high = node.cand_high & ~self._kept_high(node, required)
        dropped = 0
        while failing_high:
            low = failing_high & -failing_high
            failing_high ^= low
            dropped |= 1 << ((low.bit_length() - 1) >> 4)
        return dropped

    def _members_short(self, node: KernelNode, required: int) -> bool:
        """Does some member's ``indeg_ext`` fall below ``required``?"""
        return bool(node.members_high & ~self._kept_high(node, required))

    def _scope_short(self, node: KernelNode, required: int) -> bool:
        """Does some member's or candidate's ``indeg_ext`` fall below ``required``?"""
        scope_high = node.members_high | node.cand_high
        return bool(scope_high & ~self._kept_high(node, required))

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def root(self) -> KernelNode:
        """The root node: empty X, every vertex a candidate.

        ``ext_vec`` starts as the plain working-graph degrees packed into
        lanes.
        """
        adjacency = self.adjacency
        n = len(adjacency)
        ext_vec = int.from_bytes(
            b"".join(
                mask.bit_count().to_bytes(2, "little") for mask in adjacency
            ),
            "little",
        )
        self.stats.counter_updates += n
        return KernelNode((), 0, (1 << n) - 1, ext_vec, 0, self._high)

    def children(self, node: KernelNode) -> List[KernelNode]:
        """Expand a node into its set-enumeration children.

        Candidates are taken in ascending local id order (ascending rank —
        the relabelling in the search makes the per-node sort free).  The
        child for extension ``u`` gets ``X ∪ {u}`` and the candidates
        ranked above ``u``; each later sibling's sweep state is one
        big-int operation — ``ext_vec - SPREAD[u]`` as ``u`` retires from
        its scope.  Nothing is copied: vectors are values.
        """
        adjacency = self.adjacency
        spread = self._spread
        members = node.members
        members_mask = node.members_mask
        members_high = node.members_high
        sweep_ext = node.ext_vec
        cand_high = node.cand_high
        updates = 0
        children: List[KernelNode] = []
        rest = node.candidates
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            high_bit = low << (LANE_BITS - 1) << (u * (LANE_BITS - 1))
            # equivalent to 1 << (u*LANE_BITS + LANE_BITS - 1)
            cand_high &= ~high_bit
            children.append(
                KernelNode(
                    members + (u,),
                    members_mask | low,
                    rest,
                    sweep_ext,
                    members_high | high_bit,
                    cand_high,
                )
            )
            if rest:
                # u leaves the scope of every higher-ranked sibling
                updates += adjacency[u].bit_count()
                sweep_ext -= spread[u]
        self.stats.counter_updates += updates
        return children

    # ------------------------------------------------------------------
    # pruning rules (Sections 3.2.1–3.2.3 on the counter vectors)
    # ------------------------------------------------------------------
    def restrict(self, node: KernelNode) -> None:
        """Apply the candidate-level pruning rules to ``node`` in place.

        First the diameter rule, then the degree filter: a candidate ``u``
        must keep ``|N(u) ∩ (X ∪ cand)| ≥ ceil(γ(max(min_size, |X|+1)-1))``,
        applied to its unique fixpoint.  Each fixpoint round is **one**
        SWAR compare exposing every failing candidate at once; only the
        dropped candidates are then retired, by :meth:`_remove`.  Only the
        *newest* member contributes a fresh distance constraint: the
        node's candidates are a subset of the parent's already-restricted
        candidates, so the older members' constraints are already
        satisfied.
        """
        candidates = node.candidates
        if candidates:
            distance_index = self.distance_index
            if distance_index is not None and distance_index.enabled and node.members:
                allowed = candidates & distance_index.reachable(node.members[-1])
                dropped = candidates & ~allowed
                if dropped:
                    self._remove(node, dropped, allowed)
                    candidates = allowed
            if candidates:
                required = self._thresholds[
                    max(self.params.min_size, len(node.members) + 1)
                ]
                adjacency = self.adjacency
                members_mask = node.members_mask
                while True:
                    dropped = 0
                    if candidates.bit_count() <= _SMALL_SET:
                        # few candidates: masked popcounts beat a lane op
                        scope = members_mask | candidates
                        scan = candidates
                        while scan:
                            low = scan & -scan
                            scan ^= low
                            c = low.bit_length() - 1
                            if (adjacency[c] & scope).bit_count() < required:
                                dropped |= low
                    else:
                        dropped = self._failing(node, candidates, required)
                    if not dropped:
                        break
                    candidates &= ~dropped
                    self._remove(node, dropped, candidates)
                    if not candidates:
                        break
            node.candidates = candidates

    def _remove(self, node: KernelNode, dropped: int, kept: int) -> None:
        """Retire the ``dropped`` candidates, leaving ``kept`` as the candidates.

        Either side of the split yields the same exact ``ext_vec``, so the
        cheaper one is taken: subtract the dropped vertices' ``SPREAD``
        vectors, or — when more vertices leave than stay, as under the
        γ ≥ 0.5 distance rule on a large sparse working set — rebuild the
        vector from the kept scope ``X ∪ kept``.
        """
        if dropped.bit_count() > len(node.members) + kept.bit_count():
            self._rebuild(node, kept)
        else:
            self._subtract(node, dropped)

    def _subtract(self, node: KernelNode, dropped: int) -> None:
        """Retire ``dropped`` by one ``SPREAD`` subtraction per vertex.

        Full-neighbourhood subtraction keeps every lane of ``ext_vec``
        exact (see the module docstring — no lane ever goes stale or
        underflows).
        """
        adjacency = self.adjacency
        spread = self._spread
        ext_vec = node.ext_vec
        cand_high = node.cand_high
        updates = 0
        scan = dropped
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            ext_vec -= spread[v]
            cand_high &= ~(1 << ((v << 4) | 15))
            updates += adjacency[v].bit_count()
        node.ext_vec = ext_vec
        node.cand_high = cand_high
        self.stats.counter_updates += updates

    def _rebuild(self, node: KernelNode, kept: int) -> None:
        """Recompute ``ext_vec`` and ``cand_high`` for the scope ``X ∪ kept``.

        ``ext_vec`` becomes the sum of the scope's ``SPREAD`` vectors, and
        the candidate top bits are set in the same pass over ``kept``.
        ``counter_updates`` grows by the lane units added — the scope's
        degrees.
        """
        adjacency = self.adjacency
        spread = self._spread
        ext_vec = 0
        updates = 0
        for v in node.members:
            ext_vec += spread[v]
            updates += adjacency[v].bit_count()
        cand_high = 0
        scan = kept
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            ext_vec += spread[v]
            cand_high |= 1 << ((v << 4) | 15)
            updates += adjacency[v].bit_count()
        node.ext_vec = ext_vec
        node.cand_high = cand_high
        self.stats.counter_updates += updates

    def is_hopeless(self, node: KernelNode) -> bool:
        """Can no satisfying set exist in this node's subtree?

        True when ``X ∪ cand`` is smaller than ``min_size`` or some member
        of ``X`` cannot reach the degree requirement of the smallest
        feasible final size inside ``X ∪ cand``.  One SWAR compare over
        the member lanes — except for very small member sets, where |X|
        masked popcounts touch fewer machine words than a full-width lane
        operation (lanes widen the vector 16×).
        """
        params = self.params
        members = node.members
        member_count = len(members)
        if not member_count:
            return node.candidates.bit_count() < params.min_size
        if member_count + node.candidates.bit_count() < params.min_size:
            return True
        required = self._thresholds[max(params.min_size, member_count)]
        if member_count <= _SMALL_SET:
            adjacency = self.adjacency
            scope = node.members_mask | node.candidates
            for member in members:
                if (adjacency[member] & scope).bit_count() < required:
                    return True
            return False
        return self._members_short(node, required)

    def union_satisfies(self, node: KernelNode) -> bool:
        """Lookahead: does ``X ∪ candExts(X)`` meet the degree condition?

        Counter twin of ``satisfies_degree_condition_mask(adjacency,
        members_mask | candidates, params)`` — one SWAR compare over the
        member and candidate lanes of ``ext_vec`` (or a short masked
        popcount sweep when the scope is tiny).
        """
        candidate_count = node.candidates.bit_count()
        size = len(node.members) + candidate_count
        if size < self.params.min_size:
            return False
        required = self._thresholds[size]
        if size <= _SMALL_SET:
            adjacency = self.adjacency
            scope = node.members_mask | node.candidates
            scan = scope
            while scan:
                low = scan & -scan
                scan ^= low
                if (adjacency[low.bit_length() - 1] & scope).bit_count() < required:
                    return False
            return True
        return not self._scope_short(node, required)

    def members_satisfy(self, node: KernelNode) -> bool:
        """Does ``X`` itself meet the γ degree/size condition?

        Equivalent to ``satisfies_degree_condition_mask(adjacency,
        members_mask, params)``.  ``indeg_x`` is derived here on demand —
        |X| masked popcounts at the few nodes that get this far cost less
        than maintaining a second lane vector at every node.
        """
        members = node.members
        size = len(members)
        if size < self.params.min_size:
            return False
        required = self._thresholds[size]
        adjacency = self.adjacency
        members_mask = node.members_mask
        for member in members:
            if (adjacency[member] & members_mask).bit_count() < required:
                return False
        return True

    def unpack(self, node: KernelNode) -> List[int]:
        """The node's live ``indeg_ext`` lane values, one per vertex.

        The vector invariant covers every vertex, in or out of scope; the
        property suite compares this table with a from-scratch
        recomputation at every expanded node.
        """
        raw = node.ext_vec.to_bytes(len(self.adjacency) * LANE_BITS // 8, "little")
        lanes = array("H", raw)  # 16-bit lanes, read little-endian
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes.tolist()


def make_search_kernel(
    adjacency: Sequence[int],
    params: QuasiCliqueParams,
    distance_index: Optional[MaskDistanceIndex],
    stats,
):
    """Construct the search kernel for one working set.

    The numpy backend once the counter vectors are wide enough that bulk
    ops beat big-int lane arithmetic (≥ :data:`NUMPY_AUTO_MIN_VERTICES`
    vertices), the big-int backend otherwise.  Both raise
    :class:`~repro.errors.KernelCapacityError` beyond
    :data:`KERNEL_MAX_VERTICES` vertices.
    """
    if len(adjacency) >= NUMPY_AUTO_MIN_VERTICES:
        from repro.quasiclique.kernel_numpy import NumpySearchKernel

        return NumpySearchKernel(adjacency, params, distance_index, stats)
    return SearchKernel(adjacency, params, distance_index, stats)


__all__ = [
    "BIGINT_BACKEND",
    "KERNEL_MAX_VERTICES",
    "KernelNode",
    "LANE_BITS",
    "NUMPY_AUTO_MIN_VERTICES",
    "NUMPY_BACKEND",
    "NUMPY_UINT8_MAX_VERTICES",
    "SearchKernel",
    "make_search_kernel",
    "spread_lanes",
    "threshold_table",
]
