"""Chunk-level invalidation — which cached work survives a graph edit.

The evolve layer (:mod:`repro.graph.evolve`) reports an edit batch as a
set of **touched chunks**: the :data:`~repro.graph.sparseset.CHUNK_BITS`-
wide id blocks in which some adjacency or attribute-holder bit changed.
This module answers the question every cache above the graph asks after
an update: *does my working set intersect the touched footprint?*

The soundness argument is the heart of incremental mining.  A coverage
or top-k search (and therefore a
:class:`~repro.quasiclique.memo.CoverageMemo` entry of either kind, an
attribute-set record, or a whole mined branch) is a pure function of the
subgraph induced by its working set ``W``.  An edge edit
``(u, v)`` changes adjacency containers only at the bits of ``u`` and
``v``; if ``W`` avoids the chunks of both endpoints then ``u, v ∉ W``
and every restricted adjacency ``adj(x) ∩ W`` for ``x ∈ W`` is
bit-for-bit unchanged — the induced subgraph is identical, so the cached
answer is still exact.  Conversely any entry whose working set *does*
intersect a touched chunk may be stale and must be recomputed.  The
evolve footprint is conservative (chunk-granular, not bit-granular), so
eviction can only err toward recomputing something that was still valid
— never toward serving a stale answer.

Natives come in two shapes (the engine seam): dense int masks and
chunked :class:`~repro.graph.sparseset.SparseBitset` containers.
:func:`native_touches` handles both, and
:func:`invalidate_memo` applies it to ``key[0]`` of every memo key —
the working set, for coverage and top-k keys alike.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set, Union

from repro.graph.sparseset import CHUNK_BITS, _CHUNK_MASK, SparseBitset
from repro.quasiclique.memo import CoverageMemo

Native = Union[int, SparseBitset]


def chunk_of(vertex_id: int) -> int:
    """Chunk id of one dense vertex id."""
    return vertex_id // CHUNK_BITS


def chunks_of_native(native: Native) -> Set[int]:
    """The set of chunk ids a native vertex set occupies."""
    if isinstance(native, SparseBitset):
        return set(native._chunks)
    chunks = set()
    chunk = 0
    mask = native
    while mask:
        if mask & _CHUNK_MASK:
            chunks.add(chunk)
        mask >>= CHUNK_BITS
        chunk += 1
    return chunks


def native_touches(native: Native, touched: Iterable[int]) -> bool:
    """``True`` when the native set has a member in any touched chunk.

    Works on both engine natives: a :class:`SparseBitset` consults its
    chunk dictionary directly; a dense int mask tests the corresponding
    bit window per touched chunk (touched sets are small — a handful of
    chunks per edit batch — so the per-chunk shift is the cheap side).
    """
    if isinstance(native, SparseBitset):
        chunks = native._chunks
        return any(chunk in chunks for chunk in touched)
    return any(
        (native >> (chunk * CHUNK_BITS)) & _CHUNK_MASK for chunk in touched
    )


def invalidate_memo(
    memo: Optional[CoverageMemo], touched: FrozenSet[int]
) -> int:
    """Evict every memo entry whose working set intersects ``touched``.

    Returns the number of evicted entries (0 when the memo is off or the
    footprint empty).  Entries that survive are provably still exact:
    their working sets avoid every touched chunk, so the subgraphs they
    answer for did not change (see the module docstring).
    """
    if memo is None or not touched:
        return 0
    return memo.evict_where(lambda key: native_touches(key[0], touched))


__all__ = [
    "chunk_of",
    "chunks_of_native",
    "invalidate_memo",
    "native_touches",
]
