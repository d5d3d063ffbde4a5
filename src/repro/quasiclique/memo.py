"""Lattice-wide memoization of quasi-clique search results.

SCPM funnels every attribute set through the same operation: the
coverage-oriented quasi-clique search over the working vertex set
``V(S)`` (restricted by the Theorem-3 parent intersection).  Theorem 3
is also why identical working sets recur across the attribute lattice:
sibling extensions inherit their candidate vertices from the *parents'*
covered sets, so two different attribute sets frequently induce the very
same working set — and the search would silently repeat the identical
enumeration.  The same holds one step later for the top-k pattern
search of every qualifying attribute set (Section 3.2.3), which runs
over the attribute set's covered vertices.  The
:class:`~repro.correlation.null_models.SimulationNullModel` repeats the
coverage pattern per sampled support (clamped supports near |V| draw
literally identical samples every run).

:class:`CoverageMemo` caches both kinds of search in one map, told apart
by the key shape:

* **coverage** — :meth:`CoverageMemo.key` gives
  ``(working-set native, γ, min_size)``; the value is the covered set as
  an indexer-free native of the same kind as the key;
* **top-k** — :meth:`CoverageMemo.topk_key` gives
  ``(working-set native, γ, min_size, k, order)``; the value is the
  ``[(frozenset, γ)]`` list :meth:`QuasiCliqueSearch.top_k
  <repro.quasiclique.search.QuasiCliqueSearch.top_k>` returns.

The working-set native (an int mask on the dense engine, a hashable
:class:`~repro.graph.sparseset.SparseBitset` on the sparse one) is
*exact*: no fingerprint collisions, no false hits.  It always sits at
``key[0]``, which is all chunk-level invalidation
(:func:`repro.quasiclique.delta.invalidate_memo`) reads, so one eviction
pass covers both kinds.  Neither value holds an indexer reference, so an
entry can cross process boundaries inside the parallel transfer payload.
Each result is a pure function of its key — the covered set of a
vertex-restricted search does not depend on traversal order, and the
top-k list (approximate ranks included) depends only on the working
set's induced subgraph, ``k`` and the order — so a hit returns
byte-identical output to running the search; the memo-on/off
differential suite enforces it.

Two layers keep parallel runs deterministic:

* ``shared`` — a read-only snapshot, typically taken with
  :meth:`snapshot` at fan-out time and shipped once per worker inside
  the :class:`~repro.correlation.scpm._BranchPayload`;
* a local layer that accumulates new results.  Workers reset it at
  every task boundary (:meth:`reset_local`), making each task's hits a
  pure function of ``(payload, task args)`` — the scheduler's
  keyed-merge protocol then folds the per-task hit/miss counts back
  deterministically, independent of stealing order.

``hits``/``misses`` count lookups of either kind on this instance;
mining-level totals are accumulated per kind into
:class:`~repro.correlation.patterns.MiningCounters` by the callers
(``coverage_memo_*`` and ``topk_memo_*``).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

MemoKey = Tuple[Hashable, ...]


class CoverageMemo:
    """Two-layer cache of coverage and top-k results keyed by working set.

    Parameters
    ----------
    shared:
        Optional read-only base layer (a mapping produced by
        :meth:`snapshot` of another memo).  Never written to; lets a
        worker process consult the parent's results while keeping its
        own additions local.

    Examples
    --------
    >>> memo = CoverageMemo()
    >>> key = memo.key(0b1011, gamma=0.6, min_size=2)
    >>> memo.get(key) is None
    True
    >>> memo.put(key, 0b0011)
    >>> memo.get(key)
    3
    >>> (memo.hits, memo.misses)
    (1, 1)
    """

    __slots__ = ("_shared", "_local", "hits", "misses")

    def __init__(self, shared: Optional[Dict[MemoKey, Any]] = None) -> None:
        self._shared: Dict[MemoKey, Any] = shared if shared is not None else {}
        self._local: Dict[MemoKey, Any] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(working_native: Hashable, gamma: float, min_size: int) -> MemoKey:
        """Build the cache key for one coverage search.

        ``working_native`` is the engine-native working set — hashable
        and equality-exact for both engines, so the key never aliases
        two different searches.  γ and ``min_size`` pin the quasi-clique
        definition the covered set answers for.
        """
        return (working_native, gamma, min_size)

    @staticmethod
    def topk_key(
        working_native: Hashable, gamma: float, min_size: int, k: int, order: str
    ) -> MemoKey:
        """Build the cache key for one top-k pattern search.

        Same working set and quasi-clique definition as :meth:`key`, plus
        the two inputs the ranked list also depends on: ``k`` and the
        traversal ``order``.  The longer tuple can never equal a coverage
        key, so both kinds share one map.
        """
        return (working_native, gamma, min_size, k, order)

    def get(self, key: MemoKey) -> Any:
        """Return the cached result, or ``None`` (counted)."""
        value = self._local.get(key)
        if value is None:
            value = self._shared.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: MemoKey, value: Any) -> None:
        """Store a computed result in the local layer."""
        self._local[key] = value

    def snapshot(self) -> Dict[MemoKey, Any]:
        """One read-only dict of everything known — shared layer included.

        This is what rides the parallel transfer payload: workers build
        their own :class:`CoverageMemo` around it and keep later results
        local.
        """
        merged = dict(self._shared)
        merged.update(self._local)
        return merged

    def evict_where(self, predicate) -> int:
        """Drop every entry whose key matches ``predicate``; return count.

        The invalidation hook of delta re-evaluation
        (:func:`repro.quasiclique.delta.invalidate_memo`): after a graph
        edit, entries whose working set intersects a touched chunk are
        stale — their results answer for the pre-edit subgraph —
        while all other entries remain exact (their induced subgraphs are
        bit-for-bit unchanged).  Both layers are scanned; the shared
        layer is mutated in place, so only the memo's owner should call
        this (worker memos built around a snapshot share the dict).
        """
        removed = 0
        for layer in (self._shared, self._local):
            doomed = [key for key in layer if predicate(key)]
            for key in doomed:
                del layer[key]
            removed += len(doomed)
        return removed

    def reset_local(self) -> None:
        """Drop the local layer (task-boundary determinism hook).

        Hit/miss counters are *not* reset — callers account for them as
        deltas around each lookup.
        """
        self._local.clear()

    def __len__(self) -> int:
        return len(self._shared) + len(self._local)

    def __repr__(self) -> str:
        return (
            f"CoverageMemo(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


__all__ = ["CoverageMemo", "MemoKey"]
