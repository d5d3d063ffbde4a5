"""Incremental SCPM — delta re-evaluation over an evolving graph.

A one-shot :class:`~repro.correlation.scpm.SCPM` run answers for a
frozen graph; when edges and attributes keep arriving, re-mining from
scratch costs the full lattice walk no matter how small the change.
:class:`IncrementalSCPM` keeps the structured output of the last run —
per-root records, per-branch subtrees, the engine-native tidsets they
were mined from — and, given an edit batch, recomputes **only the work
whose inputs changed**, while guaranteeing the patched
:class:`~repro.correlation.patterns.MiningResult` is *byte-identical* to
a full re-mine of the evolved graph (the differential harness in
``tests/evolve/`` enforces this across engines × schedules × n_jobs).

The invalidation logic rests on the chunk footprint of
:mod:`repro.graph.evolve` and the soundness argument of
:mod:`repro.quasiclique.delta`:

* **Memo** — coverage and top-k entries whose working set intersects a
  touched chunk are evicted; survivors answer for bit-identical
  subgraphs.
* **Roots** (frequent 1-attribute sets) — a root is *dirty* iff its
  attribute was edited or its tidset intersects a touched chunk.  A
  clean root's record is reused verbatim: its support is unchanged (the
  holder container was not replaced) and its coverage search ran over
  ``V({a})``, whose induced subgraph did not change.  Dirty, new and
  vanished roots are re-evaluated, dropped in, or dropped.
* **Branches** (the per-root subtrees of Algorithm 3) — a branch joins
  its root against the *suffix* of the extendable-root list, so it can
  be reused only where old and new lists agree.  The reuse rule is the
  longest common suffix: a clean extendable root inside it sees exactly
  the sibling tidsets and covered sets it saw before (clean tidsets are
  disjoint from every touched chunk, and a brand-new root's tidset
  cannot join a clean branch above ``min_support`` — their intersection
  lies inside the clean tidset, which the old run already measured below
  threshold for any removed sibling).  Everything before the common
  suffix re-runs through the existing work-stealing scheduler, one
  ``"roots"`` task per dirty position, merged by key exactly like a
  parallel full mine.
* **Null model** — degree distributions change with |V| or |E|, so a
  structural edit rebuilds the model (via ``null_model_factory``) and
  every retained record is *patched* (``dataclasses.replace``) with the
  new ``expected_epsilon``/``delta`` — pure functions of the support.
  A record whose ``qualified`` or Theorem-4/5 extendability would flip
  under the new expectation invalidates its root or branch instead:
  flips change pattern extraction and subtree shape, which reuse cannot
  patch.

``frequent_items`` orders roots by ``(support, type, repr)``, not
insertion order — a support change can therefore reorder the candidate
list and change every join to the *right* of the moved root.  The
common-suffix rule is what makes reuse correct under reordering, not
just under in-place change.

The evolved graph must expose ``apply_edge_batch`` /
``apply_attribute_batch`` — a
:class:`~repro.graph.streaming.StreamedGraphHandle` (or a raw
:class:`~repro.graph.sparseset.SparseGraphBitsetIndex` wrapped in one).
The persistent half lives in :meth:`repro.store.PatternStore.apply_delta`,
which swaps the patched result under a stored run in one transaction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.correlation.null_models import (
    AnalyticalNullModel,
    normalized_structural_correlation,
)
from repro.correlation.parameters import SCPMParams
from repro.correlation.patterns import (
    AttributeSetResult,
    MiningCounters,
    MiningResult,
)
from repro.correlation.scpm import (
    SCPM,
    _BranchPayload,
    _Candidate,
    _accumulate_counters,
    _branch_task,
    _candidate_state,
)
from repro.errors import DeltaError
from repro.graph.evolve import AttributeEdit, DeltaReport, EdgeEdit
from repro.graph.streaming import GraphLike
from repro.graph.vertexset import VertexBitset
from repro.itemsets.transactions import bitset_vertical_database, frequent_items
from repro.parallel.scheduler import WorkStealingScheduler
from repro.quasiclique.delta import invalidate_memo, native_touches

Attribute = Hashable


def _native(view) -> Any:
    """Engine-native set behind an indexer-bound view."""
    return view.bits if isinstance(view, VertexBitset) else view.chunks


def _may_extend_static(
    epsilon: float, support: int, params: SCPMParams, expected_at_min: float
) -> bool:
    """Theorems 4/5 as a pure function — mirrors :meth:`SCPM._may_extend`.

    Taking ``expected_at_min`` as an argument lets the update pass ask
    "would this record's extendability differ under the *old* vs *new*
    null model?" without keeping the old model alive.
    """
    mass = epsilon * support
    if mass < params.min_epsilon * params.min_support:
        return False
    if mass < params.min_delta * expected_at_min * params.min_support:
        return False
    return True


@dataclass
class _RootState:
    """Retained state of one frequent 1-attribute root between updates."""

    attribute: Attribute
    record: AttributeSetResult
    tidset_native: Any
    covered_native: Optional[Any]
    extendable: bool


@dataclass
class UpdateStats:
    """Work accounting of one :meth:`IncrementalSCPM.update` call."""

    touched_chunks: int = 0
    memo_evicted: int = 0
    roots_total: int = 0
    roots_reused: int = 0
    roots_reevaluated: int = 0
    branches_total: int = 0
    branches_reused: int = 0
    branches_rerun: int = 0
    records_patched: int = 0
    elapsed_seconds: float = 0.0


class IncrementalSCPM:
    """SCPM with an :meth:`update` path for evolving graphs.

    Parameters
    ----------
    graph:
        An evolvable graph — must expose ``apply_edge_batch`` /
        ``apply_attribute_batch`` (a
        :class:`~repro.graph.streaming.StreamedGraphHandle`).
    params:
        The usual :class:`~repro.correlation.parameters.SCPMParams`;
        ``n_jobs``/``schedule`` govern both the initial mine and the
        dirty-branch re-runs.
    null_model_factory:
        ``(graph, qc_params) -> null model``; called once at
        construction and again after every structural edit (|V| or |E|
        changed), because both bundled models are functions of the
        degree distribution.  Defaults to
        :class:`~repro.correlation.null_models.AnalyticalNullModel`.
    collect_patterns:
        Forwarded to the underlying miner.

    Examples
    --------
    >>> from repro.graph.streaming import StreamingGraphBuilder
    >>> from repro.graph.evolve import EdgeEdit
    >>> builder = StreamingGraphBuilder()
    >>> for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
    ...     builder.add_edge(u, v)
    >>> for v in range(4):
    ...     builder.add_attributes(v, ["a"])
    >>> handle = builder.finish()
    >>> params = SCPMParams(min_support=2, gamma=0.5, min_size=3)
    >>> miner = IncrementalSCPM(handle, params)
    >>> initial = miner.mine()
    >>> updated = miner.update(edge_edits=[EdgeEdit(1, 3)])
    >>> updated.fingerprint() == SCPM(handle, params).mine().fingerprint()
    True
    """

    def __init__(
        self,
        graph: GraphLike,
        params: SCPMParams,
        null_model_factory=None,
        collect_patterns: bool = True,
    ) -> None:
        if not hasattr(graph, "apply_edge_batch"):
            raise DeltaError(
                "IncrementalSCPM needs an evolvable graph (apply_edge_batch/"
                "apply_attribute_batch) — stream it into a "
                "StreamedGraphHandle first"
            )
        self.graph = graph
        self.params = params
        self._factory = null_model_factory or (
            lambda g, qc: AnalyticalNullModel(g, qc)
        )
        self._miner = SCPM(
            graph,
            params,
            null_model=self._factory(graph, params.quasi_clique_params()),
            collect_patterns=collect_patterns,
        )
        self._algorithm = f"scpm-{params.order}"
        #: Structured state of the last run, in frequent-item order.
        self._roots: List[_RootState] = []
        #: Per-root branch records keyed by the root attribute.
        self._branches: Dict[Attribute, List[AttributeSetResult]] = {}
        #: Extendable-root attributes, in candidate-list order.
        self._extendable: List[Attribute] = []
        self._expected_at_min: Optional[float] = None
        #: The currently valid mining result (assembled, patched in place).
        self.result: Optional[MiningResult] = None
        #: Accounting of the most recent update() call.
        self.last_update_stats: Optional[UpdateStats] = None

    # ------------------------------------------------------------------
    # initial mine
    # ------------------------------------------------------------------
    def mine(self) -> MiningResult:
        """Run the initial full mine, capturing the reusable structure.

        The output is byte-identical to ``SCPM(graph, params).mine()``:
        the base pass calls the very same ``_evaluate`` in the same
        order, and branches run through ``_extend_branch`` (sequential)
        or one scheduler task per root — the keyed merge the parallel
        determinism suite already pins to the sequential order.
        """
        params = self.params
        counters = MiningCounters()
        result = MiningResult(algorithm=self._algorithm, counters=counters)
        started = time.perf_counter()

        vertical = bitset_vertical_database(self.graph, params.engine)
        base = frequent_items(vertical, params.min_support)

        roots: List[_RootState] = []
        candidates: List[_Candidate] = []
        scratch = MiningResult(algorithm=self._algorithm, counters=counters)
        for attribute, tidset in base:
            candidate = self._miner._evaluate(
                items=(attribute,),
                tidset=tidset,
                candidate_vertices=None,
                result=scratch,
            )
            record = scratch.evaluated[-1]
            roots.append(
                _RootState(
                    attribute=attribute,
                    record=record,
                    tidset_native=_native(tidset),
                    covered_native=(
                        _native(candidate.covered) if candidate else None
                    ),
                    extendable=candidate is not None,
                )
            )
            if candidate is not None:
                candidates.append(candidate)

        branch_lists = self._run_branches(
            candidates, list(range(len(candidates))), counters
        )
        result.evaluated.extend(scratch.evaluated)
        for records in branch_lists:
            result.evaluated.extend(records)

        self._roots = roots
        self._extendable = [c.items[0] for c in candidates]
        self._branches = {
            c.items[0]: records
            for c, records in zip(candidates, branch_lists)
        }
        self._expected_at_min = self._miner.null_model.expected_epsilon(
            params.min_support
        )
        counters.elapsed_seconds = time.perf_counter() - started
        self.result = result
        return result

    # ------------------------------------------------------------------
    # delta update
    # ------------------------------------------------------------------
    def update(
        self,
        edge_edits: Sequence[EdgeEdit] = (),
        attribute_edits: Sequence[AttributeEdit] = (),
    ) -> MiningResult:
        """Apply the edits to the graph and patch the mining result.

        Returns the new :class:`MiningResult` (also stored on
        :attr:`result`), byte-identical to a full re-mine of the evolved
        graph.  :attr:`last_update_stats` records how much work the
        delta actually did.
        """
        if self.result is None:
            raise DeltaError("update() before mine() — run the initial mine first")
        params = self.params
        miner = self._miner
        stats = UpdateStats()
        started = time.perf_counter()

        report = DeltaReport()
        if edge_edits:
            report = report.merge(self.graph.apply_edge_batch(edge_edits))
        if attribute_edits:
            report = report.merge(
                self.graph.apply_attribute_batch(attribute_edits)
            )
        touched = report.touched_chunks
        stats.touched_chunks = len(touched)

        # 1. Stale caches out: the miner's own memo is the only live one.
        stats.memo_evicted = invalidate_memo(miner.coverage_memo, touched)

        # 2. Null model: degree structure changed → rebuild and re-derive
        #    the Theorem-5 expectation used for extendability flips.
        null_changed = report.structural_change
        old_expected_at_min = self._expected_at_min
        if null_changed:
            miner.null_model = self._factory(
                self.graph, params.quasi_clique_params()
            )
        new_expected_at_min = miner.null_model.expected_epsilon(
            params.min_support
        )

        counters = MiningCounters()
        result = MiningResult(algorithm=self._algorithm, counters=counters)

        # 3. Base pass: walk the *new* frequent-item order, reusing clean
        #    roots and re-evaluating dirty/new ones through the miner.
        vertical = bitset_vertical_database(self.graph, params.engine)
        base = frequent_items(vertical, params.min_support)
        index = self.graph.bitset_index(params.engine)

        old_roots = {state.attribute: state for state in self._roots}
        edited = report.edited_attributes

        roots: List[_RootState] = []
        candidates: List[_Candidate] = []
        clean_roots: Dict[Attribute, bool] = {}
        scratch = MiningResult(algorithm=self._algorithm, counters=counters)
        for attribute, tidset in base:
            old = old_roots.get(attribute)
            clean = (
                old is not None
                and attribute not in edited
                and not native_touches(old.tidset_native, touched)
            )
            record = old.record if clean else None
            if clean and null_changed:
                expected = miner.null_model.expected_epsilon(record.support)
                delta = normalized_structural_correlation(
                    record.epsilon, expected
                )
                qualified = (
                    record.epsilon >= params.min_epsilon
                    and delta >= params.min_delta
                )
                if qualified != record.qualified:
                    # A qualification flip changes pattern extraction —
                    # patching cannot reproduce it, so re-evaluate.
                    clean = False
                elif (
                    expected != record.expected_epsilon
                    or delta != record.delta
                ):
                    record = replace(
                        record, expected_epsilon=expected, delta=delta
                    )
                    stats.records_patched += 1
            if clean:
                stats.roots_reused += 1
                extendable = miner._may_extend(record.epsilon, record.support)
                covered_native = old.covered_native
                if extendable and covered_native is None:
                    # The root was pruned before but the new expectation
                    # admits it: rebuild its covered native from the record.
                    covered_native = index.working_mask(
                        record.covered_vertices
                    )
                candidate = (
                    _Candidate(
                        items=(attribute,),
                        tidset=tidset,
                        covered=index.bitset(covered_native),
                    )
                    if extendable
                    else None
                )
            else:
                stats.roots_reevaluated += 1
                candidate = miner._evaluate(
                    items=(attribute,),
                    tidset=tidset,
                    candidate_vertices=None,
                    result=scratch,
                )
                record = scratch.evaluated[-1]
                extendable = candidate is not None
                covered_native = (
                    _native(candidate.covered) if candidate else None
                )
            roots.append(
                _RootState(
                    attribute=attribute,
                    record=record,
                    tidset_native=_native(tidset),
                    covered_native=covered_native,
                    extendable=extendable,
                )
            )
            clean_roots[attribute] = clean
            if candidate is not None:
                candidates.append(candidate)
        stats.roots_total = len(roots)

        # 4. Branch reuse: positions inside the longest common suffix of
        #    the old/new extendable lists join exactly the siblings they
        #    joined before; everything else re-runs.
        old_ext = self._extendable
        new_ext = [c.items[0] for c in candidates]
        suffix = 0
        limit = min(len(old_ext), len(new_ext))
        while (
            suffix < limit
            and old_ext[-1 - suffix] == new_ext[-1 - suffix]
        ):
            suffix += 1
        suffix_start = len(new_ext) - suffix

        branch_lists: List[Optional[List[AttributeSetResult]]] = [
            None
        ] * len(candidates)
        rerun: List[int] = []
        for position, candidate in enumerate(candidates):
            attribute = candidate.items[0]
            reusable = (
                position >= suffix_start
                and clean_roots.get(attribute, False)
                and attribute in self._branches
            )
            records = self._branches.get(attribute)
            if reusable and null_changed:
                records, reusable = self._patch_branch(
                    records,
                    old_expected_at_min,
                    new_expected_at_min,
                    stats,
                )
            if reusable:
                stats.branches_reused += 1
                branch_lists[position] = records
            else:
                rerun.append(position)
        stats.branches_total = len(candidates)
        stats.branches_rerun = len(rerun)

        for position, records in zip(
            rerun, self._run_branches(candidates, rerun, counters)
        ):
            branch_lists[position] = records

        # 5. Assembly in full-mine order: base records (new frequent-item
        #    order), then each extendable root's whole subtree.
        result.evaluated.extend(state.record for state in roots)
        for records in branch_lists:
            result.evaluated.extend(records)

        self._roots = roots
        self._extendable = new_ext
        self._branches = {
            attribute: branch_lists[position]
            for position, attribute in enumerate(new_ext)
        }
        self._expected_at_min = new_expected_at_min
        counters.elapsed_seconds = time.perf_counter() - started
        stats.elapsed_seconds = counters.elapsed_seconds
        self.result = result
        self.last_update_stats = stats
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _patch_branch(
        self,
        records: List[AttributeSetResult],
        old_expected_at_min: float,
        new_expected_at_min: float,
        stats: UpdateStats,
    ) -> Tuple[Optional[List[AttributeSetResult]], bool]:
        """Re-derive a clean branch's null-dependent fields, or refuse.

        Every record's ε and support are unchanged (the subtree's inputs
        are), but ``expected_epsilon``/``delta`` follow the new model.
        If any record's ``qualified`` verdict or Theorem-4/5
        extendability flips, the branch *shape* would differ from a full
        re-mine and the caller must re-run it instead.
        """
        params = self.params
        null = self._miner.null_model
        patched: List[AttributeSetResult] = []
        for record in records:
            if _may_extend_static(
                record.epsilon, record.support, params, old_expected_at_min
            ) != _may_extend_static(
                record.epsilon, record.support, params, new_expected_at_min
            ):
                return None, False
            expected = null.expected_epsilon(record.support)
            delta = normalized_structural_correlation(record.epsilon, expected)
            qualified = (
                record.epsilon >= params.min_epsilon
                and delta >= params.min_delta
            )
            if qualified != record.qualified:
                return None, False
            if (
                expected != record.expected_epsilon
                or delta != record.delta
            ):
                record = replace(
                    record, expected_epsilon=expected, delta=delta
                )
                stats.records_patched += 1
            patched.append(record)
        return patched, True

    def _run_branches(
        self,
        candidates: List[_Candidate],
        positions: List[int],
        counters: MiningCounters,
    ) -> List[List[AttributeSetResult]]:
        """Mine the subtree of each requested candidate position.

        Returns the per-position record lists aligned with ``positions``.
        Sequential when ``n_jobs == 1`` (sharing the live coverage memo,
        exactly like ``SCPM._extend``); otherwise one ``"roots"`` task
        per position through the work-stealing scheduler with a
        post-invalidation memo snapshot — the keyed merge reproduces the
        sequential record order for any worker count.
        """
        if not positions:
            return []
        params = self.params
        miner = self._miner
        jobs = params.resolved_jobs() if params.n_jobs != 1 else 1
        jobs = min(jobs, len(positions))
        if jobs <= 1:
            out: List[List[AttributeSetResult]] = []
            for position in positions:
                branch = MiningResult(
                    algorithm=self._algorithm, counters=counters
                )
                miner._extend_branch(candidates, position, branch)
                out.append(branch.evaluated)
            return out
        payload = _BranchPayload(
            graph=self.graph,
            params=params,
            null_model=miner.null_model,
            collect_patterns=miner.collect_patterns,
            candidate_states=[_candidate_state(c) for c in candidates],
            memo_snapshot=(
                miner.coverage_memo.snapshot()
                if miner.coverage_memo is not None
                else None
            ),
        )
        merged: Dict[int, Tuple[List[AttributeSetResult], MiningCounters]] = {}
        with WorkStealingScheduler(
            payload,
            _branch_task,
            jobs,
            transfer=params.transfer,
            batch_size=params.task_batch_size,
        ) as scheduler:
            for position in positions:
                scheduler.submit(
                    (position, 0, 0),
                    "roots",
                    (position,),
                    weight=len(candidates[position].tidset),
                )
            for _, value in scheduler.drain():
                for root, records, task_counters in value:
                    merged[root] = (records, task_counters)
        out = []
        for position in positions:
            records, task_counters = merged[position]
            _accumulate_counters(counters, task_counters)
            out.append(records)
        return out


__all__ = ["IncrementalSCPM", "UpdateStats"]
