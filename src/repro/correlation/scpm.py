"""The SCPM algorithm (Algorithms 2 and 3 of the paper).

SCPM enumerates attribute sets in an Eclat-style depth-first traversal over
tidset intersections and, for each attribute set that survives the support
threshold, evaluates the structural correlation with the coverage-oriented
quasi-clique search.  Three ideas distinguish it from the naive baseline:

* **Vertex pruning (Theorem 3)** — quasi-cliques of ``G(S_i ∪ S_j)`` can only
  contain vertices covered in both parents, so the coverage search for an
  extended attribute set is restricted to ``K_{S_i} ∩ K_{S_j} ∩ V(S)``.
* **Attribute-set pruning (Theorems 4 and 5)** — an attribute set is extended
  only if ``ε(S)·σ(S) ≥ ε_min·σ_min`` and
  ``ε(S)·σ(S) ≥ δ_min·exp(σ_min)·σ_min``; no superset can reach the
  thresholds otherwise.
* **Top-k patterns (Section 3.2.3)** — for qualifying attribute sets only the
  k largest/densest patterns are extracted, with the dynamically raised size
  threshold.

The enumeration state lives on the bitset vertex-set engine
(:mod:`repro.graph.vertexset`): tidsets and covered sets are
:class:`~repro.graph.vertexset.VertexBitset` masks, so the Eclat join and the
Theorem-3 intersection are single integer ``&`` operations.  Results are
converted to plain ``frozenset`` objects at the :class:`MiningResult`
boundary, keeping the public API identical to the frozenset implementation.

With ``SCPMParams.n_jobs > 1`` the independent attribute branches (the
subtrees rooted at each frequent 1-attribute set, Algorithm 3) are fanned
out over worker processes through the
:class:`~repro.parallel.scheduler.WorkStealingScheduler`.  Two schedules
exist behind ``SCPMParams.schedule``:

* ``"steal"`` (default) — every first-level branch (and, at
  ``fanout_depth=2``, every second-level prefix class) becomes one task in
  a shared queue that idle workers pull from, with small tasks batched by
  tidset size; a skewed subtree therefore spreads over all workers instead
  of serializing one of them.
* ``"stripe"`` — the PR-1 static striping (one coarse root-stripe task per
  worker), kept as the benchmark baseline.

The read-only payload (graph, cached bitset index, candidate states)
travels **once per worker** via :mod:`repro.parallel.transfer` — fork
inheritance or one pickle into a shared-memory segment — never per task.
Candidates cross the process boundary as indexer-free native masks and are
rebound to the worker's own index on arrival, so every bitset inside one
worker shares a single indexer (the invariant the engines enforce with
:class:`~repro.errors.IndexerMismatchError`).  Results are keyed by
``(root, phase, position)`` and merged in sorted key order, so the output —
record order included — is byte-identical to the sequential run for any
worker count and either schedule.  Both bundled null models qualify: the
analytical model is closed-form, and
:class:`~repro.correlation.null_models.SimulationNullModel` derives an
independent child seed per support value, making its estimates pure
functions of the support regardless of evaluation order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ParallelError
from repro.graph.streaming import GraphLike
from repro.graph.vertexset import VertexBitset
from repro.itemsets.itemset import canonical_itemset
from repro.itemsets.transactions import bitset_vertical_database, frequent_items
from repro.correlation.null_models import (
    AnalyticalNullModel,
    normalized_structural_correlation,
)
from repro.correlation.parameters import SCPMParams, STRIPE
from repro.parallel.scheduler import WorkStealingScheduler
from repro.correlation.patterns import (
    AttributeSetResult,
    MiningCounters,
    MiningResult,
    StructuralCorrelationPattern,
)
from repro.correlation.structural import (
    structural_correlation_bitset,
    top_k_patterns,
)
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.memo import CoverageMemo

Attribute = Hashable
Vertex = Hashable


@dataclass
class _Candidate:
    """Internal per-attribute-set state carried through the enumeration.

    ``tidset`` (``V(S)``) and ``covered`` (``K_S``) are bitsets over the
    graph's dense vertex ids.
    """

    items: Tuple[Attribute, ...]
    tidset: VertexBitset
    covered: VertexBitset


class SCPM:
    """Structural Correlation Pattern Mining.

    Parameters
    ----------
    graph:
        The attributed graph to mine — an
        :class:`~repro.graph.attributed_graph.AttributedGraph` or a
        file-backed :class:`~repro.graph.streaming.StreamedGraphHandle`
        (see :meth:`from_files`); both expose the query/index surface the
        miner consumes and yield byte-identical results.
    params:
        The :class:`SCPMParams` bundle (σ_min, γ, min_size, ε_min, δ_min, k,
        search order, attribute-set size limits, ``n_jobs``).
    null_model:
        Object with an ``expected_epsilon(support)`` method.  Defaults to the
        analytical :class:`AnalyticalNullModel` (δ_lb); pass a
        :class:`~repro.correlation.null_models.SimulationNullModel` for δ_sim.
        With ``n_jobs > 1`` the null model must be picklable, and results are
        reproducible across worker counts only when ``expected_epsilon`` is a
        pure function of the support (true for the analytical model).
    collect_patterns:
        When ``False`` the top-k pattern extraction is skipped and only the
        attribute-set statistics (σ, ε, δ) are produced.  Useful for the
        parameter-sensitivity study.
    measure_task_bytes:
        When ``True`` the parallel scheduler additionally records the
        pickled size of every task batch it submits
        (``last_scheduler_stats.max_batch_bytes``).  Benchmark
        instrumentation — costs one extra serialization per batch, so it
        is off by default.

    Examples
    --------
    >>> from repro.datasets import paper_example_graph
    >>> graph = paper_example_graph()
    >>> params = SCPMParams(min_support=3, gamma=0.6, min_size=4,
    ...                     min_epsilon=0.5, top_k=10)
    >>> result = SCPM(graph, params).mine()
    >>> sorted(r.label() for r in result.qualified)
    ['A', 'A B', 'B']
    """

    def __init__(
        self,
        graph: GraphLike,
        params: SCPMParams,
        null_model: Optional[object] = None,
        collect_patterns: bool = True,
        measure_task_bytes: bool = False,
    ) -> None:
        self.graph = graph
        self.params = params
        self.qc_params: QuasiCliqueParams = params.quasi_clique_params()
        self.null_model = (
            null_model
            if null_model is not None
            else AnalyticalNullModel(graph, self.qc_params)
        )
        self.collect_patterns = collect_patterns
        self.measure_task_bytes = measure_task_bytes
        #: Lattice-wide memo of coverage and top-k search results (None
        #: when ``params.coverage_memo`` is off).  Sequential runs share
        #: it across the whole mining run; parallel runs snapshot it at
        #: fan-out time into the worker payload (see
        #: :class:`_BranchPayload`).
        self.coverage_memo: Optional[CoverageMemo] = (
            CoverageMemo() if params.coverage_memo else None
        )
        #: Introspection of the last parallel run (None after sequential
        #: runs): the scheduler's SchedulerStats, the per-task wall
        #: durations keyed by (root, phase, position), and the wall time of
        #: the parallel extension phase.  The parallel benchmark reads
        #: these to prove transfer-once behaviour and to replay the
        #: schedule through its makespan simulator.
        self.last_scheduler_stats = None
        self.last_task_durations: Optional[Dict[Tuple, float]] = None
        self.last_parallel_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @classmethod
    def from_files(
        cls,
        edge_path,
        attribute_path,
        params: SCPMParams,
        streaming: bool = True,
        null_model: Optional[object] = None,
        collect_patterns: bool = True,
        measure_task_bytes: bool = False,
    ) -> "SCPM":
        """Build a miner directly from an edge file plus an attribute file.

        With ``streaming=True`` (default) the files are ingested through
        :func:`repro.graph.streaming.stream_attributed_graph` — the sparse
        bitset index is built in bounded memory and no in-memory
        ``AttributedGraph`` ever exists; ``streaming=False`` uses the
        classic :func:`repro.graph.io.read_attributed_graph` loader.  The
        mined output is byte-identical either way (differential grid in
        ``tests/graph/test_streaming.py``).
        """
        if streaming:
            from repro.graph.streaming import stream_attributed_graph

            graph: GraphLike = stream_attributed_graph(edge_path, attribute_path)
        else:
            from repro.graph.io import read_attributed_graph

            graph = read_attributed_graph(edge_path, attribute_path)
        return cls(
            graph,
            params,
            null_model=null_model,
            collect_patterns=collect_patterns,
            measure_task_bytes=measure_task_bytes,
        )

    def mine(self) -> MiningResult:
        """Run the mining and return a :class:`MiningResult`."""
        params = self.params
        counters = MiningCounters()
        result = MiningResult(algorithm=f"scpm-{params.order}", counters=counters)
        started = time.perf_counter()

        # Algorithm 2, line 3: frequent size-1 attribute sets.
        vertical = bitset_vertical_database(self.graph, params.engine)
        base = frequent_items(vertical, params.min_support)

        extendable: List[_Candidate] = []
        for attribute, tidset in base:
            candidate = self._evaluate(
                items=(attribute,),
                tidset=tidset,
                candidate_vertices=None,
                result=result,
            )
            if candidate is not None:
                extendable.append(candidate)

        # Algorithm 3: recursive extension of the surviving attribute sets.
        if params.n_jobs != 1 and len(extendable) > 1:
            self._extend_parallel(extendable, result)
        else:
            self._extend(extendable, result)

        counters.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _extend(self, candidates: List[_Candidate], result: MiningResult) -> None:
        """Recursive prefix-class extension (Algorithm 3)."""
        for index in range(len(candidates)):
            self._extend_branch(candidates, index, result)

    def _extend_branch(
        self, candidates: Sequence[_Candidate], index: int, result: MiningResult
    ) -> None:
        """Explore the subtree rooted at ``candidates[index]``.

        Branches are independent given the (already evaluated) prefix class,
        which is what the ``n_jobs`` fan-out exploits.
        """
        extensions = self._evaluate_level(candidates, index, result)
        if extensions:
            self._extend(extensions, result)

    def _evaluate_level(
        self, candidates: Sequence[_Candidate], index: int, result: MiningResult
    ) -> List[_Candidate]:
        """Evaluate every one-attribute extension of ``candidates[index]``.

        Returns the surviving extensions (the next prefix class) without
        recursing into them — the seam the ``fanout_depth=2`` schedule cuts
        at: each returned extension's subtree is an independent task.
        """
        params = self.params
        max_size = params.max_attribute_set_size
        first = candidates[index]
        if max_size is not None and len(first.items) >= max_size:
            return []
        extensions: List[_Candidate] = []
        for second in candidates[index + 1 :]:
            tidset = first.tidset & second.tidset
            if len(tidset) < params.min_support:
                continue
            items = first.items + (second.items[-1],)
            # Theorem 3: quasi-cliques of the union live inside both
            # parents' covered sets.
            candidate_vertices = first.covered & second.covered & tidset
            candidate = self._evaluate(
                items=items,
                tidset=tidset,
                candidate_vertices=candidate_vertices,
                result=result,
            )
            if candidate is not None:
                extensions.append(candidate)
        return extensions

    def _extend_parallel(
        self, candidates: List[_Candidate], result: MiningResult
    ) -> None:
        """Fan the attribute branches out over the work-stealing scheduler.

        The graph (with its cached index) and the candidate states form the
        per-worker payload, transferred once per worker; tasks carry only
        root indices (plus extension states for second-level subtrees).
        Results come back keyed ``(root, phase, position)`` and are merged
        in sorted key order, reproducing the sequential output exactly for
        either schedule.
        """
        params = self.params
        jobs = params.resolved_jobs()
        if params.schedule == STRIPE or params.fanout_depth == 1:
            # one task per root at most — extra workers could never be fed
            jobs = min(jobs, len(candidates))
        if jobs <= 1:
            self._extend(candidates, result)
            return
        payload = _BranchPayload(
            graph=self.graph,
            params=params,
            null_model=self.null_model,
            collect_patterns=self.collect_patterns,
            candidate_states=[_candidate_state(c) for c in candidates],
            # Everything the first-level evaluations learned travels once
            # per worker as a read-only snapshot; workers keep their own
            # additions task-local (see _branch_task).
            memo_snapshot=(
                self.coverage_memo.snapshot()
                if self.coverage_memo is not None
                else None
            ),
        )
        weights = [len(candidate.tidset) for candidate in candidates]
        merged: Dict[Tuple[int, int, int], Tuple[List[AttributeSetResult], MiningCounters]] = {}
        phase_started = time.perf_counter()
        with WorkStealingScheduler(
            payload,
            _branch_task,
            jobs,
            transfer=params.transfer,
            batch_size=params.task_batch_size,
            measure_task_bytes=self.measure_task_bytes,
        ) as scheduler:
            if params.schedule == STRIPE:
                stripes = [
                    tuple(range(worker, len(candidates), jobs))
                    for worker in range(jobs)
                ]
                for worker, stripe in enumerate(stripes):
                    if stripe:
                        scheduler.submit(
                            ("stripe", worker),
                            "roots",
                            stripe,
                            weight=sum(weights[root] for root in stripe),
                        )
                for value in scheduler.run().values():
                    for root, records, counters in value:
                        merged[(root, 0, 0)] = (records, counters)
            elif params.fanout_depth == 1:
                for root in range(len(candidates)):
                    scheduler.submit(
                        (root, 0, 0), "roots", (root,), weight=weights[root]
                    )
                for _, value in scheduler.drain():
                    for root, records, counters in value:
                        merged[(root, 0, 0)] = (records, counters)
            else:
                for root in range(len(candidates)):
                    scheduler.submit(
                        (root, 0, 0), "level", root, weight=weights[root]
                    )
                for key, value in scheduler.drain():
                    root, phase, position = key
                    if phase == 0:
                        records, extension_states, counters = value
                        merged[key] = (records, counters)
                        for sub in range(len(extension_states)):
                            # Ship only the suffix the subtree joins
                            # against: branch `sub` never reads its
                            # preceding siblings, and the full tuple per
                            # task would be O(k²) state transfer.
                            scheduler.submit(
                                (root, 1, sub),
                                "subtree",
                                tuple(extension_states[sub:]),
                                weight=extension_states[sub].tidset.bit_count(),
                            )
                    else:
                        records, counters = value
                        merged[key] = (records, counters)
            self.last_scheduler_stats = scheduler.stats
            self.last_task_durations = dict(scheduler.task_durations)
        self.last_parallel_seconds = time.perf_counter() - phase_started
        for key in sorted(merged):
            records, counters = merged[key]
            result.evaluated.extend(records)
            _accumulate_counters(result.counters, counters)

    def _evaluate(
        self,
        items: Tuple[Attribute, ...],
        tidset: VertexBitset,
        candidate_vertices: Optional[VertexBitset],
        result: MiningResult,
    ) -> Optional[_Candidate]:
        """Measure one attribute set; return it if it may still be extended."""
        params = self.params
        counters = result.counters
        counters.attribute_sets_evaluated += 1

        support = len(tidset)
        epsilon, covered = structural_correlation_bitset(
            self.graph,
            items,
            self.qc_params,
            order=params.order,
            candidate_vertices=candidate_vertices,
            engine=params.engine,
            memo=self.coverage_memo,
            counters=counters,
        )
        expected = self.null_model.expected_epsilon(support)
        delta = normalized_structural_correlation(epsilon, expected)

        qualified = epsilon >= params.min_epsilon and delta >= params.min_delta
        patterns: Tuple[StructuralCorrelationPattern, ...] = ()
        if (
            qualified
            and self.collect_patterns
            and len(items) >= params.min_attribute_set_size
        ):
            patterns = tuple(
                top_k_patterns(
                    self.graph,
                    items,
                    self.qc_params,
                    params.top_k,
                    order=params.order,
                    candidate_vertices=covered,
                    engine=params.engine,
                    memo=self.coverage_memo,
                    counters=counters,
                )
            )

        record = AttributeSetResult(
            attributes=canonical_itemset(items),
            support=support,
            epsilon=epsilon,
            expected_epsilon=expected,
            delta=delta,
            covered_vertices=covered.to_frozenset(),
            patterns=patterns,
            qualified=qualified,
        )
        result.evaluated.append(record)
        if qualified:
            counters.attribute_sets_qualified += 1

        if self._may_extend(epsilon, support):
            counters.attribute_sets_extended += 1
            return _Candidate(items=items, tidset=tidset, covered=covered)
        counters.attribute_sets_pruned += 1
        return None

    def _may_extend(self, epsilon: float, support: int) -> bool:
        """Theorems 4 and 5: can any superset still reach the thresholds?"""
        params = self.params
        mass = epsilon * support
        if mass < params.min_epsilon * params.min_support:
            return False
        expected_at_min = self.null_model.expected_epsilon(params.min_support)
        if mass < params.min_delta * expected_at_min * params.min_support:
            return False
        return True


def _accumulate_counters(target: MiningCounters, source: MiningCounters) -> None:
    """Add every work counter of ``source`` into ``target`` (not the wall time)."""
    for field in fields(MiningCounters):
        if field.name == "elapsed_seconds":
            continue
        if field.name == "kernel_backends":
            for label, count in source.kernel_backends.items():
                target.kernel_backends[label] = (
                    target.kernel_backends.get(label, 0) + count
                )
            continue
        setattr(target, field.name, getattr(target, field.name) + getattr(source, field.name))


@dataclass(frozen=True)
class _CandidateState:
    """Indexer-free transfer form of a :class:`_Candidate`.

    ``tidset`` and ``covered`` are the engine's *native* sets (an int mask
    on the dense engine, a :class:`~repro.graph.sparseset.SparseBitset` on
    the sparse one) — no indexer reference, so a state can cross process
    boundaries and be rebound to the receiving worker's own index.
    """

    items: Tuple[Attribute, ...]
    tidset: Any
    covered: Any


def _candidate_state(candidate: _Candidate) -> _CandidateState:
    """Strip a candidate down to natives for transfer."""
    tidset, covered = candidate.tidset, candidate.covered
    return _CandidateState(
        items=candidate.items,
        tidset=tidset.bits if isinstance(tidset, VertexBitset) else tidset.chunks,
        covered=covered.bits if isinstance(covered, VertexBitset) else covered.chunks,
    )


def _bind_candidate(state: _CandidateState, index) -> _Candidate:
    """Rebind a transferred state to the local graph index."""
    return _Candidate(
        items=state.items,
        tidset=index.bitset(state.tidset),
        covered=index.bitset(state.covered),
    )


class _BranchPayload:
    """Read-only per-worker payload of the parallel mining run.

    Travels once per worker through :mod:`repro.parallel.transfer`.  The
    lazily built context (miner + candidates bound to this process's
    index) is cached on the instance and excluded from pickling, so every
    task a worker executes reuses one miner and one indexer.
    """

    def __init__(
        self,
        graph: GraphLike,
        params: SCPMParams,
        null_model: object,
        collect_patterns: bool,
        candidate_states: List[_CandidateState],
        memo_snapshot: Optional[dict] = None,
    ) -> None:
        self.graph = graph
        self.params = params
        self.null_model = null_model
        self.collect_patterns = collect_patterns
        self.candidate_states = candidate_states
        self.memo_snapshot = memo_snapshot
        self._context: Optional[Tuple[SCPM, List[_Candidate], Any]] = None

    def context(self) -> Tuple[SCPM, List[_Candidate], Any]:
        """Build (once per process) the miner and locally bound candidates."""
        if self._context is None:
            miner = SCPM(
                self.graph,
                self.params,
                null_model=self.null_model,
                collect_patterns=self.collect_patterns,
            )
            if self.memo_snapshot is not None:
                # The shared layer is the fan-out snapshot; the local
                # layer is reset at every task boundary so each task's
                # results (hit counts included) are a pure function of
                # (payload, task args) — the scheduler's determinism
                # contract.
                miner.coverage_memo = CoverageMemo(shared=self.memo_snapshot)
            index = self.graph.bitset_index(self.params.engine)
            candidates = [
                _bind_candidate(state, index) for state in self.candidate_states
            ]
            self._context = (miner, candidates, index)
        return self._context

    def __getstate__(self):
        return (
            self.graph,
            self.params,
            self.null_model,
            self.collect_patterns,
            self.candidate_states,
            self.memo_snapshot,
        )

    def __setstate__(self, state) -> None:
        (
            self.graph,
            self.params,
            self.null_model,
            self.collect_patterns,
            self.candidate_states,
            self.memo_snapshot,
        ) = state
        self._context = None


def _branch_task(payload: _BranchPayload, kind: str, *args):
    """Scheduler task entry point — dispatches on the task kind.

    ``"roots"`` mines whole first-level subtrees (stripe mode and
    ``fanout_depth=1``), ``"level"`` evaluates one root's first-level
    joins and returns the surviving extensions as transfer states, and
    ``"subtree"`` mines one second-level prefix class.  Every kind is a
    pure function of ``(payload, args)``, which is what makes the merged
    output independent of scheduling order.
    """
    miner, candidates, index = payload.context()
    algorithm = f"scpm-{payload.params.order}"
    memo = miner.coverage_memo
    if kind == "roots":
        (roots,) = args
        output: List[Tuple[int, List[AttributeSetResult], MiningCounters]] = []
        for root in roots:
            if memo is not None:
                # per-root scoping: a root's counters must not depend on
                # which other roots happened to share this worker/batch
                memo.reset_local()
            branch = MiningResult(algorithm=algorithm, counters=MiningCounters())
            miner._extend_branch(candidates, root, branch)
            output.append((root, branch.evaluated, branch.counters))
        return output
    if kind == "level":
        (root,) = args
        if memo is not None:
            memo.reset_local()
        branch = MiningResult(algorithm=algorithm, counters=MiningCounters())
        extensions = miner._evaluate_level(candidates, root, branch)
        return (
            branch.evaluated,
            [_candidate_state(extension) for extension in extensions],
            branch.counters,
        )
    if kind == "subtree":
        (extension_states,) = args
        if memo is not None:
            memo.reset_local()
        # The states are the suffix of the prefix class starting at this
        # subtree's own branch, so the branch to explore is position 0.
        extensions = [_bind_candidate(state, index) for state in extension_states]
        branch = MiningResult(algorithm=algorithm, counters=MiningCounters())
        miner._extend_branch(extensions, 0, branch)
        return (branch.evaluated, branch.counters)
    raise ParallelError(f"unknown branch task kind {kind!r}")


def mine_scpm(
    graph: GraphLike,
    params: SCPMParams,
    null_model: Optional[object] = None,
    collect_patterns: bool = True,
) -> MiningResult:
    """Convenience wrapper around :class:`SCPM`."""
    return SCPM(
        graph, params, null_model=null_model, collect_patterns=collect_patterns
    ).mine()


def mine_scpm_files(
    edge_path,
    attribute_path,
    params: SCPMParams,
    streaming: bool = True,
    null_model: Optional[object] = None,
    collect_patterns: bool = True,
) -> MiningResult:
    """Mine straight from an edge file plus an attribute file.

    The file→stream→scheduler→results path of the CLI as a library call:
    with ``streaming=True`` the graph never exists as hashed Python sets —
    the sparse index is built in bounded memory and, when
    ``params.n_jobs > 1``, ships once per worker through the parallel
    transfer layer exactly like an in-memory graph.
    """
    return SCPM.from_files(
        edge_path,
        attribute_path,
        params,
        streaming=streaming,
        null_model=null_model,
        collect_patterns=collect_patterns,
    ).mine()
