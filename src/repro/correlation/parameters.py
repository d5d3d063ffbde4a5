"""Parameter bundle for structural correlation pattern mining.

Collects every threshold of Definition 4 plus the extensions introduced in
Sections 2.1.3 (δ_min) and 3.2.3 (top-k), and the search-strategy switches
evaluated in the performance study (BFS vs DFS).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ParameterError
from repro.graph.engine import resolve_engine
from repro.parallel.scheduler import DEFAULT_TASK_BATCH_SIZE, validate_jobs
from repro.parallel.transfer import resolve_transfer
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.search import BFS, DFS

STRIPE = "stripe"
STEAL = "steal"
SCHEDULES = (STRIPE, STEAL)


@dataclass(frozen=True)
class SCPMParams:
    """All thresholds of the structural correlation pattern mining problem.

    Attributes
    ----------
    min_support:
        ``σ_min`` — minimum number of vertices carrying the attribute set.
    gamma:
        ``γ_min`` — quasi-clique density threshold.
    min_size:
        Quasi-clique minimum size.
    min_epsilon:
        ``ε_min`` — minimum structural correlation for an attribute set to be
        reported (and, via Theorem 4, to be extended).
    min_delta:
        ``δ_min`` — minimum normalized structural correlation (Theorem 5).
    top_k:
        Number of patterns reported per qualifying attribute set.
    min_attribute_set_size:
        Report only attribute sets with at least this many attributes (the
        paper's case studies use 2); smaller sets are still evaluated and
        extended.
    max_attribute_set_size:
        Optional cap on the attribute-set size explored.
    order:
        ``"dfs"`` or ``"bfs"`` — traversal strategy of the quasi-clique search
        (the SCPM-DFS / SCPM-BFS variants of the paper).
    n_jobs:
        Number of worker processes for the attribute-branch fan-out of
        SCPM.  ``1`` (default) mines sequentially, ``-1`` uses every
        available CPU.  The merged result is identical to the sequential
        run for any worker count and either schedule (deterministic null
        models; :class:`~repro.correlation.null_models.SimulationNullModel`
        qualifies through its per-support child seeds).
    schedule:
        Parallel scheduling policy: ``"steal"`` (default) runs branch
        tasks through the work-stealing scheduler
        (:mod:`repro.parallel.scheduler`) — one shared queue idle workers
        pull from, so a skewed subtree no longer serializes the run;
        ``"stripe"`` reproduces the PR-1 static striping (one coarse task
        per worker) and exists as the benchmark baseline.
    fanout_depth:
        Task granularity of the ``"steal"`` schedule: ``1`` makes each
        first-level branch one task, ``2`` (default) additionally splits
        every first-level branch into its second-level prefix-class
        subtrees, so even a single dominant branch spreads over all
        workers.
    task_batch_size:
        Maximum number of small branch tasks packed into one pool
        submission (cost estimated by tidset size; see
        :func:`repro.parallel.scheduler.pack_batches`).
    transfer:
        Payload transfer strategy for worker processes:
        ``"fork"``/``"shared_memory"``/``"pickle"``/``"auto"`` (default —
        fork inheritance where available, else one pickle into a
        shared-memory segment; see :mod:`repro.parallel.transfer`).  The
        graph travels once per worker, never per task.
    engine:
        Vertex-set engine backing tidsets, covered sets and the
        quasi-clique search: ``"dense"`` (full-width int masks),
        ``"sparse"`` (chunked containers, memory tracks edges) or
        ``"auto"`` (default — picked per graph by |V| and edge density, see
        :mod:`repro.graph.engine`).  Both engines produce byte-identical
        mining results.
    coverage_memo:
        ``True`` (default) caches coverage-search and top-k pattern
        results across the attribute lattice in a
        :class:`~repro.quasiclique.memo.CoverageMemo` — Theorem-3 sibling
        extensions frequently induce identical working vertex sets, whose
        covered set is a pure function of ``(working set, γ, min_size)``
        and whose ranked top-k list is a pure function of
        ``(working set, γ, min_size, k, order)``.
        Mined output is byte-identical with the memo on or off (enforced
        by the differential suite); only
        :class:`~repro.correlation.patterns.MiningCounters` memo
        instrumentation and wall time change.  With ``n_jobs > 1`` the
        memo built during first-level evaluation ships once per worker as
        a read-only snapshot and worker-side additions stay task-local,
        keeping per-task results pure functions of the task.
    """

    min_support: int
    gamma: float
    min_size: int
    min_epsilon: float = 0.0
    min_delta: float = 0.0
    top_k: int = 5
    min_attribute_set_size: int = 1
    max_attribute_set_size: Optional[int] = None
    order: str = field(default=DFS)
    n_jobs: int = 1
    engine: str = "auto"
    schedule: str = STEAL
    fanout_depth: int = 2
    task_batch_size: int = DEFAULT_TASK_BATCH_SIZE
    transfer: str = "auto"
    coverage_memo: bool = True

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ParameterError(f"min_support must be >= 1, got {self.min_support}")
        if not 0.0 < self.gamma <= 1.0:
            raise ParameterError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.min_size < 2:
            raise ParameterError(f"min_size must be >= 2, got {self.min_size}")
        if self.min_epsilon < 0.0 or self.min_epsilon > 1.0:
            raise ParameterError(
                f"min_epsilon must be in [0, 1], got {self.min_epsilon}"
            )
        if self.min_delta < 0.0:
            raise ParameterError(f"min_delta must be >= 0, got {self.min_delta}")
        if self.top_k < 1:
            raise ParameterError(f"top_k must be >= 1, got {self.top_k}")
        if self.min_attribute_set_size < 1:
            raise ParameterError(
                f"min_attribute_set_size must be >= 1, got {self.min_attribute_set_size}"
            )
        if (
            self.max_attribute_set_size is not None
            and self.max_attribute_set_size < self.min_attribute_set_size
        ):
            raise ParameterError(
                "max_attribute_set_size must be >= min_attribute_set_size"
            )
        if self.order not in (BFS, DFS):
            raise ParameterError(f"order must be 'bfs' or 'dfs', got {self.order!r}")
        validate_jobs(self.n_jobs)
        if self.schedule not in SCHEDULES:
            raise ParameterError(
                f"schedule must be one of {SCHEDULES}, got {self.schedule!r}"
            )
        if self.fanout_depth not in (1, 2):
            raise ParameterError(
                f"fanout_depth must be 1 or 2, got {self.fanout_depth}"
            )
        if self.task_batch_size < 1:
            raise ParameterError(
                f"task_batch_size must be >= 1, got {self.task_batch_size}"
            )
        # Raises EngineError (a ParameterError) on unknown names; the
        # resolved result for this placeholder shape is discarded.
        resolve_engine(self.engine, 0, 0)
        resolve_transfer(self.transfer)

    def resolved_jobs(self) -> int:
        """Return the effective worker count (``-1`` → CPU count)."""
        from repro.parallel.scheduler import resolve_jobs

        return resolve_jobs(self.n_jobs)

    def quasi_clique_params(self) -> QuasiCliqueParams:
        """Return the quasi-clique sub-parameters ``(γ, min_size)``."""
        return QuasiCliqueParams(gamma=self.gamma, min_size=self.min_size)

    def with_changes(self, **changes: object) -> "SCPMParams":
        """Return a copy with some fields replaced (used by parameter sweeps)."""
        return replace(self, **changes)
