"""Metric names and units — the vocabulary of ``BENCHMARK.json``.

``END_TO_END`` are reported by untraced runs (``--trace 0``) of every
workload, ``PER_LAYER`` by traced runs (``--trace 1``).  A per-layer
metric a workload does not exercise reads 0.  The third field of each
per-layer entry names the end-to-end metric and workload it should move.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("max_rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("graph.load_s", "s", "op_ms on mine-sparse"),
    ("graph.index_s", "s", "op_ms on mine-sparse"),
    ("graph.and_calls", "count", "op_ms on mine-sparse (about 0 on mine-topk)"),
    ("graph.and_s", "s", "op_ms on mine-sparse"),
    ("graph.evolve_s", "s", "op_ms on update-delta"),
    ("quasiclique.coverage_calls", "count", "op_ms on mine-sparse and update-delta"),
    ("quasiclique.coverage_s", "s", "op_ms on mine-sparse and update-delta"),
    ("quasiclique.coverage_nodes", "count", "op_ms on mine-sparse and update-delta"),
    ("quasiclique.memo_hits", "count", "op_ms on mine-sparse and update-delta"),
    ("quasiclique.memo_misses", "count", "op_ms on mine-sparse and update-delta"),
    ("quasiclique.memo_hit_ratio", "ratio", "op_ms on mine-sparse and update-delta"),
    ("quasiclique.kernel_searches", "count", "op_ms on update-delta"),
    ("quasiclique.kernel_searches.bigint", "count", "op_ms on update-delta"),
    ("quasiclique.kernel_searches.numpy_uint8", "count", "op_ms on update-delta"),
    ("quasiclique.kernel_searches.numpy_uint16", "count", "op_ms on update-delta"),
    ("quasiclique.kernel_counter_updates", "count", "op_ms on update-delta"),
    ("quasiclique.topk_calls", "count", "op_ms on mine-topk (0 on mine-sparse)"),
    ("quasiclique.topk_s", "s", "op_ms on mine-topk"),
    ("quasiclique.topk_distinct_sets", "count", "op_ms on mine-topk (share a top-k memo saves)"),
    ("quasiclique.pattern_nodes", "count", "op_ms on mine-topk"),
    ("correlation.scpm_s", "s", "op_ms on both mine workloads"),
    ("correlation.structural_s", "s", "op_ms on mine-sparse"),
    ("correlation.null_model_s", "s", "op_ms on both mine workloads"),
    ("correlation.sets_evaluated", "count", "op_ms on both mine workloads"),
    ("correlation.sets_pruned", "count", "op_ms on both mine workloads (Theorem 4/5 guard)"),
    ("parallel.serial_s", "s", "op_ms on mine-sparse"),
    ("parallel.phase_s", "s", "op_ms on mine-sparse"),
    ("parallel.busy_s", "s", "op_ms on mine-sparse"),
    ("parallel.utilisation", "ratio", "op_ms on mine-sparse"),
    ("parallel.tasks", "count", "op_ms on mine-sparse"),
    ("parallel.batches", "count", "op_ms on mine-sparse"),
    ("parallel.retries", "count", "op_ms on mine-sparse"),
    ("parallel.worker_attributed_s", "s", "op_ms on mine-sparse"),
    ("incremental.update_s", "s", "op_ms on update-delta"),
    ("incremental.roots_rerun", "count", "op_ms on update-delta"),
    ("incremental.reuse_ratio", "ratio", "op_ms on update-delta"),
    ("incremental.memo_evicted", "count", "op_ms on update-delta"),
    ("store.save_s", "s", "op_ms on mine-sparse (set-heavy save)"),
    ("store.rows", "count", "op_ms on mine-sparse (set-heavy save)"),
    ("store.db_bytes", "bytes", "op_ms on mine-sparse (set-heavy save)"),
    ("store.apply_delta_s", "s", "op_ms on update-delta"),
    ("store.retries", "count", "op_ms on update-delta, failed share everywhere"),
    ("store.read_us", "us", "op_ms on serve-read (in-process reader share)"),
    ("serve.server_p50_ms", "ms", "op_ms and load.p50_ms on serve-read"),
    ("serve.server_p99_ms", "ms", "load.p99_ms on serve-read"),
    ("serve.cache_hit_ratio", "ratio", "op_ms on serve-read"),
    ("serve.lease_waits", "count", "load.p99_ms and max_rate_per_s on serve-read"),
    ("serve.shed", "count", "load.p99_ms and max_rate_per_s on serve-read"),
    ("load.requests", "count", "validity of load.* on serve-read"),
    ("load.lateness_p99_ms", "ms", "validity of load.* on serve-read"),
    ("load.p50_ms", "ms", "op_ms on serve-read (latency at the pinned rate)"),
    ("load.p95_ms", "ms", "load.p50_ms on serve-read (its tail)"),
    ("load.p99_ms", "ms", "load.p50_ms on serve-read (its tail)"),
    ("trace.op_s", "s", "the traced operation's wall time"),
    ("trace.unattributed_s", "s", "the traced operation's time outside every span"),
    ("trace.worker_unattributed_s", "s", "parallel.busy_s outside worker spans"),
    ("trace.overhead_share", "ratio", "traced ÷ untraced − 1"),
    ("error_rate", "ratio", "failed ÷ attempted of the traced run"),
)

#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = {
    "quasiclique.memo_hits",
    "quasiclique.memo_hit_ratio",
    "correlation.sets_pruned",
    "parallel.utilisation",
    "incremental.reuse_ratio",
    "serve.cache_hit_ratio",
    "load.requests",
}

E2E_UNITS = dict(END_TO_END)
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
