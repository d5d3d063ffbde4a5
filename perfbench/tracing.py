"""Layer tracing from outside the library: wrap public entry points.

Only the traced run installs these wrappers; untraced runs execute the
library untouched.  Each wrapped call is a span attributed to one layer.
A layer's *self time* is the span's duration minus the time covered by
nested wrapped spans, so the self times of one operation add up to at
most its wall time; the remainder is reported as unattributed.

Worker processes of the parallel scheduler inherit the wrappers through
``fork``.  The scheduler's pool entry point is replaced by
:func:`traced_run_batch`, which resets the inherited tracer once per
worker, opens a ``correlation.scpm`` span around every task and dumps the
worker's totals to ``<worker_dir>/<pid>.json`` after every batch; the
parent merges those files after the mine (:func:`collect_worker_totals`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: The tracer of this process while wrappers are installed.  Module level
#: because the pool entry point (pickled by reference into forked
#: workers) must find it without arguments.
_ACTIVE: Optional["Tracer"] = None
_ORIGINAL_RUN_BATCH = None


class Tracer:
    """Per-process span accounting: self seconds, calls and exact counts."""

    def __init__(self, worker_dir: Optional[Path] = None) -> None:
        self.worker_dir = worker_dir
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.topk_sets: set = set()

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span of ``layer``."""
        stack = self.stack
        frame = [0.0]  # time covered by nested spans
        stack.append(frame)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            self.self_s[layer] += elapsed - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += elapsed

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts)}

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


# ----------------------------------------------------------------------
# count hooks: run after a wrapped call, outside its span
# ----------------------------------------------------------------------
def _coverage_hook(tracer: Tracer, args, kwargs, result) -> None:
    _, search = result
    memo = kwargs.get("memo", args[7] if len(args) > 7 else None)
    if search is None:
        tracer.counts["quasiclique.memo_hits"] += 1
        return
    if memo is not None:
        tracer.counts["quasiclique.memo_misses"] += 1
    stats = search.stats
    tracer.counts["quasiclique.coverage_nodes"] += stats.nodes_expanded
    tracer.counts["quasiclique.kernel_counter_updates"] += stats.counter_updates
    label = stats.kernel_backend_label()
    if label:
        tracer.counts["quasiclique.kernel_searches"] += 1
        tracer.counts["quasiclique.kernel_searches." + metric_label(label)] += 1


def _topk_hook(tracer: Tracer, args, kwargs, result) -> None:
    search = args[0]
    tracer.counts["quasiclique.pattern_nodes"] += search.stats.nodes_expanded
    tracer.topk_sets.add(search.working_vertices)


def metric_label(label: str) -> str:
    """``numpy(uint8)`` → ``numpy_uint8`` (metric names allow no parens)."""
    return label.replace("(", "_").replace(")", "")


#: (owner, attribute, layer or None for count-only, count hook)
WRAPPED = (
    ("repro.graph.io", "read_attributed_graph", "graph.load", None),
    ("repro.graph.streaming", "stream_attributed_graph", "graph.load", None),
    ("repro.correlation.scpm", "bitset_vertical_database", "graph.index", None),
    ("repro.correlation.incremental", "bitset_vertical_database", "graph.index", None),
    ("repro.graph.vertexset:VertexBitset", "__and__", "graph.and", None),
    ("repro.graph.sparseset:SparseVertexBitset", "__and__", "graph.and", None),
    ("repro.graph.streaming:StreamedGraphHandle", "apply_edge_batch", "graph.evolve", None),
    ("repro.correlation.scpm", "structural_correlation_bitset", "correlation.structural", None),
    ("repro.correlation.structural", "covered_native", "quasiclique.coverage", _coverage_hook),
    ("repro.correlation.scpm", "top_k_patterns", "quasiclique.topk", None),
    ("repro.quasiclique.search:QuasiCliqueSearch", "top_k", None, _topk_hook),
    ("repro.correlation.null_models:AnalyticalNullModel", "__init__", "correlation.null_model", None),
    ("repro.correlation.null_models:AnalyticalNullModel", "expected_epsilon", "correlation.null_model", None),
    ("repro.correlation.scpm:SCPM", "mine", "correlation.scpm", None),
    ("repro.correlation.incremental:IncrementalSCPM", "mine", "correlation.scpm", None),
    ("repro.correlation.incremental:IncrementalSCPM", "update", "incremental.update", None),
    ("repro.store.writer:PatternStore", "save", "store.save", None),
    ("repro.store.writer:PatternStore", "apply_delta", "store.apply_delta", None),
    ("repro.serve.reader:PatternStoreReader", "get_pattern", "store.read", None),
    ("repro.serve.reader:PatternStoreReader", "patterns_with_vertex", "store.read", None),
    ("repro.serve.reader:PatternStoreReader", "patterns_with_attributes", "store.read", None),
    ("repro.serve.reader:PatternStoreReader", "top_k", "store.read", None),
    ("repro.serve.reader:PatternStoreReader", "runs", "store.read", None),
)


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrap(tracer: Tracer, layer: Optional[str], fn: Callable, hook) -> Callable:
    if layer is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(layer, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point of :data:`WRAPPED`; return the undo function."""
    global _ACTIVE, _ORIGINAL_RUN_BATCH
    from repro.parallel import scheduler

    restore = []
    for spec, name, layer, hook in WRAPPED:
        owner = _owner(spec)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, _wrap(tracer, layer, original, hook))
        restore.append((owner, name, original))
    _ACTIVE = tracer
    _ORIGINAL_RUN_BATCH = scheduler._run_batch
    scheduler._run_batch = traced_run_batch
    restore.append((scheduler, "_run_batch", _ORIGINAL_RUN_BATCH))

    def uninstall() -> None:
        global _ACTIVE
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)
        _ACTIVE = None

    return uninstall


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _traced_task(task_fn, payload, *args):
    return _ACTIVE.call("correlation.scpm", task_fn, payload, *args)


def traced_run_batch(task_fn, batch):
    """Pool entry point of the traced run (runs inside a forked worker)."""
    tracer = _ACTIVE
    if tracer.pid != os.getpid():
        tracer.reset()  # drop the parent's totals and open spans
    output = _ORIGINAL_RUN_BATCH(functools.partial(_traced_task, task_fn), batch)
    if tracer.worker_dir is not None:
        target = tracer.worker_dir / f"{tracer.pid}.json"
        scratch = target.with_suffix(".tmp")
        scratch.write_text(json.dumps(tracer.snapshot()))
        os.replace(scratch, target)
    return output


def collect_worker_totals(worker_dir: Path) -> dict:
    """Sum the per-worker dumps written by :func:`traced_run_batch`."""
    merged = {"self_s": defaultdict(float), "calls": defaultdict(int),
              "counts": defaultdict(int), "workers": 0}
    for path in sorted(worker_dir.glob("*.json")):
        data = json.loads(path.read_text())
        merged["workers"] += 1
        for key in ("self_s", "calls", "counts"):
            for name, value in data[key].items():
                merged[key][name] += value
    return merged
