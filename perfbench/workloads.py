"""The measuring process: timed phases and checks of the four workloads.

``run.py`` generates the input files, then starts this code in a fresh
interpreter (``run.py --child``) so that the peak resident memory it
reports excludes input generation.  Everything here drives the library
through its public entry points, called through their modules so that
the traced run's wrappers (:mod:`perfbench.tracing`) see them.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from perfbench import checks, inputs, loadgen, reference
from perfbench.metrics import END_TO_END, PER_LAYER

#: Set-up repetitions of the mine-and-save preparation (median reported).
PREP_REPS = 3
#: Lowest number of timed operations of a mining or update run.
#: An ``update-delta`` operation is one edit batch applied and undone.
MIN_OPS = {"mine-topk": 3, "mine-sparse": 3, "update-delta": 3}
#: Workloads whose timed work runs in several processes at once.  Their
#: reference runs visit every vCPU (the host slows each on its own), and
#: the mean operation is scaled by the mean of the phase's reference runs:
#: one run next to an operation says little about the vCPUs the other
#: processes used.  Single-process operations are scaled one by one, by
#: the runs on either side, and the run reports their median.
MULTI_PROCESS = {"mine-sparse", "serve-read"}
#: ``serve-read`` pinned phase: an open loop at a third of the saturation
#: of this mix (≈ 900 req/s on 2 connections on a 2-vCPU VM), so the
#: server stays under two thirds busy even when the host is 1.6–1.9×
#: slower.  ``PINNED_REQUESTS`` puts ten samples beyond the p99.  Its
#: latencies are per-layer metrics: on that VM their run-to-run spread
#: (0.15–0.18) follows how fast an idle vCPU wakes, which no reference
#: loop measures.
PINNED_RATE = 300.0
PINNED_REQUESTS = 1000
#: The mix has exact shares in every window of this many.
PINNED_WINDOWS = 4
WARMUP_REQUESTS = 300
#: Saturation phase: windows of the whole mix sent back to back, repeated
#: for ``--seconds`` and at least ``MIN_SATURATION_WINDOWS`` times.
MIN_SATURATION_WINDOWS = 3
#: Share of the requests whose bodies are compared with the direct reader.
BODY_SAMPLE_SHARE = 0.05


class Outcome:
    """Attempted/failed accounting of one run plus failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, failures: List[str]) -> None:
        if failures:
            self.failed += 1
            self.messages.extend(failures[:5])


def import_library():
    """Import the library modules the phases call through."""
    from repro.correlation import incremental, scpm
    from repro.graph import io as graph_io, streaming
    from repro.store import writer

    return scpm, incremental, graph_io, streaming, writer


def _peak_rss_mb(usage=None) -> float:
    """Peak RSS of this process (or of the child ``usage`` describes)."""
    if usage is None:
        try:
            with open("/proc/self/status") as status:
                match = re.search(r"^VmHWM:\s+(\d+) kB", status.read(), re.MULTILINE)
            if match:
                return int(match.group(1)) / 1024.0
        except OSError:
            pass
        usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _reset_peak_rss() -> bool:
    """Lower this process's RSS high-water mark to its current RSS.

    Returns False where the kernel does not allow it; the peak then
    includes everything the process did before.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _fresh_store(directory: Path, name: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.sqlite"
    for suffix in ("", "-wal", "-shm"):
        Path(str(path) + suffix).unlink(missing_ok=True)
    return path


def _db_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(str(path) + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(str(path) + suffix)
    )


def _environment(config, params, graph=None, result=None) -> dict:
    import numpy

    from repro.graph.chunkops import get_chunk_backend
    from repro.graph.engine import resolve_engine

    cores = len(os.sched_getaffinity(0))
    env = {
        "usable_cores": cores,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "n_jobs": params.n_jobs,
        "parallel_valid": cores >= params.n_jobs,
        "chunk_backend": get_chunk_backend().__name__,
        "engine": params.engine,
        "digest_pinned": checks.pinned_digest(
            config["workload"], config["size"], config["input_seed"]) is not None,
    }
    if graph is not None:
        env["engine"] = resolve_engine(params.engine, graph.num_vertices, graph.num_edges)
    if result is not None:
        env["kernel_backends"] = dict(result.counters.kernel_backends)
    return env


def _probe(workload: str) -> Callable[[], float]:
    return reference.run_each_cpu if workload in MULTI_PROCESS else reference.run


def _timed_loop(workload: str, seconds: float, deadline: float,
                op: Callable[[int], float]) -> Tuple[List[float], List[float]]:
    """Run ``op(i)`` (returning its timed seconds) until ``seconds`` of timed work.

    A reference run precedes every operation and follows the last one;
    returns the operation times and the ``len + 1`` reference times.
    """
    probe = _probe(workload)
    durations: List[float] = []
    refs = [probe()]
    while (sum(durations) < seconds or len(durations) < MIN_OPS[workload]) and time.monotonic() < deadline:
        durations.append(op(len(durations)))
        refs.append(probe())
    return durations, refs


def _latency_metrics(workload: str, durations: List[float], refs: List[float]) -> Dict[str, float]:
    """Time and rate of the run's median (or, multi-process, mean)
    operation, in reference time.

    Every operation of a run repeats the same work.  Scaled by the
    reference runs (:mod:`perfbench.reference`, :data:`MULTI_PROCESS`), a
    host that slows for the whole run does not move the figure.
    """
    if workload in MULTI_PROCESS:
        typical = reference.scaled(statistics.mean(durations), refs)
    else:
        typical = statistics.median(reference.scaled_each(durations, refs))
    return {"op_ms": typical * 1000.0, "max_rate_per_s": 1.0 / typical}


def _op_samples(durations: List[float], refs: List[float]) -> dict:
    """Raw operation and reference times of a run, for ``perfbench_env``."""
    return {
        "ops": len(durations),
        "op_min_ms": min(durations) * 1000.0,
        "op_p50_ms": statistics.median(durations) * 1000.0,
        "op_times_ms": [d * 1000.0 for d in durations],
        "reference_ms": [r * 1000.0 for r in refs],
    }


# ----------------------------------------------------------------------
# mine-topk / mine-sparse
# ----------------------------------------------------------------------
def _mine_op(config, params, outcome: Outcome, state: dict, store_path: Path) -> dict:
    """Load the files, mine, save: one timed operation plus its checks."""
    scpm, _, graph_io, _, writer = import_library()
    collect = config["workload"] == "mine-topk"
    store = writer.PatternStore(store_path)
    try:
        started = perf_counter()
        graph = graph_io.read_attributed_graph(config["edges"], config["attributes"])
        miner = scpm.SCPM(graph, params, collect_patterns=collect)
        result = miner.mine()
        mined = perf_counter()
        run_id = store.save(result, params=params)
        saved = perf_counter()
        retries = store.last_save_retries
    finally:
        store.close()
    outcome.attempted += 1
    fingerprint = result.fingerprint()
    if "fingerprint" not in state:
        state["fingerprint"] = fingerprint
        outcome.check(checks.check_digest(result, config["workload"], config["size"], config["input_seed"]))
        outcome.check(checks.validate_patterns(result, graph, params))
        state["env"] = _environment(config, params, graph, result)
    elif fingerprint != state["fingerprint"]:
        outcome.check(["mined result differs between repetitions of one run"])
    outcome.check(checks.store_matches(store_path, run_id, result))
    return {
        "op": saved - started, "mine": mined - started, "save": saved - mined,
        "miner": miner, "result": result, "store_path": store_path, "retries": retries,
    }


def mine_workload(config, outcome: Outcome) -> dict:
    params = inputs.workload_params(config["workload"], config["size"], config.get("block", 0))
    workdir = Path(config["workdir"])
    deadline = time.monotonic() + config["budget_s"]
    state: dict = {}
    if config["trace"]:
        return _mine_traced(config, params, outcome, state, workdir)
    samples: List[dict] = []

    def op(index: int) -> float:
        sample = _mine_op(config, params, outcome, state, _fresh_store(workdir / "stores", "run"))
        samples.append({"mine": sample["mine"], "save": sample["save"]})
        return sample["op"]

    durations, refs = _timed_loop(config["workload"], config["seconds"], deadline, op)
    metrics = {
        "setup_s": 0.0,
        **_latency_metrics(config["workload"], durations, refs),
        "peak_rss_mb": _peak_rss_mb(),
    }
    phases = {
        **_op_samples(durations, refs),
        "mine_s": statistics.median(s["mine"] for s in samples),
        "save_s": statistics.median(s["save"] for s in samples),
    }
    return {"metrics": metrics, "env": state.get("env", {}), "samples": phases}


def _mine_traced(config, params, outcome: Outcome, state: dict, workdir: Path) -> dict:
    from perfbench import tracing as trace

    before = _mine_op(config, params, outcome, state, _fresh_store(workdir / "stores", "before"))
    worker_dir = workdir / "trace_workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    tracer = trace.Tracer(worker_dir)
    uninstall = trace.install(tracer)
    try:
        traced = _mine_op(config, params, outcome, state, _fresh_store(workdir / "stores", "traced"))
    finally:
        uninstall()
    after = _mine_op(config, params, outcome, state, _fresh_store(workdir / "stores", "after"))
    baseline_s = (before["op"] + after["op"]) / 2  # untraced runs on either side
    layers = _layer_totals(tracer)
    miner, result = traced["miner"], traced["result"]
    counters = result.counters
    extra = {
        "correlation.sets_evaluated": counters.attribute_sets_evaluated,
        "correlation.sets_pruned": counters.attribute_sets_pruned,
        "store.rows": len(result.evaluated) + len(result.patterns),
        "store.db_bytes": _db_bytes(traced["store_path"]),
        "store.retries": traced["retries"],
        "trace.op_s": traced["op"],
        "trace.unattributed_s": traced["op"] - tracer.attributed_s(),
        "trace.overhead_share": traced["op"] / baseline_s - 1.0,
        "parallel.serial_s": traced["mine"],
    }
    phase = miner.last_parallel_seconds
    if phase:
        # The parent only waits on the pool during the parallel phase:
        # move that wait out of the SCPM loop's self time.
        layers["correlation.scpm_s"] -= phase
        workers = trace.collect_worker_totals(worker_dir)
        worker_attributed = sum(workers["self_s"].values())
        _absorb(layers, workers["self_s"], workers["calls"], workers["counts"])
        stats = miner.last_scheduler_stats
        busy = sum(miner.last_task_durations.values())
        extra.update({
            "parallel.phase_s": phase,
            "parallel.serial_s": traced["mine"] - phase,
            "parallel.busy_s": busy,
            "parallel.utilisation": busy / (stats.workers * phase),
            "parallel.tasks": stats.tasks_submitted,
            "parallel.batches": stats.batches_submitted,
            "parallel.retries": stats.tasks_retried,
            "parallel.worker_attributed_s": worker_attributed,
            "trace.worker_unattributed_s": busy - worker_attributed,
        })
    layers.update(extra)
    return {"metrics": layers, "env": state.get("env", {}), "samples": {"ops": 3}}


# ----------------------------------------------------------------------
# per-layer assembly
# ----------------------------------------------------------------------
_SPAN_METRICS = {
    "graph.load": "graph.load_s",
    "graph.index": "graph.index_s",
    "graph.and": "graph.and_s",
    "graph.evolve": "graph.evolve_s",
    "quasiclique.coverage": "quasiclique.coverage_s",
    "quasiclique.topk": "quasiclique.topk_s",
    "correlation.scpm": "correlation.scpm_s",
    "correlation.structural": "correlation.structural_s",
    "correlation.null_model": "correlation.null_model_s",
    "incremental.update": "incremental.update_s",
    "store.save": "store.save_s",
    "store.apply_delta": "store.apply_delta_s",
}
_CALL_METRICS = {
    "graph.and": "graph.and_calls",
    "quasiclique.coverage": "quasiclique.coverage_calls",
    "quasiclique.topk": "quasiclique.topk_calls",
}


def _empty_layers() -> Dict[str, float]:
    return {name: 0 for name, _, _ in PER_LAYER}


def _absorb(layers: Dict[str, float], self_s: dict, calls: dict, counts: dict) -> None:
    for span, metric in _SPAN_METRICS.items():
        layers[metric] += self_s.get(span, 0.0)
    for span, metric in _CALL_METRICS.items():
        layers[metric] += calls.get(span, 0)
    for name, value in counts.items():
        if name in layers:
            layers[name] += value
    lookups = layers["quasiclique.memo_hits"] + layers["quasiclique.memo_misses"]
    layers["quasiclique.memo_hit_ratio"] = layers["quasiclique.memo_hits"] / lookups if lookups else 0.0


def _layer_totals(tracer) -> Dict[str, float]:
    layers = _empty_layers()
    _absorb(layers, tracer.self_s, tracer.calls, tracer.counts)
    layers["quasiclique.topk_distinct_sets"] = len(tracer.topk_sets)
    return layers


# ----------------------------------------------------------------------
# update-delta
# ----------------------------------------------------------------------
def _stream_handle(config):
    """Stream the files into an evolvable handle, vertices declared first.

    Declaring every vertex in ascending order before the edges keeps the
    patch scenario chunk-aligned (patch ``p`` owns dense ids
    ``[p·1024, (p+1)·1024)``) whatever the line order of the files, so an
    edit batch inside one patch dirties exactly one chunk.
    """
    from repro.graph.io import iter_attribute_records, iter_edge_records
    from repro.graph.streaming import StreamingGraphBuilder

    records = [(vertex, held) for _, vertex, held in iter_attribute_records(config["attributes"])]
    builder = StreamingGraphBuilder()
    for vertex, _ in sorted(records):
        builder.add_vertex(vertex)
    for _, u, v in iter_edge_records(config["edges"]):
        builder.add_edge(u, v)
    for vertex, held in records:
        if held:
            builder.add_attributes(vertex, held)
    return builder.finish()


def _prepare_incremental(config, params, workdir: Path, name: str) -> dict:
    _, incremental, _, _, writer = import_library()
    store_path = _fresh_store(workdir / "stores", name)
    started = perf_counter()
    handle = _stream_handle(config)
    miner = incremental.IncrementalSCPM(handle, params)
    result = miner.mine()
    mined = perf_counter()
    store = writer.PatternStore(store_path)
    run_id = store.save(result, params=params)
    saved = perf_counter()
    return {"handle": handle, "miner": miner, "result": result, "store": store,
            "store_path": store_path, "run_id": run_id,
            "mine": mined - started, "save": saved - mined, "total": saved - started}


def _edit_batches(config) -> List[tuple]:
    """``(forward, inverse)`` edit lists, one pair per edit file."""
    from repro.graph.evolve import EdgeEdit, read_edge_edits

    batches = []
    for path in config["edits"]:
        forward = read_edge_edits(path)
        batches.append((forward, [EdgeEdit(e.u, e.v, add=not e.add) for e in forward]))
    return batches


def _scaled_prep_s(preps, refs) -> float:
    """Median set-up preparation in reference time (``refs`` bracket each)."""
    return statistics.median(reference.scaled_each([p["total"] for p in preps], refs))


def _prep_samples(preps, refs, **extra) -> dict:
    """Raw median mine and save times of the set-up preparations."""
    return dict(
        extra,
        prep_reps=len(preps),
        prep_total_s=[p["total"] for p in preps],
        prep_reference_ms=[r * 1000.0 for r in refs],
        mine_s=statistics.median(p["mine"] for p in preps),
        save_s=statistics.median(p["save"] for p in preps),
    )


def update_workload(config, outcome: Outcome) -> dict:
    params = inputs.workload_params("update-delta", config["size"])
    workdir = Path(config["workdir"])
    deadline = time.monotonic() + config["budget_s"]
    reps = 1 if config["trace"] else PREP_REPS
    prep, preps, refs = None, [], [reference.run()]
    for rep in range(reps):
        if prep is not None:
            # Drop the earlier handle, miner and result before the next mine,
            # so only the last preparation's state stays resident.
            prep["store"].close()
            prep = None
        prep = _prepare_incremental(config, params, workdir, f"prep{rep}")
        refs.append(reference.run())
        preps.append({key: prep[key] for key in ("mine", "save", "total")})
        outcome.attempted += 1
    miner, store, handle = prep["miner"], prep["store"], prep["handle"]
    initial = prep["result"].fingerprint()
    outcome.check(checks.check_digest(prep["result"], "update-delta", config["size"], config["input_seed"]))
    outcome.check(checks.validate_patterns(prep["result"], handle, params))
    outcome.check(checks.store_matches(prep["store_path"], prep["run_id"], prep["result"]))
    env = _environment(config, params, handle, prep["result"])
    batches = _edit_batches(config)
    kernel_backends: Dict[str, int] = {}
    update_stats: list = []

    def step(edits, check: bool, restores: bool) -> float:
        started = perf_counter()
        result = miner.update(edge_edits=edits)
        store.apply_delta(prep["run_id"], result)
        elapsed = perf_counter() - started
        outcome.attempted += 1
        update_stats.append(miner.last_update_stats)
        for label, count in result.counters.kernel_backends.items():
            kernel_backends[label] = kernel_backends.get(label, 0) + count
        if check:
            outcome.check(checks.store_matches(prep["store_path"], prep["run_id"], result))
            outcome.check(checks.validate_patterns(result, handle, params))
            if restores and result.fingerprint() != initial:
                outcome.check(["undoing an edit batch did not restore the initial result"])
        return elapsed

    def op(index: int, check: bool = True) -> float:
        """Apply one batch and undo it: the timed sum of both steps."""
        forward, inverse = batches[index % len(batches)]
        return step(forward, check, False) + step(inverse, check, True)

    try:
        if config["trace"]:
            layers = _update_traced(op, update_stats, store, prep)
            env["kernel_backends_updates"] = kernel_backends
            return {"metrics": layers, "env": env, "samples": {"ops": 4}}
        gc.collect()
        env["peak_rss_reset"] = _reset_peak_rss()
        durations, op_refs = _timed_loop("update-delta", config["seconds"], deadline, op)
        peak_rss = _peak_rss_mb()
    finally:
        store.close()
    env["kernel_backends_updates"] = kernel_backends
    metrics = {
        "setup_s": _scaled_prep_s(preps, refs),
        **_latency_metrics("update-delta", durations, op_refs),
        "peak_rss_mb": peak_rss,
    }
    samples = _prep_samples(preps, refs, **_op_samples(durations, op_refs))
    return {"metrics": metrics, "env": env, "samples": samples}


def _update_traced(op, update_stats, store, prep) -> Dict[str, float]:
    from perfbench import tracing as trace

    op(0)  # warm pair: the edit/undo cycle reaches its steady state
    before = op(0)
    tracer = trace.Tracer()
    uninstall = trace.install(tracer)
    try:
        traced = op(0, check=False)
    finally:
        uninstall()
    pair = update_stats[-2:]
    after = op(0)
    baseline = (before + after) / 2  # untraced runs of the same pair on either side
    layers = _layer_totals(tracer)
    reused = sum(s.roots_reused for s in pair)
    total = sum(s.roots_total for s in pair)
    layers.update({
        "incremental.roots_rerun": sum(s.roots_reevaluated for s in pair),
        "incremental.reuse_ratio": reused / total if total else 0.0,
        "incremental.memo_evicted": sum(s.memo_evicted for s in pair),
        "store.retries": store.last_save_retries,
        "store.db_bytes": _db_bytes(prep["store_path"]),
        "trace.op_s": traced,
        "trace.unattributed_s": traced - tracer.attributed_s(),
        "trace.overhead_share": traced / baseline - 1.0,
    })
    return layers


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------
def _prepare_store(config, params, workdir: Path, name: str) -> dict:
    scpm, _, graph_io, _, writer = import_library()
    store_path = _fresh_store(workdir / "stores", name)
    started = perf_counter()
    graph = graph_io.read_attributed_graph(config["edges"], config["attributes"])
    result = scpm.SCPM(graph, params).mine()
    mined = perf_counter()
    with writer.PatternStore(store_path) as store:
        run_id = store.save(result, params=params)
    saved = perf_counter()
    return {"graph": graph, "result": result, "store_path": store_path, "run_id": run_id,
            "mine": mined - started, "save": saved - mined, "total": saved - started}


class Server:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, store_path: Path, workdir: Path, src: Path, cpu: int) -> None:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.stderr = open(workdir / "server.err", "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.stderr, cwd=str(workdir), env=env, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.host, self.port = self._address()
        self._wait_healthy()

    def _address(self):
        for line in self.process.stdout:
            match = re.search(r"on http://([^:/]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server exited before announcing its address")

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("server did not become healthy")

    def get(self, path: str):
        connection = HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self, timeout: float = 20.0):
        """SIGINT (graceful drain), then reap; returns the child's rusage."""
        process = self.process
        try:
            process.send_signal(signal.SIGINT)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(process.pid, os.WNOHANG)
                if pid:
                    process.returncode = os.waitstatus_to_exitcode(status)
                    return usage
                if time.monotonic() > deadline:
                    process.kill()
                    _, status, usage = os.wait4(process.pid, 0)
                    process.returncode = os.waitstatus_to_exitcode(status)
                    return usage
                time.sleep(0.02)
        finally:
            process.stdout.close()
            self.stderr.close()


def _aggregate_server_latency(snapshot: dict) -> Dict[str, float]:
    """p50/p99 (bucket upper bounds, ms) over every data endpoint."""
    cumulative: Dict[str, int] = {}
    for name, endpoint in snapshot["endpoints"].items():
        if name in ("healthz", "metrics"):
            continue
        for bound, count in endpoint["latency"]["buckets_le"].items():
            cumulative[bound] = cumulative.get(bound, 0) + count
    if not cumulative:
        return {"p50": 0.0, "p99": 0.0}
    total = cumulative["+inf"]
    bounds = sorted((float(b), c) for b, c in cumulative.items() if b != "+inf")

    def quantile(q: float) -> float:
        target = max(1, int(q * total + 0.5))
        for bound, count in bounds:
            if count >= target:
                return bound * 1000.0
        return max(e["latency"]["max_seconds"] for e in snapshot["endpoints"].values()) * 1000.0

    return {"p50": quantile(0.5), "p99": quantile(0.99)}


def serve_workload(config, outcome: Outcome) -> dict:
    from repro.serve.reader import PatternStoreReader

    params = inputs.workload_params("serve-read", config["size"])
    workdir = Path(config["workdir"])
    reps = 1 if config["trace"] else PREP_REPS
    preps, refs = [], [reference.run()]
    for rep in range(reps):
        preps.append(_prepare_store(config, params, workdir, f"prep{rep}"))
        refs.append(reference.run())
    outcome.attempted += reps
    prep = preps[-1]
    outcome.check(checks.check_digest(prep["result"], "serve-read", config["size"], config["input_seed"]))
    outcome.check(checks.validate_patterns(prep["result"], prep["graph"], params))
    outcome.check(checks.store_matches(prep["store_path"], prep["run_id"], prep["result"]))
    env = _environment(config, params, prep["graph"], prep["result"])
    env["n_jobs"] = 1
    rng = random.Random(f"serve-read/{config['seed']}/mix")
    with PatternStoreReader(prep["store_path"]) as reader:
        # Pattern popularity follows the input seed, like the graph, so
        # every run seed asks for equally costly hot patterns.
        popularity = random.Random(f"serve-read/{config['input_seed']}/popularity")
        paths = loadgen.build_mix(rng, popularity, reader, PINNED_REQUESTS, PINNED_WINDOWS)
    sample = sorted(rng.sample(range(len(paths)), max(1, int(len(paths) * BODY_SAMPLE_SHARE))))
    deadline = time.monotonic() + config["budget_s"]

    started = perf_counter()
    # The server and the load generator each keep a CPU of their own (the
    # same one on a 1-CPU host): no migrations, and each vCPU's speed is
    # what the reference runs on it measure.
    server_cpu, client_cpu = reference.CPUS[-1], reference.CPUS[0]
    server = Server(prep["store_path"], workdir, Path(config["src"]), server_cpu)
    server_start = perf_counter() - started
    # The mix above was built between this and the last preparation's
    # reference run, so that run brackets the start on its other side.
    server_ref = reference.run()
    try:
        # Client threads inherit the CPU of the thread that starts them.
        os.sched_setaffinity(0, {client_cpu})
        warmup = loadgen.run_open_loop(server.host, server.port, paths[:WARMUP_REQUESTS], PINNED_RATE)
        pinned = loadgen.run_open_loop(server.host, server.port, paths, PINNED_RATE, keep=sample)
        outcome.attempted += len(warmup.statuses) + len(paths)
        requests = list(zip(paths, warmup.statuses)) + list(zip(paths, pinned.statuses))
        probe = _probe("serve-read")
        windows, rate_refs = [], [probe()]
        while not config["trace"] and time.monotonic() < deadline and (
                len(windows) < MIN_SATURATION_WINDOWS
                or sum(len(paths) / rate for rate, _ in windows) < config["seconds"]):
            windows.append(loadgen.saturation(server.host, server.port, paths))
            rate_refs.append(probe())
            outcome.attempted += len(windows[-1][1].statuses)
            outcome.failed += windows[-1][1].failures
        status, body = server.get("/metrics")
        snapshot = json.loads(body) if status == 200 else None
    finally:
        os.sched_setaffinity(0, reference.CPUS)
        usage = server.stop()
    bad = [(path, status) for path, status in requests if status != 200]
    outcome.failed += len(bad)
    if bad:
        outcome.messages.append(f"{len(bad)} non-200 responses, first {bad[0]}")
    with PatternStoreReader(prep["store_path"], cache_size=0) as reader:
        for index in sample:
            outcome.check(checks.serve_body_matches(reader, paths[index], pinned.bodies.get(index, b"{}")))
    if snapshot is None:
        outcome.check(["/metrics did not answer 200"])
        snapshot = {"endpoints": {}, "pool": {}, "counters": {}}

    if config["trace"]:
        layers = _serve_layers(prep, paths, pinned, snapshot)
        return {"metrics": layers, "env": env, "samples": {"requests": len(paths)}}
    # Back to back, a request's time is from its send to its answer.  The
    # phase's figures are means over windows (see MULTI_PROCESS).
    medians = [statistics.median(done - sent for done, sent in zip(result.latencies, result.lateness))
               for _, result in windows]
    rates = [rate for rate, _ in windows]
    request_s = reference.scaled(statistics.mean(medians), rate_refs)
    request_gap_s = reference.scaled(statistics.mean(1.0 / rate for rate in rates), rate_refs)
    metrics = {
        "setup_s": _scaled_prep_s(preps, refs) + reference.scaled(server_start, [refs[-1], server_ref]),
        "op_ms": request_s * 1000.0,
        "max_rate_per_s": 1.0 / request_gap_s,
        "peak_rss_mb": _peak_rss_mb(usage),
    }
    size = len(paths) // PINNED_WINDOWS
    env["load"] = {
        "pinned_rate": PINNED_RATE, "pinned_requests": len(paths),
        "pinned_p50_ms": loadgen.percentile(pinned.latencies, 0.5) * 1000.0,
        "pinned_p95_ms": statistics.median(
            loadgen.percentile(pinned.latencies[i:i + size], 0.95) for i in range(0, len(paths), size)
        ) * 1000.0,
        "pinned_p99_ms": loadgen.percentile(pinned.latencies, 0.99) * 1000.0,
        "lateness_p99_ms": loadgen.percentile(pinned.lateness, 0.99) * 1000.0,
        "saturation_p50_ms": [m * 1000.0 for m in medians],
        "saturation_rates": rates,
        "saturation_reference_ms": [r * 1000.0 for r in rate_refs],
        "server_start_s": server_start,
    }
    samples = _prep_samples(preps, refs, requests=len(paths),
                            server_reference_ms=server_ref * 1000.0)
    return {"metrics": metrics, "env": env, "samples": samples}


def _replay(reader, paths) -> List[float]:
    durations = []
    for path in paths:
        started = perf_counter()
        checks.expected_payload(reader, path)
        durations.append(perf_counter() - started)
    return durations


def _serve_layers(prep, paths, pinned, snapshot) -> Dict[str, float]:
    from perfbench import tracing as trace
    from repro.serve.reader import PatternStoreReader

    layers = _empty_layers()
    with PatternStoreReader(prep["store_path"]) as reader:
        untraced = _replay(reader, paths)
    tracer = trace.Tracer()
    uninstall = trace.install(tracer)
    try:
        with PatternStoreReader(prep["store_path"]) as reader:
            traced = _replay(reader, paths)
    finally:
        uninstall()
    traced_total = sum(traced)
    server = _aggregate_server_latency(snapshot)
    pool = snapshot.get("pool", {})
    layers.update({
        "store.read_us": statistics.median(untraced) * 1e6,
        "serve.server_p50_ms": server["p50"],
        "serve.server_p99_ms": server["p99"],
        "serve.cache_hit_ratio": pool.get("hit_ratio", 0.0),
        "serve.lease_waits": pool.get("lease_waits", 0),
        "serve.shed": snapshot.get("counters", {}).get("requests_shed", 0),
        "load.requests": len(pinned.latencies),
        "load.lateness_p99_ms": loadgen.percentile(pinned.lateness, 0.99) * 1000.0,
        "load.p50_ms": loadgen.percentile(pinned.latencies, 0.5) * 1000.0,
        "load.p95_ms": loadgen.percentile(pinned.latencies, 0.95) * 1000.0,
        "load.p99_ms": loadgen.percentile(pinned.latencies, 0.99) * 1000.0,
        "trace.op_s": traced_total,
        "trace.unattributed_s": traced_total - tracer.attributed_s(),
        "trace.overhead_share": traced_total / sum(untraced) - 1.0,
    })
    return layers


RUNNERS = {
    "mine-topk": mine_workload,
    "mine-sparse": mine_workload,
    "update-delta": update_workload,
    "serve-read": serve_workload,
}


def run_child(config: dict) -> dict:
    """Entry of the measuring process: run one workload, return its payload."""
    outcome = Outcome()
    payload = RUNNERS[config["workload"]](config, outcome)
    payload.update(attempted=outcome.attempted, failed=outcome.failed, messages=outcome.messages)
    expected = [name for name, _ in END_TO_END] if not config["trace"] else [n for n, _, _ in PER_LAYER]
    if not config["trace"]:
        payload["metrics"]["setup_s"] += config["import_s"]
    else:
        payload["metrics"]["error_rate"] = outcome.failed / max(1, outcome.attempted)
    missing = [name for name in expected if name not in payload["metrics"]]
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")
    return payload
