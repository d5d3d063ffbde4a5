#!/usr/bin/env python3
"""Pinned SCPM benchmark — one command per workload run.

    python3 perfbench/run.py --workload mine-topk --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout holding ``src/repro``.  The run:

1. generates the workload's input files from the seeds (set-up, repeated
   and timed; see :mod:`perfbench.inputs`);
2. starts a fresh interpreter (``--child``) that loads those files, runs
   the timed phase through the library's public functions and checks
   every output (:mod:`perfbench.workloads`);
3. prints one line with the environment, then, as the last line, the
   result: ``{"correct", "attempted", "failed", "metrics"}`` where
   ``--trace 0`` gives every end-to-end metric and ``--trace 1`` every
   per-layer metric, each as ``{"value", "unit"}``.

Exit status 0 when every check passed, 1 when a check failed or the
measuring process broke, 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
#: Input generation repetitions of the set-up (median reported).
SETUP_REPS = 3
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("mine-topk", "mine-sparse", "update-delta", "serve-read"))
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed: file line order, edit script, request mix "
                             "(default: the workload's input seed)")
    parser.add_argument("--input-seed", type=int, default=None,
                        help="graph-structure seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per run, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own smoke tests")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def _child_main(config_json: str) -> int:
    from perfbench import reference

    before = reference.run()
    begun = time.perf_counter()
    from perfbench.workloads import import_library, run_child

    import_library()
    import_s = time.perf_counter() - begun
    config = dict(json.loads(config_json), import_s=reference.scaled(import_s, [before, reference.run()]))
    payload = run_child(config)
    print(json.dumps(payload, default=str))
    return 0


def _run_child(config: dict, timeout: float) -> dict:
    """Run the measuring process in its own process group.

    Whatever happens, the whole group goes at the end, so a server it
    started cannot outlive the run, even after a timeout or a crash.
    """
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(config)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"measuring process exited with status {process.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.child is not None:
        return _child_main(args.child)

    from perfbench import inputs, reference
    from perfbench.metrics import E2E_UNITS, LAYER_UNITS

    started = time.monotonic()
    input_seed = args.input_seed if args.input_seed is not None else inputs.INPUT_SEEDS[args.workload]
    seed = args.seed if args.seed is not None else input_seed
    workdir = WORK_ROOT / f"{args.workload}-{seed}-{os.getpid()}"
    try:
        generation, refs = [], [reference.run()]
        for _ in range(1 if args.trace else SETUP_REPS):
            shutil.rmtree(workdir / "input", ignore_errors=True)
            begun = time.perf_counter()
            manifest = inputs.make_inputs(args.workload, input_seed, seed, args.size, workdir / "input")
            generation.append(time.perf_counter() - begun)
            refs.append(reference.run())
        config = dict(
            manifest, seconds=args.seconds, trace=args.trace, workdir=str(workdir), src=str(SRC),
            budget_s=max(5.0, RUN_LIMIT_S - 60.0 - (time.monotonic() - started)),
        )
        try:
            payload = _run_child(config, RUN_LIMIT_S - (time.monotonic() - started))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    values = payload["metrics"]
    if args.trace:
        units = LAYER_UNITS
    else:
        units = E2E_UNITS
        values["setup_s"] += statistics.median(reference.scaled_each(generation, refs))
    correct = payload["failed"] == 0
    env = dict(payload["env"], workload=args.workload, seed=seed, input_seed=input_seed,
               size=args.size, seconds=args.seconds, trace=args.trace,
               generation_s=generation, generation_reference_ms=[r * 1000.0 for r in refs],
               samples=payload["samples"], messages=payload["messages"])
    if not env.get("parallel_valid", True):
        print(f"perfbench: {env['usable_cores']} usable core(s) < n_jobs={env['n_jobs']}: "
              "not a parallel measurement", file=sys.stderr)
    if not env.get("digest_pinned", True):
        print(f"perfbench: no pinned digest for input seed {input_seed}: "
              "the statistics digest was not checked", file=sys.stderr)
    for message in payload["messages"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"perfbench_env": env}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
