#!/usr/bin/env python3
"""Recompute the pinned attribute-set digests in ``perfbench/digests.json``.

    python3 perfbench/pin_digests.py

Mines every workload at both sizes on its default and held-out input
seeds, exactly as the benchmark loads it, and rewrites ``digests.json``.
The statistics are exact, so a change that moves a digest changed what
the miner computes: re-pin only when that change is deliberate, and say
so in the change's description.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def mine_statistics(workload: str, size: str, input_seed: int, directory: Path):
    """The benchmark's own load-and-mine path for one input."""
    from perfbench import inputs
    from perfbench.workloads import _stream_handle, import_library

    scpm, incremental, graph_io, _, _ = import_library()
    manifest = inputs.make_inputs(workload, input_seed, input_seed, size, directory)
    params = inputs.workload_params(workload, size, manifest.get("block", 0))
    if workload == "update-delta":
        return incremental.IncrementalSCPM(_stream_handle(manifest), params).mine()
    graph = graph_io.read_attributed_graph(manifest["edges"], manifest["attributes"])
    return scpm.SCPM(graph, params, collect_patterns=workload != "mine-sparse").mine()


def main() -> int:
    from perfbench import checks, inputs

    scratch = ROOT / ".perfbench_work" / "pin"
    pinned: dict = {}
    try:
        for workload in inputs.WORKLOADS:
            for size in inputs.SIZES:
                for seed in (inputs.INPUT_SEEDS[workload], inputs.HELD_OUT_INPUT_SEEDS[workload]):
                    shutil.rmtree(scratch, ignore_errors=True)
                    result = mine_statistics(workload, size, seed, scratch)
                    digest = checks.stats_digest(result)
                    pinned.setdefault(workload, {}).setdefault(size, {})[str(seed)] = digest
                    print(f"{workload:13s} {size:5s} {seed:5d} {digest}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    checks.DIGESTS_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
