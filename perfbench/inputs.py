"""Seeded input generation for the four workloads.

Two seeds shape an input.  ``input_seed`` fixes the graph structure (the
synthetic generator's seed; defaults in :data:`INPUT_SEEDS`) and the edit
script of ``update-delta``.  ``seed``, the run seed passed on the command
line, fixes what the run samples on top of them: the order of the lines
in the edge and attribute files (and the orientation of every edge line)
and the requests of ``serve-read``'s mix.  The mined output depends on the
structure only (frequent items and search order are sorted by value, not
by file position), so one pinned digest per ``(workload, input_seed)``
checks every run seed.  The mining and update work is the same under
every run seed; only the serve mix's requests differ, their shares are
exact in every window and which patterns are hot follows the input seed
(:func:`perfbench.loadgen.build_mix`).

The program receives only the files written here.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Structure seed of each workload when ``--input-seed`` is not given.
INPUT_SEEDS = {"mine-topk": 1234, "mine-sparse": 11, "update-delta": 11, "serve-read": 23}

#: A second structure seed per workload, never used while the benchmark
#: or a change was tuned: confirm a claim on it with ``--input-seed``.
HELD_OUT_INPUT_SEEDS = {"mine-topk": 4321, "mine-sparse": 12, "update-delta": 12, "serve-read": 24}

WORKLOADS = tuple(INPUT_SEEDS)

#: Per-size knobs.  ``tiny`` exists for the benchmark's own smoke tests.
SIZES = {
    "full": {
        "topk_scale": 0.3,
        "sparse_scale": 5.0,
        "patches": 2,
        "edges_per_vertex": 1.5,
        "edit_size": 64,
        "lastfm_scale": 3.0,
    },
    "tiny": {
        "topk_scale": 0.2,
        "sparse_scale": 0.2,
        "patches": 2,
        "edges_per_vertex": 1.0,
        "edit_size": 16,
        "lastfm_scale": 0.3,
    },
}

#: Forward edit batches written for ``update-delta``; the run cycles
#: through them (each is applied, then undone by its inverse).
EDIT_BATCHES = 32


def topk_graph(scale: float, seed: int):
    """``round(6·scale)`` (at least two) planted 4-attribute communities at
    density 0.5, of ``block``, ``block + 2``, … vertices (σ_min = block − 2).

    The attribute-community graph of ``benchmarks/run_benchmarks.py``
    (``build_graph``) with its generator seed exposed.
    """
    from repro.datasets.synthetic import CommunitySpec, SyntheticSpec, generate

    num_communities = max(2, int(round(6 * scale)))
    block = max(12, int(round(40 * scale)))
    communities = tuple(
        CommunitySpec(
            attributes=tuple(f"c{j}_a{i}" for i in range(4)),
            size=block + 2 * j,
            density=0.5,
        )
        for j in range(num_communities)
    )
    graph = generate(
        SyntheticSpec(
            num_vertices=max(120, int(round(700 * scale))),
            background_degree=2.5,
            vocabulary_size=20,
            attributes_per_vertex=0.5,
            communities=communities,
            seed=seed,
        )
    )
    return graph, block


def workload_params(workload: str, size: str, block: int = 0):
    """The mining parameters of one workload (an ``SCPMParams``)."""
    from repro.correlation.parameters import SCPMParams
    from repro.datasets.profiles import dblp_like, lastfm_like

    knobs = SIZES[size]
    if workload == "mine-topk":
        return SCPMParams(
            min_support=block - 2, gamma=0.6, min_size=4, min_epsilon=0.2, top_k=5, n_jobs=1
        )
    if workload == "mine-sparse":
        return replace(dblp_like(scale=knobs["sparse_scale"]).params, n_jobs=2)
    if workload == "update-delta":
        return SCPMParams(
            min_support=3, gamma=0.6, min_size=3, min_epsilon=0.0, top_k=3, engine="sparse"
        )
    if workload == "serve-read":
        return lastfm_like(scale=knobs["lastfm_scale"]).params
    raise ValueError(f"unknown workload {workload!r}")


def _write_graph_files(
    edges: Iterable[Tuple], attributes: Dict, rng: random.Random, directory: Path
) -> Tuple[Path, Path]:
    """Edge and attribute files in shuffled line order (every vertex listed)."""
    edge_lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(edge_lines)
    attribute_lines = [
        " ".join([str(vertex)] + sorted(map(str, held)))
        for vertex, held in attributes.items()
    ]
    rng.shuffle(attribute_lines)
    edge_path, attribute_path = directory / "graph.edges", directory / "graph.attrs"
    edge_path.write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    attribute_path.write_text("\n".join(attribute_lines) + "\n", encoding="utf-8")
    return edge_path, attribute_path


def _graph_parts(graph):
    return (
        list(graph.edges()),
        {vertex: graph.attributes_of(vertex) for vertex in graph.vertices()},
    )


def _edit_script(scenario_edges: List[Tuple[int, int]], span: int, count: int,
                 rng: random.Random) -> List[List[Tuple[str, int, int]]]:
    """Forward batches of ``count`` distinct edge flips inside ``[0, span)``.

    Flips are relative to the initial graph: the run undoes every batch
    before applying the next, so each batch starts from the same state.
    """
    present = set(scenario_edges)
    batches = []
    for _ in range(EDIT_BATCHES):
        chosen = set()
        while len(chosen) < count:
            u, v = rng.sample(range(span), 2)
            chosen.add((min(u, v), max(u, v)))
        batches.append(
            [("remove" if key in present else "add", key[0], key[1]) for key in sorted(chosen)]
        )
        rng.shuffle(batches[-1])
    return batches


def make_inputs(workload: str, input_seed: int, seed: int, size: str, directory: Path) -> dict:
    """Write one workload's input files into ``directory``; return the manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    knobs = SIZES[size]
    rng = random.Random(f"{workload}/{seed}")
    manifest = {"workload": workload, "input_seed": input_seed, "seed": seed, "size": size}
    if workload == "mine-topk":
        graph, block = topk_graph(knobs["topk_scale"], input_seed)
        manifest["block"] = block
    elif workload == "mine-sparse":
        from repro.datasets.profiles import dblp_like

        graph = dblp_like(scale=knobs["sparse_scale"], seed=input_seed).build()
    elif workload == "serve-read":
        from repro.datasets.profiles import lastfm_like

        graph = lastfm_like(scale=knobs["lastfm_scale"], seed=input_seed).build()
    elif workload == "update-delta":
        from repro.datasets.evolving import patch_scenario
        from repro.graph.sparseset import CHUNK_BITS

        scenario = patch_scenario(
            input_seed,
            num_patches=knobs["patches"],
            edges_per_vertex=knobs["edges_per_vertex"],
            num_batches=0,
        )
        edges = scenario.initial_edges
        attributes = {v: scenario.initial_attributes.get(v, []) for v in scenario.vertices}
        edge_path, attribute_path = _write_graph_files(edges, attributes, rng, directory)
        # Drawn from the input seed, so every run seed times the same batches.
        script_rng = random.Random(f"{workload}/{input_seed}/edits")
        script = _edit_script(edges, CHUNK_BITS, knobs["edit_size"], script_rng)
        edits_dir = directory / "edits"
        edits_dir.mkdir(exist_ok=True)
        for index, batch in enumerate(script):
            lines = [f"{op} {u} {v}" for op, u, v in batch]
            (edits_dir / f"{index:03d}.edits").write_text("\n".join(lines) + "\n")
        manifest.update(
            edges=str(edge_path), attributes=str(attribute_path),
            edits=[str(edits_dir / f"{i:03d}.edits") for i in range(len(script))],
        )
        return manifest
    else:
        raise ValueError(f"unknown workload {workload!r}")
    edges, attributes = _graph_parts(graph)
    edge_path, attribute_path = _write_graph_files(edges, attributes, rng, directory)
    manifest.update(edges=str(edge_path), attributes=str(attribute_path))
    return manifest

