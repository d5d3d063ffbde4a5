"""Correctness checks that survive deliberate output changes.

* :func:`stats_digest` — a digest of every evaluated attribute set's
  ``(attributes, σ, ε, δ, qualified)``, pinned per workload, size and
  input seed in ``digests.json``.  These statistics are exact today and
  no planned optimisation may change them.
* :func:`validate_patterns` — every pattern checked structurally against
  the graph instead of byte-for-byte, because an exact top-k is expected
  to change ranks 2..k on purpose.
* :func:`store_matches` — the stored run reloads to the in-memory result.
* :func:`serve_body_matches` — an HTTP body equals the payload built from
  the direct reader answer.

Every check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def stats_digest(result) -> str:
    rows = sorted(
        (
            [repr(a) for a in record.attributes],
            record.support,
            repr(record.epsilon),
            repr(record.delta),
            record.qualified,
        )
        for record in result.evaluated
    )
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:24]


def pinned_digest(workload: str, size: str, input_seed: int) -> Optional[str]:
    pinned = json.loads(DIGESTS_PATH.read_text())
    return pinned.get(workload, {}).get(size, {}).get(str(input_seed))


def check_digest(result, workload: str, size: str, input_seed: int) -> List[str]:
    expected = pinned_digest(workload, size, input_seed)
    if expected is None:
        return []  # unpinned input seed: run.py warns, perfbench_env.digest_pinned is false
    actual = stats_digest(result)
    if actual != expected:
        return [f"attribute-set statistics digest {actual} != pinned {expected}"]
    return []


def validate_patterns(result, graph, params) -> List[str]:
    """Structural validity of every pattern of ``result`` on ``graph``.

    Each pattern lies inside ``V(S)`` of its attribute set, has at least
    ``min_size`` vertices and density ``gamma_of ≥ γ`` (equal to the
    reported γ); a set holds at most ``k`` patterns, all pairwise
    incomparable (an antichain), and only qualified sets hold patterns.
    """
    from repro.quasiclique.definitions import gamma_of

    failures: List[str] = []
    for record in result.evaluated:
        patterns = record.patterns
        if not patterns:
            continue
        label = record.label()
        if not record.qualified:
            failures.append(f"{label}: patterns on an unqualified set")
        if len(patterns) > params.top_k:
            failures.append(f"{label}: {len(patterns)} patterns > k={params.top_k}")
        members = graph.vertices_with_all(record.attributes)
        for pattern in patterns:
            vertices = pattern.vertices
            if tuple(pattern.attributes) != tuple(record.attributes):
                failures.append(f"{label}: pattern carries attributes {pattern.attributes}")
            if not vertices <= members:
                failures.append(f"{label}: pattern vertices outside V(S)")
                continue
            if len(vertices) < params.min_size:
                failures.append(f"{label}: pattern of size {len(vertices)} < min_size")
            adjacency = {v: graph.neighbors(v) for v in vertices}
            gamma = gamma_of(adjacency, vertices)
            if gamma < params.gamma:
                failures.append(f"{label}: pattern density {gamma} < γ={params.gamma}")
            if abs(gamma - pattern.gamma) > 1e-12:
                failures.append(f"{label}: reported γ {pattern.gamma} != {gamma}")
        for i, first in enumerate(patterns):
            for second in patterns[i + 1:]:
                if first.vertices <= second.vertices or second.vertices <= first.vertices:
                    failures.append(f"{label}: patterns are not an antichain")
    return failures


def store_matches(store_path, run_id: int, result) -> List[str]:
    from repro.serve.reader import PatternStoreReader

    with PatternStoreReader(store_path, cache_size=0) as reader:
        stored = reader.load_result(run_id)
    if stored.fingerprint() != result.fingerprint():
        return [f"stored run {run_id} does not reload to the in-memory result"]
    return []


def expected_payload(reader, path: str):
    """The JSON the server must answer for ``path``, built from ``reader``."""
    from urllib.parse import parse_qs, urlsplit

    from repro.graph.io import parse_vertex_token
    from repro.serve.http import listing_payload, pattern_payload, run_payload

    split = urlsplit(path)
    query = {key: values[0] for key, values in parse_qs(split.query).items()}
    if split.path.startswith("/patterns/"):
        return pattern_payload(reader.get_pattern(int(split.path.rsplit("/", 1)[1])))
    if split.path == "/patterns" and "vertex" in query:
        matches = reader.patterns_with_vertex(parse_vertex_token(query["vertex"]))
        return {"count": len(matches), "patterns": [pattern_payload(m) for m in matches]}
    if split.path == "/patterns":
        filters = [token for token in query["attributes"].split(",") if token]
        matches = reader.patterns_with_attributes(filters, mode=query.get("mode", "all"))
        return {"count": len(matches), "patterns": [pattern_payload(m) for m in matches]}
    if split.path == "/top":
        run_id = reader.latest_run_id()
        k = int(query["k"])
        return {"run_id": run_id, "k": k,
                "entries": [listing_payload(e) for e in reader.top_k(k, run_id=run_id)]}
    if split.path == "/runs":
        return {"runs": [run_payload(info) for info in reader.runs()]}
    raise ValueError(f"no expected payload for {path!r}")


def serve_body_matches(reader, path: str, body: bytes) -> List[str]:
    expected = json.loads(json.dumps(expected_payload(reader, path)))
    if json.loads(body) != expected:
        return [f"{path}: served body differs from the direct reader answer"]
    return []
