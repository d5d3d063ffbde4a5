"""Coverage-memo differential suite: memo-on vs memo-off byte-identity.

The :class:`~repro.quasiclique.memo.CoverageMemo` may only ever change
*when* a coverage or top-k result is computed, never *what* it is: SCPM
with the memo enabled (the default) must produce byte-identical
``MiningResult`` records — patterns included — to a memo-less run across
engines × orders × ``top_k`` × schedules × worker counts, and the
:class:`SimulationNullModel` estimates must be unchanged.  Seeds are
fixed so failures replay; CI appends one more seed through
``REPRO_FUZZ_SEED``, like the other differential suites.
"""

import os

import pytest

import repro.correlation.scpm as scpm_module
from repro.correlation.null_models import SimulationNullModel
from repro.correlation.parameters import SCPMParams
from repro.correlation.patterns import MiningCounters
from repro.correlation.scpm import SCPM, _accumulate_counters
from repro.correlation.structural import top_k_patterns
from repro.datasets.synthetic import random_attributed_graph
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.memo import CoverageMemo
from repro.quasiclique.search import QuasiCliqueSearch

BASE_SEEDS = (11, 29)

PARAMS = SCPMParams(
    min_support=3, gamma=0.6, min_size=3, min_epsilon=0.1, top_k=4
)


def fuzz_seeds():
    seeds = list(BASE_SEEDS)
    extra = os.environ.get("REPRO_FUZZ_SEED")
    if extra is not None:
        seeds.append(int(extra))
    return seeds


def fuzz_graph(seed, num_vertices=22, edge_probability=0.35):
    return random_attributed_graph(
        num_vertices=num_vertices,
        edge_probability=edge_probability,
        attributes=["a", "b", "c", "d"],
        attribute_probability=0.5,
        seed=seed * 613 + num_vertices,
    )


def twin_graph(seed=7, num_vertices=18, edge_probability=0.45):
    """A graph where "a" and "twin" are carried by the same vertices.

    The two attributes induce identical working sets at every lattice
    level, so coverage *and* top-k searches repeat across siblings.
    """
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    for vertex in graph.vertices_with("a"):
        graph.add_attribute(vertex, "twin")
    return graph


def memo_key_kinds(memo):
    """``(coverage entries, top-k entries)`` — the key shapes differ."""
    keys = list(memo.snapshot())
    coverage = sum(1 for key in keys if len(key) == 3)
    return coverage, len(keys) - coverage


def mining_fingerprint(result):
    """Every observable record field, bit-for-bit comparable."""
    return [
        (
            r.attributes,
            r.support,
            r.epsilon,
            r.expected_epsilon,
            r.delta,
            r.covered_vertices,
            r.qualified,
            tuple((p.attributes, p.vertices, p.gamma) for p in r.patterns),
        )
        for r in result.evaluated
    ]


# ----------------------------------------------------------------------
# unit behaviour
# ----------------------------------------------------------------------
class TestCoverageMemo:
    def test_miss_then_hit(self):
        memo = CoverageMemo()
        key = memo.key(0b111, 0.6, 3)
        assert memo.get(key) is None
        memo.put(key, 0b101)
        assert memo.get(key) == 0b101
        assert (memo.hits, memo.misses) == (1, 1)
        assert len(memo) == 1

    def test_empty_covered_set_is_a_hit(self):
        # 0 (an empty native) must not be confused with "absent"
        memo = CoverageMemo()
        key = memo.key(0b11, 0.9, 2)
        memo.put(key, 0)
        assert memo.get(key) == 0
        assert memo.hits == 1

    def test_empty_pattern_list_is_a_hit(self):
        memo = CoverageMemo()
        key = memo.topk_key(0b11, 0.9, 2, 3, "dfs")
        memo.put(key, [])
        assert memo.get(key) == []
        assert memo.hits == 1

    def test_keys_distinguish_parameters(self):
        memo = CoverageMemo()
        memo.put(memo.key(0b111, 0.6, 3), 0b111)
        assert memo.get(memo.key(0b111, 0.6, 4)) is None
        assert memo.get(memo.key(0b111, 0.7, 3)) is None
        assert memo.get(memo.key(0b110, 0.6, 3)) is None
        ranked = [(frozenset({1, 2, 3}), 1.0)]
        memo.put(memo.topk_key(0b111, 0.6, 3, 5, "dfs"), ranked)
        assert memo.get(memo.topk_key(0b111, 0.6, 3, 5, "dfs")) == ranked
        assert memo.get(memo.topk_key(0b111, 0.6, 3, 4, "dfs")) is None
        assert memo.get(memo.topk_key(0b111, 0.6, 3, 5, "bfs")) is None
        assert memo.get(memo.topk_key(0b111, 0.6, 4, 5, "dfs")) is None
        assert memo.get(memo.topk_key(0b111, 0.7, 3, 5, "dfs")) is None
        assert memo.get(memo.topk_key(0b110, 0.6, 3, 5, "dfs")) is None
        # same working set, both kinds stored: neither shadows the other
        assert memo.get(memo.key(0b111, 0.6, 3)) == 0b111
        assert len(memo) == 2

    def test_snapshot_and_local_reset(self):
        memo = CoverageMemo()
        memo.put(memo.key(0b1, 0.5, 2), 0b1)
        worker = CoverageMemo(shared=memo.snapshot())
        worker.put(worker.key(0b10, 0.5, 2), 0b10)
        assert len(worker) == 2
        worker.reset_local()
        assert len(worker) == 1  # the shared layer survives
        assert worker.get(worker.key(0b1, 0.5, 2)) == 0b1
        assert worker.get(worker.key(0b10, 0.5, 2)) is None
        assert "entries=1" in repr(worker)


# ----------------------------------------------------------------------
# SCPM: memo-on vs memo-off byte identity across the execution grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_scpm_memo_on_off_byte_identical(seed, engine):
    graph = fuzz_graph(seed)
    off = SCPM(graph, PARAMS.with_changes(engine=engine, coverage_memo=False)).mine()
    on_miner = SCPM(graph, PARAMS.with_changes(engine=engine, coverage_memo=True))
    on = on_miner.mine()
    assert mining_fingerprint(on) == mining_fingerprint(off)
    assert off.counters.coverage_memo_hits == 0
    assert off.counters.coverage_memo_misses == 0
    assert off.counters.topk_memo_hits == 0
    assert off.counters.topk_memo_misses == 0
    c, memo = on.counters, on_miner.coverage_memo
    # every miss stores exactly one entry of its own kind; every lookup
    # of either kind is counted once on the memo and once per kind
    assert memo_key_kinds(memo) == (c.coverage_memo_misses, c.topk_memo_misses)
    assert memo.misses == c.coverage_memo_misses + c.topk_memo_misses == len(memo)
    assert memo.hits == c.coverage_memo_hits + c.topk_memo_hits
    assert c.topk_memo_hits + c.topk_memo_misses == sum(
        1 for r in on.evaluated if r.qualified
    )


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize("n_jobs,schedule,fanout_depth", [
    (2, "steal", 2),
    (2, "steal", 1),
    (2, "stripe", 2),
])
def test_scpm_memo_parallel_byte_identical(seed, n_jobs, schedule, fanout_depth):
    graph = fuzz_graph(seed)
    sequential_off = SCPM(
        graph, PARAMS.with_changes(coverage_memo=False)
    ).mine()
    for coverage_memo in (False, True):
        parallel = SCPM(
            graph,
            PARAMS.with_changes(
                coverage_memo=coverage_memo,
                n_jobs=n_jobs,
                schedule=schedule,
                fanout_depth=fanout_depth,
            ),
        ).mine()
        assert mining_fingerprint(parallel) == mining_fingerprint(sequential_off)


def test_scpm_memo_hits_on_sibling_collisions():
    # Two attributes carried by the same vertices induce identical working
    # sets at every lattice level — the memo must collapse the repeats.
    miner = SCPM(twin_graph(), PARAMS)
    result = miner.mine()
    c = result.counters
    assert c.coverage_memo_hits > 0
    assert c.topk_memo_hits > 0
    assert miner.coverage_memo.hits == c.coverage_memo_hits + c.topk_memo_hits
    assert miner.coverage_memo.misses == len(miner.coverage_memo)


# ----------------------------------------------------------------------
# top-k patterns through the memo
# ----------------------------------------------------------------------
class TestTopkCounters:
    def test_round_trip_and_old_store_default(self):
        counters = MiningCounters(
            coverage_memo_hits=4, topk_memo_hits=2, topk_memo_misses=3
        )
        data = counters.to_dict()
        assert (data["topk_memo_hits"], data["topk_memo_misses"]) == (2, 3)
        assert MiningCounters.from_dict(data) == counters
        # a store written before the top-k counters existed
        del data["topk_memo_hits"], data["topk_memo_misses"]
        old = MiningCounters.from_dict(data)
        assert (old.topk_memo_hits, old.topk_memo_misses) == (0, 0)
        assert old.coverage_memo_hits == 4

    def test_accumulated_apart_from_coverage(self):
        target = MiningCounters(coverage_memo_hits=1, topk_memo_hits=2)
        _accumulate_counters(
            target, MiningCounters(coverage_memo_misses=5, topk_memo_misses=7)
        )
        assert (target.coverage_memo_hits, target.coverage_memo_misses) == (1, 5)
        assert (target.topk_memo_hits, target.topk_memo_misses) == (2, 7)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is tallied; return the tally."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("coverage_memo", [False, True])
def test_topk_memo_skips_repeated_searches(monkeypatch, coverage_memo):
    searches = count_calls(monkeypatch, QuasiCliqueSearch, "top_k")
    requests = count_calls(monkeypatch, scpm_module, "top_k_patterns")
    miner = SCPM(twin_graph(), PARAMS.with_changes(coverage_memo=coverage_memo))
    c = miner.mine().counters
    assert len(requests) == c.attribute_sets_qualified > 0
    if not coverage_memo:
        assert len(searches) == len(requests)
        return
    assert len(searches) < len(requests)
    assert len(searches) == c.topk_memo_misses
    assert len(requests) == c.topk_memo_hits + c.topk_memo_misses


def test_topk_hit_relabels_patterns_with_the_callers_attributes():
    graph = twin_graph()
    params = PARAMS.quasi_clique_params()
    memo = CoverageMemo()
    first = top_k_patterns(graph, ["a"], params, 4, memo=memo)
    second = top_k_patterns(graph, ["twin"], params, 4, memo=memo)
    assert (memo.hits, memo.misses) == (1, 1)
    assert first and [p.attributes for p in second] == [("twin",)] * len(first)
    assert [(p.vertices, p.gamma) for p in second] == [
        (p.vertices, p.gamma) for p in first
    ]
    assert second == top_k_patterns(graph, ["twin"], params, 4)


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize("engine", ["dense", "sparse"])
@pytest.mark.parametrize("order", ["dfs", "bfs"])
@pytest.mark.parametrize("top_k", [1, 5])
def test_scpm_patterns_memo_on_off_byte_identical(seed, engine, order, top_k):
    graph = twin_graph(seed, num_vertices=22, edge_probability=0.35)
    params = PARAMS.with_changes(engine=engine, order=order, top_k=top_k)
    reference = SCPM(
        graph, params.with_changes(coverage_memo=False), collect_patterns=True
    ).mine()
    # a qualifying twin repeats its sibling's top-k search, so the
    # sequential memo-on run must take the hit path
    twin = reference.find(["twin"])
    twin_hits = twin is not None and twin.qualified
    for n_jobs, schedule, fanout_depth in [
        (1, "steal", 2),
        (2, "steal", 2),
        (2, "steal", 1),
        (2, "stripe", 2),
    ]:
        for coverage_memo in (False, True):
            result = SCPM(
                graph,
                params.with_changes(
                    coverage_memo=coverage_memo,
                    n_jobs=n_jobs,
                    schedule=schedule,
                    fanout_depth=fanout_depth,
                ),
                collect_patterns=True,
            ).mine()
            assert mining_fingerprint(result) == mining_fingerprint(reference), (
                n_jobs, schedule, fanout_depth, coverage_memo
            )
            c = result.counters
            lookups = c.topk_memo_hits + c.topk_memo_misses
            assert lookups == (c.attribute_sets_qualified if coverage_memo else 0)
            if coverage_memo and n_jobs == 1 and twin_hits:
                assert c.topk_memo_hits > 0


# ----------------------------------------------------------------------
# SimulationNullModel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", fuzz_seeds())
def test_null_model_memo_estimates_identical(seed):
    graph = fuzz_graph(seed, num_vertices=16, edge_probability=0.4)
    params = QuasiCliqueParams(gamma=0.6, min_size=3)
    supports = [4, 7, 16, 20]
    with SimulationNullModel(
        graph, params, runs=6, seed=5, use_coverage_memo=False
    ) as plain:
        expected = [plain.estimate(s) for s in supports]
    with SimulationNullModel(
        graph, params, runs=6, seed=5, use_coverage_memo=True
    ) as memoised:
        observed = [memoised.estimate(s) for s in supports]
        assert observed == expected
        assert memoised.coverage_memo is not None
        # σ clamped at |V| draws the identical sample every run: all but
        # the first of the 6 draws must hit the memo.
        assert memoised.coverage_memo.hits >= 5
    assert plain.coverage_memo is None
