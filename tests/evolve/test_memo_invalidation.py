"""Property tests of chunk-level invalidation (:mod:`repro.quasiclique.delta`).

The invariant incremental mining's correctness rests on: after an edit
batch touching chunk set ``T``, a :class:`CoverageMemo` entry — coverage
or top-k — is evicted **iff** its working-set native has a member inside
some chunk of ``T`` — and never otherwise.  Hypothesis generates
arbitrary chunk layouts for both engine natives (dense int masks and
chunked :class:`~repro.graph.sparseset.SparseBitset` containers,
including members far beyond the first chunk) and arbitrary touched
sets, and checks the footprint predicates against a direct member-level
model.  A chunk-aligned evolving graph then checks the end-to-end
consequence: top-k entries that survive an update still answer for the
evolved graph, and the patched result equals a full re-mine.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correlation.incremental import IncrementalSCPM
from repro.correlation.parameters import SCPMParams
from repro.correlation.scpm import SCPM
from repro.datasets.evolving import EvolvingScenario
from repro.graph.evolve import EdgeEdit, _set_bit
from repro.graph.sparseset import CHUNK_BITS, SparseBitset
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.delta import (
    chunk_of,
    chunks_of_native,
    invalidate_memo,
    native_touches,
)
from repro.quasiclique.memo import CoverageMemo
from repro.quasiclique.search import QuasiCliqueSearch

#: Keep the universe a handful of chunks wide — wide enough that natives
#: span several containers, small enough that examples stay fast.
MAX_CHUNKS = 5

members_strategy = st.sets(
    st.integers(min_value=0, max_value=MAX_CHUNKS * CHUNK_BITS - 1),
    max_size=24,
)
touched_strategy = st.frozensets(
    st.integers(min_value=0, max_value=MAX_CHUNKS + 1), max_size=4
)


def sparse_of(members):
    container = SparseBitset()
    for member in members:
        container, _ = _set_bit(container, member)
    return container


def dense_of(members):
    mask = 0
    for member in members:
        mask |= 1 << member
    return mask


def model_chunks(members):
    return {chunk_of(member) for member in members}


class TestFootprintPredicates:
    @given(members=members_strategy)
    def test_chunks_of_native_matches_members(self, members):
        expected = model_chunks(members)
        assert chunks_of_native(sparse_of(members)) == expected
        assert chunks_of_native(dense_of(members)) == expected

    @given(members=members_strategy, touched=touched_strategy)
    def test_native_touches_matches_member_model(self, members, touched):
        expected = bool(model_chunks(members) & touched)
        assert native_touches(sparse_of(members), touched) is expected
        assert native_touches(dense_of(members), touched) is expected

    @given(members=members_strategy)
    def test_empty_touched_never_touches(self, members):
        assert not native_touches(sparse_of(members), frozenset())
        assert not native_touches(dense_of(members), frozenset())


class TestMemoInvalidation:
    @settings(max_examples=60)
    @given(
        layouts=st.lists(members_strategy, min_size=1, max_size=8),
        touched=touched_strategy,
        shared_split=st.integers(min_value=0, max_value=8),
        use_sparse=st.booleans(),
    )
    def test_evicted_iff_intersecting(
        self, layouts, touched, shared_split, use_sparse
    ):
        """An entry dies iff its working set meets a touched chunk —
        across both layers, both engines, and any chunk layout."""
        make = sparse_of if use_sparse else dense_of
        shared = {}
        memo = CoverageMemo(shared=shared)
        keys = []
        for i, members in enumerate(layouts):
            # vary γ so equal working sets still make distinct keys
            key = CoverageMemo.key(make(members), 0.5 + i / 100.0, 3)
            keys.append((key, frozenset(model_chunks(members))))
            if i < shared_split:
                shared[key] = 0
            else:
                memo.put(key, 0)
        before = {key for key, _ in keys}
        expected_dead = {
            key for key, chunks in keys if chunks & touched
        }
        removed = invalidate_memo(memo, touched)
        survivors = set(memo.snapshot())
        assert removed == len(expected_dead)
        assert survivors == before - expected_dead

    @settings(max_examples=60)
    @given(
        layouts=st.lists(members_strategy, min_size=1, max_size=8),
        touched=touched_strategy,
        use_sparse=st.booleans(),
    )
    def test_topk_entries_evicted_iff_intersecting(
        self, layouts, touched, use_sparse
    ):
        """Top-k keys carry the working set at ``key[0]`` like coverage
        keys, so one eviction pass treats both kinds alike."""
        make = sparse_of if use_sparse else dense_of
        memo = CoverageMemo()
        expected_dead = set()
        for i, members in enumerate(layouts):
            native = make(members)
            keys = [
                CoverageMemo.key(native, 0.6, 3),
                CoverageMemo.topk_key(native, 0.6, 3, 1 + i, "dfs"),
                CoverageMemo.topk_key(native, 0.6, 3, 1 + i, "bfs"),
            ]
            memo.put(keys[0], 0)
            for key in keys[1:]:
                memo.put(key, [(frozenset(members), 1.0)])
            if model_chunks(members) & touched:
                expected_dead.update(keys)
        before = set(memo.snapshot())
        removed = invalidate_memo(memo, touched)
        assert removed == len(expected_dead)
        assert set(memo.snapshot()) == before - expected_dead

    def test_disabled_memo_and_empty_touched_are_noops(self):
        assert invalidate_memo(None, frozenset({1})) == 0
        memo = CoverageMemo()
        memo.put(CoverageMemo.key(0b11, 0.6, 3), 0b1)
        assert invalidate_memo(memo, frozenset()) == 0
        assert len(memo) == 1


# ----------------------------------------------------------------------
# top-k entries across a real update
# ----------------------------------------------------------------------
def chunk_patch_scenario(seed, num_patches=3, block=16, edits=8):
    """One random block per chunk, edits confined to chunk 0.

    Patch ``p`` owns the ids of chunk ``p``: attribute ``"p<p>"`` on
    ``2 * block`` of them, random edges among the first ``block``, and
    a shared attribute ``"x"`` on every other vertex of that block.
    ``"x"`` has the smallest support, so its branch joins every patch:
    editing chunk 0 dirties it and its re-run meets the untouched
    patches' ``{x, p<i>}`` memo entries again.
    """
    rng = random.Random(seed)
    edges, attributes = set(), {}
    for patch in range(num_patches):
        base = patch * CHUNK_BITS
        for u, v in combinations(range(base, base + block), 2):
            if rng.random() < 0.3:
                edges.add((u, v))
        for offset in range(2 * block):
            held = [f"p{patch}"]
            if offset < block and offset % 2:
                held.append("x")
            attributes[base + offset] = held
    initial = sorted(edges)
    batch = []
    for _ in range(edits):
        u, v = sorted(rng.sample(range(block), 2))
        batch.append(EdgeEdit(u, v, add=(u, v) not in edges))
        edges ^= {(u, v)}
    return EvolvingScenario(
        vertices=list(range(num_patches * CHUNK_BITS)),
        initial_edges=initial,
        initial_attributes=attributes,
        edit_batches=[(batch, [])],
    )


def topk_keys(keys):
    return {key for key in keys if len(key) == 5}


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_surviving_topk_entries_stay_exact(seed, n_jobs):
    params = SCPMParams(
        min_support=3,
        gamma=0.6,
        min_size=3,
        min_epsilon=0.0,
        top_k=3,
        engine="sparse",
        n_jobs=n_jobs,
    )
    scenario = chunk_patch_scenario(seed)
    miner = IncrementalSCPM(scenario.build_handle(), params, collect_patterns=True)
    initial = miner.mine()
    baseline = SCPM(scenario.initial_graph(), params).mine()
    assert initial.fingerprint() == baseline.fingerprint()
    memo = miner._miner.coverage_memo
    before = set(memo.snapshot())
    touched = frozenset({0})  # every edit lies inside chunk 0
    doomed = {key for key in before if native_touches(key[0], touched)}
    assert topk_keys(doomed) and topk_keys(before - doomed)

    edge_edits, _ = scenario.batches()[0]
    updated = miner.update(edge_edits=edge_edits)
    stats = miner.last_update_stats
    assert stats.touched_chunks == 1
    # exactly the entries meeting chunk 0 died, of both kinds (the
    # re-run may store some of the same keys afresh, hence the count)
    assert stats.memo_evicted == len(doomed)
    after = topk_keys(memo.snapshot())
    assert topk_keys(before - doomed) <= after
    if n_jobs == 1:
        # the dirty "x" branch re-ran and was served surviving entries
        assert updated.counters.topk_memo_hits > 0

    # every surviving entry answers exactly what a fresh search does
    index = miner.graph.bitset_index("sparse")
    snapshot = memo.snapshot()
    for key in after:
        working, gamma, min_size, k, order = key
        search = QuasiCliqueSearch(
            miner.graph,
            QuasiCliqueParams(gamma=gamma, min_size=min_size),
            vertices=index.bitset(working),
            order=order,
            engine="sparse",
        )
        assert snapshot[key] == search.top_k(k)

    full = SCPM(scenario.replay(1), params).mine()
    assert updated.fingerprint() == full.fingerprint()
    assert any(r.patterns for r in full.evaluated)
