"""Fuzz suite for the chunk algebra in :mod:`repro.graph.chunkops`.

Every chunk op is checked against a plain ``set``-of-ids model, and every
dictionary it returns must be canonical: one non-zero chunk-local ``int``
bitmap per stored chunk, no empty chunks.  That form is what makes
:class:`~repro.graph.sparseset.SparseBitset` equality, hashing and pickling
plain functions of the set.

Randomized sets span sub-chunk, few-chunk and many-chunk shapes, with
nearly empty and nearly full chunks mixed.  Seeds are fixed so failures
replay; CI appends one more seed through the ``REPRO_FUZZ_SEED``
environment variable, like the other differential suites.
"""

import os
import pickle
import random

import pytest

from repro.graph import chunkops
from repro.graph.chunkops import CHUNK_BITS, ChunkOps, get_chunk_backend
from repro.graph.sparseset import SparseBitset

BASE_SEEDS = (3, 17)

#: (universe size, expected cardinality) — one-chunk sets, few-chunk sets,
#: and wide many-chunk sets from nearly empty to nearly full chunks.
SHAPE_GRID = (
    (CHUNK_BITS // 2, 40),
    (3 * CHUNK_BITS, 90),
    (6 * CHUNK_BITS, 500),
    (40 * CHUNK_BITS, 1200),
    (40 * CHUNK_BITS, 25000),
)

OPS = (
    "and_chunks",
    "or_chunks",
    "xor_chunks",
    "andnot_chunks",
    "intersection_count",
    "isdisjoint",
    "issubset",
)


def fuzz_seeds():
    seeds = list(BASE_SEEDS)
    extra = os.environ.get("REPRO_FUZZ_SEED")
    if extra is not None:
        seeds.append(int(extra))
    return seeds


def chunks_of(ids):
    """Canonical ``{chunk: bits}`` dictionary of a set of ids."""
    raw = {}
    for value in ids:
        raw[value // CHUNK_BITS] = raw.get(value // CHUNK_BITS, 0) | (
            1 << (value % CHUNK_BITS)
        )
    return raw


def assert_canonical(chunks):
    for chunk, bits in chunks.items():
        assert type(bits) is int, f"chunk {chunk} stored as {type(bits)}"
        assert 0 < bits < (1 << CHUNK_BITS), f"chunk {chunk} empty or too wide"


def random_pair(rng, universe, cardinality):
    """Two random sets sharing about half their ids (dense overlaps)."""
    shared = rng.sample(range(universe), min(cardinality, universe))
    half = len(shared) // 2
    a = set(shared[:half]) | set(
        rng.sample(range(universe), min(cardinality // 2, universe))
    )
    b = set(shared[half:]) | set(
        rng.sample(range(universe), min(cardinality // 2, universe))
    )
    return a, b


def model(op, a_ids, b_ids):
    """Plain-set semantics of one chunk op."""
    if op == "and_chunks":
        return a_ids & b_ids
    if op == "or_chunks":
        return a_ids | b_ids
    if op == "xor_chunks":
        return a_ids ^ b_ids
    if op == "andnot_chunks":
        return a_ids - b_ids
    if op == "intersection_count":
        return len(a_ids & b_ids)
    if op == "isdisjoint":
        return a_ids.isdisjoint(b_ids)
    return a_ids <= b_ids


def check_op(op, a_ids, b_ids):
    a, b = chunks_of(a_ids), chunks_of(b_ids)
    a_before, b_before = dict(a), dict(b)
    result = getattr(chunkops, op)(a, b)
    # operands are never mutated: SparseBitset shares chunk dictionaries
    assert a == a_before and b == b_before, op
    if isinstance(result, dict):
        assert_canonical(result)
        assert result == chunks_of(model(op, a_ids, b_ids)), op
    else:
        assert result == model(op, a_ids, b_ids), op


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize("universe,cardinality", SHAPE_GRID)
def test_chunk_ops_match_set_model(seed, universe, cardinality):
    rng = random.Random(seed * 7919 + universe + cardinality)
    for _ in range(8):
        a_ids, b_ids = random_pair(rng, universe, cardinality)
        for op in OPS:
            check_op(op, a_ids, b_ids)


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_subset_and_edge_shapes(seed):
    rng = random.Random(seed)
    base = set(rng.sample(range(20 * CHUNK_BITS), 3000))
    sub = set(rng.sample(sorted(base), 1500))
    cases = [
        (sub, base),  # genuine subset across many chunks
        (base, sub),  # superset direction
        (set(), base),  # empty operand
        (base, set()),
        (base, base),  # identical operands
        (sub, base - sub),  # disjoint operands sharing chunks
    ]
    for a_ids, b_ids in cases:
        for op in OPS:
            check_op(op, a_ids, b_ids)


def test_get_chunk_backend_is_the_one_ops_class():
    assert get_chunk_backend() is ChunkOps
    for op in OPS:
        assert getattr(ChunkOps, op) is getattr(chunkops, op)


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_sparsebitset_equality_hash_pickle_round_trip(seed):
    """Equal sets reached by different routes are interchangeable."""
    rng = random.Random(seed * 31)
    a_ids, b_ids = random_pair(rng, 12 * CHUNK_BITS, 4000)
    a, b = SparseBitset.from_iterable(a_ids), SparseBitset.from_iterable(b_ids)
    computed = {
        "and": (a & b, a_ids & b_ids),
        "or": (a | b, a_ids | b_ids),
        "xor": (a ^ b, a_ids ^ b_ids),
        "andnot": (a.andnot(b), a_ids - b_ids),
    }
    for key, (value, ids) in computed.items():
        rebuilt = SparseBitset.from_iterable(sorted(ids, reverse=True))
        assert value == rebuilt, key
        assert hash(value) == hash(rebuilt), key
        restored = pickle.loads(pickle.dumps(value))
        assert restored == value and hash(restored) == hash(value), key
        assert restored.bit_count() == len(ids), key
        assert set(restored) == ids, key
