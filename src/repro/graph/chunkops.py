"""Chunk algebra behind :class:`repro.graph.sparseset.SparseBitset`.

The sparse engine stores a vertex set as a dictionary ``{chunk: bits}``:
the id space is split into :data:`CHUNK_BITS`-wide blocks, only non-empty
blocks are kept, and each block is one Python ``int`` bitmap whose bit
``i`` is id ``chunk * CHUNK_BITS + i``.  The bitmap is the only container
form, and the only canonical rule is *no empty chunks* (no zero values).
Structural equality of two dictionaries is therefore set equality, and
hashing and pickling follow from it.

There is no separate array form for thin chunks, as Roaring bitmaps have:
Python ints are variable-width, so a chunk holding a few ids costs about
what a sorted offset tuple would, a fuller chunk costs far less, and no
operation ever converts between forms.  Every operation is a per-chunk
big-int ``& | ^ ~`` or ``bit_count``.

The functions below are the whole chunk algebra; each takes and returns
canonical dictionaries.  :class:`ChunkOps` bundles them as static methods,
and :func:`get_chunk_backend` returns that class.
"""

from __future__ import annotations

from typing import Dict

#: Width of one chunk in bits.  1024 keeps a full bitmap at 16 machine
#: words — small enough that a single populated block wastes little, large
#: enough that dense regions collapse into a handful of int operations.
CHUNK_BITS = 1024

# A chunk dictionary: chunk id -> non-zero chunk-local bitmap.
Chunks = Dict[int, int]


def and_chunks(a: Chunks, b: Chunks) -> Chunks:
    """Chunk dictionary of the intersection ``a ∩ b``."""
    if len(b) < len(a):
        a, b = b, a
    out: Chunks = {}
    for chunk, bits in a.items():
        other = b.get(chunk)
        if other is not None:
            bits &= other
            if bits:
                out[chunk] = bits
    return out


def or_chunks(a: Chunks, b: Chunks) -> Chunks:
    """Chunk dictionary of the union ``a ∪ b``."""
    out: Chunks = dict(a)
    for chunk, bits in b.items():
        out[chunk] = out.get(chunk, 0) | bits
    return out


def xor_chunks(a: Chunks, b: Chunks) -> Chunks:
    """Chunk dictionary of the symmetric difference ``a ⊕ b``."""
    out: Chunks = dict(a)
    for chunk, bits in b.items():
        bits ^= out.get(chunk, 0)
        if bits:
            out[chunk] = bits
        else:
            del out[chunk]
    return out


def andnot_chunks(a: Chunks, b: Chunks) -> Chunks:
    """Chunk dictionary of the difference ``a \\ b``."""
    out: Chunks = {}
    for chunk, bits in a.items():
        other = b.get(chunk)
        if other is not None:
            bits &= ~other
            if not bits:
                continue
        out[chunk] = bits
    return out


def intersection_count(a: Chunks, b: Chunks) -> int:
    """``|a ∩ b|`` without materialising the intersection."""
    if len(b) < len(a):
        a, b = b, a
    count = 0
    for chunk, bits in a.items():
        other = b.get(chunk)
        if other is not None:
            count += (bits & other).bit_count()
    return count


def isdisjoint(a: Chunks, b: Chunks) -> bool:
    """``True`` when the two chunk dictionaries share no id."""
    if len(b) < len(a):
        a, b = b, a
    for chunk, bits in a.items():
        other = b.get(chunk)
        if other is not None and bits & other:
            return False
    return True


def issubset(a: Chunks, b: Chunks) -> bool:
    """``True`` when every id of ``a`` is in ``b``."""
    for chunk, bits in a.items():
        if bits & ~b.get(chunk, 0):
            return False
    return True


class ChunkOps:
    """The chunk algebra as one object: the functions above, unchanged."""

    and_chunks = staticmethod(and_chunks)
    or_chunks = staticmethod(or_chunks)
    xor_chunks = staticmethod(xor_chunks)
    andnot_chunks = staticmethod(andnot_chunks)
    intersection_count = staticmethod(intersection_count)
    isdisjoint = staticmethod(isdisjoint)
    issubset = staticmethod(issubset)


def get_chunk_backend():
    """The chunk-op class (:class:`ChunkOps`; there is exactly one)."""
    return ChunkOps


__all__ = [
    "CHUNK_BITS",
    "ChunkOps",
    "Chunks",
    "and_chunks",
    "andnot_chunks",
    "get_chunk_backend",
    "intersection_count",
    "isdisjoint",
    "issubset",
    "or_chunks",
    "xor_chunks",
]
