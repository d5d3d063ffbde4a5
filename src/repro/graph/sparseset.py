"""Chunked vertex sets — the sparse twin of :mod:`vertexset`.

The dense engine stores every vertex set as one |V|-bit integer, which makes
the *index* O(|V|²/8) bytes: one full-width adjacency mask per vertex, no
matter how few edges exist.  This module stores a vertex set as a dictionary
of fixed-width **chunks** — only the non-empty ones — so memory tracks the
number of elements (edges, for adjacency) instead of the universe size.

Container layout: the id space is split into :data:`CHUNK_BITS`-wide
blocks, and each non-empty block is one chunk-local ``int`` bitmap.  The
only canonical rule is *no empty chunks*, so structural equality of the
chunk dictionaries is set equality.  All binary operations work chunk-wise
and never touch blocks that are absent from both operands; the chunk
algebra itself lives in :mod:`repro.graph.chunkops`.

Three layers mirror :mod:`repro.graph.vertexset` exactly:

* :class:`SparseBitset` — the raw container (the sparse engine's *native*
  set).  It deliberately mimics the fraction of the ``int`` mask API the
  mining stack uses (``& | ^``, ``bit_count()``, truthiness, ascending-id
  iteration), so engine-agnostic callers can hold either native.
* :class:`SparseVertexBitset` — the indexer-bound, ``frozenset``-compatible
  view (the sparse twin of :class:`~repro.graph.vertexset.VertexBitset`).
* :class:`SparseGraphBitsetIndex` — the per-graph index satisfying
  :class:`repro.graph.engine.VertexSetEngine`; per-vertex adjacency and
  per-attribute holder sets are chunked containers, and dense masks are
  materialised only inside the degree-ranked local id space of a single
  quasi-clique search (:meth:`SparseGraphBitsetIndex.local_adjacency`).
"""

from __future__ import annotations

import sys
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import IndexerMismatchError
from repro.graph.chunkops import (
    CHUNK_BITS,
    Chunks,
    and_chunks,
    andnot_chunks,
    intersection_count,
    isdisjoint,
    issubset,
    or_chunks,
    xor_chunks,
)
from repro.graph.engine import LOCAL_DENSE_FAST_PATH_MAX
from repro.graph.vertexset import VertexIndexer, iter_bits

Vertex = Hashable
Attribute = Hashable

_CHUNK_MASK = (1 << CHUNK_BITS) - 1


def _count(chunks: Chunks) -> int:
    return sum(map(int.bit_count, chunks.values()))


class SparseBitset:
    """An immutable set of non-negative ints stored in chunked containers.

    Supports the operators the mining stack applies to raw int masks
    (``& | ^``, ``bit_count``, ``bool``, ascending iteration) plus the
    explicit :meth:`andnot` difference — chunked containers have no cheap
    infinite complement, so ``~`` is intentionally absent.

    Examples
    --------
    >>> a = SparseBitset.from_iterable([1, 2, 70000])
    >>> b = SparseBitset.from_iterable([2, 70000, 90000])
    >>> sorted(a & b)
    [2, 70000]
    >>> (a | b).bit_count()
    4
    """

    __slots__ = ("_chunks", "_count")

    def __init__(self, chunks: Optional[Chunks] = None) -> None:
        self._chunks: Chunks = chunks if chunks is not None else {}
        self._count = _count(self._chunks)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_iterable(cls, ids: Iterable[int]) -> "SparseBitset":
        """Build a set from arbitrary (possibly unsorted, repeated) ids."""
        raw: Chunks = {}
        for value in ids:
            raw[value // CHUNK_BITS] = raw.get(value // CHUNK_BITS, 0) | (
                1 << (value % CHUNK_BITS)
            )
        return cls(raw)

    @classmethod
    def from_chunk_bits(cls, raw: Chunks) -> "SparseBitset":
        """Build a set from raw per-chunk bitmaps ``{chunk: bits}``.

        This is the constructor the streaming ingest accumulators use:
        they collect plain chunk→bitmap dictionaries while a file is being
        read.  Chunks whose bitmap is 0 are dropped.
        """
        return cls({chunk: bits for chunk, bits in raw.items() if bits})

    @classmethod
    def from_mask(cls, mask: int) -> "SparseBitset":
        """Build a set from a dense int mask (bit position = id)."""
        chunks: Chunks = {}
        chunk = 0
        while mask:
            bits = mask & _CHUNK_MASK
            if bits:
                chunks[chunk] = bits
            mask >>= CHUNK_BITS
            chunk += 1
        return cls(chunks)

    def to_mask(self) -> int:
        """Dense int mask with exactly this set's bits (interop/testing)."""
        mask = 0
        for chunk, bits in self._chunks.items():
            mask |= bits << (chunk * CHUNK_BITS)
        return mask

    # -- int-mask-compatible surface ------------------------------------
    def bit_count(self) -> int:
        """Cardinality — name mirrors ``int.bit_count`` so natives swap."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count != 0

    def __iter__(self) -> Iterator[int]:
        """Yield member ids in ascending order."""
        chunks = self._chunks
        for chunk in sorted(chunks):
            base = chunk * CHUNK_BITS
            for offset in iter_bits(chunks[chunk]):
                yield base + offset

    def __contains__(self, value: int) -> bool:
        bits = self._chunks.get(value // CHUNK_BITS, 0)
        return (bits >> (value % CHUNK_BITS)) & 1 == 1

    # -- algebra --------------------------------------------------------
    def __and__(self, other: "SparseBitset") -> "SparseBitset":
        if not isinstance(other, SparseBitset):
            return NotImplemented
        return SparseBitset(and_chunks(self._chunks, other._chunks))

    def __or__(self, other: "SparseBitset") -> "SparseBitset":
        if not isinstance(other, SparseBitset):
            return NotImplemented
        return SparseBitset(or_chunks(self._chunks, other._chunks))

    def __xor__(self, other: "SparseBitset") -> "SparseBitset":
        if not isinstance(other, SparseBitset):
            return NotImplemented
        return SparseBitset(xor_chunks(self._chunks, other._chunks))

    def andnot(self, other: "SparseBitset") -> "SparseBitset":
        """Set difference ``self \\ other`` (the chunked twin of ``a & ~b``)."""
        if not isinstance(other, SparseBitset):
            raise TypeError(
                f"andnot expects a SparseBitset, got {type(other).__name__}"
            )
        return SparseBitset(andnot_chunks(self._chunks, other._chunks))

    def __sub__(self, other: object) -> "SparseBitset":
        if not isinstance(other, SparseBitset):
            return NotImplemented
        return self.andnot(other)

    def intersection_count(self, other: "SparseBitset") -> int:
        """``|self ∩ other|`` without materialising the intersection."""
        return intersection_count(self._chunks, other._chunks)

    def isdisjoint(self, other: "SparseBitset") -> bool:
        """``True`` when the two sets share no element."""
        return isdisjoint(self._chunks, other._chunks)

    def issubset(self, other: "SparseBitset") -> bool:
        """``True`` when every element of ``self`` is in ``other``."""
        return issubset(self._chunks, other._chunks)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseBitset):
            return self._chunks == other._chunks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._chunks.items()))

    def nbytes(self) -> int:
        """Estimated heap footprint of this container in bytes."""
        total = sys.getsizeof(self) + sys.getsizeof(self._chunks)
        for chunk, bits in self._chunks.items():
            total += sys.getsizeof(chunk) + sys.getsizeof(bits)
        return total

    def __getstate__(self):
        # The cardinality is recomputable; only the chunk dictionary needs
        # to travel through the parallel transfer layer.
        return self._chunks

    def __setstate__(self, state) -> None:
        self._chunks = state
        self._count = _count(state)

    def __repr__(self) -> str:
        preview = []
        for value in self:
            if len(preview) == 8:
                preview.append("...")
                break
            preview.append(str(value))
        return f"SparseBitset({{{', '.join(preview)}}}, n={self._count})"


_EMPTY = SparseBitset()


class SparseVertexBitset:
    """Indexer-bound view of a :class:`SparseBitset` — sparse twin of
    :class:`~repro.graph.vertexset.VertexBitset`.

    Behaves like a ``frozenset`` of vertices for the operations the miners
    use; binary operators require both operands bound to the *same*
    :class:`~repro.graph.vertexset.VertexIndexer` and raise
    :class:`repro.errors.IndexerMismatchError` otherwise, exactly like the
    dense view.
    """

    __slots__ = ("indexer", "chunks")

    def __init__(self, indexer: VertexIndexer, chunks: SparseBitset) -> None:
        self.indexer = indexer
        self.chunks = chunks

    @classmethod
    def from_vertices(
        cls, indexer: VertexIndexer, vertices: Iterable[Vertex]
    ) -> "SparseVertexBitset":
        """Build a sparse bitset from an iterable of (known) vertices."""
        return cls(
            indexer,
            SparseBitset.from_iterable(indexer.id_of(v) for v in vertices),
        )

    # -- set protocol ---------------------------------------------------
    def __len__(self) -> int:
        return self.chunks.bit_count()

    def __bool__(self) -> bool:
        return bool(self.chunks)

    def __iter__(self) -> Iterator[Vertex]:
        vertex_of = self.indexer.vertex_of
        return (vertex_of(i) for i in self.chunks)

    def __contains__(self, vertex: Vertex) -> bool:
        index = self.indexer._ids.get(vertex)
        return index is not None and index in self.chunks

    def _coerce(self, other: object, operation: str) -> SparseBitset:
        if isinstance(other, SparseVertexBitset):
            if other.indexer is not self.indexer:
                raise IndexerMismatchError(operation)
            return other.chunks
        if isinstance(other, SparseBitset):
            return other
        return NotImplemented  # type: ignore[return-value]

    def __and__(self, other: object) -> "SparseVertexBitset":
        chunks = self._coerce(other, "intersect")
        if chunks is NotImplemented:
            return NotImplemented
        return SparseVertexBitset(self.indexer, self.chunks & chunks)

    def __or__(self, other: object) -> "SparseVertexBitset":
        chunks = self._coerce(other, "union")
        if chunks is NotImplemented:
            return NotImplemented
        return SparseVertexBitset(self.indexer, self.chunks | chunks)

    def __sub__(self, other: object) -> "SparseVertexBitset":
        chunks = self._coerce(other, "subtract")
        if chunks is NotImplemented:
            return NotImplemented
        return SparseVertexBitset(self.indexer, self.chunks.andnot(chunks))

    def __xor__(self, other: object) -> "SparseVertexBitset":
        chunks = self._coerce(other, "xor")
        if chunks is NotImplemented:
            return NotImplemented
        return SparseVertexBitset(self.indexer, self.chunks ^ chunks)

    __rand__ = __and__
    __ror__ = __or__

    def __le__(self, other: object) -> bool:
        chunks = self._coerce(other, "order-compare")
        if chunks is NotImplemented:
            return NotImplemented
        return self.chunks.issubset(chunks)

    def __lt__(self, other: object) -> bool:
        chunks = self._coerce(other, "order-compare")
        if chunks is NotImplemented:
            return NotImplemented
        return self.chunks != chunks and self.chunks.issubset(chunks)

    def __ge__(self, other: object) -> bool:
        chunks = self._coerce(other, "order-compare")
        if chunks is NotImplemented:
            return NotImplemented
        return chunks.issubset(self.chunks)

    def __gt__(self, other: object) -> bool:
        chunks = self._coerce(other, "order-compare")
        if chunks is NotImplemented:
            return NotImplemented
        return self.chunks != chunks and chunks.issubset(self.chunks)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseVertexBitset):
            if other.indexer is not self.indexer:
                raise IndexerMismatchError("compare")
            return self.chunks == other.chunks
        if isinstance(other, (set, frozenset)):
            return self.to_frozenset() == other
        return NotImplemented

    def __hash__(self) -> int:
        # Content-based, like the dense view: the eq/hash contract holds
        # within one indexer and with plain frozensets; mixed-indexer
        # hash-container lookups propagate IndexerMismatchError from __eq__.
        return hash(self.to_frozenset())

    def _coerce_vertices(self, other) -> SparseBitset:
        """Coerce a view, container, or vertex iterable to a container.

        Vertices unknown to the indexer are dropped: they cannot be in
        ``self``, so subset/disjointness answers are unaffected.
        """
        chunks = self._coerce(other, "combine")
        if chunks is NotImplemented:
            ids = self.indexer._ids
            known = (ids.get(v) for v in other)
            return SparseBitset.from_iterable(i for i in known if i is not None)
        return chunks

    def isdisjoint(self, other) -> bool:
        """``True`` when the two sets share no vertex (iterables accepted)."""
        return self.chunks.isdisjoint(self._coerce_vertices(other))

    def issubset(self, other) -> bool:
        """``True`` when every vertex of ``self`` is in ``other``."""
        return self.chunks.issubset(self._coerce_vertices(other))

    # -- conversions ----------------------------------------------------
    def to_frozenset(self) -> FrozenSet[Vertex]:
        """Materialise the plain ``frozenset`` (public-API boundary)."""
        vertex_of = self.indexer.vertex_of
        return frozenset(vertex_of(i) for i in self.chunks)

    def __repr__(self) -> str:
        preview = sorted(map(repr, self))
        if len(preview) > 8:
            preview = preview[:8] + ["..."]
        return f"SparseVertexBitset({{{', '.join(preview)}}})"


class SparseGraphBitsetIndex:
    """Chunked-container view of an attributed graph.

    The sparse implementation of the
    :class:`repro.graph.engine.VertexSetEngine` contract: the indexer plus
    one :class:`SparseBitset` adjacency container per vertex and one holder
    container per attribute.  Memory is proportional to ``|V| + |E| +
    Σ|V(a)|`` — edges and attribute incidences, never |V|².
    """

    __slots__ = ("indexer", "adjacency_sets", "attribute_masks", "_full")

    def __init__(
        self,
        indexer: VertexIndexer,
        adjacency_sets: List[SparseBitset],
        attribute_masks: Dict[Attribute, SparseBitset],
    ) -> None:
        self.indexer = indexer
        self.adjacency_sets = adjacency_sets
        self.attribute_masks = attribute_masks
        self._full: Optional[SparseBitset] = None

    @classmethod
    def build(cls, graph) -> "SparseGraphBitsetIndex":
        """Build the index from any graph exposing the AttributedGraph API."""
        indexer = VertexIndexer(graph.vertices())
        id_of = indexer.id_of
        adjacency_sets = [
            SparseBitset.from_iterable(
                id_of(u) for u in graph.neighbor_set(vertex)
            )
            for vertex in indexer
        ]
        attribute_masks = {
            attribute: SparseBitset.from_iterable(
                id_of(v) for v in graph.vertices_with(attribute)
            )
            for attribute in graph.attributes()
        }
        return cls(indexer, adjacency_sets, attribute_masks)

    # -- VertexSetEngine surface ----------------------------------------
    @property
    def full_mask(self) -> SparseBitset:
        """Container of the whole vertex set ``V`` (built lazily, cached)."""
        if self._full is None:
            self._full = SparseBitset.from_iterable(range(len(self.indexer)))
        return self._full

    def adjacency_mask(self, vertex: Vertex) -> SparseBitset:
        """Neighbour container of ``vertex``."""
        return self.adjacency_sets[self.indexer.id_of(vertex)]

    def attribute_mask(self, attribute: Attribute) -> SparseBitset:
        """Holder container of ``attribute`` (empty when no vertex has it)."""
        return self.attribute_masks.get(attribute, _EMPTY)

    def members_mask(self, attributes: Iterable[Attribute]) -> SparseBitset:
        """Container of ``V(S)`` — vertices carrying *every* attribute of S.

        Mirrors :meth:`AttributedGraph.vertices_with_all`: the empty
        attribute set induces the full vertex set.
        """
        containers = [self.attribute_masks.get(a, _EMPTY) for a in attributes]
        if not containers:
            return self.full_mask
        containers.sort(key=len)
        result = containers[0]
        for container in containers[1:]:
            result &= container
            if not result:
                break
        return result

    def bitset(self, native: Union[SparseBitset, int]) -> SparseVertexBitset:
        """Wrap a native container (or a dense int mask) into a view."""
        if isinstance(native, int):
            native = SparseBitset.from_mask(native)
        return SparseVertexBitset(self.indexer, native)

    def working_mask(
        self, vertices: Union[SparseVertexBitset, Iterable[Vertex], None]
    ) -> SparseBitset:
        """Normalise a vertex restriction to a container over this index.

        ``None`` means the whole graph; a :class:`SparseVertexBitset` bound
        to the same indexer is used verbatim (zero-copy); any other iterable
        is converted, silently dropping vertices not in the graph (matching
        the dense engine and the historical ``vertices=`` filter).
        """
        if vertices is None:
            return self.full_mask
        if (
            isinstance(vertices, SparseVertexBitset)
            and vertices.indexer is self.indexer
        ):
            return vertices.chunks
        ids = self.indexer._ids
        known = (ids.get(v) for v in vertices)
        return SparseBitset.from_iterable(i for i in known if i is not None)

    def native_from_ids(self, ids: Iterable[int]) -> SparseBitset:
        """Build a native container from dense vertex ids."""
        return SparseBitset.from_iterable(ids)

    def local_adjacency(
        self, working: Union[SparseBitset, int], min_degree: int = 0
    ) -> Tuple[List[int], List[int]]:
        """Dense local masks over the working set — see the engine protocol.

        This is the single place the sparse engine materialises dense
        masks, and they live in the local id space of one quasi-clique
        search, whose width is the working set (typically ``V(S)``), not
        |V|.  When ``min_degree > 0`` the iterative sparse low-degree
        pre-pass (:func:`repro.quasiclique.pruning.prune_low_degree_sparse`)
        drops hopeless vertices *before* any dense mask exists; the
        fixpoint is unique, so the caller's own pruning sees identical
        survivors and degrees and the mined output is byte-identical to the
        dense engine's.  Working sets up to
        :data:`repro.graph.engine.LOCAL_DENSE_FAST_PATH_MAX` vertices
        skip the container algebra (and the pre-pass) entirely — see the
        fast path below.
        """
        if isinstance(working, int):
            working = SparseBitset.from_mask(working)
        adjacency_sets = self.adjacency_sets
        if working.bit_count() <= LOCAL_DENSE_FAST_PATH_MAX:
            # Small working set: chunk-wise container intersections (and
            # the sparse low-degree pre-pass) cost more than the dense
            # masks they feed.  Project each vertex's raw neighbour list
            # against a position table instead; skipping the pre-pass is
            # sound because the caller prunes to the same unique fixpoint
            # on the dense masks (see prune_low_degree_sparse).
            global_ids = list(working)
            position = {g: i for i, g in enumerate(global_ids)}
            masks = []
            for g in global_ids:
                local = 0
                for h in adjacency_sets[g]:
                    offset = position.get(h)
                    if offset is not None:
                        local |= 1 << offset
                masks.append(local)
            return global_ids, masks
        restricted = {g: adjacency_sets[g] & working for g in working}
        if min_degree > 0:
            from repro.quasiclique.pruning import prune_low_degree_sparse

            global_ids = prune_low_degree_sparse(restricted, min_degree)
        else:
            global_ids = sorted(restricted)
        position = {g: i for i, g in enumerate(global_ids)}
        masks: List[int] = []
        for g in global_ids:
            local = 0
            for h in restricted[g]:
                offset = position.get(h)
                if offset is not None:
                    local |= 1 << offset
            masks.append(local)
        return global_ids, masks

    # -- evolution (see repro.graph.evolve) -----------------------------
    def apply_edge_batch(self, edits) -> "DeltaReport":
        """Apply a batch of :class:`~repro.graph.evolve.EdgeEdit`\\ s.

        Containers are replaced, never mutated, so outstanding references
        (memo keys, candidate natives) keep their pre-edit snapshot; see
        :func:`repro.graph.evolve.apply_edge_batch` for the contract and
        the returned :class:`~repro.graph.evolve.DeltaReport`.
        """
        from repro.graph.evolve import apply_edge_batch

        return apply_edge_batch(self, edits)

    def apply_attribute_batch(self, edits) -> "DeltaReport":
        """Apply a batch of :class:`~repro.graph.evolve.AttributeEdit`\\ s."""
        from repro.graph.evolve import apply_attribute_batch

        return apply_attribute_batch(self, edits)

    def nbytes(self) -> int:
        """Estimated memory footprint of the adjacency + attribute payload."""
        total = sum(container.nbytes() for container in self.adjacency_sets)
        total += sum(
            container.nbytes() for container in self.attribute_masks.values()
        )
        total += sys.getsizeof(self.adjacency_sets)
        total += sys.getsizeof(self.attribute_masks)
        return total

    def __getstate__(self):
        # Serialization hook for the parallel transfer layer — see
        # GraphBitsetIndex.__getstate__.  The lazy full-universe container
        # is recomputable and stays local to each process.
        return (self.indexer, self.adjacency_sets, self.attribute_masks)

    def __setstate__(self, state) -> None:
        self.indexer, self.adjacency_sets, self.attribute_masks = state
        self._full = None


__all__ = [
    "CHUNK_BITS",
    "SparseBitset",
    "SparseGraphBitsetIndex",
    "SparseVertexBitset",
]
