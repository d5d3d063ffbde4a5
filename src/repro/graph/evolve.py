"""Batched evolution of sparse graph indexes — the write path of
incremental mining.

A mined graph rarely stays still: edges arrive and disappear, vertices
gain and lose attributes.  Rebuilding the
:class:`~repro.graph.sparseset.SparseGraphBitsetIndex` (or the whole
hashed graph) for every batch would cost O(|V| + |E|) per update no
matter how small the batch.  This module applies an **edit batch**
directly to an existing sparse index and reports exactly which
:data:`~repro.graph.sparseset.CHUNK_BITS`-wide id blocks it touched:

* :class:`EdgeEdit` / :class:`AttributeEdit` — one undirected edge or one
  (vertex, attribute) incidence, added or removed.
* :func:`apply_edge_batch` / :func:`apply_attribute_batch` — fold a batch
  into the index.  Containers are **copied on write**, never mutated:
  :class:`~repro.graph.sparseset.SparseBitset` is immutable and hashable,
  and live references (coverage-memo keys, candidate natives, tidset
  views) may alias the index's own containers — replacing the container
  object keeps every outstanding reference a consistent snapshot of the
  pre-edit graph.
* :class:`DeltaReport` — the summary consumed by the delta re-evaluation
  pass (:mod:`repro.quasiclique.delta`,
  :mod:`repro.correlation.incremental`): the set of touched chunk ids,
  the attributes whose holder sets changed, and edit counts.

Touched chunks are a *conservative* footprint: an edge edit ``(u, v)``
marks the chunks of both endpoint ids — any working set disjoint from
both chunks has an unchanged induced subgraph, because every adjacency
container changed only at the bits of ``u`` and ``v``.  An attribute
edit marks the chunk of the edited vertex *and* records the attribute
name; removals need the name because the post-edit holder set may no
longer intersect the touched chunk at all.

Batches are idempotent per edit: adding an existing edge (or removing an
absent one) is a no-op that touches nothing, matching the duplicate-edge
semantics of :class:`~repro.graph.attributed_graph.AttributedGraph` and
the streaming builder.  New vertices are registered in first-seen order,
exactly as an :class:`AttributedGraph` replaying the same edit script
would assign them — the id spaces stay aligned, which is what the
delta-vs-full differential harness (``tests/evolve/``) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Tuple,
)

from repro.errors import FormatError, GraphError
from repro.graph.io import PathLike, READ_BUFFER_BYTES, parse_vertex_token
from repro.graph.sparseset import (
    CHUNK_BITS,
    SparseBitset,
    SparseGraphBitsetIndex,
)

Vertex = Hashable
Attribute = Hashable


@dataclass(frozen=True)
class EdgeEdit:
    """One undirected edge to add (``add=True``) or remove."""

    u: Vertex
    v: Vertex
    add: bool = True


@dataclass(frozen=True)
class AttributeEdit:
    """One (vertex, attribute) incidence to add or remove."""

    vertex: Vertex
    attribute: Attribute
    add: bool = True


@dataclass(frozen=True)
class DeltaReport:
    """Footprint of one edit batch over a sparse index.

    ``touched_chunks`` holds the ids of every CHUNK_BITS-wide block in
    which some adjacency or holder bit changed; any vertex set whose
    members avoid all touched chunks saw neither its induced subgraph
    nor its membership change.  ``edited_attributes`` lists the
    attributes whose holder containers were replaced — needed on top of
    the chunks because removing an attribute's last holder in a chunk
    leaves a *new* holder set that no longer intersects it.
    """

    touched_chunks: FrozenSet[int] = frozenset()
    edited_attributes: FrozenSet[Attribute] = frozenset()
    edges_added: int = 0
    edges_removed: int = 0
    attributes_added: int = 0
    attributes_removed: int = 0
    vertices_added: int = 0

    @property
    def structural_change(self) -> bool:
        """Did |V| or the edge multiset change (degree distribution)?

        Null models are functions of the degree structure, so the delta
        pass must rebuild them exactly when this is true.
        """
        return bool(self.edges_added or self.edges_removed or self.vertices_added)

    @property
    def empty(self) -> bool:
        """``True`` when the batch changed nothing at all."""
        return not (
            self.touched_chunks
            or self.edited_attributes
            or self.vertices_added
        )

    def merge(self, other: "DeltaReport") -> "DeltaReport":
        """Union of two consecutive reports over the same index."""
        return DeltaReport(
            touched_chunks=self.touched_chunks | other.touched_chunks,
            edited_attributes=self.edited_attributes | other.edited_attributes,
            edges_added=self.edges_added + other.edges_added,
            edges_removed=self.edges_removed + other.edges_removed,
            attributes_added=self.attributes_added + other.attributes_added,
            attributes_removed=self.attributes_removed + other.attributes_removed,
            vertices_added=self.vertices_added + other.vertices_added,
        )


# ----------------------------------------------------------------------
# copy-on-write container edits
# ----------------------------------------------------------------------
def _set_bit(container: SparseBitset, value: int) -> Tuple[SparseBitset, bool]:
    """Return ``(container | {value}, changed)`` without mutating input."""
    chunk, offset = divmod(value, CHUNK_BITS)
    bits = container._chunks.get(chunk, 0)
    if (bits >> offset) & 1:
        return container, False
    chunks = dict(container._chunks)
    chunks[chunk] = bits | (1 << offset)
    return SparseBitset(chunks), True


def _clear_bit(container: SparseBitset, value: int) -> Tuple[SparseBitset, bool]:
    """Return ``(container - {value}, changed)`` without mutating input."""
    chunk, offset = divmod(value, CHUNK_BITS)
    bits = container._chunks.get(chunk, 0)
    if not (bits >> offset) & 1:
        return container, False
    bits &= ~(1 << offset)
    chunks = dict(container._chunks)
    if bits:
        chunks[chunk] = bits
    else:
        del chunks[chunk]
    return SparseBitset(chunks), True


def _ensure_vertex(index: SparseGraphBitsetIndex, vertex: Vertex) -> Tuple[int, bool]:
    """Register ``vertex`` if new; return ``(id, was_new)``.

    A new vertex appends an empty adjacency container and invalidates the
    cached full-universe mask, which no longer covers it.
    """
    indexer = index.indexer
    before = len(indexer)
    vid = indexer.add(vertex)
    if vid == before:
        index.adjacency_sets.append(SparseBitset())
        index._full = None
        return vid, True
    return vid, False


# ----------------------------------------------------------------------
# batch application
# ----------------------------------------------------------------------
def apply_edge_batch(
    index: SparseGraphBitsetIndex, edits: Iterable[EdgeEdit]
) -> DeltaReport:
    """Apply edge edits to ``index`` in order; return the touched footprint.

    Additions register unknown endpoints (first-seen id order); removals
    of unknown endpoints or absent edges are no-ops.  Self-loops raise
    :class:`~repro.errors.GraphError` like every other construction path.
    """
    touched = set()
    added = removed = new_vertices = 0
    indexer = index.indexer
    adjacency = index.adjacency_sets
    for edit in edits:
        if edit.u == edit.v:
            raise GraphError(f"self-loop on vertex {edit.u!r} is not allowed")
        if edit.add:
            uid, u_new = _ensure_vertex(index, edit.u)
            vid, v_new = _ensure_vertex(index, edit.v)
            new_vertices += u_new + v_new
            forward, changed = _set_bit(adjacency[uid], vid)
            if not changed:
                continue
            adjacency[uid] = forward
            adjacency[vid], _ = _set_bit(adjacency[vid], uid)
            added += 1
        else:
            if edit.u not in indexer or edit.v not in indexer:
                continue
            uid, vid = indexer.id_of(edit.u), indexer.id_of(edit.v)
            forward, changed = _clear_bit(adjacency[uid], vid)
            if not changed:
                continue
            adjacency[uid] = forward
            adjacency[vid], _ = _clear_bit(adjacency[vid], uid)
            removed += 1
        touched.add(uid // CHUNK_BITS)
        touched.add(vid // CHUNK_BITS)
    return DeltaReport(
        touched_chunks=frozenset(touched),
        edges_added=added,
        edges_removed=removed,
        vertices_added=new_vertices,
    )


def apply_attribute_batch(
    index: SparseGraphBitsetIndex, edits: Iterable[AttributeEdit]
) -> DeltaReport:
    """Apply attribute edits to ``index`` in order; return the footprint.

    An attribute whose last holder is removed disappears from
    ``attribute_masks`` entirely, matching the ``AttributedGraph``
    convention that the attribute universe is "attributes on some
    vertex"; a later re-add re-registers it (at the end of the dict,
    which is invisible to mining — frequent-item order is sorted, not
    insertion order).
    """
    touched = set()
    added = removed = new_vertices = 0
    edited = set()
    indexer = index.indexer
    masks = index.attribute_masks
    for edit in edits:
        if edit.add:
            vid, was_new = _ensure_vertex(index, edit.vertex)
            new_vertices += was_new
            container = masks.get(edit.attribute)
            if container is None:
                container = SparseBitset()
            holders, changed = _set_bit(container, vid)
            if not changed:
                continue
            masks[edit.attribute] = holders
            added += 1
        else:
            if edit.vertex not in indexer:
                continue
            container = masks.get(edit.attribute)
            if container is None:
                continue
            vid = indexer.id_of(edit.vertex)
            holders, changed = _clear_bit(container, vid)
            if not changed:
                continue
            if holders:
                masks[edit.attribute] = holders
            else:
                del masks[edit.attribute]
            removed += 1
        touched.add(vid // CHUNK_BITS)
        edited.add(edit.attribute)
    return DeltaReport(
        touched_chunks=frozenset(touched),
        edited_attributes=frozenset(edited),
        attributes_added=added,
        attributes_removed=removed,
        vertices_added=new_vertices,
    )


# ----------------------------------------------------------------------
# edit-script files (the `scpm update` grammar)
# ----------------------------------------------------------------------
_EDIT_OPS = {"add": True, "remove": False}


def _iter_edit_lines(path: PathLike):
    with open(path, "r", encoding="utf-8", buffering=READ_BUFFER_BYTES) as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield number, line.split()


def read_edge_edits(path: PathLike) -> List[EdgeEdit]:
    """Parse an edge edit script: ``add u v`` / ``remove u v`` per line.

    Comments (``#``) and blank lines are skipped; vertex tokens follow
    :func:`repro.graph.io.parse_vertex_token` (int when possible), the
    single token rule of every graph file in this repository.
    """
    edits: List[EdgeEdit] = []
    for number, parts in _iter_edit_lines(path):
        if len(parts) != 3 or parts[0] not in _EDIT_OPS:
            raise FormatError(
                f"{path}:{number}: expected 'add u v' or 'remove u v', "
                f"got {' '.join(parts)!r}"
            )
        edits.append(
            EdgeEdit(
                u=parse_vertex_token(parts[1]),
                v=parse_vertex_token(parts[2]),
                add=_EDIT_OPS[parts[0]],
            )
        )
    return edits


def read_attribute_edits(path: PathLike) -> List[AttributeEdit]:
    """Parse an attribute edit script: ``add v attr`` / ``remove v attr``.

    Attribute tokens stay strings, matching the attribute-file grammar.
    """
    edits: List[AttributeEdit] = []
    for number, parts in _iter_edit_lines(path):
        if len(parts) != 3 or parts[0] not in _EDIT_OPS:
            raise FormatError(
                f"{path}:{number}: expected 'add vertex attribute' or "
                f"'remove vertex attribute', got {' '.join(parts)!r}"
            )
        edits.append(
            AttributeEdit(
                vertex=parse_vertex_token(parts[1]),
                attribute=parts[2],
                add=_EDIT_OPS[parts[0]],
            )
        )
    return edits


__all__ = [
    "AttributeEdit",
    "DeltaReport",
    "EdgeEdit",
    "apply_attribute_batch",
    "apply_edge_batch",
    "read_attribute_edits",
    "read_edge_edits",
]
