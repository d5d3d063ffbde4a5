"""Vertex-set engine selection — the seam between dense and sparse indexes.

The mining stack runs on a per-graph *vertex-set index*: the bijection
between vertices and dense integer ids plus per-vertex adjacency and
per-attribute holder sets in some machine representation.  Two engines
implement that contract:

* ``"dense"`` — :class:`repro.graph.vertexset.GraphBitsetIndex`.  One
  full-width int mask per vertex: O(|V|²/8) bytes regardless of sparsity,
  the faster engine while that stays small (below
  :data:`SPARSE_VERTEX_THRESHOLD` vertices) or the graph is dense.
* ``"sparse"`` — :class:`repro.graph.sparseset.SparseGraphBitsetIndex`.
  Chunked containers (:class:`repro.graph.sparseset.SparseBitset`, one
  1024-bit int bitmap per non-empty block, chunk algebra in
  :mod:`repro.graph.chunkops`): memory tracks *edges*, not |V|², so
  million-vertex sparse graphs fit.

``"auto"`` (the default everywhere) picks per graph: dense while the dense
index stays cheap (small |V|) or the graph is dense enough that most
chunks would be populated anyway; sparse otherwise.  Every public
entry point of the miners accepts an ``engine`` argument and threads it down
to :meth:`repro.graph.attributed_graph.AttributedGraph.bitset_index`, and
both engines produce byte-identical :class:`~repro.correlation.patterns.MiningResult`
output (enforced by the differential suite in
``tests/graph/test_sparse_differential.py``).

:class:`VertexSetEngine` is the structural protocol both index classes
satisfy; code that consumes an index should depend on it, not on a concrete
class.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import EngineError

Vertex = Hashable
Attribute = Hashable

DENSE = "dense"
SPARSE = "sparse"
AUTO = "auto"
ENGINES = (DENSE, SPARSE, AUTO)

#: Below this vertex count the dense index costs at most a few MB and its
#: constant factors win; ``auto`` never picks sparse under it.
SPARSE_VERTEX_THRESHOLD = 8192

#: Edge density ``|E| / (|V| choose 2)`` at (or above) which a big graph is
#: treated as dense anyway: most 1024-bit chunks would be populated, so the
#: chunked containers only add overhead.
SPARSE_DENSITY_THRESHOLD = 1.0 / 64.0

#: Working sets at or below this size take the dense fast path inside the
#: sparse engine's ``local_adjacency``: the dense local masks being built
#: are tiny, so per-chunk container intersections and the chunked
#: low-degree pre-pass cost more than they save — the projection walks
#: plain neighbour ids against a position table instead, and the caller's
#: own dense pruning reaches the identical fixpoint.
LOCAL_DENSE_FAST_PATH_MAX = 2048


def resolve_engine(engine: str, num_vertices: int, num_edges: int) -> str:
    """Resolve an engine request to ``"dense"`` or ``"sparse"``.

    ``"auto"`` chooses by graph shape: dense below
    :data:`SPARSE_VERTEX_THRESHOLD` vertices or at edge density ≥
    :data:`SPARSE_DENSITY_THRESHOLD`, sparse for the remaining big-and-sparse
    graphs.  Unknown names raise :class:`repro.errors.EngineError`.
    """
    if engine not in ENGINES:
        raise EngineError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    if engine != AUTO:
        return engine
    if num_vertices < SPARSE_VERTEX_THRESHOLD:
        return DENSE
    possible = num_vertices * (num_vertices - 1) / 2.0
    density = num_edges / possible if possible else 0.0
    return SPARSE if density < SPARSE_DENSITY_THRESHOLD else DENSE


@runtime_checkable
class VertexSetEngine(Protocol):
    """Structural contract of a per-graph vertex-set index.

    *Native* sets are the engine's raw representation — int masks for the
    dense engine, :class:`~repro.graph.sparseset.SparseBitset` containers
    for the sparse one.  Natives of one engine support ``&``, ``|``,
    ``bit_count()`` and truth testing among themselves, so the callers in
    :mod:`repro.correlation.structural` stay engine-agnostic; ``bitset()``
    wraps a native into the engine's set-protocol view for code written
    against ``frozenset``.
    """

    indexer: Any
    attribute_masks: Dict[Attribute, Any]

    @property
    def full_mask(self) -> Any:
        """Native set of the whole vertex universe ``V``."""
        ...

    def adjacency_mask(self, vertex: Vertex) -> Any:
        """Native neighbour set of ``vertex``."""
        ...

    def attribute_mask(self, attribute: Attribute) -> Any:
        """Native holder set of ``attribute`` (empty when unknown)."""
        ...

    def members_mask(self, attributes: Iterable[Attribute]) -> Any:
        """Native ``V(S)`` — vertices carrying every attribute of ``S``."""
        ...

    def bitset(self, native: Any) -> Any:
        """Wrap a native set into the engine's set-protocol view."""
        ...

    def working_mask(self, vertices: Any) -> Any:
        """Normalise a vertex restriction (``None``/iterable/view) to a native."""
        ...

    def native_from_ids(self, ids: Iterable[int]) -> Any:
        """Build a native set from dense vertex ids."""
        ...

    def local_adjacency(
        self, working: Any, min_degree: int = 0
    ) -> Tuple[List[int], List[int]]:
        """Project adjacency into a compact local id space over ``working``.

        Returns ``(global_ids, local_masks)``: the (ascending) dense ids of
        the working vertices and, for each, its neighbour set within the
        working set as a plain int mask over *positions in global_ids* —
        the only place a dense representation is ever materialised on the
        sparse engine, and it is bounded by one search's working set, not
        |V|.  Engines may use ``min_degree`` to pre-drop vertices whose
        working degree provably stays below it (the quasi-clique search
        passes ``params.base_degree_threshold``); the caller must therefore
        apply its own pruning to a fixpoint afterwards, which the search
        already does.
        """
        ...

    def nbytes(self) -> int:
        """Estimated memory footprint of the index payload in bytes."""
        ...


def dense_index_payload_bytes(num_vertices: int) -> int:
    """Bytes the dense engine's adjacency masks occupy at ``num_vertices``.

    One full-width int per vertex, measured with ``sys.getsizeof`` on an
    actual |V|-bit int so CPython's per-object overhead is included.  Used
    by the memory regression tests and benchmarks as the quadratic baseline
    the sparse engine is compared against (building the real dense index at
    100k vertices would itself cost > 1 GB).
    """
    import sys

    return num_vertices * sys.getsizeof((1 << num_vertices) - 1)


__all__ = [
    "AUTO",
    "DENSE",
    "ENGINES",
    "LOCAL_DENSE_FAST_PATH_MAX",
    "SPARSE",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_VERTEX_THRESHOLD",
    "VertexSetEngine",
    "dense_index_payload_bytes",
    "resolve_engine",
]
