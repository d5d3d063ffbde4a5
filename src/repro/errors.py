"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  The subclasses map to the layers of the
system: graph construction, mining parameters, and data loading.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised when an attributed graph is constructed or used incorrectly."""


class UnknownVertexError(GraphError, KeyError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class UnknownAttributeError(GraphError, KeyError):
    """Raised when an operation references an attribute that no vertex carries."""

    def __init__(self, attribute: object) -> None:
        super().__init__(f"attribute {attribute!r} is not in the graph")
        self.attribute = attribute


class IndexerMismatchError(GraphError, ValueError):
    """Raised when two bitsets bound to *different* vertex indexers meet.

    Bit positions are only meaningful relative to one indexer; combining or
    comparing masks across indexers would silently misalign vertices, so
    every such operation raises instead.  Derives from :class:`ValueError`
    for backward compatibility with callers that caught the old untyped
    error.
    """

    def __init__(self, operation: str) -> None:
        super().__init__(
            f"cannot {operation} vertex sets bound to different indexers"
        )
        self.operation = operation


class StreamingError(GraphError):
    """Raised when a streamed graph handle is mutated or misused.

    :class:`repro.graph.streaming.StreamedGraphHandle` is an immutable,
    index-backed view — the mutating half of the
    :class:`~repro.graph.attributed_graph.AttributedGraph` API raises this
    instead of silently desynchronising the underlying sparse index.
    """


class ParameterError(ReproError, ValueError):
    """Raised when mining parameters are outside their valid domain."""


class EngineError(ParameterError):
    """Raised when an unknown vertex-set engine name is requested."""


class KernelCapacityError(ParameterError):
    """Raised when a working set exceeds a search-kernel backend's capacity.

    Every kernel backend bounds the local id space of one search: the
    big-int SWAR kernel by its 16-bit counter lanes
    (:data:`repro.quasiclique.kernel.KERNEL_MAX_VERTICES`), the numpy
    backend by the dtype its counter array uses (``uint8`` up to
    :data:`repro.quasiclique.kernel.NUMPY_UINT8_MAX_VERTICES` vertices,
    ``uint16`` up to the same 32767-vertex lane bound).  Every quasi-clique
    search runs on a kernel, so a working set beyond that bound makes
    :class:`~repro.quasiclique.search.QuasiCliqueSearch` construction raise
    this; there is no fallback loop.  The offending size, the limit and
    the backend are carried as attributes.
    """

    def __init__(self, working_set_size: int, limit: int, backend: str) -> None:
        super().__init__(
            f"the {backend} search kernel supports at most {limit} working "
            f"vertices, got {working_set_size} (per-dtype numpy limits: "
            f"uint8 lanes up to 127 vertices, uint16 lanes up to 32767)"
        )
        self.working_set_size = working_set_size
        self.limit = limit
        self.backend = backend


class DeltaError(ReproError):
    """Raised when the incremental mining layer is misused.

    Covers lifecycle mistakes of
    :class:`repro.correlation.incremental.IncrementalSCPM` — updating
    before the initial mine, or constructing it over a graph that does
    not support batched evolution (no ``apply_edge_batch``).
    """


class ParallelError(ReproError):
    """Raised when the parallel execution layer is misused or unavailable."""


class TransferError(ParallelError):
    """Raised when a worker payload cannot be transferred or attached."""


class PoisonTaskError(ParallelError):
    """Raised when tasks repeatedly killed their workers and were quarantined.

    The work-stealing scheduler re-executes tasks lost to a worker death a
    bounded number of times (see
    ``WorkStealingScheduler.max_task_retries``).  A task that keeps taking
    workers down with it is *poison* — retrying it forever would livelock
    the drain — so after the retry budget it is quarantined and, once every
    healthy task finished, the drain raises this error naming the culprits.
    Results of the healthy tasks are still available on
    ``scheduler.results``.
    """

    def __init__(self, keys) -> None:
        self.keys = tuple(keys)
        listed = ", ".join(sorted(repr(key) for key in self.keys))
        super().__init__(
            f"{len(self.keys)} task(s) repeatedly killed their worker and "
            f"were quarantined: {listed}"
        )


class FaultInjectionError(ReproError):
    """Raised when a fault-injection plan is malformed or misused.

    This is an error in the *test harness configuration* (unknown action,
    unknown error kind, unserialisable rule) — never one of the injected
    faults themselves, which raise the exception type the rule names.
    """


class StoreError(ReproError):
    """Raised when the persistent pattern store is misused or corrupt.

    Covers both halves of the persistence layer: writing
    (:mod:`repro.store` — unsupported value types, schema mismatches)
    and serving (:mod:`repro.serve` — opening a store that does not
    exist, referencing unknown runs or pattern ids).
    """


class QueryError(StoreError, ValueError):
    """Raised when a read-path query is malformed (bad mode, empty filter)."""


class PoolExhaustedError(StoreError):
    """Raised when no pooled reader became free within the lease timeout.

    The serving tier's load-shedding signal: a bounded
    :class:`~repro.serve.pool.ReaderPool` raises this instead of queueing
    a lease forever, and the HTTP front end maps it to ``503`` with a
    ``Retry-After`` header rather than letting requests pile up.
    """


class DeadlineExceededError(StoreError):
    """Raised when a request ran past its per-request deadline.

    Cooperative: the serving tier checks the deadline at its blocking
    points (handler entry, reader-lease acquisition) and sheds the request
    with ``503`` + ``Retry-After`` instead of serving a response nobody is
    still waiting for.
    """


class OverloadedError(StoreError):
    """Raised when the server already holds its maximum in-flight requests.

    The accept-queue-depth half of load shedding: past
    ``max_inflight`` concurrent requests the HTTP front end answers
    ``503`` + ``Retry-After`` immediately instead of spawning unbounded
    handler work.
    """


class NotFoundError(StoreError, LookupError):
    """Raised when a lookup names a run or pattern the store does not hold.

    Splits "you asked for something that is not there" from the rest of
    :class:`StoreError` ("the store itself is broken / misused"), so the
    serving front ends can map lookups onto their own error vocabulary —
    the HTTP tier answers 404 for this class and 500 for any other
    ``StoreError``.  Catching :class:`StoreError` still covers both.
    """


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated or parsed."""


class FormatError(DatasetError, ValueError):
    """Raised when a graph file does not follow the expected format."""
