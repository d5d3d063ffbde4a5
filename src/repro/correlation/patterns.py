"""Result containers for structural correlation pattern mining.

Three levels of result are produced by the miners:

* :class:`StructuralCorrelationPattern` — one pattern ``(S, Q)``;
* :class:`AttributeSetResult` — everything measured for one attribute set
  (support, ε, expected ε, δ, covered vertices, its patterns);
* :class:`MiningResult` — the full output of a mining run, with the ranking
  helpers used to rebuild the paper's Tables 2–4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

Attribute = Hashable
Vertex = Hashable


@dataclass(frozen=True)
class StructuralCorrelationPattern:
    """A structural correlation pattern ``(S, Q)`` (Definition 3).

    Attributes
    ----------
    attributes:
        The attribute set ``S`` (canonically ordered tuple).
    vertices:
        The quasi-clique ``Q`` inside ``G(S)``.
    gamma:
        The density of ``Q`` — ``min_v deg_Q(v) / (|Q|-1)`` — reported as the
        γ column in the paper's tables.
    """

    attributes: Tuple[Attribute, ...]
    vertices: FrozenSet[Vertex]
    gamma: float

    @property
    def size(self) -> int:
        """Number of vertices of the pattern."""
        return len(self.vertices)

    def sort_key(self) -> Tuple[int, float]:
        """Primary/secondary ranking key of Section 3.2.3 (size, density)."""
        return (self.size, self.gamma)

    def __str__(self) -> str:
        attrs = ", ".join(map(str, self.attributes))
        verts = ", ".join(sorted(map(str, self.vertices)))
        return f"({{{attrs}}}, {{{verts}}}) size={self.size} gamma={self.gamma:.2f}"


@dataclass(frozen=True)
class AttributeSetResult:
    """Everything the miners measure for one attribute set ``S``.

    ``patterns`` holds the (top-k or complete, depending on the algorithm)
    quasi-cliques of ``G(S)`` when the attribute set met the reporting
    thresholds, otherwise it is empty.
    """

    attributes: Tuple[Attribute, ...]
    support: int
    epsilon: float
    expected_epsilon: float
    delta: float
    covered_vertices: FrozenSet[Vertex]
    patterns: Tuple[StructuralCorrelationPattern, ...] = ()
    qualified: bool = False

    @property
    def size(self) -> int:
        """Number of attributes in the set."""
        return len(self.attributes)

    @property
    def num_covered(self) -> int:
        """``|K_S|`` — vertices of ``G(S)`` covered by quasi-cliques."""
        return len(self.covered_vertices)

    def label(self) -> str:
        """Human-readable attribute-set label used in the report tables."""
        return " ".join(map(str, self.attributes))


@dataclass
class MiningCounters:
    """Work counters collected during a mining run (used by Figure 8).

    ``coverage_memo_hits``/``coverage_memo_misses`` count the coverage
    consultations of the :class:`~repro.quasiclique.memo.CoverageMemo`
    during the run, ``topk_memo_hits``/``topk_memo_misses`` its top-k
    pattern consultations, and ``kernel_counter_updates`` the
    incremental-kernel bookkeeping (:mod:`repro.quasiclique.kernel`).
    Unlike the other counters these are *instrumentation*, not
    algorithm output: memo hit totals depend on how the run was
    partitioned into tasks (sequential runs share one memo across the
    whole lattice; parallel workers see the fan-out snapshot plus
    task-local entries), so they may legitimately differ
    between ``n_jobs``/schedule configurations while the mined records
    stay byte-identical.

    ``kernel_backends`` tallies every ε search — SCPM's coverage
    searches, the naive miner's enumerations; each runs on the
    incremental-counter kernel — by the counter-lane backend that drove
    it, keyed by label (``"bigint"``, ``"numpy(uint8)"``,
    ``"numpy(uint16)"``) — the attribution the CLI's ``--verbose``
    counters and the benchmark rows report.
    """

    attribute_sets_evaluated: int = 0
    attribute_sets_qualified: int = 0
    attribute_sets_extended: int = 0
    attribute_sets_pruned: int = 0
    coverage_nodes_expanded: int = 0
    pattern_nodes_expanded: int = 0
    coverage_memo_hits: int = 0
    coverage_memo_misses: int = 0
    topk_memo_hits: int = 0
    topk_memo_misses: int = 0
    kernel_counter_updates: int = 0
    kernel_backends: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    # serialization hooks (used by the persistent pattern store)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain field dict — JSON-safe, loses nothing."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["kernel_backends"] = dict(self.kernel_backends)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MiningCounters":
        """Rebuild counters from :meth:`to_dict` output.

        Unknown keys are ignored so stores written by a future version
        with extra counters still load (the known fields round-trip);
        counters missing from stores written by an older version
        (``topk_memo_*``, say) default to 0.
        """
        known = {f.name for f in fields(cls)}
        payload = {k: v for k, v in data.items() if k in known}
        if "kernel_backends" in payload:
            payload["kernel_backends"] = dict(payload["kernel_backends"])
        return cls(**payload)


@dataclass
class MiningResult:
    """Complete output of a structural correlation pattern mining run."""

    algorithm: str
    evaluated: List[AttributeSetResult] = field(default_factory=list)
    counters: MiningCounters = field(default_factory=MiningCounters)

    @property
    def qualified(self) -> List[AttributeSetResult]:
        """Attribute sets meeting the ε_min / δ_min reporting thresholds."""
        return [result for result in self.evaluated if result.qualified]

    @property
    def patterns(self) -> List[StructuralCorrelationPattern]:
        """All patterns across all qualifying attribute sets."""
        return [
            pattern for result in self.qualified for pattern in result.patterns
        ]

    # ------------------------------------------------------------------
    # ranking helpers for the paper's tables
    # ------------------------------------------------------------------
    def _reportable(
        self, min_set_size: Optional[int]
    ) -> List[AttributeSetResult]:
        results = self.evaluated
        if min_set_size is not None:
            results = [r for r in results if r.size >= min_set_size]
        return results

    def top_by_support(
        self, n: int = 10, min_set_size: Optional[int] = None
    ) -> List[AttributeSetResult]:
        """Top-σ attribute sets (first column group of Tables 2–4)."""
        return sorted(
            self._reportable(min_set_size),
            key=lambda r: (-r.support, r.label()),
        )[:n]

    def top_by_epsilon(
        self, n: int = 10, min_set_size: Optional[int] = None
    ) -> List[AttributeSetResult]:
        """Top-ε attribute sets (second column group of Tables 2–4)."""
        return sorted(
            self._reportable(min_set_size),
            key=lambda r: (-r.epsilon, -r.support, r.label()),
        )[:n]

    def top_by_delta(
        self, n: int = 10, min_set_size: Optional[int] = None
    ) -> List[AttributeSetResult]:
        """Top-δ attribute sets (third column group of Tables 2–4)."""
        return sorted(
            self._reportable(min_set_size),
            key=lambda r: (-r.delta, -r.epsilon, r.label()),
        )[:n]

    def top_patterns(self, n: int = 10) -> List[StructuralCorrelationPattern]:
        """Largest/densest patterns overall."""
        return sorted(
            self.patterns, key=lambda p: (-p.size, -p.gamma, p.attributes)
        )[:n]

    def fingerprint(self) -> List[Tuple]:
        """Every observable record field, bit-for-bit comparable.

        The canonical form the differential suites (memo on/off,
        parallel determinism, store round-trip) compare: two runs are
        "byte-identical" exactly when their fingerprints — record order
        included — are equal.  Floats are compared as-is (no rounding),
        so this only holds for genuinely identical computations.
        """
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
            for r in self.evaluated
        ]

    def find(self, attributes: Iterable[Attribute]) -> Optional[AttributeSetResult]:
        """Return the result for one attribute set, if it was evaluated."""
        target = frozenset(attributes)
        for result in self.evaluated:
            if frozenset(result.attributes) == target:
                return result
        return None

    def average_epsilon(self, top_fraction: Optional[float] = None) -> float:
        """Average ε over the output (optionally over the top fraction by ε).

        This is the quantity plotted in Figure 10(a–c): ``global`` uses the
        complete output, ``top-10%`` uses ``top_fraction=0.1``.
        """
        return _average(
            [r.epsilon for r in self.evaluated], key_sorted=True, top_fraction=top_fraction
        )

    def average_delta(self, top_fraction: Optional[float] = None) -> float:
        """Average δ over the output (Figure 10(d–f))."""
        finite = [r.delta for r in self.evaluated if r.delta != float("inf")]
        return _average(finite, key_sorted=True, top_fraction=top_fraction)


def _average(
    values: List[float], key_sorted: bool, top_fraction: Optional[float]
) -> float:
    if not values:
        return 0.0
    if top_fraction is not None:
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
        ordered = sorted(values, reverse=True) if key_sorted else values
        count = max(1, int(round(len(ordered) * top_fraction)))
        values = ordered[:count]
    return sum(values) / len(values)
