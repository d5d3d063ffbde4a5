"""The naive baseline algorithm (Section 3.1 of the paper).

The naive approach chains two off-the-shelf miners with no cross-cutting
pruning: first the complete set of frequent attribute sets is produced with
Eclat, then the *complete* set of maximal quasi-cliques of each induced
graph is enumerated (the role the Quick algorithm plays in the paper), and
only afterwards are the structural correlation and the thresholds applied.
It is the comparison baseline of the performance study (Figure 8).

The tidsets flow through as bitsets (``EclatMiner(use_bitsets=True)``) and
each per-attribute-set quasi-clique enumeration runs as a vertex-restricted
search on the original graph, so no induced subgraph is materialised — but
the *algorithmic* naivety (no Theorem 3/4/5 pruning, full enumeration) is
untouched, keeping it an honest baseline.
"""

from __future__ import annotations

import time
from typing import Hashable, Optional

from repro.graph.streaming import GraphLike
from repro.itemsets.eclat import EclatConfig, EclatMiner
from repro.itemsets.itemset import canonical_itemset
from repro.correlation.null_models import (
    AnalyticalNullModel,
    normalized_structural_correlation,
)
from repro.correlation.parameters import SCPMParams
from repro.correlation.patterns import (
    AttributeSetResult,
    MiningCounters,
    MiningResult,
    StructuralCorrelationPattern,
)
from repro.quasiclique.definitions import gamma_of
from repro.quasiclique.search import QuasiCliqueSearch

Attribute = Hashable


class NaiveMiner:
    """Frequent itemsets + full quasi-clique enumeration, no shared pruning.

    Parameters mirror :class:`repro.correlation.scpm.SCPM`; the ε_min/δ_min
    thresholds and ``top_k`` only filter the *output* — they never prune the
    search, which is exactly what makes the algorithm naive.
    """

    def __init__(
        self,
        graph: GraphLike,
        params: SCPMParams,
        null_model: Optional[object] = None,
    ) -> None:
        self.graph = graph
        self.params = params
        self.qc_params = params.quasi_clique_params()
        self.null_model = (
            null_model
            if null_model is not None
            else AnalyticalNullModel(graph, self.qc_params)
        )

    def mine(self) -> MiningResult:
        """Run the naive pipeline and return a :class:`MiningResult`."""
        params = self.params
        counters = MiningCounters()
        result = MiningResult(algorithm="naive", counters=counters)
        started = time.perf_counter()

        eclat = EclatMiner(
            EclatConfig(
                min_support=params.min_support,
                min_size=1,
                max_size=params.max_attribute_set_size,
            ),
            use_bitsets=True,
            engine=params.engine,
        )
        for itemset in eclat.mine_graph(self.graph):
            counters.attribute_sets_evaluated += 1
            members = itemset.tidset
            support = len(members)
            search = QuasiCliqueSearch(
                self.graph,
                self.qc_params,
                vertices=members,
                order=params.order,
                engine=params.engine,
            )
            quasi_cliques = search.enumerate_maximal()
            counters.coverage_nodes_expanded += search.stats.nodes_expanded
            counters.kernel_counter_updates += search.stats.counter_updates
            label = search.stats.kernel_backend_label()
            counters.kernel_backends[label] = (
                counters.kernel_backends.get(label, 0) + 1
            )

            covered = frozenset().union(*quasi_cliques) if quasi_cliques else frozenset()
            epsilon = len(covered) / support if support else 0.0
            expected = self.null_model.expected_epsilon(support)
            delta = normalized_structural_correlation(epsilon, expected)
            qualified = epsilon >= params.min_epsilon and delta >= params.min_delta

            patterns = ()
            if qualified and len(itemset.items) >= params.min_attribute_set_size:
                member_set = members.to_frozenset()
                adjacency = {
                    v: self.graph.neighbor_set(v) & member_set for v in member_set
                }
                ranked = sorted(
                    quasi_cliques,
                    key=lambda q: (-len(q), -gamma_of(adjacency, q), sorted(map(repr, q))),
                )
                patterns = tuple(
                    StructuralCorrelationPattern(
                        attributes=canonical_itemset(itemset.items),
                        vertices=vertex_set,
                        gamma=gamma_of(adjacency, vertex_set),
                    )
                    for vertex_set in ranked[: params.top_k]
                )

            result.evaluated.append(
                AttributeSetResult(
                    attributes=canonical_itemset(itemset.items),
                    support=support,
                    epsilon=epsilon,
                    expected_epsilon=expected,
                    delta=delta,
                    covered_vertices=covered,
                    patterns=patterns,
                    qualified=qualified,
                )
            )
            if qualified:
                counters.attribute_sets_qualified += 1

        counters.elapsed_seconds = time.perf_counter() - started
        return result


def mine_naive(
    graph: GraphLike,
    params: SCPMParams,
    null_model: Optional[object] = None,
) -> MiningResult:
    """Convenience wrapper around :class:`NaiveMiner`."""
    return NaiveMiner(graph, params, null_model=null_model).mine()
