"""Differential tests: the bitset engine against frozenset-path oracles.

Three independent reference points pin the bitset engine down:

* the **frozenset Eclat path** (``EclatMiner(use_bitsets=False)``), which
  never touches the bitset machinery;
* the **naive baseline miner**, which enumerates exhaustively and applies
  the thresholds only afterwards — any pruning bug in SCPM shows up as a
  disagreement;
* the **set-based pruning rules** of the test oracle
  (``tests/quasiclique/oracle.py``), the readable specification the mask
  rules must reproduce bit for bit — the production vertex pruning and
  distance index of :mod:`repro.quasiclique.pruning` and the oracle's
  mask twins of the candidate rules.

The graphs come from :mod:`repro.datasets.synthetic` (randomized but
seed-deterministic), exactly the structures the paper's workloads exhibit.
"""

import pytest

from repro.correlation.naive import NaiveMiner
from repro.correlation.parameters import SCPMParams
from repro.correlation.scpm import SCPM
from repro.correlation.structural import (
    structural_correlation,
    structural_correlation_bitset,
)
from repro.datasets.example import TABLE1_PATTERNS, paper_example_graph
from repro.datasets.synthetic import (
    CommunitySpec,
    SyntheticSpec,
    generate,
    random_attributed_graph,
)
from repro.itemsets.eclat import EclatConfig, EclatMiner
from repro.quasiclique.definitions import QuasiCliqueParams
from repro.quasiclique.search import find_quasi_cliques
from repro.quasiclique.pruning import MaskDistanceIndex, prune_low_degree_masks
from tests.quasiclique.oracle import (
    DistanceIndex,
    allowed_extensions_masks,
    filter_candidates_by_degree,
    filter_candidates_by_degree_masks,
    prune_low_degree_vertices,
    subtree_is_hopeless,
    subtree_is_hopeless_masks,
)

PARAMS = SCPMParams(
    min_support=3, gamma=0.6, min_size=3, min_epsilon=0.1, top_k=5
)


def synthetic_graphs():
    """A spread of seed-deterministic synthetic graphs (small but varied)."""
    graphs = []
    for seed in (1, 7, 23):
        graphs.append(
            random_attributed_graph(
                num_vertices=18,
                edge_probability=0.3,
                attributes=["a", "b", "c", "d"],
                attribute_probability=0.4,
                seed=seed,
            )
        )
    graphs.append(
        generate(
            SyntheticSpec(
                num_vertices=60,
                background_degree=3.0,
                vocabulary_size=12,
                attributes_per_vertex=2.0,
                communities=(
                    CommunitySpec(attributes=("topic0",), size=8, density=0.9),
                    CommunitySpec(
                        attributes=("topic1", "topic2"),
                        size=6,
                        density=0.95,
                        noise_carriers=3,
                    ),
                ),
                seed=11,
            )
        )
    )
    return graphs


def result_fingerprint(result):
    """Everything observable about a mining run, in comparable form."""
    return [
        (
            r.attributes,
            r.support,
            pytest.approx(r.epsilon),
            pytest.approx(r.delta, rel=1e-9) if r.delta != float("inf") else r.delta,
            r.covered_vertices,
            r.qualified,
        )
        for r in result.evaluated
    ]


class TestEclatDifferential:
    """Bitset Eclat must mine exactly what the frozenset Eclat mines."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_same_itemsets_and_tidsets(self, seed):
        graph = random_attributed_graph(
            num_vertices=40,
            edge_probability=0.1,
            attributes=["a", "b", "c", "d", "e"],
            attribute_probability=0.35,
            seed=seed,
        )
        config = EclatConfig(min_support=3)
        plain = {
            f.items: f.tidset for f in EclatMiner(config).mine_graph(graph)
        }
        bitset = {
            f.items: f.tidset.to_frozenset()
            for f in EclatMiner(config, use_bitsets=True).mine_graph(graph)
        }
        assert bitset == plain

    def test_yield_order_identical(self):
        graph = random_attributed_graph(
            num_vertices=30,
            edge_probability=0.2,
            attributes=["a", "b", "c"],
            attribute_probability=0.5,
            seed=5,
        )
        config = EclatConfig(min_support=2)
        plain = [f.items for f in EclatMiner(config).mine_graph(graph)]
        bitset = [
            f.items
            for f in EclatMiner(config, use_bitsets=True).mine_graph(graph)
        ]
        assert bitset == plain


class TestMiningDifferential:
    """SCPM on the bitset engine vs the exhaustive naive baseline."""

    @pytest.mark.parametrize("graph", synthetic_graphs())
    def test_scpm_agrees_with_naive_on_synthetic_graphs(self, graph):
        scpm = SCPM(graph, PARAMS).mine()
        naive = NaiveMiner(graph, PARAMS).mine()
        scpm_view = {
            r.attributes: (r.support, pytest.approx(r.epsilon), r.covered_vertices)
            for r in scpm.qualified
        }
        naive_view = {
            r.attributes: (r.support, r.epsilon, r.covered_vertices)
            for r in naive.qualified
        }
        assert naive_view == scpm_view

    @pytest.mark.parametrize("graph", synthetic_graphs())
    def test_scpm_patterns_agree_with_naive(self, graph):
        """Pattern-level differential within the top-k guarantees.

        SCPM's top-k search guarantees the largest pattern exactly and that
        every returned set satisfies the γ degree condition; ranks 2..k may
        legitimately include non-maximal sets (see
        ``QuasiCliqueSearch.top_k``), so each one must at least be contained
        in some maximal pattern the naive miner enumerates.
        """
        scpm = SCPM(graph, PARAMS).mine()
        naive = NaiveMiner(graph, PARAMS).mine()
        naive_by_attrs = {r.attributes: r for r in naive.qualified}
        for record in scpm.qualified:
            counterpart = naive_by_attrs[record.attributes]
            if counterpart.patterns:
                assert record.patterns, record.attributes
                top_scpm, top_naive = record.patterns[0], counterpart.patterns[0]
                assert top_scpm.vertices == top_naive.vertices
                assert top_scpm.gamma == pytest.approx(top_naive.gamma)
            if record.patterns:
                maximal = find_quasi_cliques(
                    graph,
                    PARAMS.gamma,
                    PARAMS.min_size,
                    vertices=graph.vertices_with_all(record.attributes),
                )
                for pattern in record.patterns:
                    assert any(
                        pattern.vertices <= m for m in maximal
                    ), (record.attributes, pattern.vertices)

    @pytest.mark.parametrize("graph", synthetic_graphs())
    def test_structural_correlation_bitset_matches_public_path(self, graph):
        qc = QuasiCliqueParams(gamma=0.6, min_size=3)
        for attribute in list(graph.attributes())[:6]:
            eps_pub, covered_pub = structural_correlation(graph, [attribute], qc)
            eps_bits, covered_bits = structural_correlation_bitset(
                graph, [attribute], qc
            )
            assert eps_bits == pytest.approx(eps_pub)
            assert covered_bits.to_frozenset() == covered_pub

    def test_table1_byte_identical_across_engines(self):
        """Acceptance criterion: SCPM == naive on the paper's Table 1 graph."""
        graph = paper_example_graph()
        params = SCPMParams(
            min_support=3, gamma=0.6, min_size=4, min_epsilon=0.5, top_k=10
        )
        scpm = SCPM(graph, params).mine()
        naive = NaiveMiner(graph, params).mine()
        expected = {
            (tuple(sorted(attrs)), frozenset(vertices))
            for attrs, vertices in TABLE1_PATTERNS
        }
        for result in (scpm, naive):
            found = {
                (p.attributes, frozenset(p.vertices)) for p in result.patterns
            }
            assert found == expected

    def test_sequential_runs_are_reproducible(self):
        graph = synthetic_graphs()[-1]
        first = SCPM(graph, PARAMS).mine()
        second = SCPM(graph, PARAMS).mine()
        assert result_fingerprint(first) == result_fingerprint(second)


class TestMaskPruningTwins:
    """The mask pruning rules must equal the set-based specification."""

    def local_space(self, graph):
        """Adjacency in both representations over the same dense ids."""
        vertices = sorted(graph.vertices(), key=repr)
        ids = {v: i for i, v in enumerate(vertices)}
        set_adj = {
            v: {u for u in graph.neighbor_set(v)} for v in vertices
        }
        mask_adj = [
            sum(1 << ids[u] for u in set_adj[v]) for v in vertices
        ]
        return vertices, ids, set_adj, mask_adj

    def to_mask(self, ids, vertices):
        return sum(1 << ids[v] for v in vertices)

    @pytest.mark.parametrize("seed", [2, 9, 31])
    @pytest.mark.parametrize("gamma,min_size", [(0.5, 3), (0.6, 4), (1.0, 3)])
    def test_low_degree_pruning_agrees(self, seed, gamma, min_size):
        graph = random_attributed_graph(
            num_vertices=16, edge_probability=0.25, attributes=[],
            attribute_probability=0.0, seed=seed,
        )
        params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
        vertices, ids, set_adj, mask_adj = self.local_space(graph)
        expected = prune_low_degree_vertices(set_adj, params)
        alive, masks = prune_low_degree_masks(mask_adj, params)
        survivors = {vertices[i] for i in range(len(vertices)) if (alive >> i) & 1}
        assert survivors == set(expected)
        for v, neighbors in expected.items():
            assert masks[ids[v]] == self.to_mask(ids, neighbors)

    @pytest.mark.parametrize("seed", [2, 9, 31])
    def test_candidate_filters_agree(self, seed):
        graph = random_attributed_graph(
            num_vertices=14, edge_probability=0.35, attributes=[],
            attribute_probability=0.0, seed=seed,
        )
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        vertices, ids, set_adj, mask_adj = self.local_space(graph)
        members = set(vertices[:2])
        candidates = set(vertices[2:])
        expected = filter_candidates_by_degree(set_adj, members, candidates, params)
        got = filter_candidates_by_degree_masks(
            mask_adj, self.to_mask(ids, members), self.to_mask(ids, candidates), params
        )
        assert got == self.to_mask(ids, expected)

        assert subtree_is_hopeless(
            set_adj, members, candidates, params
        ) == subtree_is_hopeless_masks(
            mask_adj, self.to_mask(ids, members), self.to_mask(ids, candidates), params
        )

    @pytest.mark.parametrize("distance_bound", [1, 2])
    def test_distance_index_agrees(self, distance_bound):
        graph = random_attributed_graph(
            num_vertices=14, edge_probability=0.3, attributes=[],
            attribute_probability=0.0, seed=4,
        )
        vertices, ids, set_adj, mask_adj = self.local_space(graph)
        set_index = DistanceIndex(set_adj, distance_bound)
        mask_index = MaskDistanceIndex(mask_adj, distance_bound)
        for v in vertices:
            assert mask_index.reachable(ids[v]) == self.to_mask(
                ids, set_index.reachable(v)
            )
        members = vertices[:3]
        everything = set(vertices)
        assert allowed_extensions_masks(
            mask_index, [ids[m] for m in members], self.to_mask(ids, everything)
        ) == self.to_mask(ids, set_index.allowed_extensions(members, everything))
