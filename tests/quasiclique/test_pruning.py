"""Unit tests for the set-based pruning rules of the test oracle."""

from repro.quasiclique.definitions import QuasiCliqueParams
from tests.quasiclique.oracle import (
    DistanceIndex,
    filter_candidates_by_degree,
    prune_low_degree_vertices,
    restrict_candidates,
    subtree_is_hopeless,
)


def adjacency_of(graph, vertices=None):
    keep = set(graph.vertices()) if vertices is None else set(vertices)
    return {v: set(graph.neighbor_set(v)) & keep for v in keep}


class TestVertexPruning:
    def test_keeps_dense_core(self, example_graph):
        adjacency = adjacency_of(example_graph)
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        pruned = prune_low_degree_vertices(adjacency, params)
        # every vertex of the example has degree >= 2, nothing is pruned
        assert set(pruned) == set(adjacency)

    def test_prunes_pendant_chain(self, triangle_graph):
        adjacency = adjacency_of(triangle_graph)
        params = QuasiCliqueParams(gamma=1.0, min_size=3)
        pruned = prune_low_degree_vertices(adjacency, params)
        assert set(pruned) == {1, 2, 3}

    def test_cascading_removal(self):
        # a path 1-2-3-4: nobody reaches degree 2, so everything goes
        adjacency = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        params = QuasiCliqueParams(gamma=1.0, min_size=3)
        assert prune_low_degree_vertices(adjacency, params) == {}

    def test_never_prunes_members_of_valid_quasi_cliques(self, example_graph):
        adjacency = adjacency_of(example_graph)
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        pruned = prune_low_degree_vertices(adjacency, params)
        for member in (3, 4, 5, 6, 7, 8, 9, 10, 11):
            assert member in pruned


class TestDistanceIndex:
    def test_disabled_for_low_gamma(self, example_graph):
        adjacency = adjacency_of(example_graph)
        index = DistanceIndex(adjacency, distance_bound=0)
        assert not index.enabled

    def test_distance_one_is_closed_neighborhood(self, example_graph):
        adjacency = adjacency_of(example_graph)
        index = DistanceIndex(adjacency, distance_bound=1)
        assert index.reachable(4) == {3, 4, 5, 6}

    def test_distance_two(self, example_graph):
        adjacency = adjacency_of(example_graph)
        index = DistanceIndex(adjacency, distance_bound=2)
        reachable = index.reachable(1)
        assert 4 in reachable  # via 3
        assert 9 not in reachable  # distance 3 from vertex 1

    def test_allowed_extensions_intersects_members(self, example_graph):
        adjacency = adjacency_of(example_graph)
        index = DistanceIndex(adjacency, distance_bound=1)
        allowed = index.allowed_extensions([3, 4], set(adjacency))
        assert allowed == {3, 4, 5, 6}  # common closed neighbourhood


class TestCandidateFilters:
    def test_filter_candidates_by_degree(self, example_graph):
        adjacency = adjacency_of(example_graph)
        params = QuasiCliqueParams(gamma=1.0, min_size=4)
        # extending X = {3, 4}: vertex 1 has only one neighbour in scope, dropped
        remaining = filter_candidates_by_degree(
            adjacency, {3, 4}, {1, 5, 6, 7}, params
        )
        assert 1 not in remaining
        assert {5, 6} <= remaining

    def test_filter_reaches_fixpoint(self):
        # star graph: centre 0, leaves 1..4 — once leaves go, nothing remains
        adjacency = {0: {1, 2, 3, 4}, 1: {0}, 2: {0}, 3: {0}, 4: {0}}
        params = QuasiCliqueParams(gamma=1.0, min_size=3)
        remaining = filter_candidates_by_degree(adjacency, set(), set(adjacency), params)
        assert remaining == set()

    def test_subtree_is_hopeless_when_too_small(self, example_graph):
        adjacency = adjacency_of(example_graph)
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        # fewer vertices than min_size -> hopeless
        assert subtree_is_hopeless(adjacency, set(), {1, 2}, params)
        assert subtree_is_hopeless(adjacency, {1, 2}, {3}, params)

    def test_subtree_is_hopeless_degree_bound(self, example_graph):
        adjacency = adjacency_of(example_graph)
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        # vertex 1 has neighbours {2, 3}, none of which is in the subtree scope
        # {1, 4, 5, 6, 7}, so it can never reach the required degree of 2
        assert subtree_is_hopeless(adjacency, {1}, {4, 5, 6, 7}, params)

    def test_subtree_with_valid_quasi_clique_is_not_hopeless(self, example_graph):
        adjacency = adjacency_of(example_graph)
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        assert not subtree_is_hopeless(adjacency, {3}, {4, 5, 6}, params)

    def test_restrict_candidates_combines_rules(self, example_graph):
        adjacency = adjacency_of(example_graph)
        params = QuasiCliqueParams(gamma=1.0, min_size=4)
        index = DistanceIndex(adjacency, params.distance_bound)
        reduced = restrict_candidates(
            adjacency, {3, 4}, set(adjacency) - {3, 4}, params, index
        )
        assert reduced == {5, 6}
