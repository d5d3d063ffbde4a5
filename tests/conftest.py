"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.correlation.parameters import SCPMParams
from repro.datasets.evolving import EvolvingScenario, random_scenario
from repro.datasets.example import paper_example_graph
from repro.datasets.synthetic import random_attributed_graph
from repro.graph.attributed_graph import AttributedGraph
from repro.quasiclique import kernel
from repro.quasiclique.definitions import QuasiCliqueParams

#: ``NUMPY_AUTO_MIN_VERTICES`` values that pin ``make_search_kernel`` to
#: one backend for every working set (``"auto"`` restores the default).
_BACKEND_THRESHOLDS = {
    kernel.BIGINT_BACKEND: kernel.KERNEL_MAX_VERTICES + 1,
    kernel.NUMPY_BACKEND: 0,
    "auto": kernel.NUMPY_AUTO_MIN_VERTICES,
}


@pytest.fixture
def force_kernel_backend(monkeypatch):
    """Return ``force(backend)``, which pins the search-kernel backend.

    The kernel backend is chosen by working-set size alone; patching the
    size threshold steers every later search, including those of forked
    worker processes, and is undone when the test ends.
    """

    def force(backend: str) -> None:
        monkeypatch.setattr(
            kernel, "NUMPY_AUTO_MIN_VERTICES", _BACKEND_THRESHOLDS[backend]
        )

    return force


@pytest.fixture
def example_graph() -> AttributedGraph:
    """The 11-vertex running example of the paper (Figure 1)."""
    return paper_example_graph()


@pytest.fixture
def example_qc_params() -> QuasiCliqueParams:
    """Quasi-clique parameters used for Table 1 (γ = 0.6, min_size = 4)."""
    return QuasiCliqueParams(gamma=0.6, min_size=4)


@pytest.fixture
def example_scpm_params() -> SCPMParams:
    """Full SCPM parameters used for Table 1."""
    return SCPMParams(
        min_support=3, gamma=0.6, min_size=4, min_epsilon=0.5, top_k=10
    )


@pytest.fixture
def triangle_graph() -> AttributedGraph:
    """A triangle with one pendant vertex; all vertices carry attribute 'x'."""
    graph = AttributedGraph()
    for vertex in (1, 2, 3, 4):
        graph.add_vertex(vertex)
        graph.add_attribute(vertex, "x")
    graph.add_edge(1, 2)
    graph.add_edge(2, 3)
    graph.add_edge(1, 3)
    graph.add_edge(3, 4)
    return graph


@pytest.fixture
def evolving_graph():
    """Factory for seeded evolving-graph scenarios (shared by the evolve,
    store and serve suites).

    Call it with a seed (and any :func:`repro.datasets.evolving.
    random_scenario` keyword) to get an :class:`EvolvingScenario` —
    an initial graph, an edit script, and an independent ``replay``
    oracle for the differential harness.
    """

    def factory(seed: int = 3, **kwargs) -> EvolvingScenario:
        return random_scenario(seed, **kwargs)

    return factory


@pytest.fixture
def small_random_graph() -> AttributedGraph:
    """A deterministic 12-vertex random attributed graph."""
    return random_attributed_graph(
        num_vertices=12,
        edge_probability=0.35,
        attributes=["a", "b", "c"],
        attribute_probability=0.5,
        seed=3,
    )
