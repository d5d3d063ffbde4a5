"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation section has a benchmark
module here.  The graphs are scaled-down synthetic stand-ins for the
original crawls (see DESIGN.md, "Substitutions"); set the environment
variable ``REPRO_BENCH_SCALE`` to grow or shrink them (default 1.0).

Each benchmark prints the rows/series the corresponding table or figure
reports and also writes them to ``benchmarks/results/<name>.txt`` so the
output survives pytest's capture.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.datasets.profiles import (
    citeseer_like,
    dblp_like,
    lastfm_like,
    small_dblp_like,
)

RESULTS_DIR = Path(__file__).parent / "results"

# The kernel benchmark times the search against the test suite's
# from-scratch oracle, imported as ``tests.quasiclique.oracle``.
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


def bench_scale() -> float:
    """Benchmark scale factor, controlled by ``REPRO_BENCH_SCALE``."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a report block and persist it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _emit


@pytest.fixture(scope="session")
def dblp_profile():
    return dblp_like(scale=bench_scale())


@pytest.fixture(scope="session")
def dblp_graph(dblp_profile):
    return dblp_profile.build()


@pytest.fixture(scope="session")
def lastfm_profile():
    return lastfm_like(scale=bench_scale())


@pytest.fixture(scope="session")
def lastfm_graph(lastfm_profile):
    return lastfm_profile.build()


@pytest.fixture(scope="session")
def citeseer_profile():
    return citeseer_like(scale=bench_scale())


@pytest.fixture(scope="session")
def citeseer_graph(citeseer_profile):
    return citeseer_profile.build()


@pytest.fixture(scope="session")
def small_dblp_profile():
    return small_dblp_like(scale=bench_scale())


@pytest.fixture(scope="session")
def small_dblp_graph(small_dblp_profile):
    return small_dblp_profile.build()
