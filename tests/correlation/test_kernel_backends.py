"""SCPM-level differential suite for the kernel counter-lane backends.

The mined output of a run must be byte-identical whichever kernel backend
(``bigint`` big-int SWAR lanes or ``numpy`` vectorized lanes) drives the
quasi-clique searches — across both vertex-set engines, sequential and
parallel schedules, and γ on both sides of the 0.5 diameter-bound
boundary.  ``MiningResult.fingerprint()`` is the comparison: record
order, supports, ε/δ floats, covered sets and patterns included.  The
``force_kernel_backend`` fixture pins the backend by patching the
working-set-size threshold, which forked workers inherit.

Also pinned here: the ``MiningCounters.kernel_backends`` attribution
vocabulary (searches tallied per backend label), its serialization
round-trip, the parallel merge of the per-task tallies, and the typed
``KernelCapacityError`` that a working set past the lane capacity raises
through both miners.
"""

import pytest

from repro.correlation.naive import mine_naive
from repro.correlation.parameters import SCPMParams
from repro.correlation.patterns import MiningCounters
from repro.correlation.scpm import _accumulate_counters, mine_scpm
from repro.datasets.synthetic import CommunitySpec, SyntheticSpec, generate
from repro.errors import KernelCapacityError, ParameterError
from repro.quasiclique import kernel


def community_graph():
    return generate(
        SyntheticSpec(
            num_vertices=60,
            background_degree=2.5,
            vocabulary_size=8,
            attributes_per_vertex=0.6,
            communities=tuple(
                CommunitySpec(attributes=(f"c{j}",), size=12, density=0.7)
                for j in range(3)
            ),
            seed=11,
        )
    )


def params_with(gamma=0.45, n_jobs=1, schedule="steal", engine="auto"):
    return SCPMParams(
        min_support=5,
        gamma=gamma,
        min_size=3,
        min_epsilon=0.1,
        top_k=5,
        engine=engine,
        n_jobs=n_jobs,
        schedule=schedule,
    )


def mine_on(force_kernel_backend, backend, miner=mine_scpm, **params):
    force_kernel_backend(backend)
    return miner(community_graph(), params_with(**params))


class TestByteIdentity:
    @pytest.mark.parametrize("gamma", (0.45, 0.6))
    @pytest.mark.parametrize("engine", ("dense", "sparse"))
    def test_scpm_identical_across_backends(
        self, gamma, engine, force_kernel_backend
    ):
        fingerprints = {
            backend: mine_on(
                force_kernel_backend, backend, gamma=gamma, engine=engine
            ).fingerprint()
            for backend in ("bigint", "numpy", "auto")
        }
        assert fingerprints["numpy"] == fingerprints["bigint"]
        assert fingerprints["auto"] == fingerprints["bigint"]

    @pytest.mark.parametrize("schedule", ("steal", "stripe"))
    def test_parallel_scpm_identical_across_backends(
        self, schedule, force_kernel_backend
    ):
        reference = mine_on(force_kernel_backend, "bigint").fingerprint()
        for backend in ("bigint", "numpy"):
            parallel = mine_on(
                force_kernel_backend, backend, n_jobs=2, schedule=schedule
            )
            assert parallel.fingerprint() == reference

    def test_naive_identical_across_backends(self, force_kernel_backend):
        fingerprints = [
            mine_on(force_kernel_backend, backend, miner=mine_naive).fingerprint()
            for backend in ("bigint", "numpy")
        ]
        assert fingerprints[0] == fingerprints[1]


class TestKernelCapacity:
    @pytest.mark.parametrize("miner", (mine_scpm, mine_naive))
    def test_capacity_error_reaches_the_caller(self, miner, monkeypatch):
        # working sets past the lane capacity fail loudly, typed, instead
        # of running on another search loop
        monkeypatch.setattr(kernel, "KERNEL_MAX_VERTICES", 4)
        with pytest.raises(KernelCapacityError) as caught:
            miner(community_graph(), params_with())
        assert isinstance(caught.value, ParameterError)
        assert caught.value.limit == 4
        assert caught.value.working_set_size > 4


class TestBackendAttribution:
    def test_backend_tally_labels(self, force_kernel_backend):
        bigint_run = mine_on(force_kernel_backend, "bigint")
        assert set(bigint_run.counters.kernel_backends) == {"bigint"}
        numpy_run = mine_on(force_kernel_backend, "numpy")
        # 60-vertex working sets fit uint8 lanes
        assert set(numpy_run.counters.kernel_backends) == {"numpy(uint8)"}
        assert (
            sum(numpy_run.counters.kernel_backends.values())
            == sum(bigint_run.counters.kernel_backends.values())
            > 0
        )

    def test_every_coverage_search_is_tallied(self):
        # γ ≥ 0.5 on small working sets included: every search runs on a
        # kernel, and with the memo on each coverage miss ran one search
        counters = mine_scpm(community_graph(), params_with(gamma=0.6)).counters
        assert counters.coverage_memo_misses > 0
        assert sum(counters.kernel_backends.values()) == (
            counters.coverage_memo_misses
        )

    def test_parallel_tally_merges_across_tasks(self, force_kernel_backend):
        sequential = mine_on(force_kernel_backend, "numpy")
        parallel = mine_on(force_kernel_backend, "numpy", n_jobs=2)
        assert parallel.counters.kernel_backends == (
            sequential.counters.kernel_backends
        )

    def test_counters_dict_round_trip(self):
        counters = MiningCounters(
            kernel_counter_updates=7,
            kernel_backends={"bigint": 2, "numpy(uint16)": 3},
        )
        data = counters.to_dict()
        assert data["kernel_backends"] == {"bigint": 2, "numpy(uint16)": 3}
        rebuilt = MiningCounters.from_dict(data)
        assert rebuilt == counters
        assert rebuilt.kernel_backends is not counters.kernel_backends

    def test_accumulate_merges_backend_tallies(self):
        target = MiningCounters(kernel_backends={"bigint": 1, "numpy(uint8)": 2})
        source = MiningCounters(
            kernel_backends={"numpy(uint8)": 3, "numpy(uint16)": 4},
            kernel_counter_updates=5,
        )
        _accumulate_counters(target, source)
        assert target.kernel_backends == {
            "bigint": 1,
            "numpy(uint8)": 5,
            "numpy(uint16)": 4,
        }
        assert target.kernel_counter_updates == 5
