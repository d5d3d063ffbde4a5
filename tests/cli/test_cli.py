"""Tests for the command-line interface.

Exit-code contract (pinned by :class:`TestMainQuery`): ``0`` success,
``1`` store-level errors (missing store, unknown run/pattern id,
malformed filter values), ``2`` argparse usage errors (unknown flags,
missing/conflicting lookup modes) — argparse raises ``SystemExit``.
"""

import re

import pytest

from repro.cli.main import build_parser, main
from repro.datasets.example import paper_example_graph
from repro.graph.io import write_attributed_graph

#: The wall-clock suffix of the mine, base-mine and delta summary lines.
WALL_CLOCK = re.compile(r" in \d+\.\d+s$")


def without_wall_clock(text):
    """Output lines minus those reporting a wall-clock duration.

    Every output-equality assertion goes through this: timings round
    differently run to run, so comparing them makes a test flaky.
    """
    return [line for line in text.splitlines() if not WALL_CLOCK.search(line)]


def test_without_wall_clock_drops_every_timing_line():
    text = "\n".join([
        "scpm-dfs: evaluated 7 attribute sets in 0.03s",
        "base mine: evaluated 3 attribute sets in 12.50s",
        "delta: roots 1 reused / 0 re-evaluated, branches 0 reused / 0 "
        "rerun, 0 record(s) patched, 2 memo entr(ies) evicted in 0.00s",
        "top-k memo: hits=3 misses=2",
        "graph: 11 vertices, 20 edges, 5 attributes",
    ])
    assert without_wall_clock(text) == [
        "top-k memo: hits=3 misses=2",
        "graph: 11 vertices, 20 edges, 5 attributes",
    ]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.profile == "small-dblp"
        assert args.algorithm == "scpm"

    def test_mine_requires_files(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--edges", "x"])


class TestMainMine:
    @pytest.fixture
    def graph_files(self, tmp_path):
        edges = tmp_path / "g.edges"
        attrs = tmp_path / "g.attrs"
        write_attributed_graph(paper_example_graph(), edges, attrs)
        return str(edges), str(attrs)

    def test_mine_example_graph(self, graph_files, capsys):
        edges, attrs = graph_files
        code = main(
            [
                "mine",
                "--edges", edges,
                "--attributes", attrs,
                "--min-support", "3",
                "--gamma", "0.6",
                "--min-size", "4",
                "--min-epsilon", "0.5",
                "--show-patterns",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "11 vertices" in output
        assert "top-sigma" in output
        assert "patterns" in output

    def test_mine_verbose_prints_kernel_and_memo_counters(
        self, graph_files, capsys
    ):
        edges, attrs = graph_files
        code = main(
            [
                "mine",
                "--edges", edges,
                "--attributes", attrs,
                "--min-support", "3",
                "--gamma", "0.6",
                "--min-size", "4",
                "--verbose",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "counters: qualified=" in output
        assert "kernel: counter_updates=" in output
        assert "coverage memo: hits=" in output
        assert "top-k memo: hits=" in output

    def test_mine_streaming_matches_in_memory(self, graph_files, capsys):
        """--streaming swaps the loader without changing a byte of output."""
        edges, attrs = graph_files
        base = [
            "mine",
            "--edges", edges,
            "--attributes", attrs,
            "--min-support", "3",
            "--gamma", "0.6",
            "--min-size", "4",
            "--min-epsilon", "0.5",
        ]

        def tables(argv):
            assert main(argv) == 0
            return without_wall_clock(capsys.readouterr().out)

        assert tables(base + ["--streaming"]) == tables(base)

    def test_mine_streaming_with_engine_and_jobs(self, graph_files, capsys):
        edges, attrs = graph_files
        code = main(
            [
                "mine",
                "--edges", edges,
                "--attributes", attrs,
                "--streaming",
                "--engine", "sparse",
                "--jobs", "2",
                "--min-support", "3",
                "--gamma", "0.6",
                "--min-size", "4",
            ]
        )
        assert code == 0
        assert "11 vertices" in capsys.readouterr().out

    def test_mine_kernel_backend_flag(
        self, graph_files, capsys, force_kernel_backend
    ):
        """The kernel backend changes the attribution line, not a byte else."""
        edges, attrs = graph_files
        outputs = {}
        for backend in ("bigint", "numpy"):
            force_kernel_backend(backend)
            code = main(
                [
                    "mine",
                    "--edges", edges,
                    "--attributes", attrs,
                    "--min-support", "3",
                    "--gamma", "0.45",
                    "--min-size", "3",
                    "--verbose",
                ]
            )
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        assert "backends[searches]: bigint=" in outputs["bigint"]
        assert "backends[searches]: numpy(uint8)=" in outputs["numpy"]
        # everything except the backend attribution line is identical
        strip = lambda text: [
            line for line in without_wall_clock(text)
            if not line.startswith("kernel: counter_updates=")
        ]
        assert strip(outputs["numpy"]) == strip(outputs["bigint"])

    def test_mine_with_naive_algorithm(self, graph_files, capsys):
        edges, attrs = graph_files
        code = main(
            [
                "mine",
                "--edges", edges,
                "--attributes", attrs,
                "--min-support", "3",
                "--gamma", "0.6",
                "--min-size", "4",
                "--algorithm", "naive",
            ]
        )
        assert code == 0
        assert "naive" in capsys.readouterr().out


    def test_mine_verbose_empty_result_skips_counter_block(
        self, graph_files, capsys
    ):
        """Regression: zero evaluated sets must not print the counter block.

        With ``--min-support`` above every attribute's support the run
        evaluates nothing; ``--verbose`` used to print the all-zero
        kernel/memo counter lines anyway.  Now it says what happened.
        """
        edges, attrs = graph_files
        code = main(
            [
                "mine",
                "--edges", edges,
                "--attributes", attrs,
                "--min-support", "9999",
                "--verbose",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "evaluated 0 attribute sets" in output
        assert "kernel: counter_updates=" not in output
        assert "counters: qualified=" not in output
        assert "no attribute sets evaluated" in output

    def test_mine_store_writes_a_pattern_store(self, graph_files, tmp_path, capsys):
        edges, attrs = graph_files
        store = tmp_path / "patterns.sqlite"
        code = main(
            [
                "mine",
                "--edges", edges,
                "--attributes", attrs,
                "--min-support", "3",
                "--gamma", "0.6",
                "--min-size", "4",
                "--min-epsilon", "0.5",
                "--store", str(store),
            ]
        )
        assert code == 0
        assert "stored run #1" in capsys.readouterr().out
        assert store.exists()


class TestMainDemo:
    def test_demo_small_profile(self, capsys):
        code = main(["demo", "--profile", "small-dblp", "--scale", "0.4", "--rows", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "small-dblp-like" in output
        assert "top-delta" in output


class TestMainQuery:
    @pytest.fixture
    def store(self, tmp_path, capsys):
        """A store holding one mined run of the paper's example graph."""
        edges = tmp_path / "g.edges"
        attrs = tmp_path / "g.attrs"
        write_attributed_graph(paper_example_graph(), edges, attrs)
        path = tmp_path / "patterns.sqlite"
        assert main(
            [
                "mine",
                "--edges", str(edges),
                "--attributes", str(attrs),
                "--min-support", "3",
                "--gamma", "0.6",
                "--min-size", "4",
                "--min-epsilon", "0.5",
                "--store", str(path),
            ]
        ) == 0
        capsys.readouterr()  # drop the mine output
        return str(path)

    # ---- the four lookup modes -------------------------------------
    def test_query_pattern_id(self, store, capsys):
        assert main(["query", "--store", store, "--pattern-id", "1"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("pattern 1 (run 1, set ")
        assert "gamma=" in output

    def test_query_vertex(self, store, capsys):
        assert main(["query", "--store", store, "--vertex", "6"]) == 0
        output = capsys.readouterr().out
        assert "pattern(s) contain vertex 6" in output
        assert "pattern 1:" in output

    def test_query_attributes_all_and_any(self, store, capsys):
        assert main(["query", "--store", store, "--attributes", "A", "B"]) == 0
        all_output = capsys.readouterr().out
        assert "match all(A, B)" in all_output
        assert main(
            ["query", "--store", store, "--attributes", "A", "B", "--mode", "any"]
        ) == 0
        any_output = capsys.readouterr().out
        assert "match any(A, B)" in any_output
        # "any" can only widen the match set
        assert int(any_output.split()[0]) >= int(all_output.split()[0])

    def test_query_top_k(self, store, capsys):
        assert main(["query", "--store", store, "--top-k", "3"]) == 0
        output = capsys.readouterr().out.splitlines()
        assert output[0].split() == ["rank", "epsilon", "support", "label"]
        assert len(output) == 4  # header + 3 rows
        assert output[1].startswith("    1")

    # ---- error paths ------------------------------------------------
    def test_query_missing_store_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.sqlite"
        assert main(["query", "--store", str(missing), "--top-k", "3"]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()

    def test_query_unknown_pattern_id_exits_1(self, store, capsys):
        assert main(["query", "--store", store, "--pattern-id", "999"]) == 1
        assert "not in store" in capsys.readouterr().err

    def test_query_malformed_top_k_exits_1(self, store, capsys):
        assert main(["query", "--store", store, "--top-k", "0"]) == 1
        assert "positive k" in capsys.readouterr().err

    def test_query_unknown_run_exits_1(self, store, capsys):
        assert main(
            ["query", "--store", store, "--top-k", "3", "--run", "99"]
        ) == 1
        assert "run 99" in capsys.readouterr().err

    # ---- usage contract (argparse exits 2) --------------------------
    def test_query_requires_exactly_one_mode(self, store, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--store", store])
        assert exit_info.value.code == 2
        assert "exactly one of" in capsys.readouterr().err

        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--store", store, "--vertex", "6", "--top-k", "2"])
        assert exit_info.value.code == 2

    def test_query_mode_requires_attributes(self, store, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--store", store, "--top-k", "2", "--mode", "any"])
        assert exit_info.value.code == 2
        assert "--mode is only valid" in capsys.readouterr().err

    def test_query_requires_store_flag(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--top-k", "2"])
        assert exit_info.value.code == 2

    def test_query_rejects_bad_mode_value(self, store):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["query", "--store", store, "--attributes", "A",
                 "--mode", "sometimes"]
            )
        assert exit_info.value.code == 2


class TestMainServe:
    """``scpm serve`` argument handling and exit codes.

    The live HTTP behaviour is covered end-to-end in
    ``tests/serve/test_http.py``; here we pin the CLI contract only —
    usage errors exit 2, store/bind failures exit 1, and a keyboard
    interrupt drains and exits 0.
    """

    @pytest.fixture
    def store(self, tmp_path):
        from repro.store import save_result

        from tests.serve.test_reader_fixes import handmade_result

        path = tmp_path / "patterns.sqlite"
        save_result(path, handmade_result(attributes=("db",)))
        return str(path)

    def test_serve_requires_store_flag(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve"])
        assert exit_info.value.code == 2

    def test_serve_rejects_non_integer_port(self, store):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--store", store, "--port", "abc"])
        assert exit_info.value.code == 2

    def test_serve_missing_store_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.sqlite"
        assert main(["serve", "--store", str(missing), "--port", "0"]) == 1
        assert "scpm serve: error:" in capsys.readouterr().err
        assert not missing.exists()  # serving must never create a store

    def test_serve_bind_failure_exits_1(self, store, capsys):
        import socket

        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(
                ["serve", "--store", store, "--port", str(port)]
            ) == 1
            err = capsys.readouterr().err
            assert f"cannot bind 127.0.0.1:{port}" in err
        finally:
            blocker.close()

    def test_serve_interrupt_drains_and_exits_0(
        self, store, capsys, monkeypatch
    ):
        from repro.serve.http import PatternStoreServer

        monkeypatch.setattr(
            PatternStoreServer,
            "serve_forever",
            lambda self, poll_interval=0.5: (_ for _ in ()).throw(
                KeyboardInterrupt()
            ),
        )
        assert main(["serve", "--store", store, "--port", "0"]) == 0
        out = capsys.readouterr().out
        assert "serving pattern store" in out
        assert "/healthz" in out
        assert "shutting down (draining in-flight requests)" in out
