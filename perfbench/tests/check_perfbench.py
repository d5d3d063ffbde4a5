"""The benchmark's own tests (not collected by a plain ``pytest`` run).

    python3 -m pytest perfbench/tests/check_perfbench.py -q

* a tiny-size smoke run of every workload, untraced and traced, must
  print every metric of ``BENCHMARK.json`` with its unit and pass its
  correctness checks;
* a tampered pattern, a tampered store row and a tampered HTTP body must
  each make the corresponding check fail;
* without ``src/repro`` the benchmark must exit non-zero and print no
  result.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, inputs  # noqa: E402
from perfbench.metrics import END_TO_END, HIGHER_IS_BETTER, PER_LAYER  # noqa: E402
from perfbench.pin_digests import mine_statistics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, "perfbench/run.py"]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_metric_definitions():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]
    for metric in BENCHMARK["per_layer"]:
        expected = "higher" if metric["name"] in HIGHER_IS_BETTER else "lower"
        assert metric["better"] == expected, metric["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        if not trace:
            assert value["value"] > 0, name


@pytest.fixture(scope="module")
def topk_result(tmp_path_factory):
    directory = tmp_path_factory.mktemp("topk")
    result = mine_statistics("mine-topk", "tiny", inputs.INPUT_SEEDS["mine-topk"], directory)
    manifest = inputs.make_inputs("mine-topk", inputs.INPUT_SEEDS["mine-topk"], 0, "tiny", directory)
    from repro.graph.io import read_attributed_graph

    graph = read_attributed_graph(manifest["edges"], manifest["attributes"])
    params = inputs.workload_params("mine-topk", "tiny", manifest["block"])
    return result, graph, params


def _tamper_first_pattern(result, **changes):
    records = list(result.evaluated)
    index = next(i for i, r in enumerate(records) if r.patterns)
    record = records[index]
    patterns = (replace(record.patterns[0], **changes),) + record.patterns[1:]
    records[index] = replace(record, patterns=patterns)
    return replace(result, evaluated=records)


def test_untouched_result_passes_every_check(topk_result):
    result, graph, params = topk_result
    assert result.patterns
    assert checks.validate_patterns(result, graph, params) == []
    assert checks.check_digest(result, "mine-topk", "tiny", inputs.INPUT_SEEDS["mine-topk"]) == []


def test_tampered_pattern_vertices_fail_validation(topk_result):
    result, graph, params = topk_result
    outsider = next(v for v in graph.vertices() if not graph.attributes_of(v))
    first = next(p for p in result.patterns)
    tampered = _tamper_first_pattern(result, vertices=first.vertices | {outsider})
    assert checks.validate_patterns(tampered, graph, params)


def test_tampered_pattern_density_fails_validation(topk_result):
    result, graph, params = topk_result
    first = next(p for p in result.patterns)
    tampered = _tamper_first_pattern(result, gamma=first.gamma + 0.01)
    assert checks.validate_patterns(tampered, graph, params)


def test_tampered_statistics_change_the_digest(topk_result):
    result = topk_result[0]
    records = list(result.evaluated)
    records[0] = replace(records[0], support=records[0].support + 1)
    tampered = replace(result, evaluated=records)
    assert checks.check_digest(tampered, "mine-topk", "tiny", inputs.INPUT_SEEDS["mine-topk"])


@pytest.mark.parametrize("statement", [
    "UPDATE attribute_sets SET epsilon_text = '0.123' "
    "WHERE set_id = (SELECT MIN(set_id) FROM attribute_sets)",
    "DELETE FROM pattern_vertices WHERE rowid = (SELECT MIN(rowid) FROM pattern_vertices)",
])
def test_tampered_store_row_fails_the_round_trip(topk_result, tmp_path, statement):
    from repro.store import PatternStore

    result, _, params = topk_result
    path = tmp_path / "store.sqlite"
    with PatternStore(path) as store:
        run_id = store.save(result, params=params)
    assert checks.store_matches(path, run_id, result) == []
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(statement)
    connection.close()
    assert checks.store_matches(path, run_id, result)


def test_tampered_http_body_fails_the_payload_check(topk_result, tmp_path):
    from repro.serve.reader import PatternStoreReader
    from repro.store import PatternStore

    result, _, params = topk_result
    path = tmp_path / "store.sqlite"
    with PatternStore(path) as store:
        store.save(result, params=params)
    with PatternStoreReader(path) as reader:
        body = json.dumps(checks.expected_payload(reader, "/top?k=3")).encode()
        assert checks.serve_body_matches(reader, "/top?k=3", body) == []
        tampered = json.loads(body)
        tampered["entries"][0]["support"] += 1
        assert checks.serve_body_matches(reader, "/top?k=3", json.dumps(tampered).encode())


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("mine-topk", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
