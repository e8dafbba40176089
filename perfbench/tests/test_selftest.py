"""Self-test of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from hc2lbench.catalogue import END_TO_END, PER_LAYER, benchmark_json  # noqa: E402
from hc2lbench.cli import run_workload  # noqa: E402
from hc2lbench.inputs import TINY  # noqa: E402
from hc2lbench.measure import tail  # noqa: E402
from hc2lbench.workloads import WORKLOADS  # noqa: E402

SECONDS = 0.3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, seed: int = 5, trace: bool = False, corrupt: int = 0):
    return run_workload(workload, seed, SECONDS, trace, ROOT, sizes=TINY, corrupt=corrupt)


def _units(metrics):
    return [(m.name, m.unit) for m in metrics]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric_and_no_errors(workload):
    result, record = run(workload)
    emitted = sorted((name, value["unit"]) for name, value in result["metrics"].items())
    assert emitted == sorted(_units(END_TO_END))
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    for name, value in result["metrics"].items():
        assert value["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result, record = run(workload, trace=True)
    emitted = sorted((name, value["unit"]) for name, value in result["metrics"].items())
    assert emitted == sorted(_units(PER_LAYER))
    assert result["metrics"]["error_rate"]["value"] == 0.0
    assert result["correct"] is True, record["failures"]
    # the first answer after a swap builds the new index's query engine
    metrics = result["metrics"]
    assert metrics["engine.first_point_after_swap_us"]["value"] > metrics["engine.point_us"]["value"]
    assert (ROOT / record["trace_file"]).is_file()
    spans = json.loads((ROOT / record["trace_file"]).read_text())
    assert spans and {"name", "start", "end", "parent", "request"} <= set(spans[0])


def test_update_local_replays_whole_rounds_of_its_trace():
    result, record = run("update-local")
    assert result["correct"] is True, record["failures"]
    assert record["samples"]["update_rounds"] >= 3
    assert record["samples"]["update"] == TINY.update_epochs


def test_corrupted_expected_answer_counts_as_failure():
    result, record = run("query-mix", corrupt=1)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert record["failures"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = run("update-local", seed=3)[1]["fingerprint"]
    again = run("update-local", seed=3)[1]["fingerprint"]
    other = run("update-local", seed=4)[1]["fingerprint"]
    assert first == again
    assert first != other


def test_tail_percentile_keeps_ten_samples_beyond_it():
    values = list(range(1, 2001))
    assert tail(values) == (1980, 99.0)
    value, percentile = tail(list(range(1, 101)))
    assert (value, percentile) == (90, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_benchmark_json_matches_the_catalogue_and_its_format_limits():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
