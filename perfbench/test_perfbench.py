"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The traced-run tests drive every workload for one pass each and take
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in tracing.PER_LAYER]


def test_references_match_the_generated_inputs():
    paths = sorted(run.REFS.glob("*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text())
        requests = workloads.generate(doc["workload"], doc["seed"])
        assert doc["inputs"] == run.inputs_digest(requests), path.name
        assert len(doc["digests"]) == len(requests)


def test_latencies_are_scaled_by_the_probed_speed(monkeypatch):
    runner = run.Runner(run.fresh_import(), workloads.generate("sweep", 1)[:3],
                        None)
    monkeypatch.setattr(run.speed, "factor", lambda: 2.0)
    monkeypatch.setattr(runner, "call", lambda argv: (1.0, 0, ""))
    assert runner.run_pass()[0] == [0.5, 0.5, 0.5]
    runner.normalise = False
    assert runner.run_pass()[0] == [1.0, 1.0, 1.0]


def _answer(argv):
    cli = run.fresh_import()
    _, code, out = run.Runner(cli, [], None).call(argv)
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("argv, path, value", [
    (("span", "--n", "40", "--weights=1,2", "--json"),
     ("certificates", 0, "witness"), "99"),
    (("immersion", "--n", "25", "--weights=-3,4", "--prime", "11", "--json"),
     ("result", "claimed_dim"), "7"),
    (("cohomology", "--n", "12", "--k", "5", "--weights=1,1,2,1,1",
      "--prime", "3", "--json"), ("result", "poincare_coefficients", 3), "5"),
    (("complement", "--n", "30", "--weights=1,-2,3", "--json"),
     ("result", "lower_bound"), "29"),
    (("check-claims", "--n", "15", "--weights=1,4", "--json"),
     ("claim_checks", 0, "verdict"), "NOT_APPLICABLE"),
])
def test_oracle_accepts_the_answer_and_rejects_a_changed_one(argv, path,
                                                             value):
    doc = _answer(argv)
    assert oracle.check(argv, doc) == []
    node = doc
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] != value
    node[path[-1]] = value
    assert oracle.check(argv, doc) != []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    counts = []
    for _ in range(2):
        result, _, problems = run.benchmark(workload, 3, 0, trace=True)
        assert problems == [] and result["correct"]
        counts.append({name: result["metrics"][name]["value"]
                       for name in tracing.COMPUTED})
    assert counts[0] == counts[1]
    if workload == "presentations":
        assert counts[0]["series.mul.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
