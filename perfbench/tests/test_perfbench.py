"""Self-test of the benchmark at toy size.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import checks, report, tracer as tracing, workloads
from harness.checks import COLD, HIT, REOPEN, WITHHELD, Expectation

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
TOY_ROWS = {"text": 40, "numeric": 60}
TOY_MINIMUMS = {COLD: 1, HIT: 12, REOPEN: 1, WITHHELD: 1}  # every batch size


def declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def toy_run(name, tmp_path, tracer=None):
    workload = workloads.WORKLOADS[name]
    rows = {kind: TOY_ROWS[kind] for kind in workload.feed_rows}
    return workloads.run(workload, seed=7, seconds=0.0, work=tmp_path / name,
                         tracer=tracer, setup_reps=1, minimums=TOY_MINIMUMS,
                         feed_rows=rows)


def test_declared_metrics_match_the_harness():
    assert declared("end_to_end") == report.END_TO_END_UNITS
    assert declared("per_layer") == report.PER_LAYER_UNITS
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in doc["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    result = toy_run(name, tmp_path)
    assert result.client.checker.failures == []
    assert result.paper_counts == []
    values, counts = report.end_to_end(result, import_seconds=0.1)
    assert set(values) == set(declared("end_to_end"))
    assert all(v > 0 for v in values.values()), values
    assert counts["cold"] >= 1 and counts["hit"] >= 12

    tracer = tracing.Tracer()
    traced = toy_run(name, tmp_path / "traced", tracer)
    layers = report.per_layer(traced, tracer)
    assert set(layers) == set(declared("per_layer"))
    assert layers["tracing.requests"] > 0
    assert layers["learners.build_candidates.s"] > 0
    assert layers["features.transform.s"] > 0
    assert report.stage_table(traced, layers).count("\n") > 10
    # wrappers are gone once the run is over
    from ctivalidator import features
    assert not hasattr(features.transform, "__wrapped__")


def test_checker_counts_a_wrong_label_and_a_below_bar_model():
    class Answer:
        kind = "predicted"
        from_cache = True
        f1 = 0.95
        labels = ("ddos", "ransom")

    class Built(Answer):
        from_cache = False

    checker = checks.Checker()
    truth = ("ddos", "ransom")
    assert checker.check("ok", Expectation(HIT, 0.8, truth=truth), Answer())
    assert not checker.check("wrong", Expectation(HIT, 0.8, truth=("ddos", "phishing")),
                             Answer())
    # a correct answer that left a below-bar model in the registry
    assert not checker.check("below bar", Expectation(COLD, 0.8, truth=truth), Built(),
                             registry=([{"key": "k", "f1": 0.7}], {"k": 0.8}))
    assert checker.check("at bar", Expectation(COLD, 0.8, truth=truth), Built(),
                         registry=([{"key": "k", "f1": 0.8}], {"k": 0.8}))
    assert checker.attempted == 4
    assert checker.failed == 2
    assert checker.error_rate == 0.5


def test_paper_experiment_counts_hold():
    assert checks.paper_experiment_counts() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-text", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
