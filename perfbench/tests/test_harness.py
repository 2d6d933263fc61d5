"""The harness end to end at smoke scale (each run is a child process)."""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

import pytest

import run
from workloads import REFERENCE_SEED, SCALES, WORKLOADS, digest_mismatches

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def bench_file():
    return run.load_json(run.BENCHMARK)


@pytest.fixture(scope="module")
def reference():
    return run.load_json(run.REFERENCE)


@pytest.fixture(scope="module")
def smoke_report(bench_file, reference):
    # BENCHMARK.json's workload names, so a name it lists that the
    # harness does not know fails here.
    names = [workload["name"] for workload in bench_file["workloads"]]
    return run.measure(names, SMOKE, REFERENCE_SEED, bench_file, runs=1, reference=reference)


def test_every_workload_emits_every_benchmark_metric(smoke_report, bench_file):
    for name, workload in smoke_report["workloads"].items():
        assert workload["errors"] == [], name
        assert workload["error_rate"] == 0.0
        assert workload["checked_against"] == "reference.json"
        for metric in bench_file["end_to_end"]:
            assert workload["end_to_end"][metric["name"]]["median"] > 0, (name, metric)
        for metric in bench_file["per_layer"]:
            assert metric["name"] in workload["per_layer"], (name, metric)
        assert workload["missing"] == []
    line = run.result_line(smoke_report, bench_file)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(WORKLOADS)
    assert len(line["metrics"]) == len(WORKLOADS) * len(bench_file["per_layer"])


def test_layers_attach_only_where_the_workload_uses_them(smoke_report):
    per_layer = {name: w["per_layer"] for name, w in smoke_report["workloads"].items()}
    for name, metrics in per_layer.items():
        assert (metrics["core.calls"] > 0) == (name == "ppb-websql-seq"), name
        assert (metrics["reliability.calls"] > 0) == (name == "faults-timed"), name
        assert metrics["ftl.calls"] > 0 and metrics["nand.calls"] > 0
        assert metrics["trace.overhead"] <= 1.5
        self_total = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
        assert self_total + metrics["trace.unattributed_s"] == pytest.approx(
            metrics["trace.wall_s"], rel=0.02
        )
    assert per_layer["ppb-websql-seq"]["sim.processes"] == 0
    assert per_layer["planes-closed-timed"]["sim.joins"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced(workload):
    untraced = run.spawn(workload, SMOKE, 7, traced=False)
    traced = run.spawn(workload, SMOKE, 7, traced=True)
    assert untraced["ok"] and traced["ok"]
    assert traced["digest"] == untraced["digest"]


def test_off_reference_seed_runs_must_agree_with_each_other(bench_file):
    report = run.measure(["planes-closed-timed"], SMOKE, 7, bench_file, runs=2, trace=False)
    workload = report["workloads"]["planes-closed-timed"]
    assert workload["checked_against"] == "first run"
    assert workload["failed"] == 0 and workload["attempted"] == 2


def test_broken_workloads_raise_error_rate_without_stopping_the_rest(bench_file, reference):
    tampered = copy.deepcopy(reference)
    tampered["scales"]["smoke"]["dftl-writes-timed"]["pages"] += 1
    report = run.measure(
        ["no-such-workload", "dftl-writes-timed", "planes-closed-timed"],
        SMOKE,
        REFERENCE_SEED,
        bench_file,
        runs=1,
        trace=False,
        reference=tampered,
    )
    workloads = report["workloads"]
    assert workloads["no-such-workload"]["error_rate"] == 1.0
    assert "unknown workload" in workloads["no-such-workload"]["errors"][0]
    assert workloads["dftl-writes-timed"]["error_rate"] == 1.0
    assert "pages: expected" in workloads["dftl-writes-timed"]["errors"][0]
    assert workloads["planes-closed-timed"]["error_rate"] == 0.0
    assert workloads["planes-closed-timed"]["end_to_end"]
    line = run.result_line(report, bench_file)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 2)


def test_result_line_takes_best_throughput_and_median_costs(bench_file):
    throughput = run.describe([100.0, 120.0, 90.0, 110.0], "higher")
    setup = run.describe([2.0, 1.0, 3.0, 1.5], "lower")
    report = {
        "trace": False,
        "workloads": {
            "w": {
                "attempted": 4,
                "failed": 0,
                "end_to_end": {"pages_per_s": throughput, "setup_s": setup},
            }
        },
    }
    metrics = run.result_line(report, bench_file)["metrics"]
    assert metrics["pages_per_s"]["value"] == 120.0
    assert metrics["setup_s"]["value"] == 1.75


def test_seconds_set_a_run_count_not_a_deadline():
    assert run.rounds_for(20) == 4
    assert run.rounds_for(1) == run.MIN_BUDGET_ROUNDS


def test_digest_tolerates_float_rounding_only():
    expected = {"count": 10, "wall_us": 1000.0}
    assert digest_mismatches(expected, {"count": 10, "wall_us": 1000.0 * (1 + 1e-12)}) == []
    assert digest_mismatches(expected, {"count": 11, "wall_us": 1000.0}) == [
        "count: expected 10, got 11"
    ]
    assert digest_mismatches(expected, {"count": 10, "wall_us": 1000.001})
    assert digest_mismatches(expected, {"count": 10}) == ["wall_us: missing"]


def test_without_the_repository_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faults-timed", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
