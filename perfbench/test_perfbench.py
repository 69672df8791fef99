"""Tests of the benchmark itself: CLI equivalence, output checks, tracing.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import tracer
from workloads import (
    RESULTS_HEADER,
    WORKLOADS,
    check_diagnostics_csv,
    check_outputs,
    check_results_csv,
    operations,
    write_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bandit_lab import cli  # noqa: E402

SMALL = {
    "sim_linear": {"rounds": 40, "seeds": 2},
    "sim_gradient": {"rounds": 15},
    "gradtable": {"feature_samples": 20},
    "replay_diag": {"rounds": 25, "diag_rounds": 40},
}


def _child(name: str, inputs: Path, out: Path, *extra: str) -> None:
    subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), name, str(inputs), str(out), *extra],
        env=run._child_env(),
        check=True,
        timeout=120,
    )


def _cli(name: str, paths: dict, out: Path) -> None:
    commands = {
        "sim_linear": [["run", "--config", paths.get("run"), "--out", out, "--charts"]],
        "sim_gradient": [["run", "--config", paths.get("run"), "--out", out]],
        "gradtable": [["gradtable", "--config", paths.get("table"), "--out", out / "gradtable.csv"]],
        "replay_diag": [
            ["replay", "--data", paths.get("log"), "--config", paths.get("replay"), "--out", out],
            ["diagnose", "--config", paths.get("diag"), "--out", out / "diagnostics.csv"],
        ],
    }[name]
    for argv in commands:
        assert cli.main([str(a) for a in argv]) == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_harness_outputs_match_cli(name, tmp_path):
    w = WORKLOADS[name].sized(**SMALL[name])
    paths = write_inputs(w, 3, tmp_path / "inputs")
    _child(name, tmp_path / "inputs", tmp_path / "harness")
    _cli(name, paths, tmp_path / "cli")
    for output in w.outputs:
        assert (tmp_path / "harness" / output).read_bytes() == (tmp_path / "cli" / output).read_bytes(), output
    assert check_outputs(w, 3, tmp_path / "harness") == (operations(w), 0, [])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_instance_hits_every_boundary_and_adds_up(name, tmp_path):
    w = WORKLOADS[name].sized(**SMALL[name])
    write_inputs(w, 1, tmp_path / "inputs")
    _child(name, tmp_path / "inputs", tmp_path / "out", "--trace")
    summary = tracer.summarize(tmp_path / "out")
    missed = [b for b in w.must_hit if summary["boundaries"].get(b, {}).get("calls", 0) == 0]
    assert not missed
    total_self = sum(b["self_s"] for b in summary["boundaries"].values())
    assert total_self == pytest.approx(summary["top_s"], abs=1e-6)
    assert all(b["self_s"] >= 0.0 for b in summary["boundaries"].values())


def _write_results(path: Path, rows) -> None:
    path.write_text("\n".join(",".join(row) for row in [RESULTS_HEADER, *rows]) + "\n")


@pytest.mark.parametrize(
    "bad_row",
    [
        ["2", "p", "7", "0", "1.0", "-0.5", "1.0", "", ""],  # negative inst_regret
        ["2", "p", "7", "0", "1.0", "0.0", "0.5", "", ""],  # cum_regret decreases
        ["2", "p", "7", "0", "nan", "0.0", "1.0", "", ""],  # non-finite number
    ],
)
def test_results_check_counts_a_broken_invariant_as_a_failed_run(bad_row, tmp_path):
    good = ["1", "q", "7", "1", "0.5", "1.0", "1.0", "0.2", "0.1"]
    rows = [["1", "p", "7", "0", "1.0", "1.0", "1.0", "", ""], bad_row, good, ["2", "q", "7", "1", "0.5", "0.0", "1.0", "0.0", "0.1"]]
    _write_results(tmp_path / "results.csv", rows)
    assert check_results_csv(tmp_path / "results.csv", ["p", "q"], [7], 2)[:2] == (2, 1)


def test_results_check_counts_missing_rows(tmp_path):
    _write_results(tmp_path / "results.csv", [["1", "p", "7", "0", "1.0", "0.0", "0.0", "", ""]])
    assert check_results_csv(tmp_path / "results.csv", ["p"], [7, 8], 1)[:2] == (2, 1)


def test_diagnostics_check_wants_every_checkpoint(tmp_path):
    path = tmp_path / "diagnostics.csv"
    path.write_text("t,policy,seed,norm_n1,norm_n2,norm_n3\n1,p,0,1.0,1.0,1.0\n2,p,0,1.0,1.0,1.0\n")
    assert check_diagnostics_csv(path, [0], 3)[:2] == (1, 0)
    assert check_diagnostics_csv(path, [0], 4)[:2] == (1, 1)


def test_timeout_counts_every_operation_as_failed(tmp_path, monkeypatch):
    w = WORKLOADS["sim_linear"].sized(**SMALL["sim_linear"])
    write_inputs(w, 0, tmp_path / "inputs")
    monkeypatch.setattr(run, "INSTANCE_TIMEOUT_S", 0.01)
    inst = run.run_instance(w, 0, tmp_path, traced=False, checked={})
    assert inst["failed"] == inst["attempted"] == operations(w)
    assert "timed out" in inst["problems"][0]


def test_sampler_attributes_samples_and_handler_time_to_phases():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    sampler = speed.Sampler()
    sampler.start("first")
    busy(0.1)
    sampler.enter("second")
    busy(0.1)
    summary = sampler.stop()
    assert summary["first"]["samples"] >= speed.MIN_SAMPLES
    assert summary["second"]["samples"] >= speed.MIN_SAMPLES
    assert summary["all"]["samples"] == summary["first"]["samples"] + summary["second"]["samples"]
    assert 0.0 < summary["all"]["handler_s"] < 0.2
    assert summary["first"]["factor"] > 0.0
    assert speed.calibrated(1.0, {"handler_s": 0.2, "factor": 0.5}) == pytest.approx(0.4)


def test_untraced_instance_reports_every_metric_in_reference_seconds(tmp_path):
    w = WORKLOADS["sim_linear"].sized(**SMALL["sim_linear"])
    write_inputs(w, 0, tmp_path / "inputs")
    inst = run.run_instance(w, 0, tmp_path, traced=False, checked={})
    assert inst["failed"] == 0
    assert all(inst[name] > 0.0 for name, _ in run.END_TO_END)
    assert inst["setup_s"] < inst["wall_s"]
    assert inst["speed_factor"] > 0.0


def test_benchmark_json_names_what_the_harness_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracer.per_layer_metric_names()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_linear", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
