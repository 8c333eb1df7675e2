"""Tests of the benchmark itself, at a 96-instance fleet.

    PYTHONPATH=src python -m pytest perfbench -q

Each workload must print every declared metric with its unit, yield a
non-empty per-layer table when traced, and exit non-zero when the program
hands back a wrong output.  Without the source tree the runner must fail
without printing a result.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = ["--instances", "96", "--seconds", "1"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args, cwd=ROOT, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_workloads_match_the_runner():
    assert WORKLOAD_NAMES == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "1", "--trace", str(trace), *TINY)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if trace:
        layer_times = {
            name: value["value"]
            for name, value in result["metrics"].items()
            if name.endswith("_s") and name != "unattributed_s"
        }
        assert any(seconds > 0 for seconds in layer_times.values()), layer_times
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["op_p50_ms"]["value"] > 0


def _doctor_plan(monkeypatch):
    real = workloads.SmoothOperator.optimize

    def optimize(self, records, topology):
        outcome = real(self, records, topology)
        mapping = outcome.assignment.as_mapping()
        mapping.pop(next(iter(mapping)))  # one instance goes unplaced
        outcome.remap.assignment = type(outcome.assignment)(topology, mapping)
        return outcome

    monkeypatch.setattr(workloads.SmoothOperator, "optimize", optimize)


def _doctor_adapt(monkeypatch):
    real = workloads.HeadroomIndex.headroom

    def headroom(self):
        values = real(self)
        first = next(iter(values))
        values[first] += 1.0
        return values

    monkeypatch.setattr(workloads.HeadroomIndex, "headroom", headroom)


def _doctor_chaos(monkeypatch):
    real = workloads.run_chaos_suite

    def run_chaos_suite(*args, **kwargs):
        outcomes = real(*args, **kwargs)
        outcomes[-1].quality_chaos = 0.0  # the scenario no longer passes
        return outcomes

    monkeypatch.setattr(workloads, "run_chaos_suite", run_chaos_suite)


@pytest.mark.parametrize(
    "workload, doctor",
    [("plan_dc3", _doctor_plan), ("adapt_dc3", _doctor_adapt), ("chaos_dc1_w2", _doctor_chaos)],
)
def test_a_wrong_output_exits_nonzero(workload, doctor, monkeypatch, capsys):
    for name in run.THREAD_ENV_VARS:
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(workloads.WORKLOADS[workload], "ROUNDS", 1)
    doctor(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "0", "--trace", "0", *TINY])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(
        "--workload", "plan_dc3", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, runner=tmp_path / "perfbench" / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
