"""The unified run report (repro.obs.report)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import report as obs_report
from repro.obs.report import RunReportCollector, TaskStats


@pytest.fixture(autouse=True)
def _clean_collector():
    obs.reset_report()
    yield
    obs.reset_report()


def _stage_tasks():
    return [
        TaskStats(shard_id=0, worker_pid=101, exec_s=1.0, cpu_s=0.9, roundtrip_s=1.1, queue_s=0.1),
        TaskStats(shard_id=1, worker_pid=102, exec_s=3.0, cpu_s=2.8, roundtrip_s=3.2, queue_s=0.2),
        TaskStats(shard_id=2, worker_pid=101, exec_s=2.0, cpu_s=1.9, roundtrip_s=2.1, queue_s=0.1),
    ]


class TestStageSummary:
    def test_imbalance_is_max_over_mean_exec(self):
        collector = RunReportCollector()
        record = collector.record_stage(
            "run.many", workers=2, wall_s=4.0, tasks=_stage_tasks()
        )
        summary = record.summary()
        assert summary["mean_exec_s"] == pytest.approx(2.0)
        assert summary["max_exec_s"] == pytest.approx(3.0)
        assert summary["imbalance"] == pytest.approx(1.5)

    def test_per_worker_utilization(self):
        collector = RunReportCollector()
        record = collector.record_stage(
            "run.many", workers=2, wall_s=4.0, tasks=_stage_tasks()
        )
        per_worker = record.summary()["per_worker"]
        assert per_worker["101"]["tasks"] == 2
        assert per_worker["101"]["busy_s"] == pytest.approx(3.0)
        assert per_worker["101"]["utilization"] == pytest.approx(0.75)
        assert per_worker["102"]["utilization"] == pytest.approx(0.75)

    def test_slowest_shards_ranked(self):
        collector = RunReportCollector()
        record = collector.record_stage(
            "run.many", workers=2, wall_s=4.0, tasks=_stage_tasks()
        )
        slowest = record.summary()["slowest_shards"]
        assert [entry["shard_id"] for entry in slowest] == [1, 2, 0]

    def test_retries_and_failures_counted(self):
        tasks = [
            TaskStats(shard_id=0, worker_pid=1, attempt=2, exec_s=1.0),
            TaskStats(shard_id=0, worker_pid=1, attempt=1, exec_s=0.5, ok=False),
        ]
        collector = RunReportCollector()
        summary = collector.record_stage(
            "s", workers=2, wall_s=1.0, tasks=tasks
        ).summary()
        assert summary["retries"] == 1
        assert summary["failures"] == 1
        # Failed attempts do not pollute the imbalance statistics.
        assert summary["mean_exec_s"] == pytest.approx(1.0)

    def test_empty_stage_has_defined_statistics(self):
        collector = RunReportCollector()
        summary = collector.record_stage("s", workers=2, wall_s=0.0).summary()
        assert summary["imbalance"] == 1.0
        assert summary["mean_exec_s"] == 0.0
        assert summary["per_worker"] == {}


class TestBuildReport:
    def test_totals_aggregate_across_stages(self):
        obs_report.record_stage("a", workers=2, wall_s=4.0, tasks=_stage_tasks())
        obs_report.record_stage(
            "b",
            workers=2,
            wall_s=2.0,
            tasks=[TaskStats(shard_id=0, worker_pid=101, exec_s=2.0)],
        )
        report = obs_report.build_report()
        assert report["schema"] == "repro.run_report/v1"
        assert report["totals"]["stages"] == 2
        assert report["totals"]["tasks"] == 4
        assert report["totals"]["wall_s"] == pytest.approx(6.0)
        assert report["totals"]["worker_pids"] == ["101", "102"]
        assert report["totals"]["per_worker_utilization"]["101"] == pytest.approx(5.0 / 6.0)

    def test_spans_embedded_when_tracer_live(self):
        obs_report.record_stage("a", workers=2, wall_s=1.0)
        with obs.tracing():
            with obs.span("outer"):
                pass
            report = obs_report.build_report()
        assert [s["name"] for s in report["spans"]] == ["outer"]
        assert "spans" not in obs_report.build_report()

    def test_json_serializable_and_renderable(self):
        obs_report.record_stage("a", workers=2, wall_s=4.0, tasks=_stage_tasks())
        report = json.loads(json.dumps(obs_report.build_report()))
        text = obs_report.render_report(report)
        assert "imbalance 1.50x" in text
        assert "pid 101" in text


class TestWriteAndAutowrite:
    def test_write_report(self, tmp_path):
        obs_report.record_stage("a", workers=2, wall_s=1.0, tasks=_stage_tasks())
        path = obs_report.write_report(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["totals"]["tasks"] == 3

    def test_env_autowrite_on_every_stage(self, tmp_path, monkeypatch):
        destination = tmp_path / "auto.json"
        monkeypatch.setenv(obs_report.REPORT_ENV, str(destination))
        obs_report.record_stage("a", workers=2, wall_s=1.0)
        assert json.loads(destination.read_text())["totals"]["stages"] == 1
        obs_report.record_stage("b", workers=2, wall_s=1.0)
        assert json.loads(destination.read_text())["totals"]["stages"] == 2

    def test_no_autowrite_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs_report.REPORT_ENV, raising=False)
        assert obs_report.report_path() is None
