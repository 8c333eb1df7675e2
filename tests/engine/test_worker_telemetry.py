"""Worker telemetry across the pool boundary: capture, failure, kill switch.

Pins the cross-process observability contract end to end:

* a pooled ``run_many`` batch on a real pool yields ONE merged span tree
  — per-task child spans under the dispatching span, in task order,
  tagged with worker pid and task (shard) id — plus merged
  counters/histograms and pool health metrics;
* a raising task still ships its telemetry (span error + ``task_error``
  event reach the coordinator's event log);
* a worker dying mid-task loses that attempt's bundle, but the *retried*
  task's bundle arrives with the retry — telemetry is only ever lost with
  the process that held it;
* ``REPRO_OBS_CAPTURE=0`` disables capture entirely: tasks run bare and
  the coordinator registry receives zero entries;
* merged metric totals are a function of the work, not of completion
  order or worker count.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.obs import events as obs_events
from repro.obs import export as obs_export


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    obs.reset_report()
    yield
    obs.reset_metrics()
    obs.reset_report()


# ----------------------------------------------------------------------
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
def row_ranges(n_rows, n_tasks):
    """Contiguous ``[start, stop)`` row blocks, as even as possible."""
    bounds = np.linspace(0, n_rows, n_tasks + 1).astype(int)
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


class TracedRowSum:
    """Sums a row block while exercising every telemetry surface."""

    def __init__(self, matrix, start, stop):
        self.rows = matrix[start:stop]
        self.start = start

    def __call__(self):
        obs.count("shard.rows", len(self.rows))
        obs.observe("shard.rows_hist", len(self.rows))
        obs.emit("advisory", source="shard", start=self.start)
        with obs.span("shard.inner"):
            return float(self.rows.sum())


class EmitThenRaise:
    def __init__(self, start, stop):
        self.start, self.stop = start, stop

    def __call__(self):
        obs.emit("advisory", source="doomed", start=self.start)
        raise ValueError(f"shard [{self.start}, {self.stop}) is doomed")


class DieOnceThenSum(TracedRowSum):
    """Kills its worker on first run (flag file), sums the rows after."""

    def __init__(self, flag_path, matrix, start, stop):
        super().__init__(matrix, start, stop)
        self.flag_path = str(flag_path)

    def __call__(self):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as f:
                f.write("died")
            os._exit(17)
        return super().__call__()


def row_sum_specs(matrix, ranges):
    return [TracedRowSum(matrix, a, b) for a, b in ranges]


def results_of(entries):
    return [entry.result for entry in entries]


def spec_raises():
    obs.emit("advisory", source="spec", note="about to fail")
    raise ValueError("deliberate failure")


def forty_two():
    return 42


# ----------------------------------------------------------------------
# the merged picture on a healthy pool
# ----------------------------------------------------------------------
def test_pooled_batch_produces_one_merged_tree_and_registry():
    matrix = np.arange(400, dtype=np.float64).reshape(100, 4)
    ranges = row_ranges(100, 4)
    with obs.tracing() as tracer, obs_events.recording() as log:
        with obs.span("stage"):
            with WorkerPool(2) as pool:
                results = run_many(
                    row_sum_specs(matrix, ranges), workers=2, pool=pool
                )
    # Results are exactly what an in-process loop would produce.
    assert results_of(results) == [float(matrix[a:b].sum()) for a, b in ranges]

    # One tree: the per-task spans hang under the dispatching span, in
    # task order, each tagged with shard id and a real worker pid.
    [stage] = tracer.roots
    shard_spans = [c for c in stage.children if c.name == "run.spec"]
    assert [s.meta["shard"] for s in shard_spans] == [0, 1, 2, 3]
    assert all(s.meta["pid"] != os.getpid() for s in shard_spans)
    assert all(s.wall_s > 0 for s in shard_spans)
    assert [c.name for s in shard_spans for c in s.children] == ["shard.inner"] * 4

    # Worker counters merged into the coordinator registry, exactly.
    snapshot = obs.snapshot_metrics()
    assert snapshot["counters"]["shard.rows"] == 100.0
    assert snapshot["histograms"]["shard.rows_hist"]["count"] == 4

    # Pool health metrics recorded coordinator-side.
    assert snapshot["counters"]["pool.tasks_dispatched"] == 4.0
    assert snapshot["counters"]["pool.tasks_completed"] == 4.0
    assert snapshot["histograms"]["pool.task_exec_s"]["count"] == 4
    assert snapshot["histograms"]["pool.task_queue_s"]["count"] == 4
    assert snapshot["gauges"]["pool.workers"] == 2.0

    # Worker events landed in the coordinator log, remapped and tagged.
    advisories = log.by_kind("advisory")
    assert sorted(e.fields["start"] for e in advisories) == [a for a, _ in ranges]
    merged_ids = {s.span_id for s in shard_spans}
    assert all(e.span_id in merged_ids for e in advisories)
    assert all(e.fields["worker_pid"] != os.getpid() for e in advisories)

    # The run report saw the stage.
    report = obs.build_report()
    [stage_summary] = report["stages"]
    assert stage_summary["label"] == "run.many"
    assert stage_summary["tasks"] == 4
    assert stage_summary["imbalance"] >= 1.0
    assert len(report["totals"]["per_worker_utilization"]) >= 1


def test_pool_health_metrics_reach_prometheus_export():
    matrix = np.ones((20, 3))
    with WorkerPool(2) as pool:
        run_many(row_sum_specs(matrix, row_ranges(20, 2)), workers=2, pool=pool)
    text = obs_export.prometheus_text(obs.global_registry())
    assert "repro_pool_tasks_completed_total 2.0" in text
    assert "repro_pool_task_exec_s_count 2.0" in text


def test_merged_totals_independent_of_worker_count():
    """The merged registry is a function of the work done, not of how many
    workers did it (chunk counters aside, which this task does not use)."""
    matrix = np.arange(240, dtype=np.float64).reshape(60, 4)

    def run(workers, tasks):
        obs.reset_metrics()
        with WorkerPool(workers) as pool:
            results = results_of(
                run_many(
                    row_sum_specs(matrix, row_ranges(60, tasks)),
                    workers=workers,
                    pool=pool,
                )
            )
        counters = dict(obs.snapshot_metrics()["counters"])
        hist = obs.global_registry().histogram("shard.rows_hist")
        return results, counters["shard.rows"], hist.count, hist.total

    results_2, rows_2, count_2, total_2 = run(2, 4)
    results_3, rows_3, count_3, total_3 = run(3, 4)
    assert results_2 == results_3
    assert rows_2 == rows_3 == 60.0
    assert count_2 == count_3 == 4
    assert total_2 == total_3 == 60.0


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
def test_raising_task_ships_its_events_and_span_error():
    specs = [EmitThenRaise(a, b) for a, b in row_ranges(10, 2)]
    with obs.tracing() as tracer, obs_events.recording() as log:
        with obs.span("stage"):
            with WorkerPool(2) as pool:
                results = run_many(specs, workers=2, pool=pool, max_attempts=1)
    assert all(isinstance(r, RunFailure) for r in results)
    assert all("doomed" in r.error for r in results)
    # Both shards' pre-failure events AND task_error events arrived.
    assert len(log.by_kind("advisory")) == 2
    task_errors = log.by_kind(obs_events.TASK_ERROR)
    assert len(task_errors) == 2
    assert all(e.fields["error_type"] == "ValueError" for e in task_errors)
    # The failed shards' spans are in the tree, marked with the error.
    [stage] = tracer.roots
    doomed = [c for c in stage.children if c.name == "run.spec"]
    assert len(doomed) == 2
    assert all("ValueError" in s.meta["error"] for s in doomed)
    assert obs.counter_value("pool.tasks_failed") == 2.0


def test_worker_death_does_not_lose_the_retried_tasks_bundle(tmp_path):
    """The attempt that died with its worker ships nothing — but the retry
    runs to completion and its bundle must arrive intact."""
    matrix = np.arange(40, dtype=np.float64).reshape(10, 4)
    flag = tmp_path / "died.flag"
    ranges = row_ranges(10, 2)
    specs = [DieOnceThenSum(flag, matrix, a, b) for a, b in ranges]
    with obs.tracing() as tracer, obs_events.recording() as log:
        with obs.span("stage"):
            with WorkerPool(2) as pool:
                results = run_many(
                    specs, workers=2, pool=pool, retry_backoff_s=0.0
                )
    assert results_of(results) == [float(matrix[a:b].sum()) for a, b in ranges]
    # Every shard's successful attempt shipped: merged counters cover the
    # full matrix and every shard span is present.
    assert obs.counter_value("shard.rows") == 10.0
    [stage] = tracer.roots
    shard_spans = [c for c in stage.children if c.name == "run.spec"]
    assert sorted(s.meta["shard"] for s in shard_spans) == [0, 1]
    # The death was observed as pool health.
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.rebuilds") >= 1.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0
    assert len(log.by_kind("advisory")) == 2


def test_run_many_failure_keeps_original_error_type_under_capture():
    results = run_many(
        [spec_raises, spec_raises], workers=2, max_attempts=1, retry_backoff_s=0
    )
    assert all(isinstance(r, RunFailure) for r in results)
    assert all(r.error_type == "ValueError" for r in results)
    assert all("deliberate failure" in r.error for r in results)


def test_run_many_batch_lands_in_run_report():
    run_many([forty_two, forty_two, forty_two], workers=2)
    report = obs.build_report()
    labels = [stage["label"] for stage in report["stages"]]
    assert labels == ["run.many"]
    assert report["stages"][0]["tasks"] == 3


# ----------------------------------------------------------------------
# the kill switch
# ----------------------------------------------------------------------
def test_capture_disabled_adds_zero_registry_entries(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_CAPTURE", "0")
    matrix = np.arange(40, dtype=np.float64).reshape(10, 4)
    ranges = row_ranges(10, 2)
    with obs.tracing() as tracer:
        with WorkerPool(2) as pool:
            results = run_many(
                row_sum_specs(matrix, ranges), workers=2, pool=pool
            )
    assert results_of(results) == [float(matrix[a:b].sum()) for a, b in ranges]
    snapshot = obs.snapshot_metrics()
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}
    assert snapshot["histograms"] == {}
    assert tracer.roots == []
    assert obs.build_report()["stages"] == []


def test_capture_disabled_run_many_still_reports_failures(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_CAPTURE", "0")
    results = run_many(
        [spec_raises, spec_raises], workers=2, max_attempts=1, retry_backoff_s=0
    )
    assert all(isinstance(r, RunFailure) for r in results)
    assert all(r.error_type == "ValueError" for r in results)
