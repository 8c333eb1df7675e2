"""Unified run report for the worker pool.

The capture/ship/merge layer (:mod:`repro.obs.remote`) makes worker
telemetry *visible*; this module makes it *legible*.  Every pooled stage —
a ``run_many`` batch — records one :class:`StageRecord` into the
process-global collector: which shards (tasks, by index) ran,
on which worker pids, how long each executed inside the worker versus how
long it spent queued, and how many attempts it took.  :func:`build_report`
turns the accumulated records into one JSON-ready document answering the
questions a fleet-scale benchmark run raises:

* **per-worker utilization** — of the stage's wall time, what fraction was
  each worker pid actually executing shards?  Idle workers mean shards too
  coarse or a pool too wide;
* **imbalance** — max over mean shard execution wall.  1.0 is a perfectly
  balanced stage; 2.0 means the slowest shard ran twice the average and the
  stage's critical path is one straggler;
* **slowest shards** — the stragglers themselves, by shard id and pid;
* **span topology** — when a tracer is live at build time, the merged
  cross-process span forest is embedded, so one document carries both the
  timing tree and the worker-level economics.

Reports are rendered by ``smoothoperator report`` and written
automatically when the ``REPRO_RUN_REPORT`` environment variable names a
path (one write per recorded stage — the file is always the report of the
run so far, so even a crashed run leaves a usable document).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from . import spans as _spans

__all__ = [
    "REPORT_ENV",
    "RunReportCollector",
    "StageRecord",
    "TaskStats",
    "build_report",
    "collector",
    "record_stage",
    "render_report",
    "report_path",
    "reset_report",
    "write_report",
]

#: When set, every recorded stage rewrites the run report to this path.
REPORT_ENV = "REPRO_RUN_REPORT"


def report_path() -> Optional[pathlib.Path]:
    """The auto-write destination from ``REPRO_RUN_REPORT``, if set."""
    raw = os.environ.get(REPORT_ENV, "").strip()
    return pathlib.Path(raw) if raw else None


@dataclass(frozen=True)
class TaskStats:
    """One pool task's economics, as observed by the coordinator.

    ``exec_s``/``cpu_s`` come from the worker's own root span (measured
    inside the worker, so cross-process clock skew cannot touch them);
    ``roundtrip_s`` is coordinator-side submit-to-result wall; ``queue_s``
    is their difference clamped at zero — time the task spent queued,
    pickled, and in transit rather than executing.
    """

    shard_id: int
    worker_pid: int
    attempt: int = 1
    exec_s: float = 0.0
    cpu_s: float = 0.0
    roundtrip_s: float = 0.0
    queue_s: float = 0.0
    ok: bool = True

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "worker_pid": self.worker_pid,
            "attempt": self.attempt,
            "exec_s": self.exec_s,
            "cpu_s": self.cpu_s,
            "roundtrip_s": self.roundtrip_s,
            "queue_s": self.queue_s,
            "ok": self.ok,
        }


@dataclass
class StageRecord:
    """One pooled stage: a ``run_many`` batch."""

    label: str
    workers: int
    wall_s: float
    generation: Optional[int] = None
    tasks: List[TaskStats] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        """Derived stage economics (imbalance, utilization, stragglers)."""
        tasks = sorted(self.tasks, key=lambda t: (t.shard_id, t.attempt))
        execs = [t.exec_s for t in tasks if t.ok]
        mean_exec = sum(execs) / len(execs) if execs else 0.0
        max_exec = max(execs) if execs else 0.0
        by_worker: Dict[int, Dict[str, float]] = {}
        for task in tasks:
            row = by_worker.setdefault(
                task.worker_pid, {"tasks": 0, "busy_s": 0.0, "cpu_s": 0.0}
            )
            row["tasks"] += 1
            row["busy_s"] += task.exec_s
            row["cpu_s"] += task.cpu_s
        workers = {
            str(pid): {
                "tasks": int(row["tasks"]),
                "busy_s": row["busy_s"],
                "cpu_s": row["cpu_s"],
                "utilization": (row["busy_s"] / self.wall_s) if self.wall_s > 0 else 0.0,
            }
            for pid, row in sorted(by_worker.items())
        }
        slowest = [
            {"shard_id": t.shard_id, "worker_pid": t.worker_pid, "exec_s": t.exec_s}
            for t in sorted(tasks, key=lambda t: (-t.exec_s, t.shard_id))[:5]
        ]
        payload: Dict[str, object] = {
            "label": self.label,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "tasks": len(tasks),
            "retries": sum(1 for t in tasks if t.attempt > 1),
            "failures": sum(1 for t in tasks if not t.ok),
            "mean_exec_s": mean_exec,
            "max_exec_s": max_exec,
            "imbalance": (max_exec / mean_exec) if mean_exec > 0 else 1.0,
            "mean_queue_s": (
                sum(t.queue_s for t in tasks) / len(tasks) if tasks else 0.0
            ),
            "per_worker": workers,
            "slowest_shards": slowest,
            "task_stats": [t.to_dict() for t in tasks],
        }
        if self.generation is not None:
            payload["pool_generation"] = self.generation
        return payload


class RunReportCollector:
    """Accumulates stage records for one process (or one test)."""

    __slots__ = ("stages",)

    def __init__(self) -> None:
        self.stages: List[StageRecord] = []

    # ------------------------------------------------------------------
    def record_stage(
        self,
        label: str,
        *,
        workers: int,
        wall_s: float,
        tasks: Sequence[TaskStats] = (),
        generation: Optional[int] = None,
    ) -> StageRecord:
        """Record one pooled stage (and auto-write when the env asks)."""
        record = StageRecord(
            label=label,
            workers=workers,
            wall_s=wall_s,
            generation=generation,
            tasks=list(tasks),
        )
        self.stages.append(record)
        destination = report_path()
        if destination is not None:
            try:
                write_report(destination, collector=self)
            except OSError:  # pragma: no cover - unwritable autowrite path
                pass
        return record

    def reset(self) -> None:
        self.stages.clear()

    # ------------------------------------------------------------------
    def build(self, *, include_spans: bool = True) -> Dict[str, object]:
        """The JSON-ready run report for everything recorded so far."""
        stages = [record.summary() for record in self.stages]
        busy: Dict[str, float] = {}
        tasks_total = 0
        for stage in stages:
            tasks_total += int(stage["tasks"])  # type: ignore[arg-type]
            for pid, row in stage["per_worker"].items():  # type: ignore[union-attr]
                busy[pid] = busy.get(pid, 0.0) + float(row["busy_s"])
        wall_total = sum(float(stage["wall_s"]) for stage in stages)
        report: Dict[str, object] = {
            "schema": "repro.run_report/v1",
            "stages": stages,
            "totals": {
                "stages": len(stages),
                "tasks": tasks_total,
                "wall_s": wall_total,
                "worker_pids": sorted(busy, key=int),
                "per_worker_utilization": {
                    pid: (busy[pid] / wall_total) if wall_total > 0 else 0.0
                    for pid in sorted(busy, key=int)
                },
            },
        }
        if include_spans:
            tracer = _spans.get_tracer()
            if tracer is not None:
                report["spans"] = [root.to_dict() for root in tracer.roots]
        return report


# ----------------------------------------------------------------------
# the process-global collector and module-level API
# ----------------------------------------------------------------------
_COLLECTOR = RunReportCollector()


def collector() -> RunReportCollector:
    """The process-global collector pooled stages record into."""
    return _COLLECTOR


def record_stage(
    label: str,
    *,
    workers: int,
    wall_s: float,
    tasks: Sequence[TaskStats] = (),
    generation: Optional[int] = None,
) -> StageRecord:
    """Record a stage into the process-global collector."""
    return _COLLECTOR.record_stage(
        label, workers=workers, wall_s=wall_s, tasks=tasks, generation=generation
    )


def reset_report() -> None:
    """Forget every recorded stage (tests and benchmark repetitions)."""
    _COLLECTOR.reset()


def build_report(*, include_spans: bool = True) -> Dict[str, object]:
    """Build the run report from the process-global collector."""
    return _COLLECTOR.build(include_spans=include_spans)


def write_report(
    path: Union[str, pathlib.Path],
    *,
    collector: Optional[RunReportCollector] = None,
    include_spans: bool = True,
) -> pathlib.Path:
    """Write the run report as JSON to ``path`` and return the path."""
    source = collector if collector is not None else _COLLECTOR
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(source.build(include_spans=include_spans), indent=2, sort_keys=True)
        + "\n"
    )
    return path


# ----------------------------------------------------------------------
# rendering (the ``smoothoperator report`` command)
# ----------------------------------------------------------------------
def render_report(report: Dict[str, object]) -> str:
    """A terminal-friendly rendering of a run report document."""
    lines: List[str] = []
    totals = report.get("totals", {})
    lines.append(
        "run report: {stages} stage(s), {tasks} task(s), {wall:.3f}s pooled wall".format(
            stages=totals.get("stages", 0),
            tasks=totals.get("tasks", 0),
            wall=float(totals.get("wall_s", 0.0)),
        )
    )
    for stage in report.get("stages", ()):  # type: ignore[union-attr]
        lines.append(
            "  {label}: {tasks} task(s) on {workers} worker(s), "
            "{wall:.3f}s wall, imbalance {imbalance:.2f}x, "
            "mean queue {queue:.1f}ms".format(
                label=stage["label"],
                tasks=stage["tasks"],
                workers=stage["workers"],
                wall=float(stage["wall_s"]),
                imbalance=float(stage["imbalance"]),
                queue=float(stage["mean_queue_s"]) * 1e3,
            )
        )
        retries = int(stage.get("retries", 0))
        failures = int(stage.get("failures", 0))
        if retries or failures:
            lines.append(f"    retries={retries} failures={failures}")
        for pid, row in stage.get("per_worker", {}).items():  # type: ignore[union-attr]
            lines.append(
                "    pid {pid}: {tasks} task(s), busy {busy:.3f}s "
                "({util:.0%} of stage wall)".format(
                    pid=pid,
                    tasks=row["tasks"],
                    busy=float(row["busy_s"]),
                    util=float(row["utilization"]),
                )
            )
        slowest = stage.get("slowest_shards", ())
        if slowest:
            worst = ", ".join(
                "#{shard}@{pid} {exec_s:.1f}ms".format(
                    shard=entry["shard_id"],
                    pid=entry["worker_pid"],
                    exec_s=float(entry["exec_s"]) * 1e3,
                )
                for entry in slowest
            )
            lines.append(f"    slowest: {worst}")
    per_worker = totals.get("per_worker_utilization", {})
    if per_worker:
        lines.append("  overall worker utilization:")
        for pid, utilization in per_worker.items():  # type: ignore[union-attr]
            lines.append(f"    pid {pid}: {float(utilization):.0%}")
    return "\n".join(lines)
