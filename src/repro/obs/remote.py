"""Cross-process observability: capture in workers, ship, merge upstream.

Everything in :mod:`repro.obs` is process-local — a span tree, a metrics
registry, an event log all live and die with the process that recorded
them.  That made the worker pool (:mod:`repro.engine.parallel`) an
observability black hole: a ``workers=8`` profile showed only the
coordinator's wall time, and every counter a shard incremented vanished
with the task.  This module closes the gap with a capture → ship → merge
pipeline:

* **capture** — a pool task runs inside :class:`capture`, which installs a
  fresh thread-local :class:`~repro.obs.spans.Tracer`, a private
  :class:`~repro.obs.metrics.MetricsRegistry`
  (via :class:`~repro.obs.metrics.capturing`), and a fresh
  :class:`~repro.obs.events.EventLog` — the instrumented code inside the
  task needs no changes;
* **ship** — on exit the capture serializes everything into a
  :class:`TelemetryBundle` (span dicts, metric deltas, histogram states
  with their reservoirs, sequence-numbered events), stamped with the worker
  pid and the shard id.  Bundles are plain picklable data a few KB long;
  :func:`run_captured` is the worker-side driver that pairs a task's result
  with its bundle, and ships the bundle *even when the task raises* (the
  bundle rides back attached to the original exception — see
  :func:`bundle_from_error` — so error types and messages are reported
  exactly as they would be without capture);
* **merge** — the coordinator calls :func:`merge_bundles`, which sorts
  bundles by ``(shard id, attempt)`` (so completion order can never change
  the outcome), grafts each bundle's spans under the coordinator's open
  dispatching span (worker span ids are re-allocated; event correlations
  are remapped to match), folds counters/gauges/histograms into the live
  registry, and re-emits events into the active log tagged with
  ``worker_pid`` and ``shard_id``.

The ``REPRO_OBS_CAPTURE`` environment variable is the kill switch:
``REPRO_OBS_CAPTURE=0`` disables capture entirely — tasks run bare, no
bundle is built or serialized, and the coordinator registry receives
nothing from workers (see :func:`capture_enabled`).
"""

from __future__ import annotations

import os
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import events as _events
from . import metrics as _metrics
from . import spans as _spans

__all__ = [
    "BUNDLE_ATTR",
    "CAPTURE_ENV",
    "TelemetryBundle",
    "bundle_from_error",
    "capture",
    "capture_enabled",
    "merge_bundles",
    "run_captured",
]

#: Environment switch: set to ``0``/``false``/``no``/``off`` to disable
#: worker telemetry capture entirely (no bundle is built or shipped).
CAPTURE_ENV = "REPRO_OBS_CAPTURE"

_FALSE_VALUES = ("0", "false", "no", "off")


def capture_enabled() -> bool:
    """Is worker telemetry capture on?  (Default yes; env kill switch.)

    Read at call time, so tests and benchmarks can flip the switch around
    individual calls without rebuilding pools.
    """
    return os.environ.get(CAPTURE_ENV, "1").strip().lower() not in _FALSE_VALUES


@dataclass
class TelemetryBundle:
    """One task's complete telemetry, serialized for the trip upstream.

    Plain picklable data only: span trees as ``to_dict`` payloads, metric
    deltas as name→value maps, histograms as full mergeable states
    (:meth:`repro.obs.metrics.Histogram.to_state`), and events as
    ``to_dict`` payloads in emission order.  ``shard_id`` and ``attempt``
    make the coordinator's merge order deterministic whatever order tasks
    completed in; ``worker_pid`` tags every merged span and event with the
    process that produced it.
    """

    shard_id: int
    label: str
    worker_pid: int
    attempt: int = 1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    spans: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)
    error: Optional[Dict[str, str]] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


#: Attribute name :func:`run_captured` uses to attach a failed task's
#: bundle to the exception it re-raises.  ``BaseException.__reduce__``
#: includes instance ``__dict__`` in the pickle, so the bundle survives the
#: trip back through a ``ProcessPoolExecutor`` while the exception keeps
#: its original type and message — retry logic and failure reporting never
#: see a wrapper.
BUNDLE_ATTR = "_telemetry_bundle"


def bundle_from_error(error: BaseException) -> Optional[TelemetryBundle]:
    """The telemetry bundle a failed captured task shipped, if any.

    ``None`` for uncaptured failures (capture disabled, pool breakage,
    exceptions with a custom ``__reduce__`` that drops instance state)."""
    bundle = getattr(error, BUNDLE_ATTR, None)
    return bundle if isinstance(bundle, TelemetryBundle) else None


class capture:
    """Record one task's telemetry into a shippable bundle (worker side).

    ::

        with capture(shard_id=3, label="score.shard") as cap:
            do_the_work()
        ship(cap.bundle)

    Installs a fresh tracer, metrics registry, and event log for the
    duration, and opens one root span named ``label`` carrying the shard id
    and worker pid — everything the task records nests under it.  On exit
    (normal or exceptional) the bundle is finalized; an exception is
    recorded on the root span (``meta["error"]``) and as a ``task_error``
    event before it propagates, so failed tasks still ship their story.
    """

    __slots__ = (
        "bundle",
        "_tracing",
        "_recording",
        "_capturing",
        "_span_context",
        "_root",
    )

    def __init__(self, shard_id: int = 0, label: str = "task", attempt: int = 1) -> None:
        self.bundle = TelemetryBundle(
            shard_id=shard_id,
            label=label,
            worker_pid=os.getpid(),
            attempt=attempt,
        )

    def __enter__(self) -> "capture":
        self._tracing = _spans.tracing()
        tracer = self._tracing.__enter__()
        self._recording = _events.recording()
        self._recording.__enter__()
        self._capturing = _metrics.capturing()
        self._capturing.__enter__()
        self._span_context = tracer.span(
            self.bundle.label,
            shard=self.bundle.shard_id,
            pid=self.bundle.worker_pid,
        )
        self._root = self._span_context.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self._root.meta["error"] = f"{type(exc).__name__}: {exc}"
            _events.emit(
                _events.TASK_ERROR,
                severity="critical",
                source=self.bundle.label,
                shard=self.bundle.shard_id,
                error_type=type(exc).__name__,
                error=str(exc) or repr(exc),
            )
            self.bundle.error = {
                "type": type(exc).__name__,
                "message": str(exc) or repr(exc),
            }
        self._span_context.__exit__(exc_type, exc, tb)
        self._capturing.__exit__(exc_type, exc, tb)
        self._recording.__exit__(exc_type, exc, tb)
        self._tracing.__exit__(exc_type, exc, tb)
        self._finalize()
        return False

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        bundle = self.bundle
        tracer = self._tracing.tracer
        registry = self._capturing.registry
        log = self._recording.log
        bundle.wall_s = self._root.wall_s
        bundle.cpu_s = self._root.cpu_s
        bundle.spans = [root.to_dict() for root in tracer.roots]
        bundle.counters = dict(registry.counters)
        bundle.gauges = dict(registry.gauges)
        bundle.histograms = {
            name: histogram.to_state()
            for name, histogram in registry.histograms.items()
        }
        bundle.events = [event.to_dict() for event in log]


def run_captured(fn, shard_id: int, label: str, attempt: int, args: Sequence):
    """Worker-side driver: run ``fn(*args)`` under capture.

    Returns ``(result, bundle)`` on success.  On failure the original
    exception propagates unchanged except for the bundle attached under
    :data:`BUNDLE_ATTR` (plus the formatted worker traceback, for
    diagnosis) — the coordinator harvests the telemetry with
    :func:`bundle_from_error` while its retry logic and failure reporting
    keep seeing the true error type and message.
    """
    cap = capture(shard_id=shard_id, label=label, attempt=attempt)
    try:
        with cap:
            result = fn(*args)
    except Exception as error:  # noqa: BLE001 - annotated, never swallowed
        try:
            setattr(error, BUNDLE_ATTR, cap.bundle)
            error._worker_traceback = _traceback.format_exc()
        except Exception:  # pragma: no cover - slotted/frozen exceptions
            pass
        raise
    return result, cap.bundle


# ----------------------------------------------------------------------
# coordinator-side merge
# ----------------------------------------------------------------------
def merge_bundles(
    bundles: Sequence[TelemetryBundle],
    *,
    tracer: Optional[_spans.Tracer] = None,
    registry: Optional[_metrics.MetricsRegistry] = None,
    log: Optional[_events.EventLog] = None,
) -> None:
    """Fold shipped bundles into the coordinator's live surfaces.

    Defaults target whatever is live right now: the calling thread's
    installed tracer, the active metrics registry, and the active event
    log (each skipped when absent — metrics always merge, since a registry
    always exists).

    Bundles are first sorted by ``(shard_id, attempt)``, which makes every
    merged artifact — histogram reservoirs included — a pure function of
    the work done, not of the order tasks happened to complete in.  Spans
    are grafted under the innermost open coordinator span with fresh span
    ids; event ``span_id`` correlations are remapped onto the rebuilt tree
    and every event gains ``worker_pid`` and ``shard_id`` fields.
    """
    if not bundles:
        return
    tracer = tracer if tracer is not None else _spans.get_tracer()
    registry = registry if registry is not None else _metrics.global_registry()
    log = log if log is not None else _events.get_event_log()
    ordered = sorted(bundles, key=lambda b: (b.shard_id, b.attempt))
    for bundle in ordered:
        _merge_one(bundle, tracer, registry, log)


def _merge_one(
    bundle: TelemetryBundle,
    tracer: Optional[_spans.Tracer],
    registry: Optional[_metrics.MetricsRegistry],
    log: Optional[_events.EventLog],
) -> None:
    id_map: Dict[int, int] = {}
    if tracer is not None:
        for payload in bundle.spans:
            tracer.attach(_spans.Span.from_dict(payload, id_map=id_map))
    if registry is not None:
        for name in sorted(bundle.counters):
            registry.inc(name, bundle.counters[name])
        for name in sorted(bundle.gauges):
            registry.set_gauge(name, bundle.gauges[name])
        for name in sorted(bundle.histograms):
            shipped = _metrics.Histogram.from_state(bundle.histograms[name])
            registry.histogram(name).merge(shipped)
    if log is not None:
        for payload in bundle.events:
            fields = dict(payload.get("fields", {}))
            fields.setdefault("worker_pid", bundle.worker_pid)
            fields.setdefault("shard_id", bundle.shard_id)
            span_id = payload.get("span_id")
            log.append(
                _events.Event(
                    seq=int(payload["seq"]),
                    kind=str(payload["kind"]),
                    severity=str(payload.get("severity", "info")),
                    source=str(payload.get("source", "")),
                    fields=fields,
                    span_id=id_map.get(span_id) if span_id is not None else None,
                    span_path=payload.get("span_path"),
                )
            )
