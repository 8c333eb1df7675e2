"""Fault injection & chaos testing: keep the planner power-safe on dirty data.

The paper assumes three weeks of clean per-minute telemetry and a fleet
where every runtime action succeeds.  This package drops both assumptions:

* :mod:`repro.faults.inject` — telemetry fault injectors (sensor dropout,
  stuck-at readings, spikes, negative glitches, clock skew) over a
  permissive :class:`RawTelemetry` container;
* :mod:`repro.faults.repair` — the explicit sanitisation gate back to the
  strict :class:`~repro.traces.traceset.TraceSet` world, with a full audit
  trail of what was repaired;
* the runtime fault models — server-failure schedules, flaky conversions
  with bounded retry/backoff, and the emergency capping fallback that keeps
  ``overload_steps() == 0`` by construction — live in
  :mod:`repro.engine.faults` and run as chaos-mode
  :class:`~repro.engine.ScenarioSpec` pipelines;
* :mod:`repro.faults.harness` — named chaos scenarios driving the whole
  pipeline (synthesize → inject → repair → place → reshape) and reporting
  breaker trips, LC energy shed, dropped demand, and placement-quality
  deltas against clean inputs.
"""

from .harness import (
    DEFAULT_SUITE,
    QUALITY_TOLERANCE,
    ChaosScenario,
    ChaosScenarioOutcome,
    format_chaos_table,
    run_chaos_scenario,
    run_chaos_suite,
    scenario_by_name,
)
from .inject import (
    FaultPlan,
    GridMisalignment,
    NegativeGlitch,
    PowerSpike,
    RawTelemetry,
    SensorDropout,
    StuckSensor,
    dirty_copy,
)
from .repair import (
    RepairOutcome,
    RepairPolicy,
    RepairReport,
    realign,
    repair_telemetry,
)

__all__ = [
    "DEFAULT_SUITE",
    "QUALITY_TOLERANCE",
    "ChaosScenario",
    "ChaosScenarioOutcome",
    "FaultPlan",
    "GridMisalignment",
    "NegativeGlitch",
    "PowerSpike",
    "RawTelemetry",
    "RepairOutcome",
    "RepairPolicy",
    "RepairReport",
    "SensorDropout",
    "StuckSensor",
    "dirty_copy",
    "format_chaos_table",
    "realign",
    "repair_telemetry",
    "run_chaos_scenario",
    "run_chaos_suite",
    "scenario_by_name",
]
