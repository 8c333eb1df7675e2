"""Declarative scenario specs: what to run, not how to run it.

A :class:`ScenarioSpec` describes one reshaping/chaos scenario — fleet,
demand, fault models, extra-server budget, seed — and maps to a pipeline
of policies/actuators via :func:`build_pipeline`.  A :class:`ChaosSpec`
describes one end-to-end chaos-harness run (synthesize → inject → repair →
place → reshape).  Both are plain picklable dataclasses, so
:func:`repro.engine.parallel.run_many` can fan them out to worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..sim.demand import DemandTrace
from .policy import (
    Actuator,
    ConversionFaultPolicy,
    ConversionPlanPolicy,
    EmergencyCapping,
    Policy,
    PowerSpikePolicy,
    ServerFailurePolicy,
    StaticFleetPolicy,
    ThrottleBoostPlan,
)
from .state import FleetDescription

#: Scenario modes the engine knows how to build a pipeline for.
MODES = (
    "pre",
    "lc_only",
    "conversion",
    "throttle_boost",
    "conversion_chaos",
    "throttle_boost_chaos",
    "spike_chaos",
)

#: The scenario label each mode stamps on its result (the chaotic
#: throttle/boost run keeps the clean run's name).
_MODE_LABELS = {
    "pre": "pre",
    "lc_only": "lc_only",
    "conversion": "conversion",
    "throttle_boost": "throttle_boost",
    "conversion_chaos": "conversion_chaos",
    "throttle_boost_chaos": "throttle_boost",
    "spike_chaos": "spike_chaos",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One reshaping scenario, declaratively.

    ``conversion`` is required for every mode (it carries the dispatch
    threshold); the fault models (``failures``, ``conversion_faults``,
    ``breaker``, ``capping_policy``) only matter for the chaos modes and
    default to the no-fault models when ``None``.  ``policies`` /
    ``actuators`` override the mode's default pipeline when given.
    """

    mode: str
    fleet: FleetDescription
    demand: DemandTrace
    conversion: Any = None
    throttle: Any = None
    dvfs: Any = None
    failures: Any = None
    conversion_faults: Any = None
    breaker: Any = None
    capping_policy: Any = None
    #: Correlated power-spike bursts (a PowerSpikeSchedule); only the
    #: spike_chaos mode consumes it by default.
    spikes: Any = None
    extra_servers: int = 0
    extra_throttle_funded: Optional[int] = None
    seed: int = 0
    name: Optional[str] = None
    policies: Optional[Tuple[Policy, ...]] = None
    actuators: Optional[Tuple[Actuator, ...]] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {MODES}")
        if self.extra_servers < 0:
            raise ValueError("extra server count cannot be negative")

    @property
    def scenario_name(self) -> str:
        return self.name if self.name is not None else _MODE_LABELS[self.mode]


def build_pipeline(
    spec: ScenarioSpec,
) -> Tuple[Tuple[Policy, ...], Tuple[Actuator, ...]]:
    """The (policies, actuators) pipeline for one spec.

    Explicit ``spec.policies`` / ``spec.actuators`` win; otherwise the
    mode picks its default plugin sequence.
    """
    if spec.policies is not None or spec.actuators is not None:
        return tuple(spec.policies or ()), tuple(spec.actuators or ())
    if spec.mode == "pre":
        return (), ()
    if spec.mode == "lc_only":
        return (StaticFleetPolicy(spec.extra_servers),), ()
    if spec.mode == "conversion":
        return (ConversionPlanPolicy(spec.extra_servers),), ()
    if spec.mode == "throttle_boost":
        return (
            ThrottleBoostPlan(spec.extra_servers, spec.extra_throttle_funded),
        ), ()
    if spec.mode == "conversion_chaos":
        return (
            ConversionPlanPolicy(spec.extra_servers),
            ConversionFaultPolicy(),
            ServerFailurePolicy(),
        ), (EmergencyCapping(attach_fault_logs=True),)
    if spec.mode == "throttle_boost_chaos":
        return (
            ThrottleBoostPlan(spec.extra_servers, spec.extra_throttle_funded),
        ), (EmergencyCapping(),)
    if spec.mode == "spike_chaos":
        return (
            ConversionPlanPolicy(spec.extra_servers),
            PowerSpikePolicy(),
        ), (EmergencyCapping(),)
    raise ValueError(f"unknown mode {spec.mode!r}")  # pragma: no cover


@dataclass(frozen=True)
class ChaosSpec:
    """One end-to-end chaos-harness run, declaratively.

    ``scenario`` is a :class:`~repro.faults.harness.ChaosScenario` or its
    name in the default suite.  Sizing fields left ``None`` fall back to
    the chaos harness's experiment-scale defaults.
    """

    scenario: Any
    dc_name: str = "DC1"
    n_instances: Optional[int] = None
    step_minutes: Optional[int] = None
    weeks: Optional[int] = None
    repair_policy: Any = None
    budget_margin: float = 0.05

    def resolved_scenario(self):
        """The ChaosScenario object (looks up string names in the suite)."""
        if isinstance(self.scenario, str):
            from ..faults.harness import scenario_by_name

            return scenario_by_name(self.scenario)
        return self.scenario

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :func:`repro.faults.harness.run_chaos_scenario`."""
        kwargs: Dict[str, Any] = {
            "dc_name": self.dc_name,
            "budget_margin": self.budget_margin,
        }
        for key in ("n_instances", "step_minutes", "weeks", "repair_policy"):
            value = getattr(self, key)
            if value is not None:
                kwargs[key] = value
        return kwargs


def chaos_spec(
    scenario: Any,
    *,
    dc_name: str = "DC1",
    n_instances: Optional[int] = None,
    step_minutes: Optional[int] = None,
    weeks: Optional[int] = None,
    repair_policy: Any = None,
    budget_margin: float = 0.05,
) -> ChaosSpec:
    """The shared scenario loader for the CLI and sweep drivers.

    Accepts a scenario name or object and resolves names eagerly so typos
    fail at build time, not inside a worker process.
    """
    spec = ChaosSpec(
        scenario=scenario,
        dc_name=dc_name,
        n_instances=n_instances,
        step_minutes=step_minutes,
        weeks=weeks,
        repair_policy=repair_policy,
        budget_margin=budget_margin,
    )
    return ChaosSpec(
        scenario=spec.resolved_scenario(),
        dc_name=spec.dc_name,
        n_instances=spec.n_instances,
        step_minutes=spec.step_minutes,
        weeks=spec.weeks,
        repair_policy=spec.repair_policy,
        budget_margin=spec.budget_margin,
    )
