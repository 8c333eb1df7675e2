"""Chaos harness: the full pipeline under named fault scenarios.

Each :class:`ChaosScenario` bundles telemetry faults, runtime faults, and a
demand surge; :func:`run_chaos_scenario` drives the end-to-end pipeline —
synthesize → inject → repair → place → reshape — and reports the safety
metrics that matter:

* breaker trips of the resulting placement (via
  :func:`repro.infra.breaker.audit_view`);
* latency-critical energy shed and dropped demand after the emergency
  capping fallback;
* placement-quality delta against the clean-input placement (mean RPP
  asynchrony score on the held-out test week).

A scenario *passes* when the repaired-input placement stays within 5% of
the clean-input placement's quality and the recovered reshaping scenario
has zero overload steps and zero breaker trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..obs import events as obs_events
from ..obs import telemetry as obs_telemetry
from ..analysis import experiments
from ..analysis.report import format_percent, format_table
from ..core.metrics import node_asynchrony_scores
from ..core.pipeline import SmoothOperator, SmoothOperatorConfig
from ..core.placement import PlacementConfig
from ..engine import (
    ChaosRunResult,
    ConversionFaultModel,
    Engine,
    ScenarioSpec,
    ServerFailureSchedule,
    chaos_spec,
    run_many,
)
from ..infra.aggregation import NodePowerView
from ..infra.breaker import BreakerModel, audit_view, power_safe
from ..infra.budget import provision_hierarchical
from ..infra.topology import Level
from ..reshaping.conversion import ConversionPolicy
from ..reshaping.fleet import derive_demand, describe_fleet
from ..reshaping.lconv import learn_conversion_threshold
from ..traces.instance import InstanceRecord
from ..traces.series import PowerTrace
from .inject import (
    FaultPlan,
    GridMisalignment,
    NegativeGlitch,
    PowerSpike,
    SensorDropout,
    StuckSensor,
    dirty_copy,
)
from .repair import RepairPolicy, RepairReport, repair_telemetry

#: Quality tolerance of the acceptance criterion: a repaired-input placement
#: may lose at most this fraction of the clean placement's asynchrony score.
QUALITY_TOLERANCE = 0.05


@dataclass(frozen=True)
class ChaosScenario:
    """One named bundle of faults for the end-to-end pipeline."""

    name: str
    description: str
    telemetry_faults: Tuple[object, ...] = ()
    failure_events_per_week: float = 0.0
    mean_failure_hours: float = 4.0
    conversion_faults: Optional[ConversionFaultModel] = None
    #: Multiplies LC demand beyond the planned growth — >1 stresses capacity.
    demand_surge: float = 1.0
    #: Multiplies the reshaping budget — <1 models a lost feed / brownout,
    #: forcing persistent overload so the capping fallback must engage.
    budget_squeeze: float = 1.0
    seed: int = 0

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(faults=tuple(self.telemetry_faults), seed=self.seed)


@dataclass
class ChaosScenarioOutcome:
    """Everything one chaos-scenario run measured."""

    scenario: ChaosScenario
    dc_name: str
    repair: RepairReport
    dirty_missing_fraction: float
    quality_clean: float
    quality_chaos: float
    placement_trips: int
    placement_safe: bool
    reshaping: ChaosRunResult

    @property
    def quality_delta(self) -> float:
        """Fractional quality change vs the clean placement (<0 = worse)."""
        if self.quality_clean == 0:
            return 0.0
        return self.quality_chaos / self.quality_clean - 1.0

    def checks(self) -> Dict[str, bool]:
        return {
            "quality_within_tolerance": self.quality_delta >= -QUALITY_TOLERANCE,
            "no_overload_after_recovery": (
                self.reshaping.scenario.overload_steps() == 0
            ),
            "no_trips_after_recovery": not self.reshaping.recovery.trips_after,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks().values())


# ----------------------------------------------------------------------
# the named scenario suite
# ----------------------------------------------------------------------
DEFAULT_SUITE: Tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="clean",
        description="no faults — the control run",
    ),
    ChaosScenario(
        name="sensor_dropout",
        description="a quarter of the sensors drop 2-hour gaps",
        telemetry_faults=(SensorDropout(fraction_of_traces=0.25, gaps_per_trace=2),),
        seed=11,
    ),
    ChaosScenario(
        name="stuck_sensors",
        description="sensors repeat their last reading for hours",
        telemetry_faults=(StuckSensor(fraction_of_traces=0.2, stuck_samples=24),),
        seed=12,
    ),
    ChaosScenario(
        name="power_spikes",
        description="single-sample glitches at 8x the physical ceiling",
        telemetry_faults=(PowerSpike(fraction_of_traces=0.5, spikes_per_trace=3),),
        seed=13,
    ),
    ChaosScenario(
        name="clock_skew",
        description="every reading is 3 minutes off the canonical grid",
        telemetry_faults=(GridMisalignment(offset_minutes=3),),
        seed=14,
    ),
    ChaosScenario(
        name="dirty_everything",
        description="dropouts + stuck-at + spikes + negatives + skew at once",
        telemetry_faults=(
            SensorDropout(fraction_of_traces=0.2),
            StuckSensor(fraction_of_traces=0.15),
            PowerSpike(fraction_of_traces=0.3, spikes_per_trace=2),
            NegativeGlitch(fraction_of_traces=0.1),
            GridMisalignment(offset_minutes=3),
        ),
        seed=15,
    ),
    ChaosScenario(
        name="server_failures",
        description="rack-scale outages take servers offline mid-week",
        failure_events_per_week=12.0,
        mean_failure_hours=6.0,
        seed=16,
    ),
    ChaosScenario(
        name="flaky_conversions",
        description="conversions land late, fail, and sometimes abort",
        conversion_faults=ConversionFaultModel(
            latency_steps=2, failure_prob=0.3, max_retries=2
        ),
        seed=17,
    ),
    ChaosScenario(
        name="surge_overload",
        description="a demand surge under a browned-out budget",
        demand_surge=1.35,
        budget_squeeze=0.8,
        seed=18,
    ),
    ChaosScenario(
        name="perfect_storm",
        description="dirty telemetry, failures, flaky conversions, and a surge",
        telemetry_faults=(
            SensorDropout(fraction_of_traces=0.2),
            StuckSensor(fraction_of_traces=0.15),
            PowerSpike(fraction_of_traces=0.3, spikes_per_trace=2),
            GridMisalignment(offset_minutes=3),
        ),
        failure_events_per_week=12.0,
        mean_failure_hours=6.0,
        conversion_faults=ConversionFaultModel(
            latency_steps=2, failure_prob=0.3, max_retries=2
        ),
        demand_surge=1.35,
        budget_squeeze=0.8,
        seed=19,
    ),
)


def scenario_by_name(name: str) -> ChaosScenario:
    for scenario in DEFAULT_SUITE:
        if scenario.name == name:
            return scenario
    raise KeyError(
        f"unknown chaos scenario {name!r}; "
        f"known: {[s.name for s in DEFAULT_SUITE]}"
    )


# ----------------------------------------------------------------------
# the end-to-end pipeline
# ----------------------------------------------------------------------
def run_chaos_scenario(
    scenario: ChaosScenario,
    *,
    dc_name: str = "DC1",
    n_instances: int = experiments.DEFAULT_N_INSTANCES,
    step_minutes: int = experiments.DEFAULT_STEP_MINUTES,
    weeks: int = experiments.DEFAULT_WEEKS,
    repair_policy: Optional[RepairPolicy] = None,
    budget_margin: float = 0.05,
) -> ChaosScenarioOutcome:
    """Synthesize → inject → repair → place → reshape, under one scenario."""
    with obs.span("chaos.scenario", scenario=scenario.name):
        obs.count("chaos.scenarios_run")
        dc = experiments.get_datacenter(
            dc_name, n_instances=n_instances, step_minutes=step_minutes, weeks=weeks
        )
        clean_study = experiments.run_placement_study(dc, budget_margin=budget_margin)
        test = dc.test_traces()

        # -- inject + repair + place -------------------------------------
        if scenario.telemetry_faults:
            with obs.span("chaos.inject_repair"):
                for fault in scenario.telemetry_faults:
                    obs_events.emit(
                        obs_events.FAULT_INJECTION,
                        severity="warning",
                        source="faults.inject",
                        fault=type(fault).__name__,
                        scenario=scenario.name,
                    )
                dirty = dirty_copy(dc.training_traces(), scenario.fault_plan())
                dirty_missing = dirty.missing_fraction()
                outcome = repair_telemetry(
                    dirty, policy=repair_policy, target_grid=dc.training_traces().grid
                )
            repaired_records = _records_with_training(dc.records, outcome.traces)
            operator = SmoothOperator(
                SmoothOperatorConfig(placement=PlacementConfig(seed=0))
            )
            chaos_assignment = operator.optimize(
                repaired_records, dc.topology
            ).assignment
            repair_report = outcome.report
        else:
            dirty_missing = 0.0
            chaos_assignment = clean_study.optimized.assignment
            repair_report = RepairReport()

        clean_assignment = clean_study.optimized.assignment
        quality_clean = _placement_quality(clean_assignment, test)
        quality_chaos = (
            quality_clean
            if chaos_assignment is clean_assignment
            else _placement_quality(chaos_assignment, test)
        )

        # Audit the deployed (repaired-input) placement against the budgets
        # the clean plan would have provisioned: trips measure how badly the
        # dirty telemetry mis-sized the infrastructure.
        with obs.span("chaos.audit"):
            provision_hierarchical(
                NodePowerView(dc.topology, clean_assignment, test),
                margin=budget_margin,
            )
            view = NodePowerView(dc.topology, chaos_assignment, test)
            # Per-power-node flight recording: utilization/slack/headroom
            # series plus violation/advisory events for every budgeted node
            # of the deployed placement (no-op unless telemetry is on).
            obs_telemetry.record_view(view)
            trips = audit_view(view, BreakerModel())
            safe = power_safe(view, BreakerModel())

        # -- reshape under runtime faults --------------------------------
        with obs.span("chaos.reshape"):
            reshaping = _run_reshaping_chaos(dc, clean_study, scenario)

    return ChaosScenarioOutcome(
        scenario=scenario,
        dc_name=dc_name,
        repair=repair_report,
        dirty_missing_fraction=dirty_missing,
        quality_clean=quality_clean,
        quality_chaos=quality_chaos,
        placement_trips=sum(len(t) for t in trips.values()),
        placement_safe=safe,
        reshaping=reshaping,
    )


def run_chaos_suite(
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    *,
    dc_name: str = "DC1",
    workers: int = 1,
    **kwargs,
) -> List[ChaosScenarioOutcome]:
    """Run every scenario of the suite; never raises for in-suite faults.

    ``workers > 1`` fans the scenarios out to a process pool via
    :func:`repro.engine.run_many`; every scenario is seeded, so the
    outcomes are identical to a serial run.
    """
    scenarios = scenarios if scenarios is not None else DEFAULT_SUITE
    if workers > 1:
        specs = [
            chaos_spec(scenario, dc_name=dc_name, **kwargs)
            for scenario in scenarios
        ]
        return [
            artifacts.result for artifacts in run_many(specs, workers=workers)
        ]
    return [
        run_chaos_scenario(scenario, dc_name=dc_name, **kwargs)
        for scenario in scenarios
    ]


def format_chaos_table(outcomes: Sequence[ChaosScenarioOutcome]) -> str:
    """Render the suite's safety metrics as one aligned table."""
    rows = []
    for outcome in outcomes:
        recovery = outcome.reshaping.recovery
        rows.append(
            [
                outcome.scenario.name,
                format_percent(outcome.repair.repaired_fraction, 2),
                format_percent(outcome.quality_delta, 2),
                outcome.placement_trips,
                "yes" if recovery.engaged else "no",
                outcome.reshaping.scenario.overload_steps(),
                len(recovery.trips_after),
                f"{recovery.lc_energy_shed / 1e3:.1f}",
                format_percent(outcome.reshaping.scenario.dropped_fraction(), 2),
                "PASS" if outcome.passed else "FAIL",
            ]
        )
    return format_table(
        [
            "scenario",
            "repaired",
            "quality d",
            "trips (place)",
            "capping",
            "overload",
            "trips (after)",
            "LC shed (kW-min)",
            "dropped",
            "verdict",
        ],
        rows,
        title=f"Chaos suite — {outcomes[0].dc_name}" if outcomes else "Chaos suite",
    )


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _records_with_training(
    records: Sequence[InstanceRecord], repaired
) -> List[InstanceRecord]:
    """Records whose training traces are replaced by the repaired set."""
    return [
        InstanceRecord(
            instance=record.instance,
            training_trace=PowerTrace(
                repaired.grid, repaired.row(record.instance_id)
            ),
            test_trace=record.test_trace,
        )
        for record in records
    ]


def _placement_quality(assignment, traces) -> float:
    """Mean RPP-level asynchrony score on the held-out week (higher=better)."""
    scores = node_asynchrony_scores(assignment, traces, Level.RPP)
    return float(np.mean(list(scores.values()))) if scores else 0.0


def _run_reshaping_chaos(dc, clean_study, scenario: ChaosScenario) -> ChaosRunResult:
    root_budget = dc.topology.root.budget_watts
    if root_budget is None:
        raise RuntimeError("placement study did not provision budgets")
    fleet = describe_fleet(
        dc.records, budget_watts=root_budget * scenario.budget_squeeze
    )
    extra = clean_study.report.expansion.total_extra

    training_demand = derive_demand(dc.records, use_test=False)
    threshold = learn_conversion_threshold(training_demand, fleet.n_lc)
    conversion = ConversionPolicy(conversion_threshold=threshold)

    demand = derive_demand(dc.records, use_test=True).scaled(
        (1.0 + extra / fleet.n_lc) * scenario.demand_surge
    )

    failures = (
        ServerFailureSchedule.random(
            demand.grid,
            n_lc=fleet.n_lc,
            n_batch=fleet.n_batch,
            events_per_week=scenario.failure_events_per_week,
            mean_duration_hours=scenario.mean_failure_hours,
            seed=scenario.seed,
        )
        if scenario.failure_events_per_week > 0
        else ServerFailureSchedule()
    )
    spec = ScenarioSpec(
        mode="conversion_chaos",
        fleet=fleet,
        demand=demand,
        conversion=conversion,
        failures=failures,
        conversion_faults=scenario.conversion_faults,
        extra_servers=extra,
        seed=scenario.seed,
    )
    return Engine.from_spec(spec).run(spec).result
