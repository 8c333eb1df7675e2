"""Longitudinal adaptation: placement quality over months of drift.

Sec. 3.6: "our framework continuously records the I-traces ... and
dynamically re-evaluates the severity of the fragmentation problem ...
[applying] incremental adjustment" when the placement goes stale.  This
module simulates that regime end-to-end:

* service behaviour drifts week over week (peak hours shift, amplitudes
  grow/shrink) while every instance keeps its stable *personality*;
* a :class:`FragmentationMonitor` watches each week's telemetry;
* when it raises advisories, the Sec. 3.6 swap engine runs with a bounded
  migration budget.

The output is the weekly sum-of-peaks trajectory with and without
adaptation — the quantity that decides how often a datacenter must re-run
placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.remapping import RemapConfig, RemappingEngine
from ..infra.aggregation import NodePowerView
from ..infra.assignment import Assignment
from ..traces.instance import InstanceRecord
from ..traces.profiles import ServiceProfile
from ..traces.synthesis import InstancePersonality, TraceSynthesizer, draw_personality
from ..traces.traceset import TraceSet
from .monitoring import FragmentationMonitor, MonitorConfig

#: A drift function: (profile, week_index) -> profile for that week.
DriftFn = Callable[[ServiceProfile, int], ServiceProfile]


def no_drift(profile: ServiceProfile, week: int) -> ServiceProfile:
    return profile


def phase_drift(hours_per_week: float) -> DriftFn:
    """Peak hours slide by ``hours_per_week`` each week (access-pattern
    migration, e.g. a user base shifting across time zones)."""

    def drift(profile: ServiceProfile, week: int) -> ServiceProfile:
        new_hour = (profile.peak_hour + hours_per_week * week) % 24.0
        return replace(profile, peak_hour=new_hour)

    return drift


def amplitude_drift(fraction_per_week: float) -> DriftFn:
    """Dynamic power swing grows by ``fraction_per_week`` weekly (feature
    launches, organic growth)."""

    def drift(profile: ServiceProfile, week: int) -> ServiceProfile:
        factor = (1.0 + fraction_per_week) ** week
        new_peak = profile.idle_watts + profile.swing_watts * factor
        return replace(profile, peak_watts=new_peak)

    return drift


def combined_drift(*drifts: DriftFn) -> DriftFn:
    def drift(profile: ServiceProfile, week: int) -> ServiceProfile:
        for fn in drifts:
            profile = fn(profile, week)
        return profile

    return drift


@dataclass(frozen=True)
class PhaseConvergenceEvent:
    """A subset of instances snaps to a common peak phase from some week on.

    The one drift mode that genuinely ages a *balanced* placement: a
    service-uniform change hits every node alike (the spread is immune),
    and independent random walks diffuse instances apart (reducing
    fragmentation).  But an event that synchronises a *random subset* of
    instances — a feature launch concentrating load on certain shards, a
    batch-window consolidation — lands unevenly across nodes, and the nodes
    that drew many affected instances fragment.  That is what the Sec. 3.6
    swaps repair.
    """

    week: int
    instance_ids: frozenset
    target_offset_hours: float

    def applies(self, instance_id: str, week_index: int) -> bool:
        return week_index >= self.week and instance_id in self.instance_ids


@dataclass
class DriftingFleet:
    """A fleet whose instances keep stable personalities while their
    services drift; emits one week of telemetry at a time.

    Two drift channels:

    * ``drift`` — service-level: the shared activity shape changes.  Note
      that a well-spread placement is largely *immune* to this: every node
      holds the same service mix, so all nodes drift alike and no swap
      can help (a genuine property, exercised by the tests).
    * ``personality_walk_hours`` / ``personality_walk_amplitude`` —
      instance-level random walks of each instance's phase offset and
      amplitude scale.  This is what actually ages a placement: individual
      shards gain/lose popularity and shift regionally, so nodes diverge
      and the Sec. 3.6 swaps earn their keep.
    """

    records: List[InstanceRecord]
    profiles: Dict[str, ServiceProfile]
    drift: DriftFn
    step_minutes: int = 30
    seed: int = 0
    personality_walk_hours: float = 0.0
    personality_walk_amplitude: float = 0.0
    event: Optional[PhaseConvergenceEvent] = None
    _personalities: Dict[str, InstancePersonality] = field(default_factory=dict)
    _walk_seeds: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        for record in self.records:
            profile = self.profiles[record.service]
            self._personalities[record.instance_id] = draw_personality(profile, rng)
            self._walk_seeds[record.instance_id] = int(rng.integers(2**31))

    def _personality_at(self, instance_id: str, week_index: int) -> InstancePersonality:
        base = self._personalities[instance_id]
        phase = base.phase_offset_hours
        amplitude = base.amplitude_scale
        if week_index > 0 and (
            self.personality_walk_hours > 0.0 or self.personality_walk_amplitude > 0.0
        ):
            walk_rng = np.random.default_rng(self._walk_seeds[instance_id])
            phase_steps = walk_rng.normal(
                0.0, self.personality_walk_hours, size=week_index
            )
            amp_steps = walk_rng.normal(
                0.0, self.personality_walk_amplitude, size=week_index
            )
            phase += float(phase_steps.sum())
            amplitude = float(np.clip(amplitude * np.exp(amp_steps.sum()), 0.2, 3.0))
        if self.event is not None and self.event.applies(instance_id, week_index):
            phase = self.event.target_offset_hours
        return InstancePersonality(
            phase_offset_hours=phase,
            amplitude_scale=amplitude,
            baseline_scale=base.baseline_scale,
        )

    def week(self, week_index: int) -> TraceSet:
        """Synthesise week ``week_index`` of telemetry for the whole fleet."""
        synthesizer = TraceSynthesizer(
            weeks=1,
            step_minutes=self.step_minutes,
            seed=self.seed * 7919 + week_index,
        )
        traces = {}
        for record in self.records:
            profile = self.drift(self.profiles[record.service], week_index)
            traces[record.instance_id] = synthesizer.instance_trace(
                profile, self._personality_at(record.instance_id, week_index)
            )
        return TraceSet.from_traces(traces)


@dataclass
class WeekOutcome:
    """One simulated week's health and any adaptation performed."""

    week: int
    sum_of_peaks: float
    advisories: int
    swaps_performed: int


@dataclass
class LongitudinalResult:
    """The weekly trajectory, with and without adaptation."""

    adaptive: List[WeekOutcome]
    static: List[float]

    def final_gap(self) -> float:
        """Fractional sum-of-peaks advantage of adapting, final week."""
        static_final = self.static[-1]
        adaptive_final = self.adaptive[-1].sum_of_peaks
        if static_final == 0:
            return 0.0
        return 1.0 - adaptive_final / static_final

    def total_swaps(self) -> int:
        return sum(outcome.swaps_performed for outcome in self.adaptive)


class LongitudinalSimulation:
    """Run the monitor → remap loop over ``n_weeks`` of drifting telemetry."""

    def __init__(
        self,
        fleet: DriftingFleet,
        initial_assignment: Assignment,
        *,
        level: str,
        monitor_config: Optional[MonitorConfig] = None,
        remap_config: Optional[RemapConfig] = None,
    ) -> None:
        self.fleet = fleet
        self.initial_assignment = initial_assignment
        self.level = level
        self.monitor_config = monitor_config or MonitorConfig(
            level=level, sum_of_peaks_tolerance=0.02
        )
        self.remap_config = remap_config or RemapConfig(
            level=level, max_swaps=20, candidate_nodes=5
        )

    def run(self, n_weeks: int) -> LongitudinalResult:
        if n_weeks <= 0:
            raise ValueError("n_weeks must be positive")
        topology = self.initial_assignment.topology
        assignment = self.initial_assignment
        monitor = FragmentationMonitor(assignment, self.monitor_config)

        adaptive: List[WeekOutcome] = []
        static: List[float] = []
        for week in range(n_weeks):
            traces = self.fleet.week(week)
            # The static arm never adapts.
            static_view = NodePowerView(topology, self.initial_assignment, traces)
            static.append(static_view.sum_of_peaks(self.level))

            if week == 0:
                snapshot = monitor.calibrate(traces)
                swaps = 0
            else:
                snapshot = monitor.observe(f"week-{week}", traces)
                swaps = 0
                if snapshot.advisories:
                    engine = RemappingEngine(self.remap_config)
                    result = engine.run(assignment, traces)
                    swaps = result.n_swaps
                    if swaps:
                        assignment = result.assignment
                        monitor = FragmentationMonitor(
                            assignment, self.monitor_config
                        )
                        monitor.calibrate(traces)
            view = NodePowerView(topology, assignment, traces)
            adaptive.append(
                WeekOutcome(
                    week=week,
                    sum_of_peaks=view.sum_of_peaks(self.level),
                    advisories=len(snapshot.advisories),
                    swaps_performed=swaps,
                )
            )
        return LongitudinalResult(adaptive=adaptive, static=static)
