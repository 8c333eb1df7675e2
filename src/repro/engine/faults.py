"""Fault models and chaos-run result types for the engine.

The runtime failure modes a production fleet has, which the paper's
failure-free Sec. 4 runtime leaves out:

* :class:`ServerFailureSchedule` — groups of LC or Batch servers offline
  for contiguous windows;
* :class:`ConversionFaultModel` — landing latency and per-attempt failure
  probability with bounded retry/backoff for conversion actions;
* :class:`RecoveryReport` / :class:`ChaosRunResult` — the audit trail and
  result wrapper of the emergency capping fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..infra.breaker import BreakerModel, BreakerTrip
from ..traces.grid import TimeGrid
from ..traces.series import PowerTrace
from .capping import CappingReport
from .state import ScenarioResult

#: Pools a failure event can hit.
LC_POOL = "lc"
BATCH_POOL = "batch"


@dataclass(frozen=True)
class FailureEvent:
    """One group of servers offline for a contiguous window."""

    start_index: int
    duration_samples: int
    n_servers: int
    pool: str = LC_POOL

    def __post_init__(self) -> None:
        if self.start_index < 0:
            raise ValueError("start_index cannot be negative")
        if self.duration_samples <= 0:
            raise ValueError("duration_samples must be positive")
        if self.n_servers <= 0:
            raise ValueError("n_servers must be positive")
        if self.pool not in (LC_POOL, BATCH_POOL):
            raise ValueError(f"pool must be {LC_POOL!r} or {BATCH_POOL!r}")


@dataclass(frozen=True)
class ServerFailureSchedule:
    """When and where servers die over the simulated span."""

    events: Tuple[FailureEvent, ...] = ()

    def lost_servers(self, n_samples: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-step offline counts ``(lc_lost, batch_lost)``."""
        lc = np.zeros(n_samples)
        batch = np.zeros(n_samples)
        for event in self.events:
            stop = min(event.start_index + event.duration_samples, n_samples)
            if event.start_index >= n_samples:
                continue
            target = lc if event.pool == LC_POOL else batch
            target[event.start_index : stop] += event.n_servers
        return lc, batch

    def downtime_server_steps(self, n_samples: int) -> float:
        lc, batch = self.lost_servers(n_samples)
        return float(lc.sum() + batch.sum())

    @classmethod
    def random(
        cls,
        grid: TimeGrid,
        *,
        n_lc: int,
        n_batch: int,
        events_per_week: float = 4.0,
        mean_duration_hours: float = 4.0,
        group_fraction: float = 0.02,
        seed: int = 0,
    ) -> "ServerFailureSchedule":
        """Poisson failure arrivals sized like rack-level outages.

        Each event takes roughly ``group_fraction`` of its pool offline for
        an exponentially-distributed window.  Events are split between the
        pools in proportion to their size.
        """
        if events_per_week < 0 or mean_duration_hours <= 0:
            raise ValueError("need non-negative rate and positive duration")
        if not 0 < group_fraction <= 1:
            raise ValueError("group_fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        n_events = int(rng.poisson(events_per_week * grid.n_weeks))
        total = max(n_lc + n_batch, 1)
        mean_duration_samples = max(
            1, int(round(mean_duration_hours * 60 / grid.step_minutes))
        )
        events: List[FailureEvent] = []
        for _ in range(n_events):
            pool = LC_POOL if rng.random() < n_lc / total else BATCH_POOL
            pool_size = n_lc if pool == LC_POOL else n_batch
            if pool_size == 0:
                continue
            group = max(1, int(round(group_fraction * pool_size)))
            duration = max(1, int(rng.exponential(mean_duration_samples)))
            start = int(rng.integers(0, grid.n_samples))
            events.append(
                FailureEvent(
                    start_index=start,
                    duration_samples=duration,
                    n_servers=group,
                    pool=pool,
                )
            )
        return cls(events=tuple(events))


@dataclass(frozen=True)
class SpikeEvent:
    """One correlated power burst: extra fleet draw for a contiguous window.

    Models the spikes the Γ-robust accounting defends against — a group of
    co-located instances simultaneously jumping from their nominal draw
    toward ``p_c + p_r`` (deploy waves, cache flushes, synchronized load).
    """

    start_index: int
    duration_samples: int
    extra_watts: float

    def __post_init__(self) -> None:
        if self.start_index < 0:
            raise ValueError("start_index cannot be negative")
        if self.duration_samples <= 0:
            raise ValueError("duration_samples must be positive")
        if self.extra_watts < 0:
            raise ValueError("extra_watts cannot be negative")


@dataclass(frozen=True)
class PowerSpikeSchedule:
    """When correlated spike bursts hit the fleet, and how hard."""

    events: Tuple[SpikeEvent, ...] = ()

    def extra_power(self, n_samples: int) -> np.ndarray:
        """Per-step extra draw from all bursts (overlaps stack)."""
        extra = np.zeros(n_samples)
        for event in self.events:
            if event.start_index >= n_samples:
                continue
            stop = min(event.start_index + event.duration_samples, n_samples)
            extra[event.start_index : stop] += event.extra_watts
        return extra

    def spike_watt_minutes(self, n_samples: int, step_minutes: float) -> float:
        return float(self.extra_power(n_samples).sum()) * step_minutes

    @classmethod
    def random(
        cls,
        grid: TimeGrid,
        *,
        bursts_per_week: float = 6.0,
        mean_duration_minutes: float = 30.0,
        extra_watts_low: float,
        extra_watts_high: float,
        seed: int = 0,
    ) -> "PowerSpikeSchedule":
        """Poisson burst arrivals with uniform magnitudes.

        Durations are exponential around ``mean_duration_minutes`` but
        floored at one sample, so every burst is visible to the breaker's
        persistence check when it lasts long enough.
        """
        if bursts_per_week < 0 or mean_duration_minutes <= 0:
            raise ValueError("need non-negative rate and positive duration")
        if not 0 <= extra_watts_low <= extra_watts_high:
            raise ValueError("need 0 <= extra_watts_low <= extra_watts_high")
        rng = np.random.default_rng(seed)
        n_bursts = int(rng.poisson(bursts_per_week * grid.n_weeks))
        mean_samples = max(1, int(round(mean_duration_minutes / grid.step_minutes)))
        events: List[SpikeEvent] = []
        for _ in range(n_bursts):
            events.append(
                SpikeEvent(
                    start_index=int(rng.integers(0, grid.n_samples)),
                    duration_samples=max(1, int(rng.exponential(mean_samples))),
                    extra_watts=float(
                        rng.uniform(extra_watts_low, extra_watts_high)
                    ),
                )
            )
        return cls(events=tuple(events))


@dataclass
class ConversionLog:
    """What happened to the conversions of one pool during a run."""

    n_transitions: int = 0
    n_failed_attempts: int = 0
    n_aborted: int = 0
    delayed_server_steps: float = 0.0


@dataclass(frozen=True)
class ConversionFaultModel:
    """Latency and failure semantics for conversion actions.

    A conversion *into* a pool takes ``latency_steps`` to land; each attempt
    fails with probability ``failure_prob`` and is retried after an
    exponential backoff (``backoff_steps`` doubling per retry), at most
    ``max_retries`` times.  If every attempt fails the transition aborts and
    the servers stay out of the pool until the next phase change.  Leaving a
    pool is immediate — stopping work needs no handshake.
    """

    latency_steps: int = 0
    failure_prob: float = 0.0
    max_retries: int = 3
    backoff_steps: int = 1

    def __post_init__(self) -> None:
        if self.latency_steps < 0:
            raise ValueError("latency_steps cannot be negative")
        if not 0 <= self.failure_prob < 1:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_steps < 0:
            raise ValueError("backoff_steps cannot be negative")

    def realize(
        self, target: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, ConversionLog]:
        """The pool occupancy actually achieved for a target schedule.

        ``target`` is the desired per-step number of extra servers in the
        pool.  The realised schedule is pointwise at most the target:
        upward transitions lag by latency and retries (or abort), downward
        transitions apply immediately.
        """
        target = np.asarray(target, dtype=np.float64)
        realized = np.empty_like(target)
        log = ConversionLog()
        current = float(target[0])
        realized[0] = current
        pending_level: Optional[float] = None
        pending_ready = 0
        for t in range(1, len(target)):
            want = float(target[t])
            if want <= current:
                current = want
                pending_level = None
            else:
                if pending_level != want:
                    log.n_transitions += 1
                    failures = 0
                    while failures <= self.max_retries and (
                        rng.random() < self.failure_prob
                    ):
                        failures += 1
                    if failures > self.max_retries:
                        log.n_failed_attempts += failures
                        log.n_aborted += 1
                        pending_level = want
                        pending_ready = len(target) + 1  # never lands
                    else:
                        log.n_failed_attempts += failures
                        delay = (failures + 1) * self.latency_steps + sum(
                            self.backoff_steps * (2**i) for i in range(failures)
                        )
                        pending_level = want
                        pending_ready = t + delay
                if t >= pending_ready:
                    current = want
                    pending_level = None
            realized[t] = current
            log.delayed_server_steps += max(want - current, 0.0)
        return realized, log


@dataclass
class RecoveryReport:
    """Audit trail of the emergency fallback for one chaos run."""

    engaged: bool
    trips_before: List[BreakerTrip] = field(default_factory=list)
    trips_after: List[BreakerTrip] = field(default_factory=list)
    overload_steps_before: int = 0
    overload_steps_after: int = 0
    capping: Optional[CappingReport] = None
    forced_shutdown_watt_minutes: float = 0.0
    conversion_lc: Optional[ConversionLog] = None
    conversion_batch: Optional[ConversionLog] = None
    failure_downtime_server_steps: float = 0.0

    @property
    def lc_energy_shed(self) -> float:
        """LC watt-minutes shed by the capping fallback (QoS damage)."""
        return self.capping.lc_energy_shed if self.capping is not None else 0.0


@dataclass
class ChaosRunResult:
    """A recovered scenario plus how the runtime got there."""

    scenario: ScenarioResult
    raw: ScenarioResult
    recovery: RecoveryReport

    def power_safe(self, breaker: Optional[BreakerModel] = None) -> bool:
        breaker = breaker if breaker is not None else BreakerModel()
        trace = PowerTrace(
            self.scenario.grid, np.maximum(self.scenario.total_power, 0.0)
        )
        return not breaker.trips(trace, self.scenario.budget_watts)
