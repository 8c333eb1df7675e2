"""The Policy / Actuator protocol and the built-in plugins.

A *policy* runs during the planning phase of :meth:`Engine.run`: it reads
and mutates the run's :class:`~repro.engine.state.FleetState` (and may set
``ctx.result`` directly when it needs full control of the assembly
sequence, as throttle/boost does).  An *actuator* runs after assembly and
transforms the assembled result — the emergency capping fallback is one.

Fault layering is a pipeline of these plugins, chosen per
:class:`~repro.engine.spec.ScenarioSpec` mode or supplied explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

from ..obs import events as obs_events
from .faults import BATCH_POOL, LC_POOL
from .state import FleetState


@dataclass
class RunContext:
    """Everything one run carries between pipeline stages."""

    engine: Any  # the owning Engine (typed loosely to avoid a cycle)
    spec: Any
    state: FleetState
    #: A policy may set this to take over assembly; the engine assembles
    #: from ``state`` only when the pipeline leaves it ``None``.
    result: Optional[Any] = None
    #: Conversion-fault audit logs, attached by ConversionFaultPolicy.
    conversion_lc: Optional[Any] = None
    conversion_batch: Optional[Any] = None
    #: The LC-heavy phase mask, recorded by conversion planning.
    lc_heavy: Optional[np.ndarray] = None


@runtime_checkable
class Policy(Protocol):
    """Plan-phase plugin: mutates ``ctx.state`` (may set ``ctx.result``)."""

    def apply(self, ctx: RunContext) -> None: ...


@runtime_checkable
class Actuator(Protocol):
    """Post-assembly plugin: transforms the assembled result."""

    def actuate(self, ctx: RunContext, result: Any) -> Any: ...


# ----------------------------------------------------------------------
# planning policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StaticFleetPolicy:
    """``lc_only``: add always-on LC-specific servers to the plan."""

    extra_servers: int = 0

    def apply(self, ctx: RunContext) -> None:
        if self.extra_servers:
            ctx.state.n_lc_active = ctx.state.n_lc_active + float(self.extra_servers)


@dataclass(frozen=True)
class ConversionPlanPolicy:
    """``conversion``: extras flip between LC and Batch with the phase."""

    extra_servers: int = 0

    def apply(self, ctx: RunContext) -> None:
        lc_heavy, n_lc_active, n_batch_active, parked = ctx.engine.conversion_plan(
            ctx.state.demand, self.extra_servers
        )
        ctx.lc_heavy = lc_heavy
        ctx.state.n_lc_active = n_lc_active
        ctx.state.n_batch_active = n_batch_active
        ctx.state.parked = parked


@dataclass(frozen=True)
class ThrottleBoostPlan:
    """``throttle_boost``: conversion plus proactive batch DVFS.

    Owns the full assembly sequence (nominal → boost against the nominal
    slack → re-fit where still over budget) and therefore sets
    ``ctx.result`` itself instead of leaving assembly to the engine.
    """

    extra_conversion: int = 0
    extra_throttle_funded: Optional[int] = None

    def apply(self, ctx: RunContext) -> None:
        engine = ctx.engine
        fleet = engine.fleet
        demand = ctx.state.demand
        extra_throttle_funded = self.extra_throttle_funded
        if extra_throttle_funded is None:
            extra_throttle_funded = engine.throttle.extra_conversion_servers(
                fleet.n_batch,
                fleet.batch_model,
                fleet.lc_model,
                n_lc=fleet.n_lc,
            )
        if extra_throttle_funded < 0:
            raise ValueError("extra_throttle_funded cannot be negative")
        total_extra = self.extra_conversion + extra_throttle_funded

        lc_heavy, n_lc_active, n_batch_active, parked = engine.conversion_plan(
            demand, total_extra
        )
        batch_heavy = ~lc_heavy
        ctx.lc_heavy = lc_heavy

        # LC-heavy: batch throttled.  Batch-heavy: boost into the slack left
        # by the nominal-frequency power draw.
        freq = np.where(lc_heavy, engine.throttle.throttle_freq, 1.0)
        name = ctx.spec.scenario_name
        nominal = engine.assemble(
            name,
            demand,
            n_lc_active=n_lc_active,
            n_batch_active=n_batch_active,
            batch_freq=freq,
            parked=parked,
        )
        slack = nominal.power_slack()
        boost = engine.throttle.boost_schedule(
            slack, n_batch_active, fleet.batch_model, engine.dvfs
        )
        freq = np.where(batch_heavy, np.maximum(boost, 1.0), freq)
        boosted = engine.assemble(
            name,
            demand,
            n_lc_active=n_lc_active,
            n_batch_active=n_batch_active,
            batch_freq=freq,
            parked=parked,
        )
        # Regression guard: the boost schedule is solved against the
        # *nominal* run's slack.  Wherever the realised scenario still
        # exceeds budget (pre-existing overload, full-safety rounding),
        # re-solve the batch frequency against the actual non-batch draw so
        # the boosted scenario never trades throughput for a breaker trip.
        if boosted.overload_steps():
            freq = engine.fit_freq_to_budget(boosted, freq)
            boosted = engine.assemble(
                name,
                demand,
                n_lc_active=n_lc_active,
                n_batch_active=n_batch_active,
                batch_freq=freq,
                parked=parked,
            )
        throttled_steps = int(np.count_nonzero(boosted.batch_freq < 1.0 - 1e-12))
        if throttled_steps:
            obs_events.emit(
                obs_events.THROTTLE,
                source="reshaping.throttle_boost",
                steps=throttled_steps,
                min_freq=float(boosted.batch_freq.min()),
                throttle_freq=float(engine.throttle.throttle_freq),
            )
        boosted_steps = int(np.count_nonzero(boosted.batch_freq > 1.0 + 1e-12))
        if boosted_steps:
            obs_events.emit(
                obs_events.BOOST,
                source="reshaping.throttle_boost",
                steps=boosted_steps,
                max_freq=float(boosted.batch_freq.max()),
            )
        ctx.state.n_lc_active = n_lc_active
        ctx.state.n_batch_active = n_batch_active
        ctx.state.batch_freq = boosted.batch_freq
        ctx.state.parked = parked
        ctx.result = boosted


@dataclass(frozen=True)
class ConversionFaultPolicy:
    """Realise the conversion plan through the engine's fault model.

    Replaces the planned extra-server schedules with what latency, retries
    and aborts actually deliver; extras neither serving LC nor running
    batch idle mid-conversion (parked).
    """

    def apply(self, ctx: RunContext) -> None:
        engine = ctx.engine
        state = ctx.state
        fleet = engine.fleet
        extra_servers = ctx.spec.extra_servers
        rng = np.random.default_rng([engine.seed, 0xC0])
        realized_lc, log_lc = engine.conversion_faults.realize(
            state.n_lc_active - fleet.n_lc, rng
        )
        realized_batch, log_batch = engine.conversion_faults.realize(
            state.n_batch_active - fleet.n_batch, rng
        )
        # Extras neither serving LC nor running batch idle mid-conversion.
        state.parked = np.maximum(extra_servers - realized_lc - realized_batch, 0.0)
        state.n_lc_active = fleet.n_lc + realized_lc
        state.n_batch_active = fleet.n_batch + realized_batch
        ctx.conversion_lc = log_lc
        ctx.conversion_batch = log_batch
        for pool, log in ((LC_POOL, log_lc), (BATCH_POOL, log_batch)):
            obs_events.emit(
                obs_events.CONVERSION,
                severity="warning" if log.n_aborted else "info",
                source="faults.conversion",
                pool=pool,
                transitions=log.n_transitions,
                failed_attempts=log.n_failed_attempts,
                aborted=log.n_aborted,
                delayed_server_steps=log.delayed_server_steps,
            )


@dataclass(frozen=True)
class PowerSpikePolicy:
    """Inject the spec's correlated power-spike bursts into the run.

    Reads ``spec.spikes`` (a :class:`~repro.engine.faults.PowerSpikeSchedule`)
    and adds its per-step extra draw to the state; the engine folds it into
    the assembled total power.  This is the adversary the Γ-robust placer
    budgets against — groups of servers simultaneously jumping toward their
    worst-case draw.
    """

    def apply(self, ctx: RunContext) -> None:
        spikes = getattr(ctx.spec, "spikes", None)
        if spikes is None or not spikes.events:
            return
        extra = spikes.extra_power(ctx.state.n_samples)
        if ctx.state.extra_power is None:
            ctx.state.extra_power = extra
        else:
            ctx.state.extra_power = ctx.state.extra_power + extra
        obs_events.emit(
            obs_events.FAULT_INJECTION,
            severity="warning",
            source="faults.spikes",
            fault="power_spikes",
            events=len(spikes.events),
            peak_extra_watts=float(extra.max()),
            spike_watt_steps=float(extra.sum()),
        )


@dataclass(frozen=True)
class ServerFailurePolicy:
    """Subtract the engine's failure schedule from the planned fleet."""

    def apply(self, ctx: RunContext) -> None:
        engine = ctx.engine
        state = ctx.state
        n_samples = state.n_samples
        lc_lost, batch_lost = engine.failures.lost_servers(n_samples)
        state.lost_lc = lc_lost
        state.lost_batch = batch_lost
        state.n_lc_active = np.maximum(state.n_lc_active - lc_lost, 0.0)
        state.n_batch_active = np.maximum(state.n_batch_active - batch_lost, 0.0)
        if engine.failures.events:
            obs_events.emit(
                obs_events.FAULT_INJECTION,
                severity="warning",
                source="faults.failures",
                fault="server_failures",
                events=len(engine.failures.events),
                downtime_server_steps=engine.failures.downtime_server_steps(n_samples),
            )


# ----------------------------------------------------------------------
# actuators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EmergencyCapping:
    """Route an over-budget result through the capping fallback.

    ``attach_fault_logs`` additionally records the run's conversion-fault
    logs and failure downtime on the recovery report (the conversion-chaos
    behaviour).
    """

    attach_fault_logs: bool = False

    def actuate(self, ctx: RunContext, result: Any) -> Any:
        run = ctx.engine.recover(result)
        if self.attach_fault_logs:
            run.recovery.conversion_lc = ctx.conversion_lc
            run.recovery.conversion_batch = ctx.conversion_batch
            run.recovery.failure_downtime_server_steps = (
                ctx.engine.failures.downtime_server_steps(ctx.state.n_samples)
            )
        return run
