"""Reactive server conversion — the control loop as production would run it.

The engine's vectorised ``conversion`` scenario (a
:class:`repro.engine.ScenarioSpec` with ``mode="conversion"``) decides each
step's phase from the *current* demand value, which quietly grants the
controller an oracle: real systems observe load with a lag, convert
servers with a delay, and need hysteresis to avoid flapping.  This module
implements that honest controller (Sec. 4.2's "during runtime, we
continuously monitor the LC server load"):

* phase detection from a trailing moving average of observed per-server
  load on the original fleet;
* **hysteresis** — convert to LC at ``enter_fraction × L_conv``, convert
  back to batch only below ``exit_fraction × L_conv``;
* **conversion delay** — a converted server takes ``delay_steps`` before
  it serves the other role (storage-disaggregated servers need no data
  migration, but process start + warm-up is not free).

Comparing oracle vs reactive quantifies what the paper's "history-based"
design buys: with strongly diurnal load, even a sluggish reactive
controller loses almost nothing — the peaks are predictable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..engine.state import FleetDescription, ScenarioResult
from ..sim.batch import batch_throughput
from ..sim.demand import DemandTrace
from ..sim.loadbalancer import dispatch
from ..sim.power_model import DVFSModel
from .conversion import ConversionPolicy


@dataclass(frozen=True)
class ReactiveConfig:
    """Controller realism knobs.

    Attributes
    ----------
    observation_window_steps:
        Length of the trailing average the controller sees.
    delay_steps:
        Steps between the conversion decision and the server serving its
        new role (it draws idle power while in transit).
    enter_fraction / exit_fraction:
        Hysteresis band around ``L_conv`` (enter LC-heavy above
        ``enter × L_conv``; return to batch below ``exit × L_conv``).
    """

    observation_window_steps: int = 3
    delay_steps: int = 2
    enter_fraction: float = 0.95
    exit_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.observation_window_steps <= 0:
            raise ValueError("observation window must be positive")
        if self.delay_steps < 0:
            raise ValueError("delay cannot be negative")
        if not 0 < self.exit_fraction <= self.enter_fraction <= 1:
            raise ValueError("need 0 < exit_fraction <= enter_fraction <= 1")


class ReactiveConversionRuntime:
    """Step-driven conversion with observation lag, delay, and hysteresis."""

    def __init__(
        self,
        fleet: FleetDescription,
        conversion: ConversionPolicy,
        *,
        config: Optional[ReactiveConfig] = None,
        dvfs: Optional[DVFSModel] = None,
    ) -> None:
        self.fleet = fleet
        self.conversion = conversion
        self.config = config if config is not None else ReactiveConfig()
        self.dvfs = dvfs if dvfs is not None else DVFSModel()

    def run_conversion(self, demand: DemandTrace, extra_servers: int) -> ScenarioResult:
        """Simulate the week step by step with the reactive controller."""
        if extra_servers < 0:
            raise ValueError("extra server count cannot be negative")
        config = self.config
        threshold = self.conversion.conversion_threshold
        enter_level = threshold * config.enter_fraction
        exit_level = threshold * config.exit_fraction
        convertible = self.conversion.batch_convertible(
            extra_servers, self.fleet.n_batch
        )

        n = demand.grid.n_samples
        n_lc_active = np.empty(n)
        n_batch_active = np.empty(n)
        parked = np.zeros(n)

        lc_heavy = False
        # Conversion pipeline: each entry is steps remaining until arrival.
        in_transit_to_lc: List[int] = []
        in_transit_to_batch: List[int] = []
        lc_extras = 0        # extras currently serving LC
        batch_extras = 0     # extras currently serving batch
        observed: List[float] = []

        for t in range(n):
            # 1. Observe (trailing average of per-original-server load).
            observed.append(demand.values[t] / self.fleet.n_lc)
            window = observed[-config.observation_window_steps :]
            signal = float(np.mean(window))

            # 2. Decide phase with hysteresis.
            if lc_heavy and signal < exit_level:
                lc_heavy = False
            elif not lc_heavy and signal >= enter_level:
                lc_heavy = True

            # 3. Issue conversions toward the target split.
            if lc_heavy:
                want_lc, want_batch = extra_servers, 0
            else:
                want_lc = extra_servers - convertible
                want_batch = convertible

            def idle_pool() -> int:
                return (
                    extra_servers
                    - lc_extras
                    - batch_extras
                    - len(in_transit_to_lc)
                    - len(in_transit_to_batch)
                )

            if lc_extras + len(in_transit_to_lc) < want_lc:
                deficit = want_lc - lc_extras - len(in_transit_to_lc)
                moves = min(deficit, batch_extras)
                batch_extras -= moves
                in_transit_to_lc.extend([config.delay_steps] * moves)
                # Fresh extras never previously assigned also join.
                boot = min(deficit - moves, max(0, idle_pool()))
                in_transit_to_lc.extend([config.delay_steps] * boot)
            elif lc_extras + len(in_transit_to_lc) > want_lc:
                surplus = lc_extras + len(in_transit_to_lc) - want_lc
                moves = min(surplus, lc_extras)
                lc_extras -= moves
                in_transit_to_batch.extend([config.delay_steps] * moves)
            # Cold start / refill: batch draws from the idle pool too,
            # otherwise convertible extras would sit dark until after the
            # first peak cycled them through LC.
            if batch_extras + len(in_transit_to_batch) < want_batch:
                boot = min(
                    want_batch - batch_extras - len(in_transit_to_batch),
                    max(0, idle_pool()),
                )
                in_transit_to_batch.extend([config.delay_steps] * boot)

            # 4. Advance the pipelines.
            in_transit_to_lc = [s - 1 for s in in_transit_to_lc]
            arrived = sum(1 for s in in_transit_to_lc if s <= 0)
            lc_extras += arrived
            in_transit_to_lc = [s for s in in_transit_to_lc if s > 0]
            in_transit_to_batch = [s - 1 for s in in_transit_to_batch]
            arrived = sum(1 for s in in_transit_to_batch if s <= 0)
            batch_extras += arrived
            in_transit_to_batch = [s for s in in_transit_to_batch if s > 0]
            # Batch-capacity cap still applies on arrival.
            if batch_extras > convertible:
                overflow = batch_extras - convertible
                batch_extras = convertible
                parked[t] += overflow

            # 5. Record the step's fleet split.
            transit = len(in_transit_to_lc) + len(in_transit_to_batch)
            idle_pool = extra_servers - lc_extras - batch_extras - transit
            n_lc_active[t] = self.fleet.n_lc + lc_extras
            n_batch_active[t] = self.fleet.n_batch + batch_extras
            parked[t] += transit + max(0, idle_pool)

        outcome = dispatch(demand.values, n_lc_active, threshold)
        batch = batch_throughput(n_batch_active, np.ones(n), self.dvfs)
        lc_power = n_lc_active * self.fleet.lc_model.power(outcome.per_server_load)
        batch_power = n_batch_active * self.fleet.batch_model.power(1.0, batch.freq)
        total = lc_power + batch_power + parked * self.fleet.lc_model.power(0.0)
        if self.fleet.other_power is not None:
            demand.grid.require_same(self.fleet.other_power.grid)
            total = total + self.fleet.other_power.values

        return ScenarioResult(
            name="reactive_conversion",
            grid=demand.grid,
            budget_watts=self.fleet.budget_watts,
            demand=demand.values.copy(),
            lc_served=outcome.served,
            lc_dropped=outcome.dropped,
            load_on_original=demand.values / self.fleet.n_lc,
            per_server_load=outcome.per_server_load,
            n_lc_active=n_lc_active,
            n_batch_active=n_batch_active,
            batch_throughput=batch.throughput,
            batch_freq=batch.freq,
            total_power=total,
        )
