"""Shared simulation state: fleet description, per-run state, artifacts.

:class:`FleetDescription` is the aggregate fleet a scenario runs on and
:class:`ScenarioResult` the per-step outcome of one scenario.
:class:`FleetState` is the mutable value object the engine's policy
pipeline edits while planning a run, and :class:`RunArtifacts` is the
uniform return type of :meth:`repro.engine.Engine.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..sim.demand import DemandTrace
from ..sim.power_model import ServerPowerModel
from ..traces.grid import TimeGrid
from ..traces.series import PowerTrace

# The placement-side state owner lives in repro.engine.delta (with the
# FleetDelta value objects it fans out); re-exported here because it is
# the placement counterpart of the scenario-run FleetState below.
from .delta import FleetDelta, Move, PlacementState  # noqa: F401


@dataclass(frozen=True)
class FleetDescription:
    """The original fleet the reshaping runtime operates on.

    ``other_power`` carries the exogenous draw of servers that are neither
    LC nor Batch (storage, dev, ...) straight from their test traces.
    """

    n_lc: int
    n_batch: int
    lc_model: ServerPowerModel
    batch_model: ServerPowerModel
    budget_watts: float
    other_power: Optional[PowerTrace] = None

    def __post_init__(self) -> None:
        if self.n_lc <= 0:
            raise ValueError("fleet needs at least one LC server")
        if self.n_batch < 0:
            raise ValueError("n_batch cannot be negative")
        if self.budget_watts <= 0:
            raise ValueError("budget must be positive")


@dataclass
class ScenarioResult:
    """Time series and summaries for one simulated scenario."""

    name: str
    grid: TimeGrid
    budget_watts: float
    demand: np.ndarray
    lc_served: np.ndarray
    lc_dropped: np.ndarray
    load_on_original: np.ndarray
    per_server_load: np.ndarray
    n_lc_active: np.ndarray
    n_batch_active: np.ndarray
    batch_throughput: np.ndarray
    batch_freq: np.ndarray
    total_power: np.ndarray
    #: Conversion servers idling between modes (OS up, no work), per step.
    parked: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def lc_total(self) -> float:
        return float(self.lc_served.sum())

    def batch_total(self) -> float:
        return float(self.batch_throughput.sum())

    def dropped_fraction(self) -> float:
        total = float(self.demand.sum())
        if total == 0:
            return 0.0
        return float(self.lc_dropped.sum()) / total

    def power_slack(self) -> np.ndarray:
        """Instantaneous slack (Eq. 1); negative values mean overload."""
        return self.budget_watts - self.total_power

    def mean_slack(self) -> float:
        return float(self.power_slack().mean())

    def energy_slack(self) -> float:
        """Eq. 2 over the whole scenario, in watt-minutes."""
        return float(self.power_slack().sum()) * self.grid.step_minutes

    def overload_steps(self) -> int:
        return int(np.sum(self.total_power > self.budget_watts + 1e-9))

    def peak_power(self) -> float:
        return float(self.total_power.max())


@dataclass
class FleetState:
    """The per-run mutable state the policy pipeline edits.

    One instance per :meth:`Engine.run`: policies mutate the plan arrays
    (active server counts, batch frequency, parked extras) and record what
    faults removed (lost-server masks); the engine assembles the final
    :class:`ScenarioResult` from whatever the pipeline left here.
    """

    fleet: FleetDescription
    demand: DemandTrace
    #: Per-step planned LC / batch server counts and batch DVFS frequency.
    n_lc_active: np.ndarray
    n_batch_active: np.ndarray
    batch_freq: np.ndarray
    #: Conversion servers idling between modes, per step (``None`` = none).
    parked: Optional[np.ndarray] = None
    #: Per-step servers taken offline by failures (``None`` until a
    #: failure policy runs).
    lost_lc: Optional[np.ndarray] = None
    lost_batch: Optional[np.ndarray] = None
    #: Per-step exogenous extra draw injected by fault policies (correlated
    #: power-spike bursts); ``None`` until a spike policy runs.
    extra_power: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, fleet: FleetDescription, demand: DemandTrace) -> "FleetState":
        """The pre-reshaping plan: whole fleet on, nominal frequency."""
        n = demand.grid.n_samples
        return cls(
            fleet=fleet,
            demand=demand,
            n_lc_active=np.full(n, float(fleet.n_lc)),
            n_batch_active=np.full(n, float(fleet.n_batch)),
            batch_freq=np.ones(n),
        )

    @property
    def n_samples(self) -> int:
        return self.demand.grid.n_samples


@dataclass
class RunArtifacts:
    """Everything one :meth:`Engine.run` produced.

    ``result`` is the scenario outcome (a :class:`ScenarioResult`, a
    :class:`~repro.engine.faults.ChaosRunResult`, or a chaos-harness
    outcome, depending on the spec).  ``events`` is the structured event
    log active during the run (``None`` when no recording was installed),
    ``telemetry`` the flight-recorder summary, and ``metrics`` a snapshot
    of the process-global counters.
    """

    spec: Any
    result: Any
    events: Optional[Any] = None
    telemetry: Optional[Dict[str, Any]] = None
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def scenario(self) -> Optional[ScenarioResult]:
        """The final :class:`ScenarioResult`, unwrapped from chaos results."""
        result = self.result
        if hasattr(result, "reshaping"):  # chaos-harness outcome
            result = result.reshaping
        if hasattr(result, "scenario"):  # ChaosRunResult
            result = result.scenario
        return result if isinstance(result, ScenarioResult) else None
