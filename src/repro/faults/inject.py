"""Telemetry fault injectors: dirty data, made to order.

Production power telemetry is nothing like the three weeks of clean
per-minute readings the paper assumes (Sec. 3.3): sensors drop out, stick at
their last reading, emit wild spikes, and drift off the sampling grid.  The
injectors here synthesise exactly those pathologies on top of clean traces
so the repair pipeline (:mod:`repro.faults.repair`) and the chaos harness
(:mod:`repro.faults.harness`) can prove the pipeline copes with them.

Faulted data lives in a :class:`RawTelemetry` — a deliberately permissive
container (NaNs, negatives, and off-grid timestamps allowed) that the strict
:class:`~repro.traces.traceset.TraceSet` would reject.  The only way back to
the clean world is an explicit repair step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..traces.grid import TimeGrid
from ..traces.traceset import TraceSet


@dataclass
class RawTelemetry:
    """Un-sanitised telemetry: a trace matrix that may contain garbage.

    Unlike :class:`TraceSet`, values may be NaN (sensor dropout), negative
    (glitching sensors), or arbitrarily large (spikes), and ``grid`` may sit
    at an offset that no clean grid would accept.  Use
    :func:`repro.faults.repair.repair_telemetry` to get a :class:`TraceSet`
    back.
    """

    grid: TimeGrid
    ids: List[str]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {self.matrix.shape}")
        if self.matrix.shape != (len(self.ids), self.grid.n_samples):
            raise ValueError(
                f"matrix shape {self.matrix.shape} inconsistent with "
                f"{len(self.ids)} ids x {self.grid.n_samples} samples"
            )
        self.ids = list(self.ids)

    @classmethod
    def from_traceset(cls, traces: TraceSet) -> "RawTelemetry":
        return cls(traces.grid, list(traces.ids), traces.matrix.copy())

    def copy(self) -> "RawTelemetry":
        return RawTelemetry(self.grid, list(self.ids), self.matrix.copy())

    def missing_mask(self) -> np.ndarray:
        """Boolean mask of samples that carry no usable reading."""
        return ~np.isfinite(self.matrix)

    def missing_fraction(self) -> float:
        return float(self.missing_mask().mean())


def _pick_rows(
    n_rows: int, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """At least one, at most all rows, sampled without replacement."""
    count = max(1, int(round(fraction * n_rows)))
    return rng.choice(n_rows, size=min(count, n_rows), replace=False)


@dataclass(frozen=True)
class SensorDropout:
    """Contiguous NaN gaps: the sensor (or its collector) went silent.

    Each affected trace receives ``gaps_per_trace`` runs of ``gap_samples``
    consecutive NaNs at random positions.
    """

    fraction_of_traces: float = 0.25
    gap_samples: int = 12
    gaps_per_trace: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.fraction_of_traces <= 1:
            raise ValueError("fraction_of_traces must be in (0, 1]")
        if self.gap_samples <= 0 or self.gaps_per_trace <= 0:
            raise ValueError("gap_samples and gaps_per_trace must be positive")

    def apply(self, telemetry: RawTelemetry, rng: np.random.Generator) -> RawTelemetry:
        out = telemetry.copy()
        n_samples = out.grid.n_samples
        gap = min(self.gap_samples, n_samples)
        for row in _pick_rows(len(out.ids), self.fraction_of_traces, rng):
            for _ in range(self.gaps_per_trace):
                start = int(rng.integers(0, max(1, n_samples - gap + 1)))
                out.matrix[row, start : start + gap] = np.nan
        return out


@dataclass(frozen=True)
class StuckSensor:
    """Stuck-at faults: the sensor repeats its last reading for a while.

    Dangerous precisely because the values look plausible — only the
    unnatural flatness gives them away.
    """

    fraction_of_traces: float = 0.2
    stuck_samples: int = 24

    def __post_init__(self) -> None:
        if not 0 < self.fraction_of_traces <= 1:
            raise ValueError("fraction_of_traces must be in (0, 1]")
        if self.stuck_samples <= 1:
            raise ValueError("stuck_samples must exceed 1")

    def apply(self, telemetry: RawTelemetry, rng: np.random.Generator) -> RawTelemetry:
        out = telemetry.copy()
        n_samples = out.grid.n_samples
        run = min(self.stuck_samples, n_samples)
        for row in _pick_rows(len(out.ids), self.fraction_of_traces, rng):
            start = int(rng.integers(0, max(1, n_samples - run + 1)))
            out.matrix[row, start : start + run] = out.matrix[row, start]
        return out


@dataclass(frozen=True)
class PowerSpike:
    """Single-sample spikes far above any physical reading.

    Each affected sample is replaced by ``magnitude`` times the trace's
    robust ceiling (95th percentile), the classic ADC/transmission glitch.
    """

    fraction_of_traces: float = 0.5
    spikes_per_trace: int = 3
    magnitude: float = 8.0

    def __post_init__(self) -> None:
        if not 0 < self.fraction_of_traces <= 1:
            raise ValueError("fraction_of_traces must be in (0, 1]")
        if self.spikes_per_trace <= 0:
            raise ValueError("spikes_per_trace must be positive")
        if self.magnitude <= 1:
            raise ValueError("magnitude must exceed 1")

    def apply(self, telemetry: RawTelemetry, rng: np.random.Generator) -> RawTelemetry:
        out = telemetry.copy()
        n_samples = out.grid.n_samples
        for row in _pick_rows(len(out.ids), self.fraction_of_traces, rng):
            finite = out.matrix[row][np.isfinite(out.matrix[row])]
            ceiling = float(np.percentile(finite, 95)) if finite.size else 1.0
            level = max(ceiling, 1e-6) * self.magnitude
            cols = rng.integers(0, n_samples, size=self.spikes_per_trace)
            out.matrix[row, cols] = level
        return out


@dataclass(frozen=True)
class NegativeGlitch:
    """Sign-flipped readings: a power sensor reporting negative draw."""

    fraction_of_traces: float = 0.1
    glitches_per_trace: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.fraction_of_traces <= 1:
            raise ValueError("fraction_of_traces must be in (0, 1]")
        if self.glitches_per_trace <= 0:
            raise ValueError("glitches_per_trace must be positive")

    def apply(self, telemetry: RawTelemetry, rng: np.random.Generator) -> RawTelemetry:
        out = telemetry.copy()
        for row in _pick_rows(len(out.ids), self.fraction_of_traces, rng):
            cols = rng.integers(0, out.grid.n_samples, size=self.glitches_per_trace)
            out.matrix[row, cols] = -np.abs(out.matrix[row, cols])
        return out


@dataclass(frozen=True)
class GridMisalignment:
    """Clock skew: every timestamp is off the canonical grid by an offset.

    Models a collector whose clock drifted — the readings are real but taken
    ``offset_minutes`` after the grid says they were.  Repair realigns by
    interpolating back onto the canonical grid.
    """

    offset_minutes: int = 3

    def __post_init__(self) -> None:
        if self.offset_minutes == 0:
            raise ValueError("offset_minutes of zero is not a misalignment")

    def apply(self, telemetry: RawTelemetry, rng: np.random.Generator) -> RawTelemetry:
        out = telemetry.copy()
        out.grid = TimeGrid(
            out.grid.start_minute + self.offset_minutes,
            out.grid.step_minutes,
            out.grid.n_samples,
        )
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded bundle of telemetry faults.

    Applying the same plan to the same telemetry is fully deterministic:
    each fault draws from a child RNG derived from ``(seed, position)``.
    """

    faults: Tuple[object, ...] = field(default=())
    seed: int = 0

    def apply(self, telemetry) -> RawTelemetry:
        """Run every fault in order over ``telemetry`` (TraceSet or raw)."""
        if isinstance(telemetry, TraceSet):
            telemetry = RawTelemetry.from_traceset(telemetry)
        out = telemetry.copy()
        for position, fault in enumerate(self.faults):
            rng = np.random.default_rng([self.seed, position])
            out = fault.apply(out, rng)
        return out

    def __len__(self) -> int:
        return len(self.faults)


def dirty_copy(traces: TraceSet, plan: FaultPlan) -> RawTelemetry:
    """Convenience: inject ``plan`` into a clean trace set."""
    return plan.apply(traces)
