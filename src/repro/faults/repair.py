"""Telemetry sanitisation: from dirty readings back to a clean TraceSet.

The strict trace containers (:class:`~repro.traces.series.PowerTrace`,
:class:`~repro.traces.traceset.TraceSet`) reject non-finite or negative
readings by design — silently accepting them would poison every aggregate
downstream.  This module is the explicit gate between raw sensor data and
that clean world: realign off-grid timestamps, flag stuck-at runs, despike
via a rolling percentile, interpolate the gaps, and report exactly how much
was repaired so callers can decide whether to trust the result.

The pipeline is idempotent to numerical tolerance: repairing already-clean
telemetry is a no-op, and repairing repaired telemetry changes nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..traces.grid import TimeGrid
from ..traces.traceset import TraceSet
from .inject import RawTelemetry

#: Upper bound on detect/re-fill passes; the loop normally stops at a
#: fixpoint after a few.
MAX_REPAIR_PASSES = 32


@dataclass(frozen=True)
class RepairPolicy:
    """Knobs of the sanitisation pipeline.

    Attributes
    ----------
    despike_window:
        Width (in samples) of the rolling window used for despiking.
    despike_percentile:
        Percentile of the rolling window that forms the local baseline.
    despike_factor:
        A reading above ``despike_factor`` times the local baseline is a
        spike.  Generous by default: real diurnal peaks are nowhere near
        4x the local median.
    stuck_min_run:
        Minimum length of an exactly-constant run to be flagged as a
        stuck-at fault.  Runs on genuinely flat traces (zero dynamic range)
        are never flagged.
    max_dead_fraction:
        A trace missing more than this fraction of samples after fault
        marking is declared dead and zero-filled rather than interpolated.
    """

    despike_window: int = 12
    despike_percentile: float = 50.0
    despike_factor: float = 4.0
    stuck_min_run: int = 12
    max_dead_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.despike_window < 3:
            raise ValueError("despike_window must be at least 3")
        if not 0 <= self.despike_percentile <= 100:
            raise ValueError("despike_percentile must be in [0, 100]")
        if self.despike_factor <= 1:
            raise ValueError("despike_factor must exceed 1")
        if self.stuck_min_run < 2:
            raise ValueError("stuck_min_run must be at least 2")
        if not 0 < self.max_dead_fraction <= 1:
            raise ValueError("max_dead_fraction must be in (0, 1]")


@dataclass
class RepairReport:
    """What the sanitisation pipeline did, per fault class.

    All counts are samples (matrix cells) unless stated otherwise.
    ``dead_traces`` lists ids whose telemetry was beyond saving — their
    rows are zero-filled and callers should treat them as absent sensors.
    """

    n_samples_total: int = 0
    n_missing_input: int = 0
    n_negative: int = 0
    n_stuck: int = 0
    n_spikes: int = 0
    n_interpolated: int = 0
    realigned_minutes: int = 0
    dead_traces: List[str] = field(default_factory=list)
    #: Detect/re-fill passes run before reaching a fixpoint.
    passes: int = 0

    @property
    def n_flagged(self) -> int:
        """Total samples invalidated by any detector."""
        return self.n_missing_input + self.n_negative + self.n_stuck + self.n_spikes

    @property
    def repaired_fraction(self) -> float:
        if self.n_samples_total == 0:
            return 0.0
        return self.n_flagged / self.n_samples_total

    def summary(self) -> Dict[str, float]:
        return {
            "missing": self.n_missing_input,
            "negative": self.n_negative,
            "stuck": self.n_stuck,
            "spikes": self.n_spikes,
            "interpolated": self.n_interpolated,
            "dead_traces": len(self.dead_traces),
            "repaired_fraction": self.repaired_fraction,
        }


@dataclass
class RepairOutcome:
    """A clean :class:`TraceSet` plus the audit trail that produced it."""

    traces: TraceSet
    report: RepairReport


# ----------------------------------------------------------------------
# pipeline stages
# ----------------------------------------------------------------------
def realign(telemetry: RawTelemetry, target_grid: TimeGrid) -> RawTelemetry:
    """Interpolate off-grid telemetry onto ``target_grid``.

    Handles clock skew (same shape, shifted timestamps): each trace is
    linearly interpolated at the canonical timestamps, holding the edge
    values beyond the observed span.  NaN samples stay NaN where the
    nearest source sample is NaN.
    """
    if telemetry.grid == target_grid:
        return telemetry.copy()
    if telemetry.grid.step_minutes != target_grid.step_minutes:
        raise ValueError(
            "realign only handles offset grids, not resampling: "
            f"step {telemetry.grid.step_minutes} vs {target_grid.step_minutes}"
        )
    source_t = telemetry.grid.timestamps().astype(np.float64)
    target_t = target_grid.timestamps().astype(np.float64)
    matrix = np.empty((len(telemetry.ids), target_grid.n_samples))
    for row in range(matrix.shape[0]):
        source = telemetry.matrix[row]
        valid = np.isfinite(source)
        if valid.sum() < 2:
            matrix[row] = np.nan
            continue
        matrix[row] = np.interp(target_t, source_t[valid], source[valid])
        # Re-poke holes where the nearest source sample was missing, so a
        # dropout does not silently become invented data before gap repair.
        nearest = np.clip(
            np.round((target_t - source_t[0]) / telemetry.grid.step_minutes),
            0,
            len(source) - 1,
        ).astype(int)
        matrix[row, ~valid[nearest]] = np.nan
    return RawTelemetry(target_grid, list(telemetry.ids), matrix)


def _stuck_mask(values: np.ndarray, min_run: int) -> np.ndarray:
    """Mask of exactly-constant runs of length >= min_run, per row.

    Rows with zero dynamic range (genuinely flat traces) are exempt.
    """
    mask = np.zeros_like(values, dtype=bool)
    n = values.shape[1]
    if n < min_run:
        return mask
    for row in range(values.shape[0]):
        series = values[row]
        finite = series[np.isfinite(series)]
        if finite.size == 0 or float(finite.max() - finite.min()) <= 1e-12:
            continue
        same = np.concatenate([[False], np.diff(series) == 0.0])
        # run-length encode the `same` flags
        idx = 0
        while idx < n:
            if same[idx]:
                start = idx - 1
                while idx < n and same[idx]:
                    idx += 1
                if idx - start >= min_run:
                    # Keep the first sample: it was a real reading.
                    mask[row, start + 1 : idx] = True
            else:
                idx += 1
    return mask


def _nan_percentile_lastaxis(windows: np.ndarray, q: float) -> np.ndarray:
    """``np.nanpercentile(windows, q, axis=-1)`` without its NaN slow path.

    With any NaN present, numpy routes nanpercentile through a per-slice
    Python loop — minutes on a (traces, samples, window) stack.  Sorting
    pushes NaNs to the end of each window, so the percentile is an order
    statistic over the first ``count`` entries, gathered vectorised with
    the same linear interpolation nanpercentile uses.
    """
    ordered = np.sort(windows, axis=-1)
    count = np.count_nonzero(np.isfinite(windows), axis=-1)
    pos = (q / 100.0) * (count - 1)
    lo = np.clip(np.floor(pos), 0, None).astype(np.intp)
    hi = np.clip(np.ceil(pos), 0, None).astype(np.intp)
    frac = np.clip(pos - lo, 0.0, 1.0)
    lo_val = np.take_along_axis(ordered, lo[..., np.newaxis], axis=-1)[..., 0]
    hi_val = np.take_along_axis(ordered, hi[..., np.newaxis], axis=-1)[..., 0]
    baseline = lo_val + frac * (hi_val - lo_val)
    return np.where(count > 0, baseline, np.nan)


def _spike_mask(values: np.ndarray, policy: RepairPolicy) -> np.ndarray:
    """Mask of samples far above the local rolling-percentile baseline."""
    n_rows, n = values.shape
    window = min(policy.despike_window, n)
    if window < 3:
        return np.zeros_like(values, dtype=bool)
    half = window // 2
    padded = np.pad(values, ((0, 0), (half, half)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window, axis=1)
    windows = windows[:, :n, :]
    # All-NaN windows (long dropouts) legitimately yield NaN baselines; the
    # comparison below treats them as "no spike".
    baseline = _nan_percentile_lastaxis(windows, policy.despike_percentile)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="All-NaN slice encountered")
        # Robust per-row scale so near-zero baselines don't flag tiny wiggles.
        scale = np.nanpercentile(values, 95, axis=1)
    scale = np.where(np.isfinite(scale), scale, 0.0)
    floor = 0.02 * scale[:, np.newaxis] + 1e-9
    threshold = policy.despike_factor * np.maximum(baseline, floor)
    with np.errstate(invalid="ignore"):
        return np.isfinite(values) & (values > threshold)


def _interpolate_gaps(
    values: np.ndarray, missing: np.ndarray, policy: RepairPolicy
) -> Tuple[np.ndarray, int, List[int]]:
    """Linearly fill missing samples per row; zero-fill dead rows."""
    filled = values.copy()
    n_interpolated = 0
    dead_rows: List[int] = []
    n = values.shape[1]
    index = np.arange(n)
    for row in range(values.shape[0]):
        holes = missing[row]
        if not holes.any():
            continue
        if holes.mean() > policy.max_dead_fraction or (~holes).sum() < 2:
            filled[row] = 0.0
            dead_rows.append(row)
            continue
        valid = ~holes
        filled[row, holes] = np.interp(index[holes], index[valid], values[row, valid])
        n_interpolated += int(holes.sum())
    return filled, n_interpolated, dead_rows


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def repair_telemetry(
    telemetry,
    *,
    policy: Optional[RepairPolicy] = None,
    target_grid: Optional[TimeGrid] = None,
) -> RepairOutcome:
    """Sanitise raw telemetry into a clean :class:`TraceSet`.

    Stages: realign to ``target_grid`` (defaults to the telemetry's own grid
    snapped back to a zero-offset start if misaligned), mark non-finite and
    negative readings, flag stuck-at runs and rolling-percentile spikes,
    interpolate every flagged sample, and zero-fill traces that are beyond
    repair.  Accepts a :class:`RawTelemetry` or (for convenience) an
    already-clean :class:`TraceSet`.
    """
    policy = policy if policy is not None else RepairPolicy()
    if isinstance(telemetry, TraceSet):
        telemetry = RawTelemetry.from_traceset(telemetry)

    report = RepairReport(n_samples_total=int(telemetry.matrix.size))

    if target_grid is None:
        offset = telemetry.grid.start_minute % telemetry.grid.step_minutes
        target_grid = (
            TimeGrid(
                telemetry.grid.start_minute - offset,
                telemetry.grid.step_minutes,
                telemetry.grid.n_samples,
            )
            if offset
            else telemetry.grid
        )
    if telemetry.grid != target_grid:
        report.realigned_minutes = abs(
            telemetry.grid.start_minute - target_grid.start_minute
        )
        telemetry = realign(telemetry, target_grid)

    values = telemetry.matrix.copy()

    missing = ~np.isfinite(values)
    report.n_missing_input = int(missing.sum())

    with np.errstate(invalid="ignore"):
        negative = np.isfinite(values) & (values < 0)
    report.n_negative = int(negative.sum())
    missing |= negative

    filled, n_interp, dead_rows = _interpolate_gaps(values, missing, policy)
    report.n_interpolated = n_interp
    dead = set(dead_rows)

    # Detect → re-fill on the filled matrix until a pass is a no-op.  One
    # pass is not a fixpoint — a spike inside a stuck run splits it below
    # ``stuck_min_run``, and an edge-filled gap forms a constant run that
    # only a later pass can see.  Each iteration operates on exactly what a
    # fresh call would see, so the loop stops precisely when another repair
    # would change nothing: idempotence by construction.  A pass whose
    # flags re-fill to the very same values (a flagged run that
    # interpolation rebuilds unchanged) is such a fixpoint too: every later
    # pass would see, flag and write the same matrix.
    for passes in range(1, MAX_REPAIR_PASSES + 1):
        report.passes = passes
        stuck = _stuck_mask(filled, policy.stuck_min_run)
        spikes = _spike_mask(np.where(stuck, np.nan, filled), policy) & ~stuck
        flags = stuck | spikes
        if not flags.any():
            break
        report.n_stuck += int(stuck.sum())
        report.n_spikes += int(spikes.sum())
        refilled, n_interp, new_dead = _interpolate_gaps(filled, flags, policy)
        report.n_interpolated += n_interp
        dead.update(new_dead)
        unchanged = np.array_equal(refilled, filled, equal_nan=True)
        filled = refilled
        if unchanged:
            break
    report.dead_traces = [telemetry.ids[row] for row in sorted(dead)]

    clean = np.maximum(filled, 0.0)
    return RepairOutcome(
        traces=TraceSet(target_grid, list(telemetry.ids), clean),
        report=report,
    )
