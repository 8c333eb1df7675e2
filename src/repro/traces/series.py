"""Power traces: the time-series vectors of Sec. 3.3.

A :class:`PowerTrace` is a sampled power signal on a :class:`TimeGrid`.  The
paper treats traces as plain vectors ("since power traces are simply
vectors, vector arithmetic can be directly applied"), so this class supports
addition, scalar scaling, peaks, percentiles, and the slack metrics of
Sec. 2.2 (Eq. 1–2).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .grid import TimeGrid

Number = Union[int, float]

#: Member traces materialised per stacked block by :meth:`PowerTrace.aggregate`
#: — bounds peak memory at ``block_rows × n_samples`` floats regardless of
#: fleet size.
AGGREGATE_BLOCK_ROWS = 1024


class PowerTrace:
    """A power time series on a uniform sampling grid.

    Values are watts (or any consistent power unit — the paper normalises,
    and so do the experiments).  Negative readings are rejected: a power
    sensor never reports negative draw.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values: Iterable[Number]) -> None:
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError(f"trace values must be 1-D, got shape {array.shape}")
        if array.shape[0] != grid.n_samples:
            raise ValueError(
                f"trace has {array.shape[0]} samples but grid expects {grid.n_samples}"
            )
        if not np.all(np.isfinite(array)):
            raise ValueError("trace values must be finite")
        if np.any(array < 0):
            raise ValueError("power readings cannot be negative")
        self.grid = grid
        self.values = array

    @classmethod
    def _trusted(cls, grid: TimeGrid, values: np.ndarray) -> "PowerTrace":
        """Wrap ``values`` without copying or re-checking them.

        For rows of a matrix that was validated as a whole (1-D float64 of
        ``grid.n_samples`` finite, non-negative readings).
        """
        trace = cls.__new__(cls)
        trace.grid = grid
        trace.values = values
        return trace

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, grid: TimeGrid, level: Number) -> "PowerTrace":
        """A flat trace at ``level`` watts."""
        return cls(grid, np.full(grid.n_samples, float(level)))

    @classmethod
    def zeros(cls, grid: TimeGrid) -> "PowerTrace":
        return cls(grid, np.zeros(grid.n_samples))

    @classmethod
    def aggregate(
        cls,
        traces: Sequence["PowerTrace"],
        *,
        exact: bool = True,
        block_rows: int = AGGREGATE_BLOCK_ROWS,
    ) -> "PowerTrace":
        """Element-wise sum of ``traces`` (the aggregate power at a node).

        Accumulation is blocked — at most ``block_rows`` member traces are
        materialised as one stack at a time — so a fleet-scale aggregate
        never allocates the full ``(n, T)`` tensor.  ``exact=True`` (the
        default) adds rows in sequence in float64, bit-identical to the
        historical implementation; ``exact=False`` is the fleet-scale fast
        path, reducing each block in float32 before accumulating into a
        float64 running total — half the memory traffic, with per-sample
        error bounded by float32 rounding of a block.
        """
        if not traces:
            raise ValueError("cannot aggregate an empty set of traces")
        if block_rows < 1:
            raise ValueError("block_rows must be positive")
        grid = traces[0].grid
        for trace in traces:
            grid.require_same(trace.grid)
        total = np.zeros(grid.n_samples)
        if exact:
            # Sequential row adds: identical order (hence identical floats)
            # to the single stacked axis-0 reduce this replaces.
            for trace in traces:
                total += trace.values
        else:
            for start in range(0, len(traces), block_rows):
                block = np.stack(
                    [trace.values for trace in traces[start : start + block_rows]]
                ).astype(np.float32, copy=False)
                total += block.sum(axis=0, dtype=np.float32)
        return cls(grid, total)

    # ------------------------------------------------------------------
    # vector arithmetic (Sec. 3.3: traces are vectors)
    # ------------------------------------------------------------------
    def __add__(self, other: "PowerTrace") -> "PowerTrace":
        if not isinstance(other, PowerTrace):
            return NotImplemented
        self.grid.require_same(other.grid)
        return PowerTrace(self.grid, self.values + other.values)

    def __sub__(self, other: "PowerTrace") -> "PowerTrace":
        if not isinstance(other, PowerTrace):
            return NotImplemented
        self.grid.require_same(other.grid)
        result = self.values - other.values
        return PowerTrace(self.grid, np.maximum(result, 0.0))

    def __mul__(self, factor: Number) -> "PowerTrace":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        if factor < 0:
            raise ValueError("cannot scale a power trace by a negative factor")
        return PowerTrace(self.grid, self.values * float(factor))

    __rmul__ = __mul__

    def __truediv__(self, divisor: Number) -> "PowerTrace":
        if not isinstance(divisor, (int, float)):
            return NotImplemented
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        return PowerTrace(self.grid, self.values / float(divisor))

    def __len__(self) -> int:
        return self.grid.n_samples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerTrace):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self) -> None:  # traces are mutable-ish containers
        raise TypeError("PowerTrace is unhashable")

    def __repr__(self) -> str:
        return (
            f"PowerTrace(n={self.grid.n_samples}, step={self.grid.step_minutes}m, "
            f"peak={self.peak():.3f}, mean={self.mean():.3f})"
        )

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------
    def peak(self) -> float:
        """Maximum instantaneous power — the provisioning-relevant number."""
        return float(self.values.max())

    def valley(self) -> float:
        return float(self.values.min())

    def mean(self) -> float:
        return float(self.values.mean())

    def peak_time_index(self) -> int:
        """Sample index at which the peak occurs (first occurrence)."""
        return int(self.values.argmax())

    def percentile(self, q: Number) -> float:
        """The ``q``-th percentile power reading (used by StatProf, Sec. 5.2.1)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.values, q))

    def peak_to_mean(self) -> float:
        """Peak-to-average ratio; 1.0 for a perfectly flat trace."""
        mean = self.mean()
        if mean == 0:
            return 1.0
        return self.peak() / mean

    # ------------------------------------------------------------------
    # slack metrics (Sec. 2.2, Eq. 1-2)
    # ------------------------------------------------------------------
    def power_slack(self, budget: Number) -> np.ndarray:
        """Instantaneous power slack ``P_budget - P_instant,t`` (Eq. 1)."""
        budget = float(budget)
        if budget < self.peak():
            raise ValueError(
                f"budget {budget:.3f} below trace peak {self.peak():.3f}: "
                "the breaker would trip"
            )
        return budget - self.values

    def energy_slack(self, budget: Number) -> float:
        """Integral of power slack over the trace timespan (Eq. 2).

        Returned in watt-minutes (power unit × minutes).
        """
        slack = self.power_slack(budget)
        return float(slack.sum()) * self.grid.step_minutes

    def energy(self) -> float:
        """Total energy of the trace in watt-minutes."""
        return float(self.values.sum()) * self.grid.step_minutes

    # ------------------------------------------------------------------
    # reshaping over time structure
    # ------------------------------------------------------------------
    def slice(self, start_index: int, stop_index: int) -> "PowerTrace":
        """Contiguous sub-trace covering ``[start_index, stop_index)``."""
        if not 0 <= start_index < stop_index <= self.grid.n_samples:
            raise ValueError(
                f"invalid slice [{start_index}, {stop_index}) for "
                f"{self.grid.n_samples} samples"
            )
        sub_grid = TimeGrid(
            self.grid.start_minute + start_index * self.grid.step_minutes,
            self.grid.step_minutes,
            stop_index - start_index,
        )
        return PowerTrace(sub_grid, self.values[start_index:stop_index])

    def week(self, week_index: int) -> "PowerTrace":
        """The ``week_index``-th whole week of the trace (Eq. 3's ``PI_{i,w}``)."""
        per_week = self.grid.samples_per_week
        n_weeks = self.grid.n_samples // per_week
        if not 0 <= week_index < n_weeks:
            raise IndexError(f"week {week_index} outside trace ({n_weeks} weeks)")
        start = week_index * per_week
        return self.slice(start, start + per_week)

    def split_weeks(self) -> list:
        """All whole weeks of the trace as single-week traces."""
        per_week = self.grid.samples_per_week
        n_weeks = self.grid.n_samples // per_week
        return [self.week(w) for w in range(n_weeks)]

    def average_weeks(self) -> "PowerTrace":
        """Average the trace's weeks into one 7-day trace (Eq. 4).

        Each element of the result is the mean of the readings taken at the
        same time-of-week across all whole weeks of the trace.
        """
        if not self.grid.covers_whole_weeks():
            raise ValueError("trace does not cover whole weeks")
        weeks, per_week = self.grid.week_view_shape()
        stacked = self.values.reshape(weeks, per_week)
        averaged = stacked.mean(axis=0)
        return PowerTrace(self.grid.one_week(), averaged)

    def smooth(self, window_minutes: int) -> "PowerTrace":
        """Centered moving average over ``window_minutes`` (telemetry denoising)."""
        if window_minutes < self.grid.step_minutes:
            return PowerTrace(self.grid, self.values.copy())
        window = max(1, int(round(window_minutes / self.grid.step_minutes)))
        kernel = np.ones(window) / window
        padded = np.concatenate(
            [self.values[: window // 2][::-1], self.values, self.values[-(window // 2) :][::-1]]
        ) if window > 1 else self.values
        smoothed = np.convolve(padded, kernel, mode="same")
        if window > 1:
            half = window // 2
            smoothed = smoothed[half : half + self.grid.n_samples]
        return PowerTrace(self.grid, np.maximum(smoothed, 0.0))

    def hourly_means(self) -> np.ndarray:
        """Mean power per hour-of-day, shape ``(24,)`` — the diurnal profile."""
        hours = self.grid.hours_of_day().astype(int)
        means = np.zeros(24)
        for hour in range(24):
            mask = hours == hour
            if mask.any():
                means[hour] = self.values[mask].mean()
        return means

    def peak_hour(self) -> int:
        """Hour of day (0-23) at which the mean diurnal profile peaks."""
        return int(self.hourly_means().argmax())

    def resample(self, step_minutes: int) -> "PowerTrace":
        """Resample to a coarser grid by block-averaging."""
        if step_minutes == self.grid.step_minutes:
            return PowerTrace(self.grid, self.values.copy())
        if step_minutes % self.grid.step_minutes != 0:
            raise ValueError(
                f"target step {step_minutes} must be a multiple of "
                f"{self.grid.step_minutes}"
            )
        factor = step_minutes // self.grid.step_minutes
        if self.grid.n_samples % factor != 0:
            raise ValueError("trace length is not divisible by the resampling factor")
        blocked = self.values.reshape(-1, factor).mean(axis=1)
        new_grid = TimeGrid(self.grid.start_minute, step_minutes, blocked.shape[0])
        return PowerTrace(new_grid, blocked)


def normalize_traces(traces: Sequence[PowerTrace]) -> list:
    """Normalise traces to the maximum single reading across the set.

    Matches Figure 6's convention: "Y axis is normalized to the maximum power
    reading observed on a single server in the datacenter".
    """
    if not traces:
        return []
    ceiling = max(trace.peak() for trace in traces)
    if ceiling == 0:
        return [PowerTrace(t.grid, t.values.copy()) for t in traces]
    return [trace / ceiling for trace in traces]
