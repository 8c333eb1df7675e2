"""Synthetic power-trace generation.

The paper measures three weeks of per-minute power telemetry for every server
in three production Facebook datacenters.  We cannot obtain those traces, so
this module synthesises the closest structural equivalent (see DESIGN.md,
"Substitutions"): per-instance traces composed of

* a service-level diurnal/weekly activity shape (:class:`ServiceProfile`),
* per-instance heterogeneity — phase offsets, amplitude/baseline scaling —
  drawn once per instance and stable across weeks (this is the signal the
  placement framework exploits),
* week-over-week variation and AR(1)-correlated short-term noise (this is
  the signal Eq. 4's multi-week averaging is designed to suppress).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .grid import TimeGrid
from .instance import InstanceRecord, ServiceInstance
from .profiles import ServiceProfile
from .series import PowerTrace
from .traceset import TraceSet


@dataclass(frozen=True)
class InstancePersonality:
    """Stable per-instance deviations from the service shape.

    Drawn once per instance; identical across weeks.  This is precisely the
    "instance-level heterogeneity ... from imbalanced accessing pattern or
    skewed popularity" of Sec. 3.3.
    """

    phase_offset_hours: float
    amplitude_scale: float
    baseline_scale: float

    def __post_init__(self) -> None:
        if self.amplitude_scale < 0 or self.baseline_scale < 0:
            raise ValueError("personality scales cannot be negative")


def draw_personality(
    profile: ServiceProfile, rng: np.random.Generator
) -> InstancePersonality:
    """Sample one instance's personality from the profile's jitter model."""
    phase, amplitude, baseline = _personalities(profile, rng.standard_normal((1, 3)))
    return InstancePersonality(float(phase[0]), float(amplitude[0]), float(baseline[0]))


def _personalities(
    profile: ServiceProfile, z: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase offsets, amplitude and baseline scales from ``(rows, 3)`` normals.

    ``normal(loc, s)`` is ``loc + s·z`` on the next standard normal ``z``.
    """
    phase = 0.0 + profile.phase_jitter_hours * z[:, 0]
    amplitude = np.clip(1.0 + profile.amplitude_jitter * z[:, 1], 0.2, 3.0)
    baseline = np.clip(1.0 + profile.baseline_jitter * z[:, 2], 0.2, 3.0)
    return phase, amplitude, baseline


#: Instances drawn per block by :meth:`TraceSynthesizer.fleet`.  One block
#: holds its normal draws and a few ``(rows, n_samples)`` temporaries, so
#: a fixed block keeps the working set to a few MB whatever the fleet size.
BLOCK_ROWS = 256


class TraceSynthesizer:
    """Generates multi-week instance power traces for service profiles.

    Parameters
    ----------
    weeks:
        Number of whole weeks to synthesise (the paper collects 3: two for
        training, one held out — Sec. 5.1).
    step_minutes:
        Sampling step.  The paper logs per minute; the default of 10 minutes
        keeps fleet-scale experiments fast while preserving hourly structure.
    seed:
        Seed for the top-level RNG.  All randomness flows from here, so a
        given (seed, fleet spec) pair is fully reproducible.

    Every instance consumes one fixed-length run of standard normals from
    the RNG — three personality draws, one drift draw per week, then the
    AR(1) white noise (absent when the profile is noiseless) — so a block
    of instances is one ``standard_normal((rows, width))`` draw and the
    result does not depend on how a fleet is cut into blocks.
    """

    def __init__(
        self,
        *,
        weeks: int = 3,
        step_minutes: int = 10,
        seed: int = 0,
    ) -> None:
        if weeks <= 0:
            raise ValueError("weeks must be positive")
        self.weeks = weeks
        self.grid = TimeGrid.for_weeks(weeks, step_minutes=step_minutes)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def instance_trace(
        self,
        profile: ServiceProfile,
        personality: Optional[InstancePersonality] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> PowerTrace:
        """One instance's raw multi-week power trace."""
        rng = rng if rng is not None else self._rng
        values = self._raw_block(profile, 1, rng, personality)[0]
        return PowerTrace(self.grid, values)

    def _raw_block(
        self,
        profile: ServiceProfile,
        rows: int,
        rng: np.random.Generator,
        personality: Optional[InstancePersonality] = None,
    ) -> np.ndarray:
        """Raw multi-week traces of ``rows`` instances, shape ``(rows, n)``.

        Every ``normal(loc, s)`` draw is written as ``loc + s·z`` on the
        block's standard normals, so row *i* equals what drawing instance
        *i*'s values one at a time would give.  With a fixed
        ``personality`` the three personality draws are skipped.
        """
        n = self.grid.n_samples
        kernel = _ar1_kernel(n) if profile.noise_std != 0 else None
        lead = 3 if personality is None else 0
        noise_width = 0 if kernel is None else n + len(kernel) - 1
        z = rng.standard_normal((rows, lead + self.weeks + noise_width))

        if personality is None:
            phase, amplitude, baseline = _personalities(profile, z[:, :3])
        else:
            phase = np.full(rows, personality.phase_offset_hours)
            amplitude = np.full(rows, personality.amplitude_scale)
            baseline = np.full(rows, personality.baseline_scale)

        # Timestamps are whole minutes, so the hour of day repeats bit for
        # bit every day: the activity shape is evaluated on one day and
        # tiled (a row's maximum, which the shapes normalise by, is the
        # same over one day as over the whole grid).
        per_day = self.grid.samples_per_day
        per_week = self.grid.samples_per_week
        hours = self.grid.hours_of_day()[:per_day] - phase[:, np.newaxis]
        np.mod(hours, 24.0, out=hours)
        activity = np.tile(profile.activity(hours), 7)

        # Weekly structure: weekends dampened for user-facing services.
        weekend = (self.grid.days_of_week()[:per_week] >= 5).astype(np.float64)
        weekly = 1.0 - weekend * (1.0 - profile.weekend_factor)
        week = activity * weekly

        # Week-over-week drift: each week gets a small load multiplier.
        week_scale = (1.0 + 0.03 * z[:, lead : lead + self.weeks]).clip(0.8, 1.2)
        utilisation = (
            week[:, np.newaxis, :] * week_scale[:, :, np.newaxis]
        ).reshape(rows, n)

        if kernel is not None:
            # AR(1)-correlated multiplicative noise (sensor + load jitter).
            white = 0.0 + profile.noise_std * z[:, lead + self.weeks :]
            noise = np.empty((rows, n))
            for row in range(rows):
                noise[row] = np.convolve(white[row], kernel, mode="valid")
            noise += 1.0
            utilisation *= noise
        np.clip(utilisation, 0.0, 1.5, out=utilisation)

        # values = idle + swing × utilisation, built in place.
        utilisation *= (profile.swing_watts * amplitude)[:, np.newaxis]
        utilisation += (profile.idle_watts * baseline)[:, np.newaxis]
        return np.maximum(utilisation, 0.0, out=utilisation)

    # ------------------------------------------------------------------
    def service_instances(
        self,
        profile: ServiceProfile,
        count: int,
        *,
        id_prefix: Optional[str] = None,
        test_weeks: int = 1,
    ) -> List[InstanceRecord]:
        """``count`` instance records for one service.

        Each record holds the Eq.-4 averaged training trace (first
        ``weeks - test_weeks`` weeks) and the held-out test week.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        training, test = self._allocate(count, test_weeks)
        prefix = id_prefix if id_prefix is not None else profile.name
        return self._service_records(profile, prefix, training, test, test_weeks)

    def fleet(
        self,
        composition: Sequence[Tuple[ServiceProfile, int]],
        *,
        test_weeks: int = 1,
    ) -> List[InstanceRecord]:
        """Instance records for a whole fleet given (profile, count) pairs.

        The records' traces are row views of one fleet training matrix and
        one test matrix, in composition order.
        """
        with obs.span("synthesize", services=len(composition)):
            if any(count <= 0 for _, count in composition):
                raise ValueError("count must be positive")
            total = sum(count for _, count in composition)
            training, test = self._allocate(total, test_weeks)
            records: List[InstanceRecord] = []
            start = 0
            for profile, count in composition:
                stop = start + count
                records.extend(
                    self._service_records(
                        profile,
                        profile.name,
                        training[start:stop],
                        None if test is None else test[start:stop],
                        test_weeks,
                    )
                )
                start = stop
            return records

    def _allocate(
        self, rows: int, test_weeks: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Empty training and test matrices for ``rows`` instances."""
        if test_weeks < 0:
            raise ValueError("test_weeks cannot be negative")
        if self.weeks <= test_weeks:
            raise ValueError(
                f"need more than {test_weeks} weeks of telemetry, "
                f"got {self.weeks}"
            )
        per_week = self.grid.samples_per_week
        training = np.empty((rows, per_week))
        test = np.empty((rows, per_week)) if test_weeks else None
        return training, test

    def _service_records(
        self,
        profile: ServiceProfile,
        prefix: str,
        training: np.ndarray,
        test: Optional[np.ndarray],
        test_weeks: int,
    ) -> List[InstanceRecord]:
        """Fill ``training``/``test`` block by block and wrap each row.

        The training row is the Eq.-4 average of the first
        ``weeks - test_weeks`` weeks (added in order, then divided); the
        test row is the last week.
        """
        count = training.shape[0]
        per_week = self.grid.samples_per_week
        training_weeks = self.weeks - test_weeks
        with obs.span("synthesize.service", service=profile.name, count=count):
            obs.count("synthesize.instances", count)
            for start in range(0, count, BLOCK_ROWS):
                stop = min(start + BLOCK_ROWS, count)
                raw = self._raw_block(profile, stop - start, self._rng)
                by_week = raw.reshape(stop - start, self.weeks, per_week)
                total = by_week[:, 0].copy()
                for week in range(1, training_weeks):
                    total = total + by_week[:, week]
                training[start:stop] = total / training_weeks
                if test is not None:
                    test[start:stop] = by_week[:, -1]

            for matrix in (training, test):
                if matrix is not None and not (
                    np.isfinite(matrix).all() and (matrix >= 0).all()
                ):
                    raise ValueError(
                        f"{profile.name}: synthesised power must be finite "
                        "and non-negative"
                    )

            step = self.grid.step_minutes
            training_grid = TimeGrid(0, step, per_week)
            test_grid = TimeGrid((self.weeks - 1) * per_week * step, step, per_week)
            records: List[InstanceRecord] = []
            for index in range(count):
                instance = ServiceInstance(
                    instance_id=f"{prefix}-{index:05d}",
                    service=profile.name,
                    kind=profile.kind,
                )
                records.append(
                    InstanceRecord(
                        instance=instance,
                        training_trace=PowerTrace._trusted(
                            training_grid, training[index]
                        ),
                        test_trace=(
                            None
                            if test is None
                            else PowerTrace._trusted(test_grid, test[index])
                        ),
                    )
                )
            return records


def _ar1_kernel(n_samples: int, rho: float = 0.9) -> np.ndarray:
    """Unit-energy truncated AR(1) impulse response.

    Convolving white noise of std ``s`` with it gives temporally-correlated
    noise with marginal std ``s``.
    """
    # Kernel length where rho^k becomes negligible.
    length = min(n_samples, max(8, int(np.ceil(np.log(1e-3) / np.log(rho)))))
    kernel = rho ** np.arange(length)
    kernel /= np.sqrt((kernel * kernel).sum())  # unit marginal variance
    return kernel


def training_trace_set(records: Sequence[InstanceRecord]) -> TraceSet:
    """The fleet's averaged training I-traces as one :class:`TraceSet`."""
    return TraceSet.from_traces(
        {record.instance_id: record.training_trace for record in records}
    )


def test_trace_set(records: Sequence[InstanceRecord]) -> TraceSet:
    """The fleet's held-out test-week traces as one :class:`TraceSet`."""
    missing = [r.instance_id for r in records if r.test_trace is None]
    if missing:
        raise ValueError(f"records without test traces: {missing[:5]}")
    return TraceSet.from_traces(
        {record.instance_id: record.test_trace for record in records}
    )
