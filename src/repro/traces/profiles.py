"""Service power-profile archetypes.

The paper's placement framework consumes only the *shape* of power traces:
when a service peaks, how hard it swings, and how much its instances differ
from one another.  A :class:`ServiceProfile` captures those shape parameters
for one service; Sec. 2.3 motivates the three canonical archetypes —

* **web / cache / frontend** — user-facing, strongly diurnal, daytime peak,
  highly synchronous across instances;
* **db** — I/O bound by day, nightly backup compression: *nocturnal* peak;
* **hadoop** — throughput-optimised batch, *flat and high* power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from .instance import ServiceKind


class Shape:
    """Supported diurnal activity shapes."""

    DIURNAL = "diurnal"          # single daytime bump (web, cache)
    NOCTURNAL = "nocturnal"      # single night-time bump (db backup)
    FLAT = "flat"                # constant high utilisation (hadoop)
    DOUBLE_PEAK = "double_peak"  # morning + evening bumps (mobile, media)
    OFFICE = "office"            # business-hours plateau (dev, lab)

    ALL = (DIURNAL, NOCTURNAL, FLAT, DOUBLE_PEAK, OFFICE)


@dataclass(frozen=True)
class ServiceProfile:
    """Shape parameters for one service's power behaviour.

    Attributes
    ----------
    name:
        Service name (``"web"``, ``"db"``, ...).
    kind:
        :class:`ServiceKind` class for the reshaping runtime.
    shape:
        One of :class:`Shape`.
    idle_watts / peak_watts:
        Per-server idle floor and full-load draw.  Modern servers are far
        from energy-proportional; the defaults reflect roughly a 0.45
        idle/peak ratio.
    peak_hour:
        Hour of day (local) at which activity tops out.
    sharpness:
        Concentration of the activity bump; higher = spikier peak.
    weekend_factor:
        Multiplier on activity during Saturday/Sunday (<1 for user-facing).
    noise_std:
        Std-dev of multiplicative short-term noise on the activity signal.
    phase_jitter_hours:
        Per-instance std-dev of peak-time offset — instance-level temporal
        heterogeneity (e.g. regional traffic skew).
    amplitude_jitter / baseline_jitter:
        Per-instance relative std-dev of activity swing / idle floor —
        instance-level magnitude heterogeneity (skewed shard popularity).
    """

    name: str
    kind: str = ServiceKind.OTHER
    shape: str = Shape.DIURNAL
    idle_watts: float = 90.0
    peak_watts: float = 200.0
    peak_hour: float = 14.0
    sharpness: float = 2.0
    weekend_factor: float = 1.0
    noise_std: float = 0.02
    phase_jitter_hours: float = 0.5
    amplitude_jitter: float = 0.10
    baseline_jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.shape not in Shape.ALL:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.idle_watts < 0 or self.peak_watts <= 0:
            raise ValueError("power levels must be non-negative / positive")
        if self.peak_watts < self.idle_watts:
            raise ValueError("peak_watts must be >= idle_watts")
        if not 0 <= self.peak_hour < 24:
            raise ValueError(f"peak_hour must be in [0, 24), got {self.peak_hour}")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        for attr in ("noise_std", "phase_jitter_hours", "amplitude_jitter", "baseline_jitter"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} cannot be negative")

    # ------------------------------------------------------------------
    def activity(self, hours_of_day: np.ndarray) -> np.ndarray:
        """Normalised activity level in ``[0, 1]`` for each hour-of-day.

        ``hours_of_day`` may carry leading axes (one row per instance); the
        shape is normalised along the last axis, row by row.
        """
        if self.shape == Shape.FLAT:
            return np.full_like(hours_of_day, 1.0, dtype=np.float64)
        if self.shape == Shape.DIURNAL or self.shape == Shape.NOCTURNAL:
            return _von_mises_bump(hours_of_day, self.peak_hour, self.sharpness)
        if self.shape == Shape.DOUBLE_PEAK:
            morning = _von_mises_bump(hours_of_day, self.peak_hour - 5.0, self.sharpness)
            evening = _von_mises_bump(hours_of_day, self.peak_hour + 5.0, self.sharpness)
            combined = 0.45 * morning + 0.55 * evening
            return _normalise_rows(combined)
        if self.shape == Shape.OFFICE:
            # Smooth plateau across business hours centred on peak_hour.
            lo, hi = self.peak_hour - 4.5, self.peak_hour + 4.5
            ramp = 1.0 / (1.0 + np.exp(-(hours_of_day - lo) * self.sharpness))
            fall = 1.0 / (1.0 + np.exp((hours_of_day - hi) * self.sharpness))
            return _normalise_rows(ramp * fall)
        raise AssertionError(f"unhandled shape {self.shape!r}")

    def with_heterogeneity(self, scale: float) -> "ServiceProfile":
        """Scale per-instance jitter parameters by ``scale``.

        Models the DC-level difference the paper observes: DC1 has low
        instance heterogeneity, DC3 high (Sec. 5.2.1).
        """
        if scale < 0:
            raise ValueError("heterogeneity scale cannot be negative")
        return replace(
            self,
            phase_jitter_hours=self.phase_jitter_hours * scale,
            amplitude_jitter=self.amplitude_jitter * scale,
            baseline_jitter=self.baseline_jitter * scale,
        )

    @property
    def swing_watts(self) -> float:
        """Activity-driven power swing from idle to peak."""
        return self.peak_watts - self.idle_watts

    def expected_mean_watts(self) -> float:
        """Expected long-run mean draw of one instance of this service.

        Averages the activity shape over a day and weights weekdays against
        weekends.  Used to convert Figure 5's *power* shares into instance
        counts when synthesising fleets.
        """
        hours = np.linspace(0.0, 24.0, 288, endpoint=False)
        mean_activity = float(self.activity(hours).mean())
        weekly = (5.0 + 2.0 * self.weekend_factor) / 7.0
        return self.idle_watts + self.swing_watts * mean_activity * weekly


def _normalise_rows(shape: np.ndarray) -> np.ndarray:
    """Scale each last-axis row to peak at 1 (all-zero rows stay zero)."""
    peak = shape.max(axis=-1, keepdims=True)
    return np.divide(shape, peak, out=shape, where=peak > 0)


def _von_mises_bump(hours: np.ndarray, peak_hour: float, kappa: float) -> np.ndarray:
    """A smooth 24h-periodic bump peaking at ``peak_hour``, max value 1."""
    angle = 2.0 * math.pi * (hours - peak_hour) / 24.0
    raw = np.exp(kappa * (np.cos(angle) - 1.0))
    return raw


# ----------------------------------------------------------------------
# Canonical archetypes (Sec. 2.3 / Figure 6)
# ----------------------------------------------------------------------
def web_profile(name: str = "web") -> ServiceProfile:
    """User-facing web/frontend tier: strong daytime diurnal swing."""
    return ServiceProfile(
        name=name,
        kind=ServiceKind.LATENCY_CRITICAL,
        shape=Shape.DIURNAL,
        idle_watts=85.0,
        peak_watts=240.0,
        peak_hour=14.0,
        sharpness=2.2,
        weekend_factor=0.85,
        noise_std=0.03,
        phase_jitter_hours=0.4,
        amplitude_jitter=0.08,
        baseline_jitter=0.04,
    )


def cache_profile(name: str = "cache") -> ServiceProfile:
    """Cache tier: diurnal like web but with a higher, steadier floor."""
    return ServiceProfile(
        name=name,
        kind=ServiceKind.LATENCY_CRITICAL,
        shape=Shape.DIURNAL,
        idle_watts=100.0,
        peak_watts=225.0,
        peak_hour=14.5,
        sharpness=1.8,
        weekend_factor=0.9,
        noise_std=0.02,
        phase_jitter_hours=0.5,
        amplitude_jitter=0.08,
        baseline_jitter=0.05,
    )


def db_profile(name: str = "db") -> ServiceProfile:
    """Database backend: modest daytime load, nightly backup peak."""
    return ServiceProfile(
        name=name,
        kind=ServiceKind.STORAGE,
        shape=Shape.NOCTURNAL,
        idle_watts=85.0,
        peak_watts=235.0,
        peak_hour=2.0,
        sharpness=3.0,
        weekend_factor=1.0,
        noise_std=0.025,
        phase_jitter_hours=1.2,
        amplitude_jitter=0.12,
        baseline_jitter=0.06,
    )


def hadoop_profile(name: str = "hadoop") -> ServiceProfile:
    """Hadoop/batch tier: constantly high, throughput-optimised."""
    return ServiceProfile(
        name=name,
        kind=ServiceKind.BATCH,
        shape=Shape.FLAT,
        idle_watts=150.0,
        peak_watts=240.0,
        peak_hour=12.0,
        sharpness=1.0,
        weekend_factor=1.0,
        noise_std=0.08,
        phase_jitter_hours=4.0,
        amplitude_jitter=0.15,
        baseline_jitter=0.10,
    )


def search_profile(name: str = "search") -> ServiceProfile:
    """Search serving tier: diurnal, slightly earlier peak than web."""
    return ServiceProfile(
        name=name,
        kind=ServiceKind.LATENCY_CRITICAL,
        shape=Shape.DIURNAL,
        idle_watts=90.0,
        peak_watts=230.0,
        peak_hour=12.5,
        sharpness=2.0,
        weekend_factor=0.8,
        noise_std=0.03,
        phase_jitter_hours=0.6,
        amplitude_jitter=0.09,
        baseline_jitter=0.05,
    )


def dev_profile(name: str = "dev") -> ServiceProfile:
    """Developer/lab machines: business-hours plateau, quiet otherwise.

    Classified as Batch for the reshaping runtime: like hadoop, this work is
    throughput-oriented and preemptible (throttle/boost eligible).
    """
    return ServiceProfile(
        name=name,
        kind=ServiceKind.BATCH,
        shape=Shape.OFFICE,
        idle_watts=60.0,
        peak_watts=185.0,
        peak_hour=13.5,
        sharpness=1.4,
        weekend_factor=0.4,
        noise_std=0.05,
        phase_jitter_hours=1.5,
        amplitude_jitter=0.2,
        baseline_jitter=0.1,
    )


def media_profile(name: str = "media") -> ServiceProfile:
    """Photo/video serving: double-peaked (commute + evening) activity."""
    return ServiceProfile(
        name=name,
        kind=ServiceKind.LATENCY_CRITICAL,
        shape=Shape.DOUBLE_PEAK,
        idle_watts=80.0,
        peak_watts=215.0,
        peak_hour=14.0,
        sharpness=2.6,
        weekend_factor=1.1,
        noise_std=0.03,
        phase_jitter_hours=0.8,
        amplitude_jitter=0.1,
        baseline_jitter=0.05,
    )


def storage_profile(name: str = "photostorage") -> ServiceProfile:
    """Cold storage: low, nearly flat draw with mild daytime tilt."""
    return ServiceProfile(
        name=name,
        kind=ServiceKind.STORAGE,
        shape=Shape.DIURNAL,
        idle_watts=130.0,
        peak_watts=165.0,
        peak_hour=15.0,
        sharpness=0.8,
        weekend_factor=0.95,
        noise_std=0.02,
        phase_jitter_hours=1.0,
        amplitude_jitter=0.08,
        baseline_jitter=0.06,
    )


CANONICAL_PROFILES: Dict[str, ServiceProfile] = {
    profile.name: profile
    for profile in (
        web_profile(),
        cache_profile(),
        db_profile(),
        hadoop_profile(),
        search_profile(),
        dev_profile(),
        media_profile(),
        storage_profile(),
    )
}
