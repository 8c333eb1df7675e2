"""Shared fixtures: small grids, tiny fleets, and a demo datacenter.

Also the plain builders of the reference reshaping fleet and demand
(``make_fleet`` / ``make_demand`` / ``make_runtime_parts``) that the
scenario tests and the engine parity suite share; import them with
``from tests.conftest import ...`` (the engine tests get them through
``tests/engine/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import build_datacenter, small_demo_spec
from repro.engine import FleetDescription
from repro.infra import build_topology, ocp_spec, two_level_spec
from repro.reshaping import ConversionPolicy, ThrottleBoostPolicy
from repro.sim import DemandTrace, DVFSModel, ServerPowerModel
from repro.traces import (
    TimeGrid,
    TraceSynthesizer,
    cache_profile,
    db_profile,
    hadoop_profile,
    web_profile,
)


@pytest.fixture
def week_grid() -> TimeGrid:
    """One week at 30-minute resolution (fast: 336 samples)."""
    return TimeGrid.for_weeks(1, step_minutes=30)


@pytest.fixture
def day_grid() -> TimeGrid:
    return TimeGrid.for_days(1, step_minutes=30)


@pytest.fixture
def synthesizer() -> TraceSynthesizer:
    """Three weeks at 30-minute resolution, fixed seed."""
    return TraceSynthesizer(weeks=3, step_minutes=30, seed=42)


@pytest.fixture
def tiny_records(synthesizer):
    """24 instances across the four canonical archetypes."""
    return synthesizer.fleet(
        [
            (web_profile(), 8),
            (cache_profile(), 6),
            (db_profile(), 6),
            (hadoop_profile(), 4),
        ]
    )


@pytest.fixture
def tiny_topology():
    """2 RPPs x 2 racks x 8 slots = 32 capacity."""
    return build_topology(
        ocp_spec(
            "tiny",
            suites=1,
            msbs_per_suite=1,
            sbs_per_msb=1,
            rpps_per_sb=2,
            racks_per_rpp=2,
            servers_per_rack=8,
        )
    )


@pytest.fixture
def flat_topology():
    """Two leaves, 16 slots each — the Figure 1/3 toy datacenter."""
    return build_topology(two_level_spec("flat", leaves=2, leaf_capacity=16))


@pytest.fixture(scope="session")
def demo_datacenter():
    """The small demo datacenter (120 instances, 30-min step), built once."""
    return build_datacenter(small_demo_spec(), weeks=3, step_minutes=30)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ----------------------------------------------------------------------
# the reference reshaping fleet (Sec. 4 scenario tests, engine parity)
# ----------------------------------------------------------------------
def make_grid():
    return TimeGrid.for_days(2, step_minutes=60)


def make_fleet(budget_watts=45_000.0):
    return FleetDescription(
        n_lc=100,
        n_batch=40,
        lc_model=ServerPowerModel(90, 240),
        batch_model=ServerPowerModel(150, 235),
        budget_watts=budget_watts,
    )


def make_demand(grid=None):
    """Diurnal demand: peak per-server load 0.85 on the original fleet."""
    grid = grid if grid is not None else make_grid()
    hours = grid.hours_of_day()
    shape = 0.35 + 0.5 * np.exp(2.0 * (np.cos(2 * np.pi * (hours - 14) / 24) - 1))
    return DemandTrace(grid, shape * 100.0)


def make_runtime_parts(budget_watts=45_000.0):
    """(fleet, conversion, throttle, dvfs) for the reshaping fixtures."""
    return (
        make_fleet(budget_watts),
        ConversionPolicy(conversion_threshold=0.85),
        ThrottleBoostPolicy(),
        DVFSModel(),
    )
