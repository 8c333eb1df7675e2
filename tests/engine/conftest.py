"""Shared builders and fingerprint helpers for the engine parity suite.

The golden-parity tests pin the engine's output to fingerprints in
``tests/engine/golden.json`` (produced by ``tests/engine/_golden_gen.py``).
Equality is exact (``==`` on floats): a change that is not meant to alter
results must not change a single bit of them.  The fleet and demand
builders live in ``tests/conftest.py`` and are re-exported here for the
engine tests' ``from conftest import ...``.
"""

import numpy as np
import pytest

from repro.engine import Engine, ScenarioSpec
from tests.conftest import (  # noqa: F401  (re-exported for the engine tests)
    make_demand,
    make_fleet,
    make_grid,
    make_runtime_parts,
)

#: The chaos-harness scale every engine test runs at (fast, deterministic).
SMALL = dict(n_instances=96, step_minutes=60, weeks=2)


def reshaping_results():
    """The four reshaping scenarios ``golden.json`` pins, via ``Engine.run``."""
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    demand = make_demand()

    def run(mode, demand, **kwargs):
        spec = ScenarioSpec(
            mode=mode,
            fleet=fleet,
            demand=demand,
            conversion=conversion,
            throttle=throttle,
            dvfs=dvfs,
            **kwargs,
        )
        return engine.run(spec).result

    return {
        "pre": run("pre", demand),
        "lc_only": run("lc_only", demand.scaled(1.1), extra_servers=10),
        "conversion": run("conversion", demand.scaled(1.1), extra_servers=10),
        "throttle_boost": run(
            "throttle_boost",
            demand.scaled(1.15),
            extra_servers=10,
            extra_throttle_funded=5,
        ),
    }


# ----------------------------------------------------------------------
# fingerprints: position-weighted checksums catch any per-step change
# ----------------------------------------------------------------------
def scenario_fingerprint(result):
    w = np.arange(1.0, result.total_power.size + 1.0)
    return {
        "name": result.name,
        "lc_total": float(result.lc_served.sum()),
        "batch_total": float(result.batch_throughput.sum()),
        "dropped_fraction": result.dropped_fraction(),
        "peak_power": float(result.total_power.max()),
        "energy_slack": result.energy_slack(),
        "overload_steps": int(result.overload_steps()),
        "power_checksum": float(np.dot(result.total_power, w)),
        "freq_checksum": float(np.dot(result.batch_freq, w)),
        "n_lc_checksum": float(np.dot(result.n_lc_active, w)),
        "n_batch_checksum": float(np.dot(result.n_batch_active, w)),
        "parked_checksum": (
            float(np.dot(result.parked, w)) if result.parked is not None else None
        ),
    }


def chaos_fingerprint(outcome):
    run = outcome.reshaping
    recovery = run.recovery
    fingerprint = {
        "scenario": scenario_fingerprint(run.scenario),
        "raw": scenario_fingerprint(run.raw),
        "engaged": recovery.engaged,
        "overload_before": recovery.overload_steps_before,
        "overload_after": recovery.overload_steps_after,
        "trips_before": len(recovery.trips_before),
        "trips_after": len(recovery.trips_after),
        "forced_shutdown_watt_minutes": recovery.forced_shutdown_watt_minutes,
        "lc_energy_shed": recovery.lc_energy_shed,
        "failure_downtime": recovery.failure_downtime_server_steps,
        "quality_clean": outcome.quality_clean,
        "quality_chaos": outcome.quality_chaos,
        "placement_trips": outcome.placement_trips,
        "passed": outcome.passed,
    }
    if recovery.capping is not None:
        fingerprint["capping"] = {
            "total_event_steps": recovery.capping.total_event_steps,
            "residual_overload_steps": recovery.capping.residual_overload_steps,
            "shed_by_kind": dict(sorted(recovery.capping.shed_by_kind.items())),
        }
    if recovery.conversion_lc is not None:
        log = recovery.conversion_lc
        fingerprint["conversion_lc"] = [
            log.n_transitions,
            log.n_failed_attempts,
            log.n_aborted,
            log.delayed_server_steps,
        ]
    return fingerprint


@pytest.fixture(scope="session")
def golden():
    import json
    import pathlib

    path = pathlib.Path(__file__).parent / "golden.json"
    with open(path) as handle:
        return json.load(handle)
