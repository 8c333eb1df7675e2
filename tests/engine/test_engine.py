"""Unit tests for the engine's building blocks and the legacy shims."""

import numpy as np
import pytest

from conftest import make_demand, make_fleet, make_runtime_parts
from repro.engine import (
    MODES,
    Engine,
    FleetState,
    RunArtifacts,
    ScenarioSpec,
    build_pipeline,
    execute,
    run_many,
)


# ----------------------------------------------------------------------
# FleetState
# ----------------------------------------------------------------------
def test_fleet_state_initial_is_whole_fleet_at_nominal_freq():
    fleet = make_fleet()
    demand = make_demand()
    state = FleetState.initial(fleet, demand)
    n = demand.grid.n_samples
    assert state.n_samples == n
    assert np.array_equal(state.n_lc_active, np.full(n, float(fleet.n_lc)))
    assert np.array_equal(state.n_batch_active, np.full(n, float(fleet.n_batch)))
    assert np.array_equal(state.batch_freq, np.ones(n))
    assert state.parked is None
    assert state.lost_lc is None
    assert state.lost_batch is None


# ----------------------------------------------------------------------
# ScenarioSpec validation and pipelines
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        ScenarioSpec(mode="nonsense", fleet=make_fleet(), demand=make_demand())


def test_spec_rejects_negative_extra_servers():
    with pytest.raises(ValueError, match="cannot be negative"):
        ScenarioSpec(
            mode="lc_only",
            fleet=make_fleet(),
            demand=make_demand(),
            extra_servers=-1,
        )


@pytest.mark.parametrize("mode", MODES)
def test_build_pipeline_knows_every_mode(mode):
    spec = ScenarioSpec(mode=mode, fleet=make_fleet(), demand=make_demand())
    policies, actuators = build_pipeline(spec)
    assert isinstance(policies, tuple)
    assert isinstance(actuators, tuple)
    if mode == "pre":
        assert policies == () and actuators == ()
    else:
        assert policies
    if mode.endswith("_chaos"):
        assert actuators  # emergency capping guards the chaos modes


def test_explicit_pipeline_overrides_the_mode_default():
    spec = ScenarioSpec(
        mode="conversion",
        fleet=make_fleet(),
        demand=make_demand(),
        policies=(),
    )
    assert build_pipeline(spec) == ((), ())


def test_from_spec_requires_a_conversion_policy():
    spec = ScenarioSpec(mode="pre", fleet=make_fleet(), demand=make_demand())
    with pytest.raises(ValueError, match="conversion policy"):
        Engine.from_spec(spec)


def test_throttle_boost_rejects_negative_funded_count():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode="throttle_boost",
        fleet=fleet,
        demand=make_demand(),
        conversion=conversion,
        extra_servers=3,
        extra_throttle_funded=-1,
    )
    with pytest.raises(ValueError, match="cannot be negative"):
        engine.run(spec)


def test_custom_name_overrides_the_mode_label():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode="pre",
        fleet=fleet,
        demand=make_demand(),
        conversion=conversion,
        name="baseline",
    )
    assert engine.run(spec).result.name == "baseline"


# ----------------------------------------------------------------------
# RunArtifacts and execute/run_many plumbing
# ----------------------------------------------------------------------
def test_artifacts_scenario_unwraps_plain_results():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode="pre", fleet=fleet, demand=make_demand(), conversion=conversion
    )
    artifacts = engine.run(spec)
    assert artifacts.scenario is artifacts.result
    assert artifacts.spec is spec


def test_artifacts_scenario_is_none_for_foreign_results():
    assert RunArtifacts(spec=None, result={"not": "a result"}).scenario is None


def test_execute_rejects_unknown_spec_types():
    with pytest.raises(TypeError, match="cannot execute"):
        execute(object())


def test_run_many_serial_preserves_spec_order():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    demand = make_demand()
    specs = [
        ScenarioSpec(
            mode="pre", fleet=fleet, demand=demand, conversion=conversion
        ),
        ScenarioSpec(
            mode="lc_only",
            fleet=fleet,
            demand=demand,
            conversion=conversion,
            extra_servers=5,
        ),
    ]
    results = run_many(specs, workers=1)
    assert [a.result.name for a in results] == ["pre", "lc_only"]
