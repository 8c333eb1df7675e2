"""Golden parity: the engine reproduces ``golden.json`` bit-for-bit.

``golden.json`` pins the four reshaping modes and the ten chaos-harness
scenarios (regenerated by ``_golden_gen.py``).  Every compare here is exact
(``==`` on floats): a change that is not meant to alter results must not
change a single bit of any of them.
"""

import pytest

from conftest import SMALL, chaos_fingerprint, reshaping_results, scenario_fingerprint
from repro.engine import chaos_spec, run_many
from repro.faults import run_chaos_suite
from repro.faults.harness import DEFAULT_SUITE

RESHAPING_MODES = ("pre", "lc_only", "conversion", "throttle_boost")
CHAOS_NAMES = tuple(scenario.name for scenario in DEFAULT_SUITE)


# ----------------------------------------------------------------------
# reshaping modes through Engine.run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_results():
    return reshaping_results()


@pytest.mark.parametrize("mode", RESHAPING_MODES)
def test_engine_matches_golden(engine_results, golden, mode):
    assert scenario_fingerprint(engine_results[mode]) == golden["reshaping"][mode]


# ----------------------------------------------------------------------
# chaos harness: all ten scenarios, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_outcomes():
    outcomes = run_chaos_suite(dc_name="DC1", **SMALL)
    return {outcome.scenario.name: outcome for outcome in outcomes}


def test_chaos_suite_covers_golden(chaos_outcomes, golden):
    assert set(chaos_outcomes) == set(golden["chaos"])


@pytest.mark.parametrize("name", CHAOS_NAMES)
def test_chaos_matches_golden(chaos_outcomes, golden, name):
    assert chaos_fingerprint(chaos_outcomes[name]) == golden["chaos"][name]


# ----------------------------------------------------------------------
# determinism: worker count must not change a single bit
# ----------------------------------------------------------------------
def test_run_many_parallel_matches_serial(golden):
    specs = [chaos_spec(name, dc_name="DC1", **SMALL) for name in CHAOS_NAMES]
    serial = run_many(specs, workers=1)
    parallel = run_many(specs, workers=4)
    assert [chaos_fingerprint(a.result) for a in serial] == [
        chaos_fingerprint(a.result) for a in parallel
    ]
    # ... and both match the goldens.
    for artifacts in parallel:
        fingerprint = chaos_fingerprint(artifacts.result)
        assert fingerprint == golden["chaos"][artifacts.result.scenario.name]
