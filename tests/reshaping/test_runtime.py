"""Unit tests for the Sec. 4 reshaping scenarios, run as engine specs."""

import numpy as np
import pytest

from repro.analysis.experiments import ReshapingComparison
from repro.engine import FleetDescription, ScenarioSpec, execute
from repro.reshaping import ConversionPolicy, ThrottleBoostPolicy
from repro.sim import DemandTrace, DVFSModel, ServerPowerModel
from tests.conftest import make_demand, make_fleet, make_grid, make_runtime_parts


def run(mode, demand, parts=None, **kwargs):
    """Run one scenario ``mode`` on the reference fleet (or ``parts``)."""
    fleet, conversion, throttle, dvfs = parts or make_runtime_parts()
    spec = ScenarioSpec(
        mode=mode,
        fleet=fleet,
        demand=demand,
        conversion=conversion,
        throttle=throttle,
        dvfs=dvfs,
        **kwargs,
    )
    return execute(spec).result


@pytest.fixture
def fleet():
    return make_fleet()


@pytest.fixture
def demand():
    return make_demand()


class TestFleetValidation:
    def test_requires_lc(self):
        with pytest.raises(ValueError):
            FleetDescription(
                n_lc=0, n_batch=1,
                lc_model=ServerPowerModel(90, 240),
                batch_model=ServerPowerModel(150, 235),
                budget_watts=1000,
            )

    def test_requires_budget(self):
        with pytest.raises(ValueError):
            FleetDescription(
                n_lc=1, n_batch=1,
                lc_model=ServerPowerModel(90, 240),
                batch_model=ServerPowerModel(150, 235),
                budget_watts=0,
            )


class TestPre:
    def test_no_drops_at_calibrated_demand(self, demand):
        result = run("pre", demand)
        assert result.dropped_fraction() == pytest.approx(0.0, abs=1e-9)

    def test_power_positive_and_bounded(self, demand, fleet):
        result = run("pre", demand)
        assert result.total_power.min() > 0
        assert result.peak_power() <= fleet.budget_watts

    def test_slack_metrics(self, demand):
        result = run("pre", demand)
        assert result.mean_slack() > 0
        assert result.energy_slack() > 0
        assert result.overload_steps() == 0


class TestLCOnly:
    def test_more_servers_serve_more(self, demand):
        pre = run("pre", demand)
        grown = run("lc_only", demand.scaled(1.1), extra_servers=10)
        assert grown.lc_total() > pre.lc_total()

    def test_negative_extra_rejected(self, demand):
        with pytest.raises(ValueError):
            run("lc_only", demand, extra_servers=-1)


class TestConversion:
    def test_phase_switching_visible(self, demand):
        result = run("conversion", demand.scaled(1.1), extra_servers=10)
        # Conversion servers join LC at peak...
        assert result.n_lc_active.max() == pytest.approx(110.0)
        # ...and leave it off-peak.
        assert result.n_lc_active.min() == pytest.approx(100.0)

    def test_batch_gains_during_offpeak(self, demand):
        pre = run("pre", demand)
        conv = run("conversion", demand.scaled(1.1), extra_servers=10)
        assert conv.batch_total() > pre.batch_total()

    def test_convertible_cap_respected(self, fleet, demand):
        policy = ConversionPolicy(
            conversion_threshold=0.85, max_batch_conversion_fraction=0.1
        )
        result = run(
            "conversion",
            demand.scaled(1.1),
            (fleet, policy, None, None),
            extra_servers=10,
        )
        assert result.n_batch_active.max() <= fleet.n_batch + 4


class TestThrottleBoost:
    def boost(self, demand, extra, e_th=None):
        return run(
            "throttle_boost",
            demand,
            extra_servers=extra,
            extra_throttle_funded=e_th,
        )

    def test_throttles_during_peak(self, demand):
        result = self.boost(demand.scaled(1.1), 10, 5)
        assert result.batch_freq.min() == pytest.approx(0.8)

    def test_boosts_during_offpeak(self, demand):
        result = self.boost(demand.scaled(1.1), 10, 5)
        assert result.batch_freq.max() > 1.0

    def test_stays_under_budget(self, demand):
        result = self.boost(demand.scaled(1.1), 10, 5)
        assert result.overload_steps() == 0

    def test_default_e_th_from_policy(self, demand):
        result = self.boost(demand.scaled(1.1), 10)
        assert result.n_lc_active.max() >= 110.0

    def test_negative_e_th_rejected(self, demand):
        with pytest.raises(ValueError):
            self.boost(demand, 10, -1)


class TestComparison:
    def test_improvements_and_slack(self, demand):
        comparison = ReshapingComparison(pre=run("pre", demand))
        comparison.scenarios["conversion"] = run(
            "conversion", demand.scaled(1.1), extra_servers=10
        )
        comparison.scenarios["throttle_boost"] = run(
            "throttle_boost",
            demand.scaled(1.15),
            extra_servers=10,
            extra_throttle_funded=5,
        )
        assert comparison.lc_improvement("conversion") > 0
        assert comparison.batch_improvement("conversion") > 0
        assert comparison.lc_improvement("throttle_boost") > comparison.lc_improvement(
            "conversion"
        )
        assert comparison.slack_reduction("throttle_boost") > 0

    def test_slack_reduction_with_mask(self, demand):
        comparison = ReshapingComparison(pre=run("pre", demand))
        comparison.scenarios["conversion"] = run(
            "conversion", demand.scaled(1.1), extra_servers=10
        )
        mask = np.zeros(demand.grid.n_samples, dtype=bool)
        mask[:10] = True
        value = comparison.slack_reduction("conversion", mask=mask)
        assert isinstance(value, float)

    def test_scenario_baseline(self, demand):
        comparison = ReshapingComparison(pre=run("pre", demand))
        comparison.scenarios["lc_only"] = run(
            "lc_only", demand.scaled(1.1), extra_servers=10
        )
        comparison.scenarios["conversion"] = run(
            "conversion", demand.scaled(1.1), extra_servers=10
        )
        value = comparison.slack_reduction("conversion", baseline="lc_only")
        assert isinstance(value, float)


class TestOverloadClamp:
    """Regression: a mis-sized budget must not leave the boosted scenario
    over budget.  Before the clamp, a batch-heavy fleet whose nominal draw
    exceeded the budget kept ``freq >= 1`` everywhere and reported overload
    steps; the guard now re-solves the batch frequency against the actual
    non-batch draw."""

    @pytest.fixture
    def tight_parts(self):
        fleet = FleetDescription(
            n_lc=10,
            n_batch=10,
            lc_model=ServerPowerModel(100, 200),
            batch_model=ServerPowerModel(100, 300),
            budget_watts=4_000.0,  # nominal batch-heavy draw is 4 200 W
        )
        return (
            fleet,
            ConversionPolicy(conversion_threshold=0.9),
            ThrottleBoostPolicy(),
            DVFSModel(),
        )

    @pytest.fixture
    def low_demand(self):
        # Constant load 0.2 per LC server: batch-heavy at every step.
        grid = make_grid()
        return DemandTrace(grid, np.full(grid.n_samples, 2.0))

    def test_overbudget_nominal_is_clamped(self, tight_parts, low_demand):
        result = run(
            "throttle_boost",
            low_demand,
            tight_parts,
            extra_servers=0,
            extra_throttle_funded=0,
        )
        assert result.overload_steps() == 0
        # The cure is batch DVFS, not dropped LC traffic.
        assert (result.batch_freq < 1.0).all()
        assert result.dropped_fraction() == pytest.approx(0.0, abs=1e-9)
        # power = 1200 (LC) + 10 x (100 + 200 f^3) = 4000  =>  f^3 = 0.9
        np.testing.assert_allclose(result.batch_freq, 0.9 ** (1 / 3), atol=1e-6)
        np.testing.assert_allclose(result.total_power, 4_000.0, atol=1e-3)

    def test_clamp_untouched_when_budget_fits(self, demand):
        generous = run(
            "throttle_boost", demand, extra_servers=10, extra_throttle_funded=5
        )
        assert generous.overload_steps() == 0
        # Boost is still allowed to run the batch fleet above nominal.
        assert generous.batch_freq.max() >= 1.0
