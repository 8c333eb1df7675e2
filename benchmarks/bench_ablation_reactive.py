"""Ablation: oracle vs reactive conversion control.

The reshaping runtime's scenario engine decides phases from the current
demand value — an oracle.  A production controller observes a trailing load
average, needs hysteresis, and pays a conversion delay.  This ablation
quantifies the gap on the DC1 test week: the paper's bet is that diurnal
load is predictable enough for a history-based controller to match the
oracle, and here the reactive controller indeed lands within ~1%.
"""

import numpy as np
import pytest

from repro.analysis import experiments as E
from repro.analysis.report import format_percent, format_table
from repro.engine import ScenarioSpec, execute
from repro.reshaping import (
    ConversionPolicy,
    ReactiveConfig,
    ReactiveConversionRuntime,
    derive_demand,
    describe_fleet,
    learn_conversion_threshold,
)

SCALE = dict(n_instances=1440, step_minutes=10)


def _run():
    dc = E.get_datacenter("DC1", **SCALE)
    study = E.run_placement_study(dc)
    budget = dc.topology.root.budget_watts
    fleet = describe_fleet(dc.records, budget_watts=budget)
    training = derive_demand(dc.records, use_test=False)
    threshold = learn_conversion_threshold(training, fleet.n_lc)
    policy = ConversionPolicy(conversion_threshold=threshold)
    extra = study.report.expansion.total_extra
    demand = derive_demand(dc.records, use_test=True).scaled(1.0 + extra / fleet.n_lc)

    oracle = execute(
        ScenarioSpec(
            mode="conversion",
            fleet=fleet,
            demand=demand,
            conversion=policy,
            extra_servers=extra,
        )
    ).result
    results = {"oracle": oracle}
    for label, config in (
        ("reactive (30m delay)", ReactiveConfig(delay_steps=3)),
        ("reactive (2h delay)", ReactiveConfig(delay_steps=12)),
        ("reactive (sluggish: 1h window, 2h delay)",
         ReactiveConfig(observation_window_steps=6, delay_steps=12)),
    ):
        runtime = ReactiveConversionRuntime(fleet, policy, config=config)
        results[label] = runtime.run_conversion(demand, extra)
    return results


@pytest.mark.benchmark(group="ablation")
def test_ablation_reactive(benchmark, emit_report):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    oracle = results["oracle"]
    rows = []
    for label, result in results.items():
        rows.append(
            [
                label,
                f"{result.lc_total() / oracle.lc_total():.4f}",
                f"{result.batch_total() / oracle.batch_total():.4f}",
                format_percent(result.dropped_fraction()),
                int(np.sum(np.abs(np.diff(result.n_lc_active)) > 0)),
            ]
        )
    emit_report(
        "ablation_reactive",
        format_table(
            ["controller", "LC vs oracle", "batch vs oracle", "dropped", "transitions"],
            rows,
            title="Ablation — oracle vs reactive conversion control (DC1, test week)",
        ),
    )

    for label, result in results.items():
        if label == "oracle":
            continue
        # The paper's bet: predictable diurnal load makes reactive ≈ oracle.
        assert result.lc_total() >= oracle.lc_total() * 0.97
        assert result.batch_total() >= oracle.batch_total() * 0.85
        assert result.dropped_fraction() < 0.02
