"""Spike-burst chaos: robust vs nominal placement → ``BENCH_robust.json``.

Runs the named :data:`repro.robust.chaos.SPIKE_SUITE` head-to-head suite
and gates the robustness claim the package makes: across the Γ ≥ 2
scenarios, the Γ-robust placement must avoid most of the spike-induced
budget violations the nominal placement suffers, while provisioning
little extra breaker capacity.  The bounds are the ``robust_*`` rows of
``tools/bench_compare.py``'s ``GATES`` table, which this benchmark
asserts in-process and CI re-applies to the emitted document.  The Γ = 0
control must change nothing (the robust placer falls back to the nominal
placement).

The emitted document carries one row per scenario (violations, trips,
avoided fractions, capacity cost, swap counts) plus the aggregate
measurements the gates read (``gate.avoided_fraction`` and
``gate.max_capacity_overhead``); a missing committed baseline reads as a
new benchmark to record.

Scale is the validated reference fleet (override with
``BENCH_ROBUST_INSTANCES`` / ``BENCH_ROBUST_STEP_MINUTES``): 360
instances over 48 RPPs, two synthesized weeks, 30-minute sampling.
"""

import os

import pytest
from bench_compare import gate

from repro import obs
from repro.robust import SPIKE_SUITE, format_robust_table, run_robust_suite

N_INSTANCES = int(os.environ.get("BENCH_ROBUST_INSTANCES", "360"))
STEP_MINUTES = int(os.environ.get("BENCH_ROBUST_STEP_MINUTES", "30"))
WEEKS = 2

#: Aggregate gate: Γ ≥ 2 scenarios must avoid this share of the nominal
#: placement's violation steps …
MIN_AVOIDED_FRACTION = gate("robust_avoided").bound
#: … while provisioning at most this much extra breaker capacity.
MAX_CAPACITY_OVERHEAD = gate("robust_capacity").bound


def _run():
    return run_robust_suite(
        dc_name="DC1",
        n_instances=N_INSTANCES,
        step_minutes=STEP_MINUTES,
        weeks=WEEKS,
    )


@pytest.mark.benchmark(group="robust")
def test_robust_spike_suite(benchmark, emit_report):
    outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit_report("robust_suite", format_robust_table(outcomes))

    by_name = {o.scenario.name: o for o in outcomes}
    control = by_name["gamma_zero_control"]
    protected = [o for o in outcomes if o.gamma >= 2]
    assert protected, "suite lost its Γ ≥ 2 scenarios"

    # The control pins the fallback: at Γ = 0 the robust placement *is*
    # the nominal placement, so both sides must take identical damage.
    assert control.robust.violation_steps == control.nominal.violation_steps
    assert control.robust.breaker_trips == control.nominal.breaker_trips
    assert control.n_swaps == 0

    # Every protected scenario must have something to protect against —
    # a nominal placement that never violates would make the avoided
    # fraction vacuous.
    for outcome in protected:
        assert outcome.nominal.violation_steps > 0, (
            f"{outcome.scenario.name}: nominal placement survived the "
            "bursts; the scenario no longer stresses anything"
        )
        assert outcome.n_infeasible == 0

    total_nominal = sum(o.nominal.violation_steps for o in protected)
    total_robust = sum(o.robust.violation_steps for o in protected)
    avoided_fraction = 1.0 - total_robust / total_nominal
    max_capacity_overhead = max(o.headroom_sacrifice_fraction for o in protected)

    workload = {
        "n_scenarios": len(outcomes),
        "n_instances": N_INSTANCES,
        "step_minutes": STEP_MINUTES,
        "weeks": WEEKS,
    }
    rows = [
        {
            "scenario": o.scenario.name,
            "gamma": o.gamma,
            "spike_watts": o.scenario.spike_watts,
            "budget_margin": o.scenario.budget_margin,
            "nominal_violation_steps": o.nominal.violation_steps,
            "robust_violation_steps": o.robust.violation_steps,
            "nominal_trips": o.nominal.breaker_trips,
            "robust_trips": o.robust.breaker_trips,
            "avoided_violation_fraction": o.avoided_violation_fraction,
            "avoided_trip_fraction": o.avoided_trip_fraction,
            "capacity_overhead": o.headroom_sacrifice_fraction,
            "n_swaps": o.n_swaps,
        }
        for o in outcomes
    ]
    obs.update_bench("robust", "workload", workload)
    obs.update_bench("robust", "scenarios", rows)
    obs.update_bench(
        "robust",
        "gate",
        {
            "avoided_fraction": avoided_fraction,
            "max_capacity_overhead": max_capacity_overhead,
        },
    )

    assert avoided_fraction >= MIN_AVOIDED_FRACTION, (
        f"robust placement avoided only {avoided_fraction:.1%} of "
        f"spike-induced violations (gate: {MIN_AVOIDED_FRACTION:.0%})"
    )
    assert max_capacity_overhead <= MAX_CAPACITY_OVERHEAD, (
        f"robust placement costs {max_capacity_overhead:.1%} extra "
        f"capacity (gate: {MAX_CAPACITY_OVERHEAD:.0%})"
    )
