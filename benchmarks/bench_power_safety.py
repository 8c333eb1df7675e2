"""Power safety under bursty traffic (Sec. 3.2's claim, quantified).

Paper (Sec. 3.2): "When bursty traffic arrives, the sudden load change is
now shared among all the power nodes.  Such load sharing ... decreases the
likelihood of tripping the circuit breakers inside certain heavily-loaded
power nodes."  The paper states this; it does not plot it.  This benchmark
measures it: a daily LC traffic surge is injected into the held-out week
and the Dynamo-style capping loop is run under both placements.
"""

import pytest

from repro.analysis import experiments as E
from repro.analysis.report import format_table


def _run(full_scale):
    return E.run_power_safety("DC3", surge_factor=1.25, **full_scale)


@pytest.mark.benchmark(group="power-safety")
def test_power_safety(benchmark, emit_report, full_scale):
    study = benchmark.pedantic(_run, args=(full_scale,), rounds=1, iterations=1)

    rows = []
    for label in ("oblivious", "smoothoperator"):
        report = study.reports[label]
        rows.append(
            [
                label,
                report.total_event_steps,
                f"{report.lc_energy_shed / 1e3:.0f}",
                f"{report.batch_energy_shed / 1e3:.0f}",
                report.residual_overload_steps,
            ]
        )
    table = format_table(
        [
            "placement",
            "capping events (node-steps)",
            "LC energy shed (kW-min)",
            "batch energy shed (kW-min)",
            "residual overload steps",
        ],
        rows,
        title=(
            f"Power safety — {study.surge_factor:.2f}x LC surge, 12:00-16:00 "
            f"daily ({study.datacenter.name}, test week)"
        ),
    )
    emit_report("power_safety", table)

    oblivious = study.reports["oblivious"]
    smoop = study.reports["smoothoperator"]
    # The claim: the workload-aware placement needs much less LC capping
    # (QoS damage) and fewer capping events overall.
    assert smoop.lc_energy_shed < oblivious.lc_energy_shed * 0.5
    assert smoop.total_event_steps < oblivious.total_event_steps


def _run_faulted(full_scale):
    """The same surge protocol, but the capping loop sees telemetry that was
    faulted and then repaired — measuring what dirty sensors cost safety."""
    from repro.faults.inject import (
        FaultPlan,
        PowerSpike,
        SensorDropout,
        StuckSensor,
        dirty_copy,
    )
    from repro.faults.repair import repair_telemetry
    from repro.infra.budget import provision_hierarchical
    from repro.infra.aggregation import NodePowerView
    from repro.engine import CappingSimulator
    from repro.traces.instance import ServiceKind
    from repro.traces.perturbations import inject_surge

    dc = E.get_datacenter("DC3", **full_scale)
    study = E.run_placement_study(dc)
    test = dc.test_traces()
    provision_hierarchical(
        NodePowerView(dc.topology, dc.baseline, test), margin=0.03
    )
    lc_ids = [
        r.instance_id for r in dc.records if r.kind == ServiceKind.LATENCY_CRITICAL
    ]
    surged = inject_surge(test, lc_ids, factor=1.25, start_hour=12.0, end_hour=16.0)
    kinds = {r.instance_id: r.kind for r in dc.records}

    plan = FaultPlan(
        faults=(
            SensorDropout(fraction_of_traces=0.25, gaps_per_trace=2),
            StuckSensor(fraction_of_traces=0.2),
            PowerSpike(fraction_of_traces=0.5, spikes_per_trace=3),
        ),
        seed=42,
    )
    repaired = repair_telemetry(
        dirty_copy(surged, plan), target_grid=surged.grid
    ).traces

    assignment = study.optimized.assignment
    reports = {
        "clean telemetry": CappingSimulator(
            dc.topology, assignment, surged, kinds
        ).run(),
        "faulted+repaired": CappingSimulator(
            dc.topology, assignment, repaired, kinds
        ).run(),
    }
    return reports


@pytest.mark.benchmark(group="power-safety")
def test_power_safety_faulted_telemetry(benchmark, emit_report, full_scale):
    reports = benchmark.pedantic(_run_faulted, args=(full_scale,), rounds=1, iterations=1)

    rows = [
        [
            label,
            report.total_event_steps,
            f"{report.lc_energy_shed / 1e3:.0f}",
            f"{report.batch_energy_shed / 1e3:.0f}",
            report.residual_overload_steps,
        ]
        for label, report in reports.items()
    ]
    table = format_table(
        [
            "telemetry",
            "capping events (node-steps)",
            "LC energy shed (kW-min)",
            "batch energy shed (kW-min)",
            "residual overload steps",
        ],
        rows,
        title=(
            "Power safety, clean vs faulted telemetry "
            "(DC3, SmoothOperator placement, 1.25x LC surge)"
        ),
    )
    emit_report("power_safety_faulted", table)

    clean = reports["clean telemetry"]
    faulted = reports["faulted+repaired"]
    # Repair must keep the safety picture close to the clean one: spikes are
    # removed rather than amplified, so capping work stays within ~25% and
    # no new class of damage (deep LC capping) appears.
    assert faulted.total_event_steps <= max(clean.total_event_steps * 1.25, 10)
    assert faulted.total_energy_shed <= max(clean.total_energy_shed * 1.25, 1e4)
