"""Stage-by-stage pipeline profile → ``BENCH_pipeline.json`` / ``BENCH_remap.json``.

Runs the full pipeline (synthesize → score → cluster → place → remap →
evaluate) under the :mod:`repro.obs` tracer and emits machine-readable
benchmark documents at the repo root: per-stage wall/CPU timings with
workload-size fields, plus the remapping loop's swap counters and the
resulting peak-reduction numbers.  CI uploads the ``BENCH_*.json`` files as
artifacts so the perf trajectory accrues per PR.

The default fleet (480 instances, a few seconds) is the size the
committed documents were measured at; ``BENCH_PROFILE_INSTANCES``
overrides it, and ``tools/bench_compare.py`` then reads the run as a
workload ``mismatch`` against those baselines rather than diffing
unlike runs.  The stage walls and per-level peak reductions are gated
by the ``pipeline_wall`` and ``remap_peak_reduction`` rows of its
``GATES`` table.
"""

import os
import time

import pytest

from repro import obs
from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig, WorkloadAwarePlacer
from repro.core.remapping import RemapConfig
from repro.datasets import build_datacenter, dc3_spec
from repro.infra.topology import Level

N_INSTANCES = int(os.environ.get("BENCH_PROFILE_INSTANCES", "480"))
STEP_MINUTES = 10
WEEKS = 3


def _profiled_run():
    obs.reset_metrics()
    with obs.tracing() as tracer:
        with obs.span("profile", instances=N_INSTANCES):
            dc = build_datacenter(
                dc3_spec(n_instances=N_INSTANCES),
                weeks=WEEKS,
                step_minutes=STEP_MINUTES,
            )
            operator = SmoothOperator(
                SmoothOperatorConfig(
                    placement=PlacementConfig(seed=0),
                    remap=RemapConfig(level=Level.RPP, max_swaps=30),
                )
            )
            outcome = operator.optimize(dc.records, dc.topology)
            report = SmoothOperator.evaluate(
                dc.records, dc.baseline, outcome.assignment
            )
    return tracer, dc, outcome, report


@pytest.mark.benchmark(group="profile")
def test_pipeline_profile(benchmark, emit_report):
    tracer, dc, outcome, report = benchmark.pedantic(
        _profiled_run, rounds=1, iterations=1
    )
    stages = obs.stage_timings(tracer)
    names = {row["stage"] for row in stages}
    # The profile must cover the full pipeline.
    for required in ("synthesize", "score", "cluster", "place", "remap"):
        assert required in names, f"stage {required!r} missing from profile"

    counters = obs.snapshot_metrics()["counters"]
    workload = {
        "datacenter": dc.name,
        "instances": len(dc.records),
        "samples_per_trace": dc.records[0].training_trace.grid.n_samples,
        "step_minutes": STEP_MINUTES,
        "weeks": WEEKS,
    }
    obs.update_bench("pipeline", "workload", workload)
    obs.update_bench("pipeline", "stages", stages)
    obs.update_bench(
        "remap",
        "remap",
        {
            "workload": workload,
            "swaps_accepted": outcome.remap.n_swaps,
            "swaps_attempted": counters.get("remap.swaps_attempted", 0.0),
            "candidates_evaluated": counters.get("remap.candidates_evaluated", 0.0),
            "peak_reduction": report.peak_reduction,
            "extra_server_fraction": report.extra_server_fraction,
        },
    )
    emit_report("profile", tracer.render())


@pytest.mark.benchmark(group="profile")
def test_tracing_overhead(benchmark, emit_report):
    """Placement under tracing must cost ≤ 5% over the untraced run."""
    dc = build_datacenter(
        dc3_spec(n_instances=N_INSTANCES), weeks=WEEKS, step_minutes=STEP_MINUTES
    )

    def _place():
        placer = WorkloadAwarePlacer(PlacementConfig(seed=0))
        started = time.perf_counter()
        placer.place(dc.records, dc.topology)
        return time.perf_counter() - started

    def _measure():
        untraced = min(_place() for _ in range(3))
        with obs.tracing():
            traced = min(_place() for _ in range(3))
        return untraced, traced

    untraced, traced = benchmark.pedantic(_measure, rounds=1, iterations=1)
    overhead = traced / untraced - 1.0
    emit_report(
        "profile_overhead",
        f"placement untraced {untraced:.3f}s, traced {traced:.3f}s "
        f"({overhead:+.2%} overhead)",
    )
    # 5% relative plus a small absolute floor so timer jitter on very fast
    # runs cannot fail the guard.
    assert traced <= untraced * 1.05 + 0.05


@pytest.mark.benchmark(group="profile")
def test_telemetry_overhead(benchmark, emit_report):
    """The full observability stack (tracing + events + flight recorder)
    must cost ≤ 10% over a plain pipeline run — the tentpole's overhead
    budget."""
    from repro.obs import events, telemetry

    dc = build_datacenter(
        dc3_spec(n_instances=N_INSTANCES), weeks=WEEKS, step_minutes=STEP_MINUTES
    )

    def _optimize():
        operator = SmoothOperator(
            SmoothOperatorConfig(
                placement=PlacementConfig(seed=0),
                remap=RemapConfig(level=Level.RPP, max_swaps=30),
            )
        )
        started = time.perf_counter()
        operator.optimize(dc.records, dc.topology)
        return time.perf_counter() - started

    def _measure():
        plain = min(_optimize() for _ in range(3))
        with obs.tracing(), events.recording(), telemetry.recording():
            instrumented = min(_optimize() for _ in range(3))
        return plain, instrumented

    plain, instrumented = benchmark.pedantic(_measure, rounds=1, iterations=1)
    overhead = instrumented / plain - 1.0
    emit_report(
        "telemetry_overhead",
        f"optimize plain {plain:.3f}s, instrumented {instrumented:.3f}s "
        f"({overhead:+.2%} overhead)",
    )
    # 10% relative plus an absolute floor against timer jitter.
    assert instrumented <= plain * 1.10 + 0.05
