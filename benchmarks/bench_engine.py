"""Serial vs parallel chaos-suite execution → ``BENCH_engine.json``.

Runs the full named scenario suite through ``repro.engine.run_many`` twice
— once serially, once across a process pool — asserts the outcomes are
identical either way, and emits the wall times plus the measured speedup.
The ``engine_wall`` and ``pool_speedup`` rows of ``tools/bench_compare.py``'s
``GATES`` table judge them in CI; the speedup row needs a multi-CPU host
and reads ``skipped`` elsewhere (the numbers are still recorded so the
trajectory accrues).

Two overhead sections ride along, each side timed as the median of
:data:`OVERHEAD_PASSES` pooled passes, with the sides alternated (and the
order rotated every round) so host drift lands on all of them alike:

* ``capture`` — the pooled pass with worker-telemetry capture on against
  the same pass with ``REPRO_OBS_CAPTURE=0`` (the ``capture_overhead``
  gate);
* ``recovery`` — the pooled pass under an armed (but never firing)
  :class:`repro.engine.deadline.TaskDeadline` against the unguarded pass,
  the failure-domain layer's fault-free cost (watchdog polling and
  straggler bookkeeping; the ``recovery_overhead`` gate).

Both gates need a multi-CPU host; their bounds live in ``GATES``.

Every pass must reproduce the serial outcomes.  The timed pooled pass's
run report (per-worker utilization, task imbalance) is written to
``run_report.json`` at the repo root for CI artifact upload.

Scale is deliberately small (override with ``BENCH_ENGINE_INSTANCES`` /
``BENCH_ENGINE_WORKERS``): the point is the executor overhead and the
speedup ratio, not the simulation itself.
"""

import contextlib
import os
import statistics
import time
from unittest import mock

import pytest
from bench_compare import gate

from repro import obs
from repro.engine import chaos_spec, run_many, warm_pool
from repro.engine.deadline import TaskDeadline, deadline_scope
from repro.faults.harness import DEFAULT_SUITE

N_INSTANCES = int(os.environ.get("BENCH_ENGINE_INSTANCES", "96"))
STEP_MINUTES = 60
WEEKS = 2
WORKERS = int(os.environ.get("BENCH_ENGINE_WORKERS", "0")) or min(
    4, max(2, os.cpu_count() or 1)
)

#: Pooled passes per side of the capture and recovery comparisons.
OVERHEAD_PASSES = 5

#: The three pooled-pass variants the overhead sections compare.
MODES = ("captured", "no_capture", "guarded")


def _specs():
    return [
        chaos_spec(
            scenario,
            dc_name="DC1",
            n_instances=N_INSTANCES,
            step_minutes=STEP_MINUTES,
            weeks=WEEKS,
        )
        for scenario in DEFAULT_SUITE
    ]


def _timed(specs, workers):
    start = time.perf_counter()
    artifacts = run_many(specs, workers=workers)
    return artifacts, time.perf_counter() - start


def _outcomes(artifacts):
    """What a pass must reproduce: per-scenario name, verdict and quality."""
    return [
        (a.result.scenario.name, a.result.passed, a.result.quality_chaos)
        for a in artifacts
    ]


@contextlib.contextmanager
def _mode(name):
    """Run a pooled pass as ``name``: the default (telemetry captured),
    with capture disabled, or under an armed, never-firing deadline."""
    if name == "no_capture":
        with mock.patch.dict(os.environ, {"REPRO_OBS_CAPTURE": "0"}):
            yield
    elif name == "guarded":
        with deadline_scope(TaskDeadline(soft_timeout_s=60.0, hard_timeout_s=120.0)):
            yield
    else:
        yield


def _overhead_walls(specs, expected):
    """Median pooled-pass wall per mode over alternated, rotated rounds."""
    walls = {name: [] for name in MODES}
    for round_index in range(OVERHEAD_PASSES):
        shift = round_index % len(MODES)
        for name in MODES[shift:] + MODES[:shift]:
            with _mode(name):
                artifacts, wall = _timed(specs, WORKERS)
            assert _outcomes(artifacts) == expected, name
            walls[name].append(wall)
    return {name: statistics.median(values) for name, values in walls.items()}


def _run():
    specs = _specs()
    # Warm the dataset caches first: the serial pass should not pay the
    # one-off synthesis cost the forked workers then inherit for free.
    run_many(specs[:1], workers=1)
    serial = _timed(specs, 1)
    # Spawn the persistent pool outside the timed region: its workers are
    # a once-per-process cost shared by every later batch, and forking now
    # hands them the warm dataset caches.
    warm_pool(WORKERS)
    obs.reset_report()
    parallel = _timed(specs, WORKERS)
    # The pooled pass records one ``run.many`` stage into the unified run
    # report; its imbalance/per-worker shape rides along in the BENCH doc.
    report = obs.build_report(include_spans=False)
    stage = report["stages"][-1] if report["stages"] else None
    # The full report goes to the repo root so CI uploads it with the
    # BENCH documents (bench-diff artifact).
    obs.write_report(obs.bench_path("engine").parent / "run_report.json")
    overhead = _overhead_walls(specs, _outcomes(serial[0]))
    return specs, serial, parallel, stage, overhead


@pytest.mark.benchmark(group="engine")
def test_chaos_suite_parallel_speedup(benchmark, emit_report):
    specs, (serial, serial_s), (parallel, parallel_s), stage, overhead = (
        benchmark.pedantic(_run, rounds=1, iterations=1)
    )

    # Determinism: worker count must not change outcomes.
    assert len(serial) == len(parallel) == len(specs)
    for left, right in zip(serial, parallel):
        assert left.result.scenario.name == right.result.scenario.name
        assert left.result.passed == right.result.passed
        assert left.result.quality_chaos == right.result.quality_chaos

    cpu_count = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    capture_overhead = overhead["captured"] / overhead["no_capture"] - 1.0
    recovery_overhead = overhead["guarded"] / overhead["captured"] - 1.0
    workload = {
        "n_scenarios": len(specs),
        "n_instances": N_INSTANCES,
        "step_minutes": STEP_MINUTES,
        "weeks": WEEKS,
    }
    obs.update_bench("engine", "workload", workload)
    obs.update_bench(
        "engine",
        "stages",
        [
            {"stage": "chaos_suite_serial", "wall_s": serial_s, "calls": 1},
            {"stage": "chaos_suite_parallel", "wall_s": parallel_s, "calls": 1},
        ],
    )
    obs.update_bench(
        "engine",
        "parallel",
        {
            "workers": WORKERS,
            "cpu_count": cpu_count,
            "serial_wall_s": serial_s,
            "parallel_wall_s": parallel_s,
            "speedup": speedup,
            "imbalance": stage["imbalance"] if stage else None,
            "mean_queue_s": stage["mean_queue_s"] if stage else None,
            "per_worker": stage["per_worker"] if stage else {},
        },
    )
    obs.update_bench(
        "engine",
        "capture",
        {
            "workers": WORKERS,
            "cpu_count": cpu_count,
            "passes": OVERHEAD_PASSES,
            "capture_wall_s": overhead["captured"],
            "no_capture_wall_s": overhead["no_capture"],
            "overhead_frac": capture_overhead,
        },
    )
    obs.update_bench(
        "engine",
        "recovery",
        {
            "workers": WORKERS,
            "cpu_count": cpu_count,
            "passes": OVERHEAD_PASSES,
            "guarded_wall_s": overhead["guarded"],
            "bare_wall_s": overhead["captured"],
            "overhead_frac": recovery_overhead,
        },
    )

    emit_report(
        "engine_parallel",
        "\n".join(
            [
                "chaos suite: serial vs process pool",
                f"  scenarios         {len(specs)}",
                f"  instances         {N_INSTANCES}",
                f"  workers           {WORKERS} (host cpus: {cpu_count})",
                f"  serial wall       {serial_s:.3f}s",
                f"  parallel wall     {parallel_s:.3f}s",
                f"  speedup           {speedup:.2f}x",
                f"  task imbalance    "
                + (f"{stage['imbalance']:.2f}x" if stage else "-"),
                f"  capture overhead  {capture_overhead:+.1%}"
                f" (median of {OVERHEAD_PASSES}, limit "
                f"{gate('capture_overhead').bound - 1:.0%})",
                f"  recovery overhead {recovery_overhead:+.1%}"
                f" (median of {OVERHEAD_PASSES}, limit "
                f"{gate('recovery_overhead').bound - 1:.0%})",
            ]
        ),
    )

    # On a real multi-core host the pool must win; on a single CPU the
    # ratio is informational only (bench_compare applies the same rule).
    if cpu_count >= 2:
        assert speedup > 1.0, f"process pool slower than serial ({speedup:.2f}x)"
