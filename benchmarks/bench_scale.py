"""Fleet-scale benchmark → ``BENCH_scale.json``.

Synthesizes a 100k-instance fleet (``BENCH_SCALE_INSTANCES`` overrides; the
harness is sized for 100k–1M) directly as one float32 trace matrix — no
Python-level per-instance objects — then times the fleet-wide stages:

* ``synthesize``  — vectorized diurnal + phase + noise fleet construction;
* ``aggregate``   — the asynchrony numerator/denominator over the whole
  fleet (per-row peaks and the aggregate-trace peak);
* ``score_serial`` — the float32 I-to-S score matrix in one process.

The ``scale_wall`` row of ``tools/bench_compare.py``'s ``GATES`` table
gates every stage wall against the committed baseline.
"""

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.core.asynchrony import score_matrix
from repro.traces.grid import TimeGrid
from repro.traces.traceset import TraceSet

N_INSTANCES = int(os.environ.get("BENCH_SCALE_INSTANCES", "100000"))
STEP_MINUTES = 60
N_BASIS = 8
SEED = 0


def _synthesize(n_instances: int, grid: TimeGrid, rng: np.random.Generator) -> TraceSet:
    """A seeded synthetic fleet: diurnal base + per-instance phase + noise.

    Built as one vectorized float32 matrix — at 1M instances a row-by-row
    Python loop would dominate the benchmark it is meant to feed.
    """
    minutes = grid.start_minute + np.arange(grid.n_samples) * grid.step_minutes
    hours = (minutes / 60.0) % 24.0
    phase = rng.uniform(0.0, 24.0, size=n_instances).astype(np.float32)
    amplitude = rng.uniform(0.2, 0.6, size=n_instances).astype(np.float32)
    base = rng.uniform(0.5, 1.0, size=n_instances).astype(np.float32)
    angle = (
        (hours[np.newaxis, :].astype(np.float32) - phase[:, np.newaxis])
        * np.float32(2.0 * np.pi / 24.0)
    )
    matrix = base[:, np.newaxis] + amplitude[:, np.newaxis] * np.sin(angle)
    matrix += rng.normal(0.0, 0.02, size=matrix.shape).astype(np.float32)
    np.maximum(matrix, 0.0, out=matrix)
    ids = [f"i{i}" for i in range(n_instances)]
    return TraceSet(grid, ids, matrix, dtype=np.float32)


def _run():
    rng = np.random.default_rng(SEED)
    grid = TimeGrid(0, STEP_MINUTES, 7 * 24 * 60 // STEP_MINUTES)

    walls = {}
    started = time.perf_counter()
    instances = _synthesize(N_INSTANCES, grid, rng)
    basis = _synthesize(N_BASIS, grid, rng)
    walls["synthesize"] = time.perf_counter() - started

    started = time.perf_counter()
    sum_of_peaks = instances.sum_of_peaks()
    aggregate_peak = instances.aggregate_peak()
    walls["aggregate"] = time.perf_counter() - started
    assert sum_of_peaks >= aggregate_peak > 0

    started = time.perf_counter()
    scores = score_matrix(instances, basis, dtype=np.float32)
    walls["score_serial"] = time.perf_counter() - started
    return walls, scores


@pytest.mark.benchmark(group="scale")
def test_fleet_scale_stages(benchmark, emit_report):
    walls, scores = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert scores.shape == (N_INSTANCES, N_BASIS)
    assert np.isfinite(scores).all()

    obs.update_bench(
        "scale",
        "workload",
        {
            "n_instances": N_INSTANCES,
            "n_samples": 7 * 24 * 60 // STEP_MINUTES,
            "step_minutes": STEP_MINUTES,
            "n_basis": N_BASIS,
            "dtype": "float32",
            "seed": SEED,
        },
    )
    obs.update_bench(
        "scale",
        "stages",
        [
            {"stage": stage, "wall_s": wall, "calls": 1}
            for stage, wall in walls.items()
        ],
    )
    emit_report(
        "scale",
        "\n".join(
            [
                "fleet-scale stages",
                f"  instances         {N_INSTANCES}",
                f"  basis traces      {N_BASIS}",
                f"  synthesize        {walls['synthesize']:.3f}s",
                f"  aggregate         {walls['aggregate']:.3f}s",
                f"  score serial      {walls['score_serial']:.3f}s",
            ]
        ),
    )
