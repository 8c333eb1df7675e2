"""Incremental fleet state vs full recompute → ``BENCH_incremental.json``.

Measures the delta layer at the scale where it matters — 100k instances
(override with ``BENCH_INCR_INSTANCES`` / ``BENCH_INCR_SAMPLES``) — and
gates the refactor's headline claim: evaluating a placement action through
the incremental path (apply the delta, re-score only the dirty subtree)
must be at least :data:`MIN_SPEEDUP`× faster than the full-recompute
baseline (rebuild the power view and re-score the level from scratch).
The bound is the ``incremental_speedup`` row of ``tools/bench_compare.py``'s
``GATES`` table, which CI re-applies to the emitted document.

Three sections are emitted:

* ``swap_eval`` — swap-evaluation throughput of the remapping engine's
  cached-score loop (candidates evaluated per second);
* ``delta_apply`` — per-delta apply latency through a
  :class:`~repro.engine.delta.PlacementState` fanning out to the power
  view, asynchrony index, and headroom index (the ``delta.apply_s``
  histogram);
* ``gate`` — incremental-vs-full speedup at the 100k-instance point.
  It records ``skipped`` and a ``reason`` instead only when the runner
  cannot fit the fixture in memory; the gate row then reads ``skipped``.
"""

import os

import numpy as np
import pytest
from bench_compare import gate

from repro import obs
from repro.core.metrics import AsynchronyIndex, node_asynchrony_scores
from repro.core.remapping import RemapConfig, RemappingEngine
from repro.engine.delta import PlacementState
from repro.infra import Assignment, Level, NodePowerView, build_topology, ocp_spec
from repro.infra.budget import provision_from_view
from repro.infra.headroom import HeadroomIndex
from repro.traces import TimeGrid, TraceSet

N_INSTANCES = int(os.environ.get("BENCH_INCR_INSTANCES", "100000"))
N_SAMPLES = int(os.environ.get("BENCH_INCR_SAMPLES", "336"))  # 1 week @ 30 min
N_DELTAS = int(os.environ.get("BENCH_INCR_DELTAS", "64"))
N_FULL = int(os.environ.get("BENCH_INCR_FULL", "4"))

#: The incremental path must beat a full rebuild per placement action by
#: at least this factor at the 100k-instance point.
MIN_SPEEDUP = gate("incremental_speedup").bound


def _build_fleet(n_instances, n_samples):
    """A synthetic phase-diverse fleet on the OCP tree, sized to ``n``."""
    rng = np.random.default_rng(7)
    topo = build_topology(
        ocp_spec(
            "dc",
            suites=4,
            msbs_per_suite=2,
            sbs_per_msb=2,
            rpps_per_sb=3,
            racks_per_rpp=4,
            servers_per_rack=max(1, -(-n_instances // 192)),  # 192 racks
        )
    )
    grid = TimeGrid(0, 30, n_samples)
    t = np.arange(n_samples)
    phases = rng.uniform(0, 2 * np.pi, size=n_instances)
    base = rng.uniform(80, 120, size=n_instances)
    # Broadcast build: diurnal sinusoid per instance plus noise-free offset
    # keeps the build fast and the memory bounded by the matrix itself.
    matrix = base[:, None] + 30.0 * np.sin(
        2 * np.pi * t[None, :] / 48.0 + phases[:, None]
    )
    ids = [f"i{k}" for k in range(n_instances)]
    traces = TraceSet(grid, ids, matrix)
    leaf_names = topo.leaf_names()
    mapping = {ids[k]: leaf_names[k % len(leaf_names)] for k in range(n_instances)}
    return topo, Assignment(topo, mapping), traces


def _swap_pairs(state, traces, n_pairs, seed=11):
    rng = np.random.default_rng(seed)
    ids = traces.ids
    pairs = []
    while len(pairs) < n_pairs:
        a, b = rng.integers(0, len(ids), size=2)
        if a == b:
            continue
        id_a, id_b = ids[int(a)], ids[int(b)]
        if state.leaf_of(id_a) != state.leaf_of(id_b):
            pairs.append((id_a, id_b))
    return pairs


@pytest.mark.benchmark(group="incremental")
def test_incremental_vs_full_recompute(benchmark, emit_report):
    import time

    try:
        topo, assignment, traces = _build_fleet(N_INSTANCES, N_SAMPLES)
    except MemoryError:
        obs.update_bench(
            "incremental",
            "gate",
            {
                "skipped": True,
                "reason": f"fixture ({N_INSTANCES}x{N_SAMPLES}) does not fit in memory",
            },
        )
        pytest.skip("fixture does not fit in memory")

    level = Level.RPP

    # ------------------------------------------------------------------
    # incremental path: one PlacementState fanning out to view + indices
    # ------------------------------------------------------------------
    state = PlacementState(topo, traces, assignment)
    view = state.register(NodePowerView(topo, state.assignment(), traces))
    provision_from_view(view, margin=0.25)
    score_index = state.register(AsynchronyIndex(view, level))
    state.register(HeadroomIndex(view))
    pairs = _swap_pairs(state, traces, N_DELTAS)

    def _incremental():
        started = time.perf_counter()
        for id_a, id_b in pairs:
            state.swap(id_a, id_b)
            score_index.scores()
        return (time.perf_counter() - started) / len(pairs)

    incremental_per_delta = benchmark.pedantic(_incremental, rounds=1, iterations=1)

    # ------------------------------------------------------------------
    # full-recompute baseline: rebuild view + re-score after each action
    # ------------------------------------------------------------------
    current = state.assignment()
    full_samples = []
    for id_a, id_b in pairs[:N_FULL]:
        current = current.with_swap(id_b, id_a)  # walk the swaps back
        started = time.perf_counter()
        fresh_view = NodePowerView(topo, current, traces)
        node_asynchrony_scores(current, traces, level, view=fresh_view)
        full_samples.append(time.perf_counter() - started)
    full_per_delta = float(np.mean(full_samples))

    speedup = full_per_delta / incremental_per_delta

    # ------------------------------------------------------------------
    # swap-evaluation throughput of the cached-score remapping loop
    # ------------------------------------------------------------------
    obs.reset_metrics()
    remap_ids = traces.ids[: min(len(traces.ids), 4096)]
    remap_leaves = topo.leaf_names()
    remap_mapping = {
        instance_id: remap_leaves[k % len(remap_leaves)]
        for k, instance_id in enumerate(remap_ids)
    }
    remap_rows = [traces.index_of(i) for i in remap_ids]
    remap_traces = TraceSet(traces.grid, list(remap_ids), traces.matrix[remap_rows])
    remap_assignment = Assignment(topo, remap_mapping)
    engine = RemappingEngine(RemapConfig(level=level, max_swaps=24))
    started = time.perf_counter()
    result = engine.run(remap_assignment, remap_traces)
    remap_wall = time.perf_counter() - started
    candidates = obs.counter_value("remap.candidates_evaluated")

    workload = {
        "n_instances": N_INSTANCES,
        "n_samples": N_SAMPLES,
        "n_deltas": len(pairs),
        "n_full_baseline_deltas": N_FULL,
        "level": str(level),
        "matrix_mb": round(traces.matrix.nbytes / 1e6, 1),
    }
    delta_apply = {
        "per_delta_s": incremental_per_delta,
        "full_recompute_per_delta_s": full_per_delta,
        "deltas_per_s": 1.0 / incremental_per_delta,
    }
    swap_eval = {
        "n_swaps_accepted": result.n_swaps,
        "candidates_evaluated": candidates,
        "candidates_per_s": candidates / remap_wall if remap_wall > 0 else 0.0,
        "wall_s": remap_wall,
    }
    obs.update_bench("incremental", "workload", workload)
    obs.update_bench("incremental", "delta_apply", delta_apply)
    obs.update_bench("incremental", "swap_eval", swap_eval)
    obs.update_bench("incremental", "gate", {"skipped": False, "speedup": speedup})

    emit_report(
        "incremental",
        "\n".join(
            [
                "incremental fleet state @ "
                f"{N_INSTANCES} instances x {N_SAMPLES} samples",
                f"  delta apply        {incremental_per_delta * 1e3:9.3f} ms",
                f"  full recompute     {full_per_delta * 1e3:9.3f} ms",
                f"  speedup            {speedup:9.1f}x (gate >= {MIN_SPEEDUP:.0f}x)",
                f"  swap-eval rate     {swap_eval['candidates_per_s']:9.0f} cand/s",
            ]
        ),
    )

    assert speedup >= MIN_SPEEDUP, (
        f"incremental path is only {speedup:.1f}x faster than full "
        f"recompute (gate: {MIN_SPEEDUP:.0f}x)"
    )
