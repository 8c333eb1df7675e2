#!/usr/bin/env python
"""Diff fresh ``BENCH_*.json`` runs against committed baselines.

The repo commits three benchmark documents at its root —
``BENCH_pipeline.json`` (per-stage wall/CPU timings from
``benchmarks/bench_profile.py``), ``BENCH_remap.json`` (the remapping
loop's swap counters and peak-reduction results), and ``BENCH_engine.json``
(serial vs process-pool chaos-suite walls from
``benchmarks/bench_engine.py``).  This tool loads a fresh set of those
documents and compares them stage by stage against the committed set:

* a pipeline stage regresses when its fresh wall time exceeds
  ``baseline * tolerance + floor`` (the multiplicative tolerance absorbs
  machine-to-machine speed differences, the additive floor absorbs timer
  jitter on sub-50ms stages);
* a stage present in the baseline but absent from the fresh run is a
  regression (the profile lost coverage);
* a remap ``peak_reduction`` level regresses when the fresh reduction falls
  more than an absolute tolerance below the committed one — the benchmark
  guards *quality*, not just speed;
* on multi-CPU runners (fresh ``cpu_count >= 2``) the chaos-suite process
  pool must beat serial execution by ``--min-speedup``; single-CPU hosts
  skip that check, and a missing ``BENCH_engine.json`` baseline is
  tolerated so old baselines keep comparing;
* the robust-placement document (``BENCH_robust.json`` from
  ``benchmarks/bench_robust.py``) carries a quality gate of its own: the
  Γ-robust placement must avoid at least 80% of spike-induced violations
  while provisioning at most 15% extra capacity.  A fresh document with a
  missing committed baseline is a *new* benchmark — recorded, never a
  failure — but the fresh gate thresholds still apply;
* the fleet-scale document (``BENCH_scale.json`` from
  ``benchmarks/bench_scale.py``) carries stage walls (synthesize,
  aggregate, serial scoring) under the same wall-time tolerance; a
  missing committed baseline is a new benchmark, never a failure;
* the engine document's ``capture`` section gates worker-telemetry
  capture overhead: the pooled ``run_many`` pass with capture on may cost
  at most ``--max-capture-overhead`` (default 5%) over the identical pass
  with ``REPRO_OBS_CAPTURE=0``, plus the additive floor so timer jitter
  on sub-second passes cannot trip it.  Single-CPU hosts skip the gate;
  a multi-CPU document without the section reports ``missing``, which
  fails the gate;
* its ``recovery`` section gates the failure-domain layer the same way:
  the pooled pass under an armed (never firing) deadline may cost at
  most ``--max-recovery-overhead`` (default 3%) over the identical
  unguarded pass, plus the floor.  Same skip rules as ``capture``;
* the incremental-state document (``BENCH_incremental.json`` from
  ``benchmarks/bench_incremental.py``) gates the delta layer's headline
  claim: applying a placement delta through the incremental indices must
  beat a full view-rebuild-and-rescore by ``--min-incremental-speedup``
  (default 5x) at the 100k-instance point.  The speedup is host-relative
  (both walls from the same process), so the gate judges the fresh run
  alone; a document whose gate records ``skipped`` (the fixture did not
  fit in memory) is tolerated, and a missing committed baseline is a new
  benchmark, never a failure.

Exit status is non-zero when any regression is found, so CI can gate on
it.  ``--output`` writes the full diff document as JSON for artifact
upload.

Usage::

    python tools/bench_compare.py \
        --baseline-dir . --current-dir /tmp/fresh \
        --tolerance 3.0 --output bench_diff.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

#: Fresh wall time may be up to this multiple of the committed baseline.
DEFAULT_WALL_TOLERANCE = 3.0

#: Additive slack (seconds) so timer jitter on very fast stages cannot trip
#: the multiplicative gate (mirrors the overhead guard in bench_profile).
DEFAULT_FLOOR_S = 0.05

#: Absolute drop in a remap peak-reduction fraction that counts as a
#: regression (2 percentage points).
DEFAULT_PEAK_TOLERANCE = 0.02

#: Minimum serial/parallel chaos-suite speedup on multi-CPU runners.  The
#: gate only applies when the fresh document reports ``cpu_count >= 2`` —
#: a process pool cannot beat serial execution on a single CPU.
DEFAULT_MIN_SPEEDUP = 1.3

#: Absolute drop in the robust suite's avoided-violation fraction that
#: counts as a regression against a committed baseline.
DEFAULT_AVOIDED_TOLERANCE = 0.05

#: Maximum fractional overhead of worker-telemetry capture over the same
#: pooled pass with ``REPRO_OBS_CAPTURE=0`` (the ``capture`` section of
#: ``BENCH_engine.json``).
DEFAULT_MAX_CAPTURE_OVERHEAD = 0.05

#: Maximum fractional overhead of the failure-domain layer (armed but
#: never-firing deadlines: watchdog polling + straggler bookkeeping) over
#: the identical unguarded pooled pass (the ``recovery`` section of
#: ``BENCH_engine.json``).
DEFAULT_MAX_RECOVERY_OVERHEAD = 0.03

#: Minimum incremental-vs-full-recompute speedup per placement delta at
#: the 100k-instance point (the ``gate`` section of
#: ``BENCH_incremental.json``).
DEFAULT_MIN_INCREMENTAL_SPEEDUP = 5.0

BENCH_FILES = (
    "BENCH_pipeline.json",
    "BENCH_remap.json",
    "BENCH_engine.json",
    "BENCH_robust.json",
    "BENCH_scale.json",
    "BENCH_incremental.json",
)


def load_document(path: pathlib.Path) -> Dict:
    """Load and shape-check one BENCH document."""
    with open(path) as handle:
        document = json.load(handle)
    for key in ("benchmark", "sections"):
        if key not in document:
            raise ValueError(f"{path}: missing required key {key!r}")
    return document


def _stages_by_name(document: Dict) -> Dict[str, Dict]:
    return {row["stage"]: row for row in document["sections"].get("stages", [])}


def compare_pipeline(
    baseline: Dict,
    current: Dict,
    *,
    tolerance: float = DEFAULT_WALL_TOLERANCE,
    floor_s: float = DEFAULT_FLOOR_S,
) -> List[Dict]:
    """Per-stage wall-time comparison rows, one per baseline/fresh stage."""
    base_stages = _stages_by_name(baseline)
    cur_stages = _stages_by_name(current)
    rows: List[Dict] = []
    for name, base in base_stages.items():
        row: Dict = {"stage": name, "baseline_wall_s": base["wall_s"]}
        cur = cur_stages.get(name)
        if cur is None:
            # Lost coverage is as bad as lost speed: the stage either
            # disappeared from the pipeline or stopped being traced.
            row.update(current_wall_s=None, status="missing")
        else:
            limit = base["wall_s"] * tolerance + floor_s
            row.update(
                current_wall_s=cur["wall_s"],
                ratio=cur["wall_s"] / base["wall_s"] if base["wall_s"] > 0 else None,
                limit_s=limit,
                status="regression" if cur["wall_s"] > limit else "ok",
            )
        rows.append(row)
    for name, cur in cur_stages.items():
        if name not in base_stages:
            rows.append(
                {
                    "stage": name,
                    "baseline_wall_s": None,
                    "current_wall_s": cur["wall_s"],
                    "status": "new",
                }
            )
    return rows


def compare_remap(
    baseline: Dict,
    current: Dict,
    *,
    peak_tolerance: float = DEFAULT_PEAK_TOLERANCE,
) -> List[Dict]:
    """Per-level peak-reduction comparison rows (quality, not speed)."""
    base = baseline["sections"].get("remap", {})
    cur = current["sections"].get("remap", {})
    rows: List[Dict] = []
    for level, base_value in base.get("peak_reduction", {}).items():
        row: Dict = {"level": level, "baseline_reduction": base_value}
        cur_value = cur.get("peak_reduction", {}).get(level)
        if cur_value is None:
            row.update(current_reduction=None, status="missing")
        else:
            row.update(
                current_reduction=cur_value,
                status=(
                    "regression"
                    if cur_value < base_value - peak_tolerance
                    else "ok"
                ),
            )
        rows.append(row)
    return rows


def compare_engine_parallel(
    current: Dict,
    *,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
) -> Dict:
    """The parallel-speedup gate row for a fresh ``BENCH_engine.json``.

    Judged on the fresh run alone (a speedup is host-relative, so there is
    nothing meaningful to diff against the baseline): on a multi-CPU host
    the process pool must beat serial execution by ``min_speedup``; on a
    single CPU the row reports ``skipped``.
    """
    parallel = current["sections"].get("parallel")
    if not parallel:
        return {"check": "engine_speedup", "status": "missing"}
    row = {
        "check": "engine_speedup",
        "workers": parallel.get("workers"),
        "cpu_count": parallel.get("cpu_count"),
        "speedup": parallel.get("speedup"),
        "min_speedup": min_speedup,
    }
    if (parallel.get("cpu_count") or 1) < 2:
        row["status"] = "skipped"
    elif parallel.get("speedup") is None:
        row["status"] = "missing"
    else:
        row["status"] = "ok" if parallel["speedup"] >= min_speedup else "regression"
    return row


def compare_robust(
    baseline: Optional[Dict],
    current: Dict,
    *,
    avoided_tolerance: float = DEFAULT_AVOIDED_TOLERANCE,
) -> Dict:
    """The robust-placement quality row for a fresh ``BENCH_robust.json``.

    The fresh document's own gate thresholds always apply (they guard the
    robustness *claim*, not a machine-relative timing).  With a committed
    baseline, the avoided fraction additionally must not drop more than
    ``avoided_tolerance`` below it; without one this is a brand-new
    benchmark — record the numbers, report ``new``, never fail.
    """
    gate = current["sections"].get("gate")
    if not gate:
        return {"check": "robust_gate", "status": "missing"}
    row: Dict = {
        "check": "robust_gate",
        "avoided_fraction": gate.get("avoided_fraction"),
        "min_avoided_fraction": gate.get("min_avoided_fraction"),
        "max_capacity_overhead": gate.get("max_capacity_overhead"),
        "capacity_overhead_limit": gate.get("capacity_overhead_limit"),
    }
    if not gate.get("passed"):
        row["status"] = "regression"
        return row
    if baseline is None:
        row["status"] = "new"
        return row
    base_avoided = baseline["sections"].get("gate", {}).get("avoided_fraction")
    row["baseline_avoided_fraction"] = base_avoided
    if (
        base_avoided is not None
        and gate.get("avoided_fraction") is not None
        and gate["avoided_fraction"] < base_avoided - avoided_tolerance
    ):
        row["status"] = "regression"
    else:
        row["status"] = "ok"
    return row


def _overhead_gate(
    current: Dict,
    section: str,
    check: str,
    measured_key: str,
    bare_key: str,
    *,
    max_overhead: float,
    floor_s: float,
) -> Dict:
    """One overhead row judged on a fresh ``BENCH_engine.json`` alone.

    Both walls come from the same host in the same process, so there is
    nothing to diff against a baseline: ``measured_key`` may cost at most
    ``bare * (1 + max_overhead) + floor_s``.  A single-CPU document
    reports ``skipped``; a multi-CPU document without the section (or
    either wall) reports ``missing``, so a gate that did not run can
    never pass.
    """
    measured = current["sections"].get(section)
    if not measured:
        parallel = current["sections"].get("parallel") or {}
        cpu_count = parallel.get("cpu_count") or 1
        return {
            "check": check,
            "cpu_count": cpu_count,
            "status": "skipped" if cpu_count < 2 else "missing",
        }
    row: Dict = {
        "check": check,
        "workers": measured.get("workers"),
        "cpu_count": measured.get("cpu_count"),
        measured_key: measured.get(measured_key),
        bare_key: measured.get(bare_key),
        "overhead_frac": measured.get("overhead_frac"),
        "max_overhead_frac": max_overhead,
    }
    bare = measured.get(bare_key)
    wall = measured.get(measured_key)
    if (measured.get("cpu_count") or 1) < 2:
        row["status"] = "skipped"
    elif bare is None or wall is None:
        row["status"] = "missing"
    else:
        limit = bare * (1.0 + max_overhead) + floor_s
        row["limit_s"] = limit
        row["status"] = "ok" if wall <= limit else "regression"
    return row


def compare_capture(
    current: Dict,
    *,
    max_overhead: float = DEFAULT_MAX_CAPTURE_OVERHEAD,
    floor_s: float = DEFAULT_FLOOR_S,
) -> Dict:
    """The telemetry-capture overhead row for a fresh ``BENCH_engine.json``:
    the pooled pass with capture on against the same pass with
    ``REPRO_OBS_CAPTURE=0`` (see :func:`_overhead_gate`)."""
    return _overhead_gate(
        current,
        "capture",
        "capture_overhead",
        "capture_wall_s",
        "no_capture_wall_s",
        max_overhead=max_overhead,
        floor_s=floor_s,
    )


def compare_recovery(
    current: Dict,
    *,
    max_overhead: float = DEFAULT_MAX_RECOVERY_OVERHEAD,
    floor_s: float = DEFAULT_FLOOR_S,
) -> Dict:
    """The failure-domain overhead row for a fresh ``BENCH_engine.json``:
    the pooled pass under an armed (never firing) deadline against the
    identical unguarded pass (see :func:`_overhead_gate`)."""
    return _overhead_gate(
        current,
        "recovery",
        "recovery_overhead",
        "guarded_wall_s",
        "bare_wall_s",
        max_overhead=max_overhead,
        floor_s=floor_s,
    )


def compare_incremental(
    baseline: Optional[Dict],
    current: Dict,
    *,
    min_speedup: float = DEFAULT_MIN_INCREMENTAL_SPEEDUP,
) -> Dict:
    """The incremental-speedup row for a fresh ``BENCH_incremental.json``.

    The speedup is host-relative (incremental and full-recompute walls
    come from the same process), so the gate judges the fresh run alone:
    the delta path must beat a full rebuild by ``min_speedup``.  A gate
    that records ``skipped: true`` (the 100k-instance fixture did not fit
    in the runner's memory) is tolerated, and a missing committed
    baseline marks the benchmark ``new`` — recorded, never a failure.
    """
    gate = current["sections"].get("gate")
    if not gate:
        return {"check": "incremental_speedup", "status": "missing"}
    row: Dict = {
        "check": "incremental_speedup",
        "speedup": gate.get("speedup"),
        "min_speedup": min_speedup,
        "n_instances": current["sections"].get("workload", {}).get("n_instances"),
    }
    if gate.get("skipped"):
        row["status"] = "skipped"
        row["reason"] = gate.get("reason")
    elif gate.get("speedup") is None:
        row["status"] = "missing"
    elif gate["speedup"] < min_speedup:
        row["status"] = "regression"
    else:
        row["status"] = "new" if baseline is None else "ok"
    return row


def compare_documents(
    baseline_dir: pathlib.Path,
    current_dir: pathlib.Path,
    *,
    tolerance: float = DEFAULT_WALL_TOLERANCE,
    floor_s: float = DEFAULT_FLOOR_S,
    peak_tolerance: float = DEFAULT_PEAK_TOLERANCE,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
    max_capture_overhead: float = DEFAULT_MAX_CAPTURE_OVERHEAD,
    max_recovery_overhead: float = DEFAULT_MAX_RECOVERY_OVERHEAD,
    min_incremental_speedup: float = DEFAULT_MIN_INCREMENTAL_SPEEDUP,
) -> Dict:
    """The full diff document: stage rows, remap rows, regression list."""
    pipeline_rows = compare_pipeline(
        load_document(baseline_dir / "BENCH_pipeline.json"),
        load_document(current_dir / "BENCH_pipeline.json"),
        tolerance=tolerance,
        floor_s=floor_s,
    )
    remap_rows = compare_remap(
        load_document(baseline_dir / "BENCH_remap.json"),
        load_document(current_dir / "BENCH_remap.json"),
        peak_tolerance=peak_tolerance,
    )
    # The engine document is newer than the others; tolerate its absence
    # (old baselines, partial regeneration) instead of failing the load.
    engine_base_path = baseline_dir / "BENCH_engine.json"
    engine_cur_path = current_dir / "BENCH_engine.json"
    engine_rows: List[Dict] = []
    engine_parallel: Optional[Dict] = None
    capture_gate: Optional[Dict] = None
    recovery_gate: Optional[Dict] = None
    if engine_cur_path.exists():
        engine_cur = load_document(engine_cur_path)
        if engine_base_path.exists():
            engine_rows = compare_pipeline(
                load_document(engine_base_path),
                engine_cur,
                tolerance=tolerance,
                floor_s=floor_s,
            )
        engine_parallel = compare_engine_parallel(
            engine_cur, min_speedup=min_speedup
        )
        capture_gate = compare_capture(
            engine_cur, max_overhead=max_capture_overhead, floor_s=floor_s
        )
        recovery_gate = compare_recovery(
            engine_cur, max_overhead=max_recovery_overhead, floor_s=floor_s
        )
    elif engine_base_path.exists():
        # The stage walls vanished from the fresh run: lost coverage.
        engine_rows = compare_pipeline(
            load_document(engine_base_path),
            {"benchmark": "engine", "sections": {}},
            tolerance=tolerance,
            floor_s=floor_s,
        )
    # Robust-placement quality gate.  A fresh document without a committed
    # baseline is a new benchmark (record, don't fail); a committed
    # baseline without a fresh document is lost coverage.
    robust_base_path = baseline_dir / "BENCH_robust.json"
    robust_cur_path = current_dir / "BENCH_robust.json"
    robust_gate: Optional[Dict] = None
    if robust_cur_path.exists():
        robust_gate = compare_robust(
            load_document(robust_base_path) if robust_base_path.exists() else None,
            load_document(robust_cur_path),
        )
    elif robust_base_path.exists():
        robust_gate = {"check": "robust_gate", "status": "missing"}
    # Fleet-scale stage walls.  A fresh document without a baseline is
    # new (nothing to diff); a baseline without a fresh document is lost
    # coverage, so every baseline stage reads missing.
    scale_base_path = baseline_dir / "BENCH_scale.json"
    scale_cur_path = current_dir / "BENCH_scale.json"
    scale_rows: List[Dict] = []
    if scale_base_path.exists():
        scale_rows = compare_pipeline(
            load_document(scale_base_path),
            (
                load_document(scale_cur_path)
                if scale_cur_path.exists()
                else {"benchmark": "scale", "sections": {}}
            ),
            tolerance=tolerance,
            floor_s=floor_s,
        )
    # Incremental-state speedup gate.  Fresh without baseline is new,
    # baseline without fresh is lost coverage.
    incr_base_path = baseline_dir / "BENCH_incremental.json"
    incr_cur_path = current_dir / "BENCH_incremental.json"
    incremental_gate: Optional[Dict] = None
    if incr_cur_path.exists():
        incremental_gate = compare_incremental(
            load_document(incr_base_path) if incr_base_path.exists() else None,
            load_document(incr_cur_path),
            min_speedup=min_incremental_speedup,
        )
    elif incr_base_path.exists():
        incremental_gate = {"check": "incremental_speedup", "status": "missing"}
    bad_status = ("regression", "missing")
    regressions = [
        f"pipeline stage {row['stage']!r}: {row['status']}"
        for row in pipeline_rows
        if row["status"] in bad_status
    ] + [
        f"remap peak_reduction[{row['level']}]: {row['status']}"
        for row in remap_rows
        if row["status"] in bad_status
    ] + [
        f"engine stage {row['stage']!r}: {row['status']}"
        for row in engine_rows
        if row["status"] in bad_status
    ] + [
        f"scale stage {row['stage']!r}: {row['status']}"
        for row in scale_rows
        if row["status"] in bad_status
    ]
    if engine_parallel is not None and engine_parallel["status"] in bad_status:
        regressions.append(f"engine speedup: {engine_parallel['status']}")
    if robust_gate is not None and robust_gate["status"] in bad_status:
        regressions.append(f"robust gate: {robust_gate['status']}")
    if capture_gate is not None and capture_gate["status"] in bad_status:
        regressions.append(f"capture overhead: {capture_gate['status']}")
    if recovery_gate is not None and recovery_gate["status"] in bad_status:
        regressions.append(f"recovery overhead: {recovery_gate['status']}")
    if incremental_gate is not None and incremental_gate["status"] in bad_status:
        regressions.append(f"incremental speedup: {incremental_gate['status']}")
    return {
        "baseline_dir": str(baseline_dir),
        "current_dir": str(current_dir),
        "tolerance": tolerance,
        "floor_s": floor_s,
        "peak_tolerance": peak_tolerance,
        "min_speedup": min_speedup,
        "max_capture_overhead": max_capture_overhead,
        "max_recovery_overhead": max_recovery_overhead,
        "min_incremental_speedup": min_incremental_speedup,
        "pipeline": pipeline_rows,
        "remap": remap_rows,
        "engine": engine_rows,
        "engine_parallel": engine_parallel,
        "robust": robust_gate,
        "scale": scale_rows,
        "capture_gate": capture_gate,
        "recovery_gate": recovery_gate,
        "incremental_gate": incremental_gate,
        "regressions": regressions,
    }


def render(diff: Dict) -> str:
    """Human-readable summary of one diff document."""
    lines = [
        f"{'stage':<22} {'baseline':>10} {'current':>10} {'ratio':>7}  status"
    ]
    def fmt(value, spec, suffix=""):
        return "-" if value is None else format(value, spec) + suffix

    for row in diff["pipeline"] + diff.get("engine", []) + diff.get("scale", []):
        lines.append(
            f"{row['stage']:<22} "
            f"{fmt(row.get('baseline_wall_s'), '9.3f', 's'):>10} "
            f"{fmt(row.get('current_wall_s'), '9.3f', 's'):>10} "
            f"{fmt(row.get('ratio'), '6.2f', 'x'):>7}  "
            f"{row['status']}"
        )
    lines.append("")
    parallel = diff.get("engine_parallel")
    if parallel is not None:
        lines.append(
            f"engine speedup: {fmt(parallel.get('speedup'), '.2f', 'x')} "
            f"(workers={parallel.get('workers')}, "
            f"cpus={parallel.get('cpu_count')}, "
            f"min={fmt(parallel.get('min_speedup'), '.2f', 'x')}) "
            f"{parallel['status']}"
        )
    capture_gate = diff.get("capture_gate")
    if capture_gate is not None:
        lines.append(
            f"capture overhead: {fmt(capture_gate.get('overhead_frac'), '+.1%')} "
            f"(capture={fmt(capture_gate.get('capture_wall_s'), '.3f', 's')}, "
            f"bare={fmt(capture_gate.get('no_capture_wall_s'), '.3f', 's')}, "
            f"max={fmt(capture_gate.get('max_overhead_frac'), '.0%')}) "
            f"{capture_gate['status']}"
        )
    recovery_gate = diff.get("recovery_gate")
    if recovery_gate is not None:
        lines.append(
            f"recovery overhead: "
            f"{fmt(recovery_gate.get('overhead_frac'), '+.1%')} "
            f"(guarded={fmt(recovery_gate.get('guarded_wall_s'), '.3f', 's')}, "
            f"bare={fmt(recovery_gate.get('bare_wall_s'), '.3f', 's')}, "
            f"max={fmt(recovery_gate.get('max_overhead_frac'), '.0%')}) "
            f"{recovery_gate['status']}"
        )
    incremental = diff.get("incremental_gate")
    if incremental is not None:
        lines.append(
            f"incremental speedup: {fmt(incremental.get('speedup'), '.1f', 'x')} "
            f"(instances={incremental.get('n_instances')}, "
            f"min={fmt(incremental.get('min_speedup'), '.0f', 'x')}) "
            f"{incremental['status']}"
        )
    robust = diff.get("robust")
    if robust is not None:
        lines.append(
            f"robust gate: avoided={fmt(robust.get('avoided_fraction'), '.3f')} "
            f"(min={fmt(robust.get('min_avoided_fraction'), '.2f')}), "
            f"capacity={fmt(robust.get('max_capacity_overhead'), '.4f')} "
            f"(limit={fmt(robust.get('capacity_overhead_limit'), '.2f')}) "
            f"{robust['status']}"
        )
    for row in diff["remap"]:
        lines.append(
            f"peak_reduction[{row['level']:<10}] "
            f"baseline={fmt(row['baseline_reduction'], '.4f')} "
            f"current={fmt(row['current_reduction'], '.4f')} "
            f"{row['status']}"
        )
    lines.append("")
    if diff["regressions"]:
        lines.append(f"REGRESSIONS ({len(diff['regressions'])}):")
        lines.extend(f"  - {item}" for item in diff["regressions"])
    else:
        lines.append("no regressions")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff fresh BENCH_*.json runs against committed baselines."
    )
    parser.add_argument(
        "--baseline-dir",
        type=pathlib.Path,
        default=pathlib.Path("."),
        help="directory holding the committed BENCH_*.json pair",
    )
    parser.add_argument(
        "--current-dir",
        type=pathlib.Path,
        required=True,
        help="directory holding the freshly generated BENCH_*.json pair",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_WALL_TOLERANCE,
        help="max current/baseline wall-time ratio per stage",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR_S,
        help="additive per-stage slack in seconds (timer jitter)",
    )
    parser.add_argument(
        "--peak-tolerance",
        type=float,
        default=DEFAULT_PEAK_TOLERANCE,
        help="max absolute drop in remap peak reduction per level",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help="min chaos-suite parallel speedup on multi-CPU runners",
    )
    parser.add_argument(
        "--max-capture-overhead",
        type=float,
        default=DEFAULT_MAX_CAPTURE_OVERHEAD,
        help="max telemetry-capture overhead fraction on multi-CPU runners",
    )
    parser.add_argument(
        "--max-recovery-overhead",
        type=float,
        default=DEFAULT_MAX_RECOVERY_OVERHEAD,
        help="max failure-domain (deadline) overhead fraction on multi-CPU runners",
    )
    parser.add_argument(
        "--min-incremental-speedup",
        type=float,
        default=DEFAULT_MIN_INCREMENTAL_SPEEDUP,
        help="min incremental-vs-full-recompute speedup per placement delta",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="write the full diff document as JSON here",
    )
    args = parser.parse_args(argv)

    diff = compare_documents(
        args.baseline_dir,
        args.current_dir,
        tolerance=args.tolerance,
        floor_s=args.floor,
        peak_tolerance=args.peak_tolerance,
        min_speedup=args.min_speedup,
        max_capture_overhead=args.max_capture_overhead,
        max_recovery_overhead=args.max_recovery_overhead,
        min_incremental_speedup=args.min_incremental_speedup,
    )
    if args.output is not None:
        args.output.write_text(json.dumps(diff, indent=2, sort_keys=True) + "\n")
    print(render(diff))
    return 1 if diff["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
