#!/usr/bin/env python
"""Judge fresh ``BENCH_*.json`` runs against committed baselines.

Every benchmark gate is one row of :data:`GATES`: the document, the
metric path, the comparator and its bound, the CPU count the gate needs,
and what the metric is judged against — the committed baseline, another
measurement in the same fresh document, or nothing (an absolute bound).
:func:`evaluate` applies the table.  It judges raw measurements only,
never a verdict a benchmark wrote, so each bound lives here and nowhere
else; the benchmarks import theirs from this table for their own asserts.

Paths address a document's ``sections``.  ``stages[*].wall_s`` expands
to one row per stage (list entries are keyed by their ``stage`` field)
and ``remap.peak_reduction.*`` to one row per mapping key.  Comparators:

* ``ratio`` — value ≤ reference × bound + :data:`FLOOR_S` (the floor
  absorbs timer jitter on sub-50 ms walls);
* ``drop`` — value ≥ reference − bound;
* ``min`` / ``max`` — value ≥ / ≤ bound.

Each row ends in one status:

* ``ok`` or ``regression`` — the comparator held or failed;
* ``new`` — a fresh measurement without a committed baseline;
* ``missing`` — a failure: the baseline has the measurement and the
  fresh run lost it, or the fresh document lacks the gated section;
* ``mismatch`` — a failure: the baseline and fresh ``workload`` sections
  differ, so the runs are not comparable (fresh-only rows included: their
  bounds are claims about the baseline's workload);
* ``skipped`` — with a ``reason``: the fresh host has fewer CPUs than
  the gate needs, the benchmark recorded ``skipped: true`` in the gated
  section, or neither side has the document.

Exit status is 1 when any row reads ``regression``, ``missing`` or
``mismatch``; ``--output`` writes every row as JSON for artifact upload.

Usage::

    python tools/bench_compare.py --baseline-dir . --current-dir /tmp/fresh \
        --output bench_diff.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: ``Gate.against`` value for rows judged against the committed baseline.
BASELINE = "baseline"

#: Where a fresh document records its host's CPU count.
CPU_PATH = "parallel.cpu_count"

#: Fresh stage walls may be this multiple of the baseline: the gate
#: catches order-of-magnitude slowdowns, not runner-to-runner variance.
WALL_RATIO = 3.0

#: Additive slack (seconds) on every ``ratio`` limit.
FLOOR_S = 0.05

FAILING = ("regression", "missing", "mismatch")


@dataclass(frozen=True)
class Gate:
    """One benchmark gate: ``path`` in ``document``, judged by ``op``."""

    name: str
    document: str
    path: str
    op: str
    bound: float
    against: Optional[str] = None
    min_cpus: int = 1
    workload: str = "workload"


GATES = (
    Gate("pipeline_wall", "BENCH_pipeline.json", "stages[*].wall_s",
         "ratio", WALL_RATIO, against=BASELINE),
    Gate("remap_peak_reduction", "BENCH_remap.json", "remap.peak_reduction.*",
         "drop", 0.02, against=BASELINE, workload="remap.workload"),
    Gate("engine_wall", "BENCH_engine.json", "stages[*].wall_s",
         "ratio", WALL_RATIO, against=BASELINE),
    Gate("pool_speedup", "BENCH_engine.json", "parallel.speedup",
         "min", 1.3, min_cpus=2),
    Gate("capture_overhead", "BENCH_engine.json", "capture.capture_wall_s",
         "ratio", 1.05, against="capture.no_capture_wall_s", min_cpus=2),
    Gate("recovery_overhead", "BENCH_engine.json", "recovery.guarded_wall_s",
         "ratio", 1.03, against="recovery.bare_wall_s", min_cpus=2),
    Gate("scale_wall", "BENCH_scale.json", "stages[*].wall_s",
         "ratio", WALL_RATIO, against=BASELINE),
    Gate("incremental_speedup", "BENCH_incremental.json", "gate.speedup",
         "min", 5.0),
    Gate("robust_avoided", "BENCH_robust.json", "gate.avoided_fraction",
         "min", 0.80),
    Gate("robust_avoided_drop", "BENCH_robust.json", "gate.avoided_fraction",
         "drop", 0.05, against=BASELINE),
    Gate("robust_capacity", "BENCH_robust.json", "gate.max_capacity_overhead",
         "max", 0.15),
)


def gate(name: str) -> Gate:
    """The :data:`GATES` row called ``name``."""
    (row,) = [g for g in GATES if g.name == name]
    return row


def load_document(path: pathlib.Path) -> Dict:
    """Load and shape-check one BENCH document."""
    with open(path) as handle:
        document = json.load(handle)
    for key in ("benchmark", "sections"):
        if key not in document:
            raise ValueError(f"{path}: missing required key {key!r}")
    return document


def _get(node, path: str):
    for part in filter(None, path.split(".")):
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def _expand(sections: Dict, path: str) -> Dict:
    """Values at ``path`` keyed by wildcard key (``None`` for a plain path)."""
    head, star, tail = path.partition("*")
    if not star:
        return {None: _get(sections, path)}
    container = _get(sections, head.rstrip(".["))
    if isinstance(container, list):
        container = {entry.get("stage"): entry for entry in container}
    return {
        key: _get(entry, tail.lstrip("]."))
        for key, entry in (container or {}).items()
    }


def _limit(g: Gate, reference: Optional[float]) -> float:
    if g.op == "ratio":
        return reference * g.bound + FLOOR_S
    if g.op == "drop":
        return reference - g.bound
    return g.bound


def _judge(g: Gate, key, base: Optional[Dict], fresh: Optional[Dict],
           value, base_value) -> Dict:
    """One row's verdict; ``base``/``fresh`` are documents' ``sections``."""
    relative = g.against == BASELINE
    if relative:
        reference = base_value
    elif g.against is not None and fresh is not None:
        reference = _get(fresh, g.against)
    else:
        reference = None
    result = {"gate": g.name, "document": g.document, "key": key,
              "value": value, "reference": reference, "limit": None}

    def verdict(status, reason=None):
        result["status"] = status
        if reason:
            result["reason"] = reason
        return result

    if fresh is None:
        if base is None:
            return verdict("skipped", "no document on either side")
        return verdict("missing", "no fresh document")
    section = fresh.get(g.path.split(".")[0].split("[")[0])
    if isinstance(section, dict) and section.get("skipped"):
        return verdict("skipped", section.get("reason") or "benchmark skipped")
    cpus = _get(fresh, CPU_PATH)
    if cpus is not None and cpus < g.min_cpus:
        return verdict(
            "skipped", f"{cpus}-CPU document; the gate needs {g.min_cpus}"
        )
    if base is not None and (
        _get(base, g.workload) != _get(fresh, g.workload)
    ):
        return verdict("mismatch", f"{g.workload} differs from the baseline")
    if value is None:
        return verdict("missing", f"fresh document lacks {g.path}")
    if g.against is not None and reference is None:
        if relative:
            return verdict("new")
        return verdict("missing", f"fresh document lacks {g.against}")
    limit = result["limit"] = _limit(g, reference)
    at_most = g.op in ("ratio", "max")
    if (value > limit) if at_most else (value < limit):
        return verdict("regression")
    return verdict("ok" if base is not None else "new")


def evaluate(
    baseline_dir: pathlib.Path,
    current_dir: pathlib.Path,
    gates: Sequence[Gate] = GATES,
) -> Dict:
    """Apply ``gates`` to the documents in the two directories."""
    loaded: Dict[pathlib.Path, Optional[Dict]] = {}

    def sections(directory: pathlib.Path, name: str) -> Optional[Dict]:
        path = directory / name
        if path not in loaded:
            loaded[path] = (
                load_document(path)["sections"] if path.exists() else None
            )
        return loaded[path]

    rows: List[Dict] = []
    for g in gates:
        base = sections(baseline_dir, g.document)
        fresh = sections(current_dir, g.document)
        base_values = (
            _expand(base, g.path)
            if base is not None and g.against == BASELINE
            else {}
        )
        values = _expand(fresh, g.path) if fresh is not None else {}
        keys = list(base_values) + [k for k in values if k not in base_values]
        rows.extend(
            _judge(g, key, base, fresh, values.get(key), base_values.get(key))
            for key in keys or [None]
        )
    return {
        "baseline_dir": str(baseline_dir),
        "current_dir": str(current_dir),
        "rows": rows,
        "regressions": [
            f"{_label(row)}: {row['status']}"
            for row in rows
            if row["status"] in FAILING
        ],
    }


def _label(row: Dict) -> str:
    return row["gate"] + ("" if row["key"] is None else f"[{row['key']}]")


def render(diff: Dict) -> str:
    """Human-readable summary of one :func:`evaluate` result."""

    def fmt(value):
        return "-" if value is None else format(value, ".4g")

    lines = [f"{'gate':<40} {'value':>10} {'reference':>10} {'limit':>10}  status"]
    for row in diff["rows"]:
        reason = f" ({row['reason']})" if row.get("reason") else ""
        lines.append(
            f"{_label(row):<40} {fmt(row['value']):>10} "
            f"{fmt(row['reference']):>10} {fmt(row['limit']):>10}  "
            f"{row['status']}{reason}"
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
        description="Judge fresh BENCH_*.json runs against committed baselines."
    )
    parser.add_argument(
        "--baseline-dir",
        type=pathlib.Path,
        default=pathlib.Path("."),
        help="directory holding the committed BENCH_*.json documents",
    )
    parser.add_argument(
        "--current-dir",
        type=pathlib.Path,
        required=True,
        help="directory holding the freshly generated BENCH_*.json documents",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="write every gate row as JSON here",
    )
    args = parser.parse_args(argv)
    diff = evaluate(args.baseline_dir, args.current_dir)
    if args.output is not None:
        args.output.write_text(json.dumps(diff, indent=2, sort_keys=True) + "\n")
    print(render(diff))
    return 1 if diff["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
