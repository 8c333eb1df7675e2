"""Benchmark runner for the SmoothOperator paper pipeline.

    python3 perfbench/run.py --workload plan_dc3 --seed 0 --seconds 20 --trace 0

Runs one workload (``plan_dc3``, ``adapt_dc3`` or ``chaos_dc1_w2``, see
``perfbench/README.md``) against the source tree next to this directory.
Inputs are generated from ``--seed``; every output is checked.  With
``--trace 0`` the result carries the end-to-end metrics listed in
``BENCHMARK.json``, measured with tracing off; with ``--trace 1`` a
separate traced pass yields the per-layer metrics.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"setup_s": {"value": 1.93, "unit": "s"}, ...}}

The line before it records the environment (CPU count, Python and numpy
versions, commit) and, for untraced runs, the timings before host-speed
scaling.  Exit status: 0 when every check passed, 1 when a
correctness check failed (the result line is still printed), 2 when the
benchmark cannot run at all (no ``src/`` tree, bad arguments); nothing
is printed on stdout in that case.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Library thread pools pinned to one thread, in this process and (via
#: ``REPRO_WORKER_THREADS``) in pool workers, so two workers on a 2-CPU host
#: never oversubscribe it.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "REPRO_WORKER_THREADS",
)

WORKLOADS = ("plan_dc3", "adapt_dc3", "chaos_dc1_w2")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--instances",
        type=int,
        default=None,
        help="fleet size override (the benchmark's own tests use 96)",
    )
    parser.add_argument(
        "--round",
        action="store_true",
        help="measure one round and print its raw results (used for the rounds)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed cannot be negative")
    if args.instances is not None and args.instances <= 0:
        parser.error("--instances must be positive")
    return args


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_workloads():
    """Import the workloads against ``ROOT/src`` and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"repro resolved to {origin}, not under {SRC}")
    import workloads

    return workloads


def _metric_specs():
    """name -> (unit, section) for every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {}
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            units[metric["name"]] = (metric["unit"], section)
    return units


def _environment():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _measure(workloads, args, started: float, seconds: float) -> dict:
    """One round in this process: set up, measure, return the raw results."""
    workload = workloads.make(args.workload, seed=args.seed, instances=args.instances)
    workload.setup(traced=bool(args.trace))
    setup_s = time.perf_counter() - started
    try:
        outcome = (
            workload.run_traced(seconds) if args.trace else workload.run(seconds)
        )
    finally:
        workload.close()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "times": outcome.times,
        "probe_s": outcome.probe_s,
        "metrics": outcome.metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
    }


def _child_round(args, seconds: float) -> dict:
    """One round in a fresh interpreter."""
    command = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(seconds),
        "--round",
    ]
    if args.instances is not None:
        command += ["--instances", str(args.instances)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=170, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"round failed: {done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _merge(rounds, reference_probe_s: float) -> dict:
    """End-to-end values over the rounds of one untraced run.

    Each round's timings are scaled by ``reference_probe_s`` over that
    round's probe time (see ``workloads.HostProbe``); ``unscaled`` keeps
    the raw figures.
    """
    import numpy

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [problem for r in rounds for problem in r["problems"]]
    # Quality is deterministic per seed: every round must report the same.
    attempted += 1
    if any(r["metrics"] != rounds[0]["metrics"] for r in rounds):
        failed += 1
        problems.append(f"rounds disagree on {[r['metrics'] for r in rounds]}")

    def timings(scales):
        times_ms = [
            seconds * 1e3 * scale
            for r, scale in zip(rounds, scales)
            for seconds in r["times"]
        ]
        return {
            "setup_s": statistics.median(
                r["setup_s"] * scale for r, scale in zip(rounds, scales)
            ),
            "op_p50_ms": float(numpy.percentile(times_ms, 50)),
            "op_p99_ms": float(numpy.percentile(times_ms, 99)),
        }

    values = dict(rounds[0]["metrics"])
    values.update(timings([reference_probe_s / r["probe_s"] for r in rounds]))
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in rounds)
    values["ok_frac"] = 1.0 - failed / attempted
    unscaled = timings([1.0] * len(rounds))
    unscaled["probe_ms"] = [r["probe_s"] * 1e3 for r in rounds]
    return {
        "values": values,
        "unscaled": unscaled,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    for name in THREAD_ENV_VARS:
        os.environ[name] = "1"
    try:
        units = _metric_specs()
        workloads = _import_workloads()
    except (ImportError, OSError, ValueError, KeyError) as error:
        return _fail(f"cannot run: {error}")
    if args.round:
        print(json.dumps(_measure(workloads, args, started, args.seconds)))
        return 0
    if args.trace:
        result = _measure(workloads, args, started, args.seconds)
        values = result["metrics"]
    else:
        # The first round runs here, the rest in fresh interpreters.  Op
        # latencies are pooled and set-up is the median, so one process's
        # memory layout or a noisy neighbour weighs less.
        count = workloads.WORKLOADS[args.workload].ROUNDS
        rounds = [_measure(workloads, args, started, args.seconds / count)]
        gc.collect()
        try:
            rounds += [_child_round(args, args.seconds / count) for _ in range(count - 1)]
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            return _fail(str(error))
        result = _merge(rounds, workloads.HostProbe.REFERENCE_S)
        values = result["values"]

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [name for name, (_, where) in units.items() if where == section]
    unknown = sorted(set(values) - set(wanted))
    if unknown:
        return _fail(f"workload {args.workload} measured undeclared {unknown}")
    if args.trace:
        # A layer the workload bypasses did no work on it.
        values = {name: values.get(name, 0.0) for name in wanted}
    missing = sorted(set(wanted) - set(values))
    if missing:
        return _fail(f"workload {args.workload} did not measure {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": units[name][0]}
        for name in wanted
    }
    info = {"env": _environment(), "workload": args.workload, "seed": args.seed}
    if "unscaled" in result:
        info["unscaled"] = result["unscaled"]
    print(json.dumps(info))
    for problem in result["problems"][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
