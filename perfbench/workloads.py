"""The benchmark's three workloads, driven through the public ``repro`` API.

* ``plan_dc3`` — the offline plan (Sec. 3.2-3.5): build DC3, optimize with
  an RPP remap, evaluate on the held-out week.  One op is one full plan.
* ``adapt_dc3`` — the online loop (Sec. 3.6): a seeded stream of fleet
  deltas through :class:`~repro.engine.delta.PlacementState`, each followed
  by a read of the RPP asynchrony scores and the headroom, then one large
  RPP remap.  One op is one delta with its two reads.
* ``chaos_dc1_w2`` — the 10-scenario chaos suite (Sec. 4 on dirty
  telemetry) on DC1 through the 2-worker pool.  One op is one suite.

Every workload has ``setup(traced)``, ``run(seconds)`` (tracing off, for
the end-to-end metrics), ``run_traced(seconds)`` (the per-layer metrics),
``close()``, and ``ROUNDS``: how many processes an untraced run spreads
its measuring over.  Runs return an :class:`Outcome`.  Layer times come from
spans: the ones ``repro`` already records plus benchmark-side spans around
the calls made here; :data:`SPAN_METRICS` maps each span name to the
per-layer metric its self time is charged to, and whatever no mapped span
covers is reported as ``unattributed_s``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.analysis import experiments
from repro.core.metrics import AsynchronyIndex, node_asynchrony_scores
from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig
from repro.core.remapping import RemapConfig, RemappingEngine
from repro.datasets import build_datacenter, dc3_spec
from repro.engine.delta import FleetDelta, PlacementState
from repro.engine.parallel import shutdown_pools, warm_pool
from repro.faults.harness import DEFAULT_SUITE, run_chaos_scenario, run_chaos_suite
from repro.infra.aggregation import NodePowerView, peak_reduction_by_level
from repro.infra.budget import provision_hierarchical
from repro.infra.headroom import HeadroomIndex, node_headroom
from repro.infra.topology import Level

#: ``dc3_spec``'s own seed; the workload seed is added to it, so seed 0 is
#: the paper-default DC3 fleet.
DC3_SEED = 303

#: Span name -> per-layer metric charged with that span's self time.
#: ``datasets.build``, ``engine.delta``, ``core.metrics``, ``infra.headroom``
#: and ``infra.aggregation`` are opened here; the rest come from ``repro``.
#: ``pipeline.evaluate`` is two NodePowerView builds plus budgets and the
#: expansion fill, so its self time is charged to ``infra.aggregation``.
SPAN_METRICS = {
    "synthesize": "traces.synthesize.self_s",
    "synthesize.service": "traces.synthesize.self_s",
    "datasets.build": "datasets.build.self_s",
    "score": "core.asynchrony.self_s",
    "cluster": "core.clustering.self_s",
    "place": "core.placement.self_s",
    "remap": "core.remapping.self_s",
    "pipeline.evaluate": "infra.aggregation.self_s",
    "infra.aggregation": "infra.aggregation.self_s",
    "engine.delta": "engine.delta.apply_s",
    "core.metrics": "core.metrics.scores_s",
    "infra.headroom": "infra.headroom.read_s",
    "chaos.inject_repair": "faults.repair.self_s",
    "chaos.audit": "infra.breaker.self_s",
    "chaos.reshape": "engine.core.self_s",
    "reshape.assemble": "engine.core.self_s",
}


@dataclass
class Outcome:
    """What one run measured and how many of its checked units failed.

    ``times`` holds every op latency in seconds and ``probe_s`` the
    :class:`HostProbe` time of the run (untraced runs); ``metrics`` holds quality
    values (untraced) or per-layer metrics (traced).
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    probe_s: Optional[float] = None


class Checks:
    """Tally of checked units: each unit passes or fails as a whole."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: Sequence[str], units: int = 1) -> None:
        self.attempted += units
        if problems:
            self.failed += units
            self.problems.extend(problems)

    def outcome(self, metrics, times: Sequence[float] = (), probe=None) -> Outcome:
        probe_s = probe.seconds() if probe is not None else None
        return Outcome(
            metrics, self.attempted, self.failed, self.problems, list(times), probe_s
        )


class HostProbe:
    """A fixed kernel that runs no ``repro`` code, timed between ops.

    The host runs in fast and slow phases.  Each phase lasts minutes and
    moves every timing by up to 40% together, set-up included.  The runner
    divides each round's timings by that round's probe time, so a phase
    cancels out.  A change to ``repro`` moves the ops but not the probe, so
    it still shows.  The kernel mixes small numpy reductions with dict
    updates, like the workloads do.
    """

    #: Probe time that maps to a scale factor of 1.  It is close to what
    #: the probe measures on the 2-CPU host the bounds were set on.
    REFERENCE_S = 0.010
    SAMPLE_S = 0.2

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((256, 1008))
        self._rows = rng.integers(0, 256, size=(300, 12))
        self.samples: List[float] = []

    def _kernel(self) -> float:
        started = time.perf_counter()
        for rows in self._rows:
            self._matrix[rows].sum(axis=0).max()
        table: Dict[int, int] = {}
        for i in range(30_000):
            key = i % 1013
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - started

    def sample(self) -> None:
        """Run the kernel repeatedly for SAMPLE_S seconds."""
        started = time.perf_counter()
        while time.perf_counter() - started < self.SAMPLE_S:
            self.samples.append(self._kernel())

    def seconds(self) -> float:
        """The kernel's upper-quartile time over every sample.

        Short bursts of speed, shorter than an op, sit below the upper
        quartile and are ignored; a phase that lasts the whole round moves
        it.
        """
        return float(np.percentile(self.samples, 75))


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def layer_times(roots, total_s: float) -> Dict[str, float]:
    """Self time per layer metric over span trees, plus ``unattributed_s``.

    ``unattributed_s`` is ``total_s`` minus every charged self time, so the
    returned values sum to ``total_s`` exactly.
    """
    times: Dict[str, float] = {}
    for root in roots:
        for span in root.walk():
            metric = SPAN_METRICS.get(span.name)
            if metric is not None:
                times[metric] = times.get(metric, 0.0) + span.self_wall_s()
    times["unattributed_s"] = total_s - sum(times.values())
    return times


def mean_rows(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key mean over rows (a key missing from a row counts as 0)."""
    keys = {key for row in rows for key in row}
    return {key: sum(row.get(key, 0.0) for row in rows) / len(rows) for key in keys}


def overhead(untraced: Sequence[float], traced: Sequence[float]) -> float:
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def work_counters() -> Dict[str, float]:
    """Scoring and clustering work from the metrics registry."""
    return {
        "core.asynchrony.pairs": obs.counter_value("score.pairs"),
        "core.clustering.lloyd_iterations": obs.counter_value("cluster.lloyd_iterations"),
    }


def remap_counters(remap_s: float) -> Dict[str, float]:
    """Remapping work from the metrics registry (reset before the op)."""
    candidates = obs.counter_value("remap.candidates_evaluated")
    attempted = obs.counter_value("remap.swaps_attempted")
    accepted = obs.counter_value("remap.swaps_accepted")
    return {
        "core.remapping.candidates": candidates,
        "core.remapping.candidates_per_s": candidates / remap_s if remap_s > 0 else 0.0,
        "core.remapping.accept_ratio": accepted / attempted if attempted else 0.0,
    }


def placement_problems(assignment, instance_ids: Sequence[str]) -> List[str]:
    """Every instance placed exactly once, and no leaf over its capacity."""
    problems = []
    mapping = assignment.as_mapping()
    if len(mapping) != len(instance_ids) or set(mapping) != set(instance_ids):
        problems.append(
            f"placement covers {len(mapping)} instances, expected {len(instance_ids)}"
        )
    counts: Dict[str, int] = {}
    for leaf in mapping.values():
        counts[leaf] = counts.get(leaf, 0) + 1
    for leaf in assignment.topology.leaves():
        if leaf.capacity is not None and counts.get(leaf.name, 0) > leaf.capacity:
            problems.append(f"leaf {leaf.name} holds {counts[leaf.name]} > {leaf.capacity}")
    return problems


def _until(seconds: float, minimum: int = 1, probe: Optional[HostProbe] = None):
    """Yield op indices until ``seconds`` have passed and ``minimum`` ran.

    With a ``probe``, it is sampled before the first op and after each op.
    """
    started = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - started < seconds:
        if probe is not None:
            probe.sample()
        yield index
        index += 1
    if probe is not None:
        probe.sample()


# ----------------------------------------------------------------------
# plan_dc3
# ----------------------------------------------------------------------
class PlanDC3:
    """build_datacenter -> SmoothOperator.optimize (RPP remap) -> evaluate."""

    default_instances = 3840
    #: Untraced rounds per run.  Plan time differs by up to 20% between
    #: processes, so five one-op rounds beat three two-op rounds.
    ROUNDS = 5
    #: Test-week quality at seed 0 and 3840 instances.
    PINNED = {
        "peak_reduction_rpp": 0.1536514701789803,
        "extra_server_frac": 0.09947916666666666,
    }

    def __init__(self, seed: int, instances: Optional[int]) -> None:
        self.full_size = instances in (None, self.default_instances)
        self.pinned = self.full_size and seed == 0
        self.seed = seed
        self.spec = dc3_spec(
            n_instances=instances or self.default_instances, seed=DC3_SEED + seed
        )
        self.config = SmoothOperatorConfig(
            placement=PlacementConfig(seed=seed),
            remap=RemapConfig(level=Level.RPP, max_swaps=30),
        )
        self.reference: Optional[Dict[str, float]] = None

    def setup(self, traced: bool) -> None:
        # A small plan pays first-call costs before any timed op.
        self._plan(dc3_spec(n_instances=96, seed=DC3_SEED + self.seed))

    def close(self) -> None:
        pass

    def _plan(self, spec):
        with obs.span("datasets.build"):
            dc = build_datacenter(spec, weeks=3, step_minutes=10)
        outcome = SmoothOperator(self.config).optimize(dc.records, dc.topology)
        report = SmoothOperator.evaluate(dc.records, dc.baseline, outcome.assignment)
        return dc, outcome, report

    def _timed_plan(self, checks: Checks) -> float:
        started = time.perf_counter()
        dc, outcome, report = self._plan(self.spec)
        elapsed = time.perf_counter() - started
        checks.record(self._problems(dc, outcome, report))
        return elapsed

    def _problems(self, dc, outcome, report) -> List[str]:
        problems = placement_problems(
            outcome.assignment, [record.instance_id for record in dc.records]
        )
        quality = {
            "peak_reduction_rpp": report.peak_reduction[Level.RPP],
            "extra_server_frac": report.extra_server_fraction,
        }
        if self.reference is None:
            self.reference = quality
        for name, value in quality.items():
            if value != self.reference[name]:
                problems.append(f"{name} {value!r} differs between ops of one run")
            if self.pinned and not np.isclose(value, self.PINNED[name], rtol=1e-9, atol=0):
                problems.append(f"{name} {value!r} != pinned {self.PINNED[name]!r}")
            if self.full_size and not value > 0:
                problems.append(f"{name} {value!r} is not positive")
        return problems

    def run(self, seconds: float) -> Outcome:
        checks, probe = Checks(), HostProbe()
        times = [self._timed_plan(checks) for _ in _until(seconds, probe=probe)]
        quality = {"peak_reduction_rpp": self.reference["peak_reduction_rpp"]}
        return checks.outcome(quality, times, probe)

    def run_traced(self, seconds: float) -> Outcome:
        checks = Checks()
        untraced, traced, rows = [], [], []
        for _ in _until(seconds):
            untraced.append(self._timed_plan(checks))
            obs.reset_metrics()
            with obs.tracing() as tracer:
                elapsed = self._timed_plan(checks)
            traced.append(elapsed)
            row = layer_times(tracer.roots, elapsed)
            row.update(work_counters())
            row.update(remap_counters(row.get("core.remapping.self_s", 0.0)))
            rows.append(row)
        metrics = mean_rows(rows)
        metrics["obs.overhead_frac"] = overhead(untraced, traced)
        return checks.outcome(metrics)


# ----------------------------------------------------------------------
# adapt_dc3
# ----------------------------------------------------------------------
class _TracedSubscriber:
    """Delta subscriber that opens a span named after its layer."""

    def __init__(self, index, span_name: str) -> None:
        self.index = index
        self.span_name = span_name

    def apply_delta(self, delta) -> None:
        with obs.span(self.span_name):
            self.index.apply_delta(delta)


class AdaptDC3:
    """Seeded delta stream through PlacementState, then one RPP remap.

    The stream is a fixed forward pass of :attr:`STEPS` steps generated
    from the seed.  To measure for a given time, forward passes alternate
    with their exact inverse (every delta undone in reverse order) and the
    run always ends on a forward pass, so the drifted state the checks and
    the remap see is the same for one seed however long the run was.
    """

    default_instances = 3840
    #: Untraced rounds per run; each builds DC3 and runs a 3-second remap.
    ROUNDS = 3
    STEPS = 2000
    REMAP = RemapConfig(
        level=Level.RPP, max_swaps=400, candidate_nodes=8, candidate_instances=32
    )

    def __init__(self, seed: int, instances: Optional[int]) -> None:
        self.full_size = instances in (None, self.default_instances)
        self.seed = seed
        self.spec = dc3_spec(
            n_instances=instances or self.default_instances, seed=DC3_SEED + seed
        )

    def setup(self, traced: bool) -> None:
        dc = build_datacenter(self.spec, weeks=3, step_minutes=10)
        self.topology = dc.topology
        self.traces = dc.training_traces()
        self.state = PlacementState(dc.topology, self.traces, dc.baseline)
        self.view = NodePowerView(dc.topology, self.state.assignment(), self.traces)
        provision_hierarchical(self.view, margin=0.05)
        self.scores = AsynchronyIndex(self.view, Level.RPP)
        self.headroom = HeadroomIndex(self.view)
        for index, span_name in (
            (self.view, "infra.aggregation"),
            (self.scores, "core.metrics"),
            (self.headroom, "infra.headroom"),
        ):
            self.state.register(_TracedSubscriber(index, span_name) if traced else index)
        self.ids = list(self.traces.ids)
        self.service_of = {record.instance_id: record.service for record in dc.records}
        self.peers: Dict[str, List[str]] = {}
        for record in dc.records:
            self.peers.setdefault(record.service, []).append(record.instance_id)
        self.leaves = dc.topology.leaves()
        self.rng = np.random.default_rng(self.seed)
        self.steps: List[tuple] = []  # (forward actions, inverse actions)

    def close(self) -> None:
        pass

    # -- the stream ----------------------------------------------------
    def _pick(self, items):
        return items[int(self.rng.integers(len(items)))]

    def _leaf_with_room(self, exclude: str) -> str:
        for _ in range(100_000):
            leaf = self._pick(self.leaves)
            if leaf.name != exclude and len(self.state.members(leaf.name)) < leaf.capacity:
                return leaf.name
        raise RuntimeError("no leaf has a free slot")

    def _next_step(self):
        """One seeded step: ~50% swaps, 30% trace refreshes, 20% moves or
        departure/arrival pairs.  Returns (actions, inverse actions); an
        action is (delta, trace row to rewrite first or None, its values)."""
        state, kind = self.state, self.rng.random()
        if kind < 0.5:
            # A like-for-like migration: two instances of one service trade
            # leaves, so every node keeps its service mix.
            while True:
                a = self._pick(self.ids)
                b = self._pick(self.peers[self.service_of[a]])
                leaf_a, leaf_b = state.leaf_of(a), state.leaf_of(b)
                if leaf_a != leaf_b:
                    break
            return (
                [(FleetDelta.swap(a, leaf_a, b, leaf_b), None, None)],
                [(FleetDelta.swap(a, leaf_b, b, leaf_a), None, None)],
            )
        instance = self._pick(self.ids)
        if kind < 0.8:
            # New telemetry: the trace shifts by up to an hour and rescales.
            row = self.traces.index_of(instance)
            old = self.traces.matrix[row].copy()
            shift = int(self.rng.integers(-6, 7))
            new = np.roll(old, shift) * self.rng.uniform(0.95, 1.05)
            delta = FleetDelta.trace_update(instance)
            return [(delta, row, new)], [(delta, row, old)]
        src = state.leaf_of(instance)
        dst = self._leaf_with_room(exclude=src)
        if kind < 0.9:
            return (
                [(FleetDelta.move(instance, src, dst), None, None)],
                [(FleetDelta.move(instance, dst, src), None, None)],
            )
        return (
            [(FleetDelta.remove(instance, src), None, None),
             (FleetDelta.place(instance, dst), None, None)],
            [(FleetDelta.remove(instance, dst), None, None),
             (FleetDelta.place(instance, src), None, None)],
        )

    def _apply(self, actions, times: List[float]) -> None:
        for delta, row, values in actions:
            if row is not None:
                self.traces.matrix[row] = values
            started = time.perf_counter()
            with obs.span("engine.delta"):
                self.state.apply(delta)
            with obs.span("core.metrics"):
                self.scores.scores()
            with obs.span("infra.headroom"):
                self.headroom.headroom()
            times.append(time.perf_counter() - started)

    def _pass(self, index: int, times: List[float]) -> None:
        """Pass 0 generates the stream; even passes replay it, odd undo it."""
        if index == 0:
            for _ in range(self.STEPS):
                forward, inverse = self._next_step()
                self.steps.append((forward, inverse))
                self._apply(forward, times)
        elif index % 2 == 0:
            for forward, _ in self.steps:
                self._apply(forward, times)
        else:
            for _, inverse in reversed(self.steps):
                self._apply(inverse, times)

    def _passes(self, seconds: float, minimum: int, probe: Optional[HostProbe] = None):
        """Pass indices to run: at least ``minimum``, always an odd count."""
        count = 0
        for count, index in enumerate(_until(seconds, minimum, probe), start=1):
            yield index
        if count % 2 == 0:
            yield count
            if probe is not None:
                probe.sample()

    # -- checks and the closing remap -----------------------------------
    def _stream_problems(self, fresh: NodePowerView) -> List[str]:
        """Incremental view, scores and headroom == a full rebuild."""
        problems = []
        for node in self.topology.nodes():
            if not np.array_equal(
                self.view.node_trace(node.name).values, fresh.node_trace(node.name).values
            ):
                problems.append(f"aggregate of {node.name} differs from a rebuild")
        rebuilt_scores = node_asynchrony_scores(
            fresh.assignment, self.traces, Level.RPP, view=fresh
        )
        if self.scores.scores() != rebuilt_scores:
            problems.append("incremental RPP asynchrony scores differ from a rebuild")
        if self.headroom.headroom() != node_headroom(fresh):
            problems.append("incremental headroom differs from a rebuild")
        return problems

    def _remap(self, start):
        started = time.perf_counter()
        result = RemappingEngine(self.REMAP).run(start.assignment, self.traces)
        return result, time.perf_counter() - started

    def _finish(self, checks: Checks, n_deltas: int, traced: bool) -> Dict[str, float]:
        fresh = NodePowerView(self.topology, self.state.assignment(), self.traces)
        checks.record(self._stream_problems(fresh), units=n_deltas)
        metrics: Dict[str, float] = {}
        if traced:
            obs.reset_metrics()
            with obs.tracing() as tracer:
                result, remap_s = self._remap(fresh)
            remap_self_s = layer_times(tracer.roots, remap_s)["core.remapping.self_s"]
            metrics["core.remapping.self_s"] = remap_self_s
            metrics.update(remap_counters(remap_self_s))
        else:
            result, remap_s = self._remap(fresh)
        after = NodePowerView(self.topology, result.assignment, self.traces)
        reduction = peak_reduction_by_level(fresh, after)[Level.RPP]
        problems = placement_problems(result.assignment, self.ids)
        if self.full_size and not reduction > 0:
            problems.append(f"peak_reduction_rpp {reduction!r} is not positive")
        checks.record(problems)
        if not traced:
            metrics["peak_reduction_rpp"] = reduction
        return metrics

    def run(self, seconds: float) -> Outcome:
        checks, probe, times = Checks(), HostProbe(), []
        for index in self._passes(seconds, minimum=1, probe=probe):
            self._pass(index, times)
        metrics = self._finish(checks, len(times), traced=False)
        return checks.outcome(metrics, times, probe)

    def run_traced(self, seconds: float) -> Outcome:
        checks = Checks()
        untraced: List[float] = []
        traced: List[float] = []
        rows = []
        for index in self._passes(seconds, minimum=3):
            if index % 2 == 0:
                self._pass(index, untraced)
                continue
            obs.reset_metrics()
            times: List[float] = []
            with obs.tracing() as tracer:
                self._pass(index, times)
            traced.extend(times)
            row = {
                key: value / len(times)
                for key, value in layer_times(tracer.roots, sum(times)).items()
            }
            row["engine.delta.nodes_dirtied"] = obs.counter_value(
                "delta.nodes_dirtied"
            ) / obs.counter_value("delta.applied")
            rows.append(row)
        metrics = mean_rows(rows)
        metrics.update(self._finish(checks, len(untraced) + len(traced), traced=True))
        metrics["obs.overhead_frac"] = overhead(untraced, traced)
        return checks.outcome(metrics)


# ----------------------------------------------------------------------
# chaos_dc1_w2
# ----------------------------------------------------------------------
def _fingerprint(outcome) -> tuple:
    """The scenario's observable results; pooled and serial must agree."""
    run = outcome.reshaping
    power = run.scenario.total_power
    weights = np.arange(1.0, power.size + 1.0)
    return (
        outcome.scenario.name,
        outcome.passed,
        outcome.quality_clean,
        outcome.quality_chaos,
        outcome.placement_trips,
        outcome.dirty_missing_fraction,
        int(run.scenario.overload_steps()),
        float(np.dot(power, weights)),
        float(run.scenario.dropped_fraction()),
        len(run.recovery.trips_after),
        run.recovery.lc_energy_shed,
    )


class ChaosDC1W2:
    """DEFAULT_SUITE on DC1 through ``run_many(workers=2)``."""

    default_instances = 480
    ROUNDS = 5
    WORKERS = 2
    BUDGET_MARGIN = 0.05  # the chaos harness default

    def __init__(self, seed: int, instances: Optional[int]) -> None:
        # The suite keeps its own scenario seeds whatever the workload seed:
        # about a third of other seeds send repair_telemetry to its 32-pass
        # cap (see README.md), which would make suite time bimodal across
        # seeds.  DC1 has no seed parameter in get_datacenter.
        self.instances = instances or self.default_instances
        self.scenarios = DEFAULT_SUITE
        self.reference: Optional[List[tuple]] = None

    def setup(self, traced: bool) -> None:
        # Warm the dataset and clean-plan caches and one serial scenario
        # first: the pool forks afterwards, so its workers inherit them.
        dc = experiments.get_datacenter("DC1", n_instances=self.instances)
        self.study = experiments.run_placement_study(dc, budget_margin=self.BUDGET_MARGIN)
        run_chaos_scenario(self.scenarios[0], n_instances=self.instances)
        warm_pool(self.WORKERS)

    def close(self) -> None:
        shutdown_pools()

    def _suite(self, workers: int, checks: Checks):
        started = time.perf_counter()
        outcomes = run_chaos_suite(
            self.scenarios, n_instances=self.instances, workers=workers
        )
        elapsed = time.perf_counter() - started
        fingerprints = []
        for index, (scenario, outcome) in enumerate(zip(self.scenarios, outcomes)):
            problems = []
            if outcome is None:
                problems.append(f"{scenario.name}: run failed ({workers} workers)")
                fingerprint = None
            else:
                fingerprint = _fingerprint(outcome)
                if not outcome.passed:
                    problems.append(f"{scenario.name}: did not pass")
            if self.reference is not None and fingerprint != self.reference[index]:
                problems.append(
                    f"{scenario.name}: outcome with {workers} workers differs "
                    "from the first suite's"
                )
            fingerprints.append(fingerprint)
            checks.record(problems)
        if self.reference is None:
            self.reference = fingerprints
        return elapsed

    def run(self, seconds: float) -> Outcome:
        checks, probe = Checks(), HostProbe()
        times = [self._suite(self.WORKERS, checks) for _ in _until(seconds, probe=probe)]
        # Quality of the DC1 clean plan every scenario is judged against.
        quality = {"peak_reduction_rpp": self.study.report.peak_reduction[Level.RPP]}
        return checks.outcome(quality, times, probe)

    def run_traced(self, seconds: float) -> Outcome:
        checks = Checks()
        untraced, traced, rows = [], [], []
        for _ in _until(seconds):
            untraced.append(self._suite(self.WORKERS, checks))
            obs.reset_report()
            with obs.tracing():
                pooled = self._suite(self.WORKERS, checks)
            traced.append(pooled)
            stage = obs.build_report(include_spans=False)["stages"][-1]
            workers = stage["per_worker"].values()
            # The serial traced suite gives the layer split: one thread, so
            # its spans add up to its wall time.
            obs.reset_metrics()
            with obs.tracing() as tracer:
                serial = self._suite(1, checks)
            row = layer_times(tracer.roots, serial)
            row.update(work_counters())
            row.update(
                {
                    "engine.parallel.worker_busy_frac": statistics.mean(
                        worker["utilization"] for worker in workers
                    ),
                    "engine.parallel.queue_s": stage["mean_queue_s"],
                    "engine.parallel.imbalance": stage["imbalance"],
                    "engine.parallel.retries": stage["retries"],
                    "engine.parallel.speedup": serial / pooled,
                }
            )
            rows.append(row)
        metrics = mean_rows(rows)
        metrics["obs.overhead_frac"] = overhead(untraced, traced)
        return checks.outcome(metrics)


WORKLOADS = {"plan_dc3": PlanDC3, "adapt_dc3": AdaptDC3, "chaos_dc1_w2": ChaosDC1W2}


def make(name: str, *, seed: int, instances: Optional[int] = None):
    return WORKLOADS[name](seed, instances)
