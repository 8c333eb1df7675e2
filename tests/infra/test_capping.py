"""Unit tests for the hierarchical power-capping simulator."""

import numpy as np
import pytest

from repro.infra import (
    Assignment,
    CappingPolicy,
    CappingSimulator,
    build_topology,
    compare_capping,
    two_level_spec,
)
from repro.obs import events
from repro.traces import ServiceKind, TimeGrid, TraceSet


@pytest.fixture
def grid():
    return TimeGrid(0, 60, 24)


def scene(grid, lc_level=10.0, batch_level=10.0, budget=25.0):
    """One leaf with one LC and one batch instance, fixed levels."""
    topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=4))
    traces = TraceSet(
        grid,
        ["lc", "batch"],
        np.vstack([np.full(24, lc_level), np.full(24, batch_level)]),
    )
    assignment = Assignment(topo, {"lc": "dc/rpp0", "batch": "dc/rpp0"})
    for node in topo.nodes():
        node.budget_watts = budget
    kinds = {"lc": ServiceKind.LATENCY_CRITICAL, "batch": ServiceKind.BATCH}
    return topo, assignment, traces, kinds


class TestPolicy:
    def test_floor_validation(self):
        with pytest.raises(ValueError):
            CappingPolicy(floors={ServiceKind.BATCH: 1.5})

    def test_priority_validation(self):
        with pytest.raises(ValueError):
            CappingPolicy(priority=(ServiceKind.BATCH,))

    def test_default_priority_caps_batch_first(self):
        policy = CappingPolicy()
        assert policy.priority[0] == ServiceKind.BATCH
        assert policy.priority[-1] == ServiceKind.LATENCY_CRITICAL


class TestSimulator:
    def test_no_capping_under_budget(self, grid):
        topo, assignment, traces, kinds = scene(grid, budget=25.0)
        report = CappingSimulator(topo, assignment, traces, kinds).run()
        assert report.total_event_steps == 0
        assert report.total_energy_shed == 0.0

    def test_batch_capped_first(self, grid):
        # Aggregate 20 W, budget 17 W: 3 W must go, batch can give up to
        # 6 W (floor 0.4), so LC is untouched.
        topo, assignment, traces, kinds = scene(grid, budget=17.0)
        with events.recording() as log:
            report = CappingSimulator(topo, assignment, traces, kinds).run()
        assert report.batch_energy_shed > 0
        assert report.lc_energy_shed == 0.0
        capping = log.by_kind(events.CAPPING)
        assert capping
        assert {event.source for event in capping} == {"engine.capping"}

    def test_lc_capped_when_batch_exhausted(self, grid):
        # Budget 12 W: 8 W must go; batch can shed 6 W, LC sheds the rest.
        topo, assignment, traces, kinds = scene(grid, budget=12.0)
        report = CappingSimulator(topo, assignment, traces, kinds).run()
        assert report.batch_energy_shed > 0
        assert report.lc_energy_shed > 0

    def test_residual_when_floors_bind(self, grid):
        # Budget 5 W on a 20 W draw: even full capping cannot comply.
        topo, assignment, traces, kinds = scene(grid, budget=5.0)
        report = CappingSimulator(topo, assignment, traces, kinds).run()
        assert report.residual_overload_steps > 0

    def test_shed_amount_exact(self, grid):
        topo, assignment, traces, kinds = scene(grid, budget=17.0)
        report = CappingSimulator(topo, assignment, traces, kinds).run()
        # 3 W for 24 steps of 60 minutes.
        assert report.batch_energy_shed == pytest.approx(3 * 24 * 60, rel=1e-6)

    def test_leaf_capping_relieves_parent(self, grid):
        """After leaf-level capping the root sees the reduced draw."""
        topo, assignment, traces, kinds = scene(grid, budget=17.0)
        topo.node("dc").budget_watts = 18.0  # above the capped leaf draw
        report = CappingSimulator(topo, assignment, traces, kinds).run()
        assert report.nodes["dc"].event_steps == 0

    def test_requires_budgets(self, grid):
        topo, assignment, traces, kinds = scene(grid)
        topo.node("dc").budget_watts = None
        with pytest.raises(ValueError):
            CappingSimulator(topo, assignment, traces, kinds)

    def test_requires_kinds(self, grid):
        topo, assignment, traces, kinds = scene(grid)
        with pytest.raises(ValueError):
            CappingSimulator(topo, assignment, traces, {"lc": "mystery"})

    def test_input_traces_not_mutated(self, grid):
        topo, assignment, traces, kinds = scene(grid, budget=12.0)
        before = traces.matrix.copy()
        CappingSimulator(topo, assignment, traces, kinds).run()
        assert np.array_equal(traces.matrix, before)


class TestCompare:
    def test_ranking(self, grid):
        topo, assignment, traces, kinds = scene(grid, budget=12.0)
        bad = CappingSimulator(topo, assignment, traces, kinds).run()
        topo2, assignment2, traces2, kinds2 = scene(grid, budget=17.0)
        good = CappingSimulator(topo2, assignment2, traces2, kinds2).run()
        rows = compare_capping({"bad": bad, "good": good})
        assert rows[0][0] == "good"
        assert rows[0][1] <= rows[1][1]
