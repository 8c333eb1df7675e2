"""Power aggregation over the tree: per-node traces, peaks, fragmentation.

Given a topology, a placement, and the fleet's traces, a
:class:`NodePowerView` computes the aggregate power trace at every node
bottom-up (each node's trace is the sum of its children's).  All of the
paper's fragmentation metrics — per-level sums of peaks (Sec. 2.2 metric 1),
power/energy slack (metric 2) — read off this view.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .. import obs
from ..traces.series import PowerTrace
from ..traces.traceset import TraceSet
from .assignment import Assignment
from .topology import PowerNode, PowerTopology


class NodePowerView:
    """Aggregate power at every node of a tree under one placement.

    Beyond the one-shot bottom-up build, the view is an incremental index:
    :meth:`apply_delta` ingests a
    :class:`~repro.engine.delta.FleetDelta` and recomputes only the dirty
    subtree — each dirty node with the *identical* expression the full
    build uses, so the incrementally maintained aggregates (and the cached
    per-node peaks) stay bit-identical to a from-scratch rebuild.
    """

    def __init__(
        self,
        topology: PowerTopology,
        assignment: Assignment,
        traces: TraceSet,
    ) -> None:
        if assignment.topology is not topology:
            # Allow equal-but-distinct topologies only if node names agree.
            theirs = {n.name for n in assignment.topology.nodes()}
            ours = {n.name for n in topology.nodes()}
            if theirs != ours:
                raise ValueError("assignment refers to a different topology")
        missing = [i for i in assignment.instance_ids() if i not in traces]
        if missing:
            raise ValueError(f"assignment places instances without traces: {missing[:5]}")
        self.topology = topology
        self.assignment = assignment
        self.traces = traces
        self._node_values: Dict[str, np.ndarray] = {}
        # Live membership for the incremental path.  After deltas these
        # lists are authoritative; ``self.assignment`` keeps the as-built
        # placement (materialize the current one via
        # :meth:`materialized_assignment`).
        self._leaf_members: Dict[str, List[str]] = {
            leaf.name: assignment.instances_on_leaf(leaf.name)
            for leaf in topology.leaves()
        }
        self._leaf_of: Dict[str, str] = {
            instance_id: leaf_name
            for leaf_name, members in self._leaf_members.items()
            for instance_id in members
        }
        self._peaks: Dict[str, float] = {}
        self._version = 0
        self._last_dirty: Tuple[str, ...] = ()
        # Reverse pre-order visits every child before its parent.
        for node in reversed(topology.nodes()):
            self._node_values[node.name] = self._compute_node(node)

    def _compute_node(self, node: PowerNode) -> np.ndarray:
        """One node's aggregate from current members / child aggregates.

        The single source of truth for both the full build and the
        incremental path — sharing the expression is what makes the two
        bit-identical.
        """
        if node.is_leaf:
            members = self._leaf_members[node.name]
            if members:
                # Fancy-index the TraceSet matrix and reduce once — far
                # fewer Python-level passes than adding row by row.
                rows = [self.traces.index_of(i) for i in members]
                return self.traces.matrix[rows].sum(axis=0)
            return np.zeros(self.traces.grid.n_samples)
        return np.sum(
            [self._node_values[child.name] for child in node.children], axis=0
        )

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Number of deltas applied to this view."""
        return self._version

    @property
    def last_dirty(self) -> Tuple[str, ...]:
        """Node names dirtied (and refreshed) by the most recent delta."""
        return self._last_dirty

    def apply_delta(self, delta) -> List[str]:
        """Apply a :class:`~repro.engine.delta.FleetDelta` to the view.

        Updates the live membership, then recomputes exactly the dirty
        subtree — touched leaves from member rows, their ancestors from
        child aggregates, deepest first — and invalidates the cached peaks
        of those nodes.  Returns the dirty node names (root-first per
        touched leaf, first-touch order).
        """
        for move in delta.moves:
            instance_id = move.instance_id
            if move.src_leaf is not None:
                if self._leaf_of.get(instance_id) != move.src_leaf:
                    raise ValueError(
                        f"{instance_id!r} is not on leaf {move.src_leaf!r}"
                    )
                self._leaf_members[move.src_leaf].remove(instance_id)
                del self._leaf_of[instance_id]
            if move.dst_leaf is not None:
                if move.dst_leaf not in self._leaf_members:
                    raise KeyError(f"{move.dst_leaf!r} is not a leaf")
                if instance_id in self._leaf_of:
                    raise ValueError(f"{instance_id!r} is already placed")
                if instance_id not in self.traces:
                    raise ValueError(f"{instance_id!r} has no trace")
                self._leaf_members[move.dst_leaf].append(instance_id)
                self._leaf_of[instance_id] = move.dst_leaf
        touched = delta.touched_leaves(self._leaf_of)

        dirty: List[str] = []
        seen = set()
        for leaf_name in touched:
            for node in self.topology.path_from_root(leaf_name):
                if node.name not in seen:
                    seen.add(node.name)
                    dirty.append(node.name)
        # Children before parents: recompute deepest nodes first.
        for name in sorted(dirty, key=self.topology.depth, reverse=True):
            node = self.topology.node(name)
            self._node_values[name] = self._compute_node(node)
            self._peaks.pop(name, None)
        self._version += 1
        self._last_dirty = tuple(dirty)
        obs.count("delta.view_nodes_recomputed", len(dirty))
        return dirty

    def member_ids(self, leaf_name: str) -> List[str]:
        """Current members of a leaf, in arrival order (a copy)."""
        if leaf_name not in self._leaf_members:
            raise KeyError(f"{leaf_name!r} is not a leaf")
        return list(self._leaf_members[leaf_name])

    def materialized_assignment(self) -> Assignment:
        """The current (post-delta) placement as an immutable Assignment.

        Leaves in topology order, members in arrival order — rebuilding a
        view from the result reproduces this view's state bit-for-bit.
        """
        mapping = {
            instance_id: leaf_name
            for leaf_name, members in self._leaf_members.items()
            for instance_id in members
        }
        return Assignment(self.topology, mapping)

    # ------------------------------------------------------------------
    def node_trace(self, node_name: str) -> PowerTrace:
        self.topology.node(node_name)  # validate
        return PowerTrace(self.traces.grid, self._node_values[node_name].copy())

    def node_peak(self, node_name: str) -> float:
        self.topology.node(node_name)
        try:
            return self._peaks[node_name]
        except KeyError:
            peak = float(self._node_values[node_name].max())
            self._peaks[node_name] = peak
            return peak

    def node_mean(self, node_name: str) -> float:
        self.topology.node(node_name)
        return float(self._node_values[node_name].mean())

    # ------------------------------------------------------------------
    # fragmentation metrics (Sec. 2.2)
    # ------------------------------------------------------------------
    def peaks_at_level(self, level: str) -> Dict[str, float]:
        return {
            node.name: self.node_peak(node.name)
            for node in self.topology.nodes_at_level(level)
        }

    def sum_of_peaks(self, level: str) -> float:
        """Σ over level nodes of each node's aggregate peak — metric 1."""
        return float(sum(self.peaks_at_level(level).values()))

    def sum_of_peaks_by_level(self) -> Dict[str, float]:
        return {level: self.sum_of_peaks(level) for level in self.topology.levels()}

    def node_percentile(self, node_name: str, q: float) -> float:
        """The ``q``-th percentile of the node's aggregate trace."""
        self.topology.node(node_name)
        return float(np.percentile(self._node_values[node_name], q))

    # ------------------------------------------------------------------
    # slack metrics (Sec. 2.2 Eq. 1-2; requires budgets on nodes)
    # ------------------------------------------------------------------
    def power_slack(self, node_name: str) -> np.ndarray:
        node = self.topology.node(node_name)
        if node.budget_watts is None:
            raise ValueError(f"node {node_name} has no budget assigned")
        return self.node_trace(node_name).power_slack(node.budget_watts)

    def energy_slack(self, node_name: str) -> float:
        node = self.topology.node(node_name)
        if node.budget_watts is None:
            raise ValueError(f"node {node_name} has no budget assigned")
        return self.node_trace(node_name).energy_slack(node.budget_watts)

    def utilization(self, node_name: str) -> float:
        """Mean power / budget at a node — fraction of budget doing work."""
        node = self.topology.node(node_name)
        if node.budget_watts is None:
            raise ValueError(f"node {node_name} has no budget assigned")
        if node.budget_watts == 0:
            return 0.0
        return self.node_mean(node_name) / node.budget_watts


def peak_reduction_by_level(
    before: NodePowerView, after: NodePowerView
) -> Dict[str, float]:
    """Fractional sum-of-peaks reduction per level (Figure 10's y-axis).

    Positive values mean ``after`` fragments less than ``before``.
    """
    reductions: Dict[str, float] = {}
    for level in before.topology.levels():
        peak_before = before.sum_of_peaks(level)
        peak_after = after.sum_of_peaks(level)
        if peak_before == 0:
            reductions[level] = 0.0
        else:
            reductions[level] = (peak_before - peak_after) / peak_before
    return reductions
