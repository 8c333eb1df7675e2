"""Hierarchical power capping — the Dynamo-style safety substrate.

The paper delegates short-term power spikes to "commonly deployed emergency
measures such as power capping solutions [Dynamo]" (Sec. 3.6) and argues
that with an oblivious placement, latency-critical nodes "need to be
largely capped, even when there are still ample amounts of power headroom
at other leaf nodes" (Sec. 1).  This module implements that capping loop so
the claim can be *measured*: walk the tree bottom-up at every time step,
and wherever a node exceeds its budget, shed the excess from the servers
beneath it — batch first, storage/other second, latency-critical last, each
class down to a floor.

The headline metric is **LC energy shed**: work taken away from user-facing
services, the paper's proxy for QoS damage.

:meth:`repro.engine.Engine.recover` drives this loop as the emergency
fallback of the chaos scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import events as obs_events
from ..traces.instance import ServiceKind
from ..traces.traceset import TraceSet
from ..infra.assignment import Assignment
from ..infra.topology import PowerNode, PowerTopology

#: Capping order: who gets throttled first when a node is over budget.
DEFAULT_PRIORITY: Tuple[str, ...] = (
    ServiceKind.BATCH,
    ServiceKind.OTHER,
    ServiceKind.STORAGE,
    ServiceKind.LATENCY_CRITICAL,
)


@dataclass(frozen=True)
class CappingPolicy:
    """How much of each class's *dynamic* power capping may shed.

    Floors are fractions of the instantaneous draw that must be preserved:
    batch can be throttled deeply, latency-critical only lightly (capping
    LC is exactly the QoS damage operators dread).
    """

    floors: Mapping[str, float] = field(
        default_factory=lambda: {
            ServiceKind.BATCH: 0.4,
            ServiceKind.OTHER: 0.5,
            ServiceKind.STORAGE: 0.7,
            ServiceKind.LATENCY_CRITICAL: 0.7,
        }
    )
    priority: Tuple[str, ...] = DEFAULT_PRIORITY

    def __post_init__(self) -> None:
        for kind, floor in self.floors.items():
            if not 0.0 <= floor <= 1.0:
                raise ValueError(f"floor for {kind} must be in [0, 1], got {floor}")
        if set(self.priority) != set(ServiceKind.ALL):
            raise ValueError("priority must order every service kind exactly once")

    def floor_for(self, kind: str) -> float:
        return self.floors.get(kind, 1.0)


@dataclass
class NodeCappingStats:
    """Per-node capping outcome over the simulated span."""

    node_name: str
    event_steps: int
    shed_by_kind: Dict[str, float]
    residual_overload_steps: int

    @property
    def total_shed(self) -> float:
        return sum(self.shed_by_kind.values())


@dataclass
class CappingReport:
    """Fleet-wide capping outcome.

    ``shed_by_kind`` is in watt-samples; multiply by the grid step for
    watt-minutes.  ``lc_energy_shed`` is the QoS-damage headline.
    """

    step_minutes: int
    nodes: Dict[str, NodeCappingStats]
    shed_by_kind: Dict[str, float]
    total_event_steps: int
    residual_overload_steps: int

    @property
    def lc_energy_shed(self) -> float:
        """Latency-critical energy shed, in watt-minutes."""
        return self.shed_by_kind.get(ServiceKind.LATENCY_CRITICAL, 0.0) * self.step_minutes

    @property
    def batch_energy_shed(self) -> float:
        return self.shed_by_kind.get(ServiceKind.BATCH, 0.0) * self.step_minutes

    @property
    def total_energy_shed(self) -> float:
        return sum(self.shed_by_kind.values()) * self.step_minutes

    def capped_nodes(self) -> List[str]:
        return [name for name, stats in self.nodes.items() if stats.event_steps > 0]


class CappingSimulator:
    """Simulates hierarchical capping of one placement against node budgets.

    Every node of the topology must carry a budget.  The simulator is
    side-effect free: the input traces are not modified.
    """

    def __init__(
        self,
        topology: PowerTopology,
        assignment: Assignment,
        traces: TraceSet,
        kinds: Mapping[str, str],
        *,
        policy: Optional[CappingPolicy] = None,
    ) -> None:
        missing_budget = [n.name for n in topology.nodes() if n.budget_watts is None]
        if missing_budget:
            raise ValueError(f"nodes without budgets: {missing_budget[:5]}")
        unknown_kind = [
            i for i in assignment.instance_ids() if kinds.get(i) not in ServiceKind.ALL
        ]
        if unknown_kind:
            raise ValueError(f"instances without a valid kind: {unknown_kind[:5]}")
        self.topology = topology
        self.assignment = assignment
        self.traces = traces
        self.kinds = dict(kinds)
        self.policy = policy if policy is not None else CappingPolicy()

    # ------------------------------------------------------------------
    def run(self) -> CappingReport:
        """Run the capping loop over the whole trace span."""
        report, _ = self._run()
        return report

    def run_capped(self) -> Tuple[CappingReport, TraceSet]:
        """Like :meth:`run`, but also return the post-capping traces.

        The second element holds every placed instance's draw *after* the
        caps bit — what the servers actually drew.  Used by the emergency
        fallback of :mod:`repro.engine` to rebuild a power-safe scenario
        from the capped components.
        """
        report, values = self._run()
        return report, TraceSet(
            self.traces.grid, self.assignment.instance_ids(), values
        )

    def _run(self) -> Tuple[CappingReport, np.ndarray]:
        # Working copy of every placed instance's draw, mutated as caps bite.
        ids = self.assignment.instance_ids()
        index_of = {instance_id: row for row, instance_id in enumerate(ids)}
        values = np.vstack([self.traces.row(i) for i in ids]).copy()

        members_under: Dict[str, List[int]] = {}
        for node in self.topology.nodes():
            members_under[node.name] = [
                index_of[i] for i in self.assignment.instances_under(node.name)
            ]

        node_stats: Dict[str, NodeCappingStats] = {}
        shed_totals: Dict[str, float] = {kind: 0.0 for kind in ServiceKind.ALL}
        residual_total = 0

        # Bottom-up: cap at the leaves first (that is where breakers live
        # closest to servers), then resolve what is left at each ancestor.
        for node in self._postorder(self.topology.root):
            rows = members_under[node.name]
            if not rows:
                node_stats[node.name] = NodeCappingStats(node.name, 0, {}, 0)
                continue
            aggregate = values[rows].sum(axis=0)
            excess = np.maximum(aggregate - node.budget_watts, 0.0)
            events = int(np.count_nonzero(excess > 1e-9))
            shed_by_kind: Dict[str, float] = {}
            if events:
                remaining = excess.copy()
                for kind in self.policy.priority:
                    kind_rows = [r for r in rows if self.kinds[ids[r]] == kind]
                    if not kind_rows:
                        continue
                    shed = self._shed_class(values, kind_rows, remaining, kind)
                    if shed > 0:
                        shed_by_kind[kind] = shed
                        shed_totals[kind] += shed
                    if not np.any(remaining > 1e-9):
                        break
                residual = int(np.count_nonzero(remaining > 1e-9))
            else:
                residual = 0
            residual_total += residual
            node_stats[node.name] = NodeCappingStats(
                node_name=node.name,
                event_steps=events,
                shed_by_kind=shed_by_kind,
                residual_overload_steps=residual,
            )
            if events:
                obs_events.emit(
                    obs_events.CAPPING,
                    severity="warning" if residual == 0 else "critical",
                    source="engine.capping",
                    node=node.name,
                    event_steps=events,
                    shed_by_kind=dict(shed_by_kind),
                    residual_overload_steps=residual,
                )

        report = CappingReport(
            step_minutes=self.traces.grid.step_minutes,
            nodes=node_stats,
            shed_by_kind={k: v for k, v in shed_totals.items() if v > 0},
            total_event_steps=sum(s.event_steps for s in node_stats.values()),
            residual_overload_steps=residual_total,
        )
        return report, values

    # ------------------------------------------------------------------
    def _shed_class(
        self,
        values: np.ndarray,
        kind_rows: Sequence[int],
        remaining: np.ndarray,
        kind: str,
    ) -> float:
        """Shed as much of ``remaining`` as the class floor allows.

        Members of the class are scaled uniformly (a proportional cap, the
        common Dynamo allocation).  Mutates ``values`` and ``remaining``;
        returns the watt-samples shed.
        """
        class_power = values[kind_rows].sum(axis=0)
        reducible = class_power * (1.0 - self.policy.floor_for(kind))
        shed = np.minimum(remaining, reducible)
        active = shed > 1e-12
        if not np.any(active):
            return 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                active & (class_power > 0), 1.0 - shed / np.maximum(class_power, 1e-12), 1.0
            )
        values[kind_rows] *= scale[np.newaxis, :]
        remaining -= shed
        return float(shed.sum())

    @staticmethod
    def _postorder(node: PowerNode):
        for child in node.children:
            yield from CappingSimulator._postorder(child)
        yield node


def compare_capping(
    reports: Mapping[str, CappingReport]
) -> List[Tuple[str, float, float, int]]:
    """Rank placements by LC energy shed (the QoS-damage headline).

    Returns ``(label, lc_shed_watt_minutes, total_shed, event_steps)``
    sorted best (least LC shed) first.
    """
    rows = [
        (
            label,
            report.lc_energy_shed,
            report.total_energy_shed,
            report.total_event_steps,
        )
        for label, report in reports.items()
    ]
    return sorted(rows, key=lambda row: row[1])
