"""Headroom analysis: how many extra servers the unlocked budget hosts.

The paper's headline placement result — "host up to 13% more machines ...
without changing the underlying power infrastructure" — is the translation
of per-node peak reductions into server counts.  An extra server draws power
through *every* ancestor node, so the number that fits at a leaf is limited
by the scarcest headroom along its root path.  :func:`plan_expansion` runs
that hierarchy-aware greedy fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .aggregation import NodePowerView


@dataclass(frozen=True)
class ExpansionPlan:
    """Result of a headroom fill.

    Attributes
    ----------
    extra_per_leaf:
        Extra servers placed at each leaf.
    per_server_watts:
        Peak power reserved per extra server.
    original_count:
        Number of instances already placed (for the percentage).
    """

    extra_per_leaf: Dict[str, int]
    per_server_watts: float
    original_count: int

    @property
    def total_extra(self) -> int:
        return sum(self.extra_per_leaf.values())

    @property
    def expansion_fraction(self) -> float:
        """Extra servers as a fraction of the original fleet (the "13%")."""
        if self.original_count == 0:
            return 0.0
        return self.total_extra / self.original_count


def node_headroom(
    view: NodePowerView,
    *,
    reserve: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Budget minus observed peak for every budgeted node.

    ``reserve`` optionally subtracts a per-node charge from the headroom
    before flooring at zero — e.g. the top-Γ spike-radius sum from
    :func:`repro.robust.headroom.robust_node_loads`, so expansion planning
    never hands out headroom the robust accounting has already promised to
    spikes.
    """
    headroom: Dict[str, float] = {}
    for node in view.topology.nodes():
        if node.budget_watts is None:
            continue
        reserved = reserve.get(node.name, 0.0) if reserve else 0.0
        headroom[node.name] = max(
            0.0, node.budget_watts - view.node_peak(node.name) - reserved
        )
    return headroom


class HeadroomIndex:
    """Per-node nominal headroom maintained under deltas.

    The incremental counterpart of :func:`node_headroom`: instead of a
    full ``recompute()`` after every placement action, call
    :meth:`apply` with the :class:`~repro.engine.delta.FleetDelta` that
    describes the action and only the dirtied budgeted nodes' entries are
    refreshed — with the identical expression the full pass uses, so
    :meth:`headroom` stays bit-identical to ``node_headroom`` over a
    freshly rebuilt view.

    The index drives its view, but shares it safely with other
    subscribers via the view's delta version (whoever sees the delta
    first advances the view; later subscribers reuse ``last_dirty``).
    """

    def __init__(
        self,
        view: NodePowerView,
        *,
        reserve: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.view = view
        self.reserve = dict(reserve) if reserve else {}
        self._seen_version = view.version
        self._budgets: Dict[str, float] = {
            node.name: node.budget_watts
            for node in view.topology.nodes()
            if node.budget_watts is not None
        }
        self._values: Dict[str, float] = {
            name: self._entry(name) for name in self._budgets
        }

    def _entry(self, node_name: str) -> float:
        reserved = self.reserve.get(node_name, 0.0) if self.reserve else 0.0
        return max(
            0.0, self._budgets[node_name] - self.view.node_peak(node_name) - reserved
        )

    # ------------------------------------------------------------------
    def apply(self, delta) -> None:
        """Apply a delta: refresh headroom for the dirtied budgeted nodes."""
        if self.view.version == self._seen_version:
            dirty = self.view.apply_delta(delta)
        elif self.view.version == self._seen_version + 1:
            dirty = list(self.view.last_dirty)
        else:
            raise RuntimeError(
                "view advanced more than one delta ahead of this index"
            )
        self._seen_version = self.view.version
        for name in dirty:
            if name in self._values:
                self._values[name] = self._entry(name)

    #: Subscriber-protocol alias — :class:`~repro.engine.delta.PlacementState`
    #: fan-out calls ``apply_delta``.
    apply_delta = apply

    def headroom(self) -> Dict[str, float]:
        """Current headroom of every budgeted node (topology node order)."""
        return dict(self._values)

    def verify(self) -> None:
        """Cross-check against a full :func:`node_headroom` pass; raise on drift."""
        fresh = node_headroom(self.view, reserve=self.reserve or None)
        if fresh != self._values:
            raise RuntimeError("incremental headroom diverged from full recompute")


def plan_expansion(
    view: NodePowerView,
    per_server_watts: float,
    *,
    respect_leaf_capacity: bool = False,
) -> ExpansionPlan:
    """Greedily fill leaves with extra servers within every ancestor's headroom.

    Every node on the path from a leaf to the root must retain non-negative
    headroom after each extra server is reserved ``per_server_watts`` of peak
    power.  Leaves are visited in descending-headroom order so the fill lands
    where the placement freed the most budget.

    Parameters
    ----------
    view:
        Post-optimisation power view with budgets assigned on all nodes.
    per_server_watts:
        Peak power reserved per added server (conservative: its full peak,
        since a new server's phase behaviour is unknown at planning time).
    respect_leaf_capacity:
        If True, also honour each leaf's physical slot capacity.
    """
    if per_server_watts <= 0:
        raise ValueError("per_server_watts must be positive")
    headroom = node_headroom(view)
    unbudgeted = [n.name for n in view.topology.nodes() if n.budget_watts is None]
    if unbudgeted:
        raise ValueError(f"nodes without budgets: {unbudgeted[:5]}")

    leaves = sorted(
        view.topology.leaves(), key=lambda leaf: headroom[leaf.name], reverse=True
    )
    extra: Dict[str, int] = {leaf.name: 0 for leaf in view.topology.leaves()}
    for leaf in leaves:
        path = [node.name for node in view.topology.path_from_root(leaf.name)]
        fit = int(min(headroom[name] for name in path) // per_server_watts)
        if respect_leaf_capacity and leaf.capacity is not None:
            used = len(view.assignment.instances_on_leaf(leaf.name))
            fit = min(fit, max(0, leaf.capacity - used))
        if fit <= 0:
            continue
        extra[leaf.name] = fit
        for name in path:
            headroom[name] -= fit * per_server_watts
    return ExpansionPlan(
        extra_per_leaf=extra,
        per_server_watts=per_server_watts,
        original_count=len(view.assignment),
    )
