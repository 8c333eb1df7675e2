"""Incremental placement adaptation via differential-score swaps (Sec. 3.6).

Mid/long-term workload drift slowly erodes a placement.  Rather than
re-running the full placer, SmoothOperator identifies the most fragmented
power node (lowest asynchrony score), finds its worst-fitting instance (the
lowest *differential asynchrony score*, Sec. 3.6), and swaps it with an
instance from another node — accepting the swap only if the differential
scores improve at *both* nodes involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..obs import events as obs_events
from ..infra.assignment import Assignment
from ..traces.traceset import TraceSet

#: Conventional period for the opt-in verification knob
#: (``RemapConfig.verify_every``).  Historically this forced a periodic
#: exact recomputation to correct the float drift of incremental ``+=``
#: aggregate patches; ``_NodeGroup.swap_member`` now applies each swap
#: exactly (a group-scoped recompute from member rows), so the period
#: only controls how often the optional cross-check harness runs.
RECOMPUTE_EVERY = 64


@dataclass(frozen=True)
class RemapConfig:
    """Tuning for the adaptation loop.

    Attributes
    ----------
    level:
        Tree level at which node fragmentation is evaluated (typically the
        RPP level — the leaves' parents — where fragmentation bites).
    max_swaps:
        Upper bound on accepted swaps per run.
    candidate_nodes:
        How many peer nodes (highest asynchrony first) to consider as swap
        partners for the worst node.
    candidate_instances:
        How many instances per partner node to evaluate.
    min_improvement:
        A swap must raise each node's differential score by at least this
        much to be accepted (hysteresis against churn).
    shard_level:
        When set (e.g. ``Level.SUITE`` or ``Level.MSB``), the swap loop
        runs independently inside each ``shard_level`` subtree: swaps never
        cross a shard boundary and ``max_swaps`` applies per shard.
        Mirrors the operational reality that
        migrations within a suite are cheap while cross-suite moves are
        not.  ``None`` (default) keeps the global single-loop behaviour.
    verify_every:
        Opt-in verification knob.  Every this many accepted swaps touching
        a group, cross-check the group's exactly-maintained aggregate and
        score caches against an independent from-scratch recomputation and
        raise if they diverge.  Swap application is exact, so this is a
        debugging/auditing harness, not a correctness requirement;
        :data:`RECOMPUTE_EVERY` is the conventional period.  ``None``
        (default) disables the checks.
    """

    level: str
    max_swaps: int = 50
    candidate_nodes: int = 4
    candidate_instances: int = 16
    min_improvement: float = 1e-3
    shard_level: Optional[str] = None
    verify_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_swaps < 0:
            raise ValueError("max_swaps cannot be negative")
        if self.candidate_nodes <= 0 or self.candidate_instances <= 0:
            raise ValueError("candidate counts must be positive")
        if self.min_improvement < 0:
            raise ValueError("min_improvement cannot be negative")
        if self.shard_level == self.level:
            raise ValueError("shard_level must differ from the swap level")
        if self.verify_every is not None and self.verify_every <= 0:
            raise ValueError("verify_every must be positive when set")


@dataclass(frozen=True)
class Swap:
    """One accepted instance exchange."""

    instance_a: str
    node_a: str
    instance_b: str
    node_b: str
    gain_a: float
    gain_b: float


@dataclass
class RemapResult:
    """Outcome of an adaptation run."""

    assignment: Assignment
    swaps: List[Swap] = field(default_factory=list)
    #: Final per-node aggregate value vectors.  Swap application is exact
    #: (each swap rebuilds the two touched groups from member rows), so
    #: these equal a from-scratch recomputation bit-for-bit.
    node_totals: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_swaps(self) -> int:
        return len(self.swaps)


class _NodeGroup:
    """Mutable per-node state: member ids, the aggregate, and score caches.

    Swaps are applied *exactly*: :meth:`swap_member` rebuilds ``total``
    from the new member rows (a recompute scoped to this one group), so
    there is no incremental-patch drift to correct, and the asynchrony /
    differential caches are simply invalidated for the two groups a swap
    touches.  Everything derived is lazy and cached — the swap loop's
    per-iteration cost depends on the two affected groups, not the fleet.
    """

    __slots__ = (
        "name",
        "members",
        "total",
        "_asynchrony",
        "_self_diffs",
        "_swaps_since_verify",
    )

    def __init__(self, name: str, members: List[str], traces: TraceSet) -> None:
        self.name = name
        self.members = list(members)
        self._swaps_since_verify = 0
        self.recompute(traces)

    def recompute(self, traces: TraceSet) -> None:
        """Rebuild ``total`` exactly from member rows; drop derived caches."""
        total = np.zeros(traces.grid.n_samples)
        for instance_id in self.members:
            total += traces.row(instance_id)
        self.total = total
        self._asynchrony: Optional[float] = None
        self._self_diffs: Optional[Dict[str, float]] = None

    def verify(self, traces: TraceSet) -> None:
        """Cross-check cached state against an independent recomputation.

        The opt-in ``RemapConfig.verify_every`` harness: raises if the
        exactly-maintained ``total`` or the cached asynchrony diverge from
        a from-scratch rebuild.
        """
        expected = np.zeros(traces.grid.n_samples)
        for instance_id in self.members:
            expected += traces.row(instance_id)
        if not np.array_equal(self.total, expected):
            raise RuntimeError(
                f"group {self.name}: aggregate diverged from member rows"
            )
        cached_asynchrony = self._asynchrony
        self._asynchrony = None
        fresh = self.asynchrony(traces)
        if cached_asynchrony is not None and cached_asynchrony != fresh:
            raise RuntimeError(
                f"group {self.name}: cached asynchrony diverged "
                f"({cached_asynchrony} != {fresh})"
            )
        obs.count("remap.verifications")

    def asynchrony(self, traces: TraceSet) -> float:
        if self._asynchrony is None:
            if not self.members:
                self._asynchrony = 1.0
            else:
                sum_peaks = sum(float(traces.row(i).max()) for i in self.members)
                aggregate_peak = float(self.total.max())
                self._asynchrony = (
                    sum_peaks / aggregate_peak if aggregate_peak > 0 else 1.0
                )
        return self._asynchrony

    def self_differentials(self, traces: TraceSet) -> Dict[str, float]:
        """AD of every member against its own group, cached until it changes."""
        if self._self_diffs is None:
            self._self_diffs = {
                instance_id: self.differential(
                    traces.row(instance_id), exclude=instance_id, traces=traces
                )
                for instance_id in self.members
            }
        return self._self_diffs

    def differential(self, instance_values: np.ndarray, *, exclude: Optional[str], traces: TraceSet) -> float:
        """AD of a (possibly external) instance against this node.

        ``exclude`` removes one current member from the group first — used
        to evaluate an incoming instance against the group it would join
        after the outgoing member departs.
        """
        rest_total = self.total.copy()
        count = len(self.members)
        if exclude is not None:
            rest_total -= traces.row(exclude)
            count -= 1
        if count <= 0:
            # Empty rest-group: the AD score's defined limit.  An all-zero
            # rest trace never coincides with the instance's peak, so the
            # score takes its best value, 2.0 — staying inside the [1, 2]
            # range instead of an out-of-range sentinel that would make the
            # swap loop prefer emptying a node over a genuine improvement.
            return 2.0
        rest = rest_total / count
        combined_peak = float((instance_values + rest).max())
        numerator = float(instance_values.max()) + float(rest.max())
        return numerator / combined_peak if combined_peak > 0 else 1.0

    def swap_member(self, outgoing: str, incoming: str, traces: TraceSet) -> None:
        """Apply a swap exactly: new membership, aggregate rebuilt from rows."""
        self.members.remove(outgoing)
        self.members.append(incoming)
        self._swaps_since_verify += 1
        self.recompute(traces)


class RemappingEngine:
    """Runs the Sec. 3.6 differential-score swap loop."""

    def __init__(self, config: RemapConfig) -> None:
        self.config = config

    def run(self, assignment: Assignment, traces: TraceSet) -> RemapResult:
        """Iteratively swap instances out of the most fragmented node.

        With :attr:`RemapConfig.shard_level` set, the loop runs
        independently inside each shard subtree, in shard order.
        """
        with obs.span(
            "remap",
            level=self.config.level,
            max_swaps=self.config.max_swaps,
        ):
            return self._run(assignment, traces)

    def _run(self, assignment: Assignment, traces: TraceSet) -> RemapResult:
        topology = assignment.topology
        if self.config.shard_level is None:
            groups = {
                node.name: _NodeGroup(
                    node.name, assignment.instances_under(node.name), traces
                )
                for node in topology.nodes_at_level(self.config.level)
                if assignment.instances_under(node.name)
            }
            if len(groups) < 2:
                return RemapResult(assignment=assignment)
            swaps, node_totals = self._swap_groups(groups, traces)
            return RemapResult(
                assignment=_apply_swaps(assignment, swaps),
                swaps=swaps,
                node_totals=node_totals,
            )

        all_swaps: List[Swap] = []
        node_totals: Dict[str, np.ndarray] = {}
        for members_by_node in self._shard_specs(assignment):
            shard_swaps, shard_totals = _remap_shard_groups(
                self, members_by_node, traces
            )
            all_swaps.extend(shard_swaps)
            node_totals.update(shard_totals)
        return RemapResult(
            assignment=_apply_swaps(assignment, all_swaps),
            swaps=all_swaps,
            node_totals=node_totals,
        )

    # ------------------------------------------------------------------
    def _shard_specs(self, assignment: Assignment) -> List[Dict[str, List[str]]]:
        """Per-shard ``{level-node name: member ids}`` maps, shard order."""
        from ..infra.topology import PowerTopology

        specs = []
        for shard in assignment.topology.nodes_at_level(self.config.shard_level):
            subtree = PowerTopology(shard)
            members_by_node = {
                node.name: assignment.instances_under(node.name)
                for node in subtree.nodes_at_level(self.config.level)
                if assignment.instances_under(node.name)
            }
            if members_by_node:
                specs.append(members_by_node)
        return specs

    # ------------------------------------------------------------------
    def _swap_groups(
        self, groups: Dict[str, _NodeGroup], traces: TraceSet
    ) -> "tuple[List[Swap], Dict[str, np.ndarray]]":
        """The Sec. 3.6 loop over one set of groups; swaps + final totals."""
        swaps: List[Swap] = []
        for _ in range(self.config.max_swaps):
            obs.count("remap.swaps_attempted")
            swap = self._best_swap(groups, traces)
            if swap is None:
                # No candidate cleared the hysteresis threshold: the loop
                # converged.  Recorded so operators can see *why* it stopped.
                obs_events.emit(
                    obs_events.SWAP_REJECT,
                    source="remapping",
                    level=self.config.level,
                    swaps_accepted=len(swaps),
                    min_improvement=self.config.min_improvement,
                )
                break
            groups[swap.node_a].swap_member(swap.instance_a, swap.instance_b, traces)
            groups[swap.node_b].swap_member(swap.instance_b, swap.instance_a, traces)
            if self.config.verify_every is not None:
                for group in (groups[swap.node_a], groups[swap.node_b]):
                    if group._swaps_since_verify >= self.config.verify_every:
                        group.verify(traces)
                        group._swaps_since_verify = 0
            swaps.append(swap)
            obs.count("remap.swaps_accepted")
            obs_events.emit(
                obs_events.SWAP_ACCEPT,
                source="remapping",
                instance_a=swap.instance_a,
                node_a=swap.node_a,
                instance_b=swap.instance_b,
                node_b=swap.node_b,
                gain_a=swap.gain_a,
                gain_b=swap.gain_b,
            )
        # No final recompute pass: swap application is exact, so every
        # group's ``total`` already equals a from-scratch rebuild.
        return swaps, {name: group.total for name, group in groups.items()}

    # ------------------------------------------------------------------
    def _best_swap(
        self, groups: Dict[str, _NodeGroup], traces: TraceSet
    ) -> Optional[Swap]:
        # Cached per-group scores: only the two groups the previous swap
        # touched were invalidated, so ranking the fleet costs O(groups),
        # not O(instances).
        ranked = sorted(groups.values(), key=lambda g: g.asynchrony(traces))
        worst = ranked[0]
        if len(worst.members) < 2:
            return None

        # Worst-fitting member of the worst node.
        diffs = worst.self_differentials(traces)
        outgoing = min(diffs.items(), key=lambda item: item[1])[0]
        outgoing_values = traces.row(outgoing)
        outgoing_score_here = diffs[outgoing]

        partners = [g for g in reversed(ranked) if g.name != worst.name]
        for partner in partners[: self.config.candidate_nodes]:
            if len(partner.members) < 2:
                continue
            candidates = self._candidate_instances(partner, traces)
            for incoming in candidates:
                obs.count("remap.candidates_evaluated")
                incoming_values = traces.row(incoming)
                incoming_score_there = partner.self_differentials(traces)[incoming]
                # Scores after the hypothetical exchange.
                incoming_at_worst = worst.differential(
                    incoming_values, exclude=outgoing, traces=traces
                )
                outgoing_at_partner = partner.differential(
                    outgoing_values, exclude=incoming, traces=traces
                )
                gain_worst = incoming_at_worst - outgoing_score_here
                gain_partner = outgoing_at_partner - incoming_score_there
                if (
                    gain_worst > self.config.min_improvement
                    and gain_partner > self.config.min_improvement
                ):
                    return Swap(
                        instance_a=outgoing,
                        node_a=worst.name,
                        instance_b=incoming,
                        node_b=partner.name,
                        gain_a=gain_worst,
                        gain_b=gain_partner,
                    )
        return None

    def _candidate_instances(self, group: _NodeGroup, traces: TraceSet) -> List[str]:
        """Partner-node members most synchronous with their own node first.

        Those contribute most to the partner's peak, so moving them out is
        likeliest to help both sides.  Rides the group's cached
        self-differentials, so an unchanged partner costs nothing to rank.
        """
        scored = [
            (score, instance_id)
            for instance_id, score in group.self_differentials(traces).items()
        ]
        scored.sort()
        return [instance_id for _, instance_id in scored[: self.config.candidate_instances]]


# ----------------------------------------------------------------------
# shard execution helpers
# ----------------------------------------------------------------------
def _apply_swaps(assignment: Assignment, swaps: List[Swap]) -> Assignment:
    """Replay accepted swaps onto an assignment, in acceptance order."""
    current = assignment
    for swap in swaps:
        current = current.with_swap(swap.instance_a, swap.instance_b)
    return current


def _remap_shard_groups(
    engine: RemappingEngine,
    members_by_node: Dict[str, List[str]],
    traces: TraceSet,
) -> "tuple[List[Swap], Dict[str, np.ndarray]]":
    """Run one shard's swap loop (or just compute totals for a lone group)."""
    groups = {
        name: _NodeGroup(name, members, traces)
        for name, members in members_by_node.items()
    }
    if len(groups) < 2:
        # Nothing to swap against inside this shard; totals still reported.
        return [], {name: group.total for name, group in groups.items()}
    return engine._swap_groups(groups, traces)
