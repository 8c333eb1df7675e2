"""Delta-driven fleet state: the incremental-state substrate (Sec. 3.6 online loop).

The paper's deployment is a continuous control loop: instances move one
swap at a time, traces refresh one instance at a time, and every consumer
(aggregates, asynchrony scores, headroom, monitors) needs the *new* fleet
state after each step.  Recomputing the whole fleet per step is O(fleet);
this module provides the O(affected subtree) alternative:

* :class:`Move` / :class:`FleetDelta` — immutable descriptions of what
  changed: instance placements (arrivals, departures, moves, swaps) and
  in-place trace refreshes.
* :func:`dirty_nodes` — the set of power-tree nodes whose aggregate state
  a delta invalidates: the union of the touched leaves' root paths.
* :class:`PlacementState` — the single owner of the live placement.  It
  validates and applies each delta to its own mapping, fans the delta out
  to registered indices (:meth:`~repro.infra.aggregation.NodePowerView.apply_delta`,
  :class:`~repro.core.metrics.AsynchronyIndex`,
  :class:`~repro.infra.headroom.HeadroomIndex`,
  :class:`~repro.robust.headroom.RobustHeadroomIndex`, monitors), and
  emits the ``delta.*`` counters so run reports show how much of the work
  went through the incremental path.

The contract throughout is *exactness*, not approximation: every index
applies a delta by recomputing its dirty entries with the identical
expressions (and identical member orderings) the full rebuild uses, so
any delta sequence yields bit-identical state to a from-scratch pass —
pinned by the golden parity and hypothesis suites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .. import obs

__all__ = [
    "FleetDelta",
    "Move",
    "PlacementState",
    "dirty_nodes",
]


@dataclass(frozen=True)
class Move:
    """One instance placement change.

    ``src_leaf=None`` describes an arrival (first placement), and
    ``dst_leaf=None`` a departure; both set is an ordinary move.
    """

    instance_id: str
    src_leaf: Optional[str]
    dst_leaf: Optional[str]

    def __post_init__(self) -> None:
        if self.src_leaf is None and self.dst_leaf is None:
            raise ValueError("a move needs a source and/or a destination leaf")
        if self.src_leaf == self.dst_leaf:
            raise ValueError("source and destination leaves are identical")


@dataclass(frozen=True)
class FleetDelta:
    """An immutable batch of placement moves and in-place trace refreshes.

    ``trace_updates`` names instances whose rows in the (shared, mutable)
    trace matrix were rewritten in place: membership is unchanged but every
    aggregate containing them is stale.
    """

    moves: Tuple[Move, ...] = ()
    trace_updates: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for move in self.moves:
            if move.instance_id in seen:
                raise ValueError(
                    f"instance {move.instance_id!r} appears in multiple moves; "
                    "split the sequence into separate deltas"
                )
            seen.add(move.instance_id)

    # ------------------------------------------------------------------
    # constructors for the common shapes
    # ------------------------------------------------------------------
    @classmethod
    def swap(cls, instance_a: str, leaf_a: str, instance_b: str, leaf_b: str) -> "FleetDelta":
        """Exchange two instances between their leaves (the Sec. 3.6 action)."""
        return cls(
            moves=(
                Move(instance_a, leaf_a, leaf_b),
                Move(instance_b, leaf_b, leaf_a),
            )
        )

    @classmethod
    def move(cls, instance_id: str, src_leaf: str, dst_leaf: str) -> "FleetDelta":
        return cls(moves=(Move(instance_id, src_leaf, dst_leaf),))

    @classmethod
    def place(cls, instance_id: str, leaf: str) -> "FleetDelta":
        """An arrival: the instance appears on ``leaf``."""
        return cls(moves=(Move(instance_id, None, leaf),))

    @classmethod
    def remove(cls, instance_id: str, leaf: str) -> "FleetDelta":
        """A departure: the instance leaves the fleet."""
        return cls(moves=(Move(instance_id, leaf, None),))

    @classmethod
    def trace_update(cls, *instance_ids: str) -> "FleetDelta":
        """In-place refresh of the named instances' trace rows."""
        return cls(trace_updates=tuple(instance_ids))

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.moves or self.trace_updates)

    def touched_leaves(self, leaf_of=None) -> List[str]:
        """Leaves whose membership or content this delta changes, first-touch order.

        ``leaf_of`` resolves trace-updated instances to their current leaf
        (a mapping or a callable); without it, trace updates contribute no
        leaves — membership moves always carry their leaves explicitly.
        """
        resolve = None
        if leaf_of is not None:
            resolve = leaf_of if callable(leaf_of) else leaf_of.__getitem__
        touched: List[str] = []
        seen = set()
        for move in self.moves:
            for leaf in (move.src_leaf, move.dst_leaf):
                if leaf is not None and leaf not in seen:
                    seen.add(leaf)
                    touched.append(leaf)
        if resolve is not None:
            for instance_id in self.trace_updates:
                leaf = resolve(instance_id)
                if leaf not in seen:
                    seen.add(leaf)
                    touched.append(leaf)
        return touched


def dirty_nodes(topology, touched_leaves: Iterable[str]) -> List[str]:
    """Names of every node whose aggregate a delta invalidates.

    The union of each touched leaf's root path, root-first per leaf,
    deduplicated in first-touch order — exactly the nodes an incremental
    index must refresh, and no others.
    """
    dirty: List[str] = []
    seen = set()
    for leaf_name in touched_leaves:
        for node in topology.path_from_root(leaf_name):
            if node.name not in seen:
                seen.add(node.name)
                dirty.append(node.name)
    return dirty


class PlacementState:
    """The single live owner of a placement, fanning deltas out to indices.

    The mutable counterpart of the immutable
    :class:`~repro.infra.assignment.Assignment` — and the placement-side
    sibling of :class:`~repro.engine.state.FleetState` (which owns the
    scenario-run state the policy pipeline edits).  All placement changes
    flow through :meth:`apply`; registered subscribers (anything with an
    ``apply_delta(delta)`` method) observe every delta exactly once, in
    registration order.

    Per-leaf member lists use append-on-arrival order, and
    :meth:`assignment` materializes the mapping leaf-by-leaf in topology
    order — so a :class:`~repro.infra.aggregation.NodePowerView` built
    from the materialized assignment reproduces the incremental indices'
    state bit-for-bit.
    """

    def __init__(self, topology, traces, mapping) -> None:
        if hasattr(mapping, "as_mapping"):  # an Assignment
            mapping = mapping.as_mapping()
        self.topology = topology
        self.traces = traces
        self._leaf_names = {leaf.name for leaf in topology.leaves()}
        self._leaf_of: Dict[str, str] = {}
        self._members: Dict[str, List[str]] = {
            leaf.name: [] for leaf in topology.leaves()
        }
        for instance_id, leaf_name in mapping.items():
            self._validate_arrival(instance_id, leaf_name)
            self._members[leaf_name].append(instance_id)
            self._leaf_of[instance_id] = leaf_name
        self._subscribers: list = []
        self._version = 0

    # ------------------------------------------------------------------
    def _validate_arrival(self, instance_id: str, leaf_name: str) -> None:
        if leaf_name not in self._leaf_names:
            raise KeyError(f"{leaf_name!r} is not a leaf of this topology")
        if instance_id in self._leaf_of:
            raise ValueError(f"{instance_id!r} is already placed")
        if instance_id not in self.traces:
            raise ValueError(f"{instance_id!r} has no trace")
        leaf = self.topology.node(leaf_name)
        if leaf.capacity is not None and len(self._members[leaf_name]) >= leaf.capacity:
            raise ValueError(f"leaf {leaf_name!r} is at capacity ({leaf.capacity})")

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Number of deltas applied so far."""
        return self._version

    def __len__(self) -> int:
        return len(self._leaf_of)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._leaf_of

    def leaf_of(self, instance_id: str) -> str:
        try:
            return self._leaf_of[instance_id]
        except KeyError:
            raise KeyError(f"{instance_id!r} is not placed")

    def members(self, leaf_name: str) -> List[str]:
        """Current members of a leaf, in arrival order (a copy)."""
        if leaf_name not in self._members:
            raise KeyError(f"{leaf_name!r} is not a leaf of this topology")
        return list(self._members[leaf_name])

    def mapping(self) -> Dict[str, str]:
        """instance id → leaf name, leaf-by-leaf in topology order."""
        return {
            instance_id: leaf_name
            for leaf_name, members in self._members.items()
            for instance_id in members
        }

    def assignment(self):
        """Materialize the current placement as an immutable Assignment.

        Iterates leaves in topology order, members in arrival order — the
        canonical ordering every incremental index maintains — so a full
        rebuild from the returned assignment is bit-identical to the
        incrementally maintained state.
        """
        from ..infra.assignment import Assignment  # engine→infra edge stays lazy

        return Assignment(self.topology, self.mapping())

    # ------------------------------------------------------------------
    def register(self, index):
        """Subscribe an index; it sees every subsequent delta once, in order."""
        self._subscribers.append(index)
        return index

    def apply(self, delta: FleetDelta) -> List[str]:
        """Validate and apply a delta; returns the dirtied node names.

        The batch is validated as a whole before any mutation, so a
        rejected delta leaves the state untouched — and capacity is
        checked against the *net* post-delta occupancy, so a swap into a
        full leaf is legal (the paired departure frees the slot).
        """
        started = time.perf_counter()
        net: Dict[str, int] = {}
        for move in delta.moves:
            instance_id = move.instance_id
            if move.dst_leaf is not None and move.dst_leaf not in self._leaf_names:
                raise KeyError(f"{move.dst_leaf!r} is not a leaf of this topology")
            if move.src_leaf is not None:
                current = self._leaf_of.get(instance_id)
                if current != move.src_leaf:
                    raise ValueError(
                        f"{instance_id!r} is on {current!r}, not {move.src_leaf!r}"
                    )
                net[move.src_leaf] = net.get(move.src_leaf, 0) - 1
            elif instance_id in self._leaf_of:
                raise ValueError(f"{instance_id!r} is already placed")
            if move.dst_leaf is not None:
                if instance_id not in self.traces:
                    raise ValueError(f"{instance_id!r} has no trace")
                net[move.dst_leaf] = net.get(move.dst_leaf, 0) + 1
        for leaf_name, change in net.items():
            if change <= 0:
                continue
            leaf = self.topology.node(leaf_name)
            if (
                leaf.capacity is not None
                and len(self._members[leaf_name]) + change > leaf.capacity
            ):
                raise ValueError(
                    f"leaf {leaf_name!r} is at capacity ({leaf.capacity})"
                )
        final_dst = {move.instance_id: move.dst_leaf for move in delta.moves}
        for instance_id in delta.trace_updates:
            placed = (
                final_dst[instance_id] is not None
                if instance_id in final_dst
                else instance_id in self._leaf_of
            )
            if not placed:
                raise KeyError(f"{instance_id!r} is not placed")
        # Mutate: departures first so paired arrivals land in freed slots;
        # arrivals append in move order, matching the sequential ordering
        # every subscriber maintains.
        for move in delta.moves:
            if move.src_leaf is not None:
                self._members[move.src_leaf].remove(move.instance_id)
                del self._leaf_of[move.instance_id]
        for move in delta.moves:
            if move.dst_leaf is not None:
                self._members[move.dst_leaf].append(move.instance_id)
                self._leaf_of[move.instance_id] = move.dst_leaf
        dirty = dirty_nodes(self.topology, delta.touched_leaves(self._leaf_of))
        for subscriber in self._subscribers:
            subscriber.apply_delta(delta)
        self._version += 1
        obs.count("delta.applied")
        obs.count("delta.moves", len(delta.moves))
        obs.count("delta.nodes_dirtied", len(dirty))
        obs.observe("delta.apply_s", time.perf_counter() - started)
        return dirty

    # ------------------------------------------------------------------
    # conveniences for the common actions
    # ------------------------------------------------------------------
    def swap(self, instance_a: str, instance_b: str) -> List[str]:
        """Exchange two placed instances' leaves."""
        return self.apply(
            FleetDelta.swap(
                instance_a,
                self.leaf_of(instance_a),
                instance_b,
                self.leaf_of(instance_b),
            )
        )

    def move(self, instance_id: str, dst_leaf: str) -> List[str]:
        return self.apply(FleetDelta.move(instance_id, self.leaf_of(instance_id), dst_leaf))

    def place(self, instance_id: str, leaf_name: str) -> List[str]:
        return self.apply(FleetDelta.place(instance_id, leaf_name))

    def remove(self, instance_id: str) -> List[str]:
        return self.apply(FleetDelta.remove(instance_id, self.leaf_of(instance_id)))

    def update_traces(self, *instance_ids: str) -> List[str]:
        """Announce in-place rewrites of the named instances' trace rows."""
        return self.apply(FleetDelta.trace_update(*instance_ids))
