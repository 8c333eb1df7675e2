"""Instance → leaf-node assignments (service placements).

An :class:`Assignment` records which leaf power node supplies each service
instance.  It is the output of every placement policy (oblivious, random,
SmoothOperator) and the input to power aggregation, headroom analysis, and
the reshaping runtime.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .topology import PowerTopology, TopologyError


class AssignmentError(ValueError):
    """Raised for invalid placements (unknown nodes, over-capacity, ...)."""


class Assignment:
    """An immutable mapping of instance ids to leaf power-node names."""

    def __init__(self, topology: PowerTopology, mapping: Mapping[str, str]) -> None:
        self.topology = topology
        self._leaf_of: Dict[str, str] = dict(mapping)
        # Members per leaf, indexed by the leaf's position in
        # ``topology.leaves()`` — subtree queries are slices of this list.
        self._by_leaf: List[List[str]] = [[] for _ in topology.leaves()]
        for instance_id, leaf_name in self._leaf_of.items():
            try:
                position = topology.leaf_position(leaf_name)
            except TopologyError:
                raise AssignmentError(
                    f"instance {instance_id} assigned to non-leaf or unknown "
                    f"node {leaf_name!r}"
                ) from None
            self._by_leaf[position].append(instance_id)
        for leaf, members in zip(topology.leaves(), self._by_leaf):
            if leaf.capacity is not None and len(members) > leaf.capacity:
                raise AssignmentError(
                    f"leaf {leaf.name} holds {len(members)} instances, "
                    f"capacity is {leaf.capacity}"
                )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leaf_of)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._leaf_of

    def leaf_of(self, instance_id: str) -> str:
        try:
            return self._leaf_of[instance_id]
        except KeyError:
            raise AssignmentError(f"unplaced instance: {instance_id}") from None

    def instance_ids(self) -> List[str]:
        return list(self._leaf_of.keys())

    def instances_on_leaf(self, leaf_name: str) -> List[str]:
        """Instances directly supplied by ``leaf_name`` (placement order)."""
        try:
            position = self.topology.leaf_position(leaf_name)
        except TopologyError:
            raise AssignmentError(f"{leaf_name!r} is not a leaf node") from None
        return list(self._by_leaf[position])

    def instances_under(self, node_name: str) -> List[str]:
        """All instances supplied by the subtree rooted at ``node_name``."""
        lo, hi = self.topology.leaf_span(node_name)
        return [i for members in self._by_leaf[lo:hi] for i in members]

    def occupancy(self) -> Dict[str, int]:
        """Instances per leaf (zero-filled for empty leaves)."""
        return {
            leaf.name: len(members)
            for leaf, members in zip(self.topology.leaves(), self._by_leaf)
        }

    def free_capacity(self) -> Dict[str, Optional[int]]:
        """Remaining instance slots per leaf (None = unbounded)."""
        return {
            leaf.name: None if leaf.capacity is None else leaf.capacity - len(members)
            for leaf, members in zip(self.topology.leaves(), self._by_leaf)
        }

    # ------------------------------------------------------------------
    def with_swap(self, instance_a: str, instance_b: str) -> "Assignment":
        """A new assignment with two instances' leaves exchanged.

        This is the primitive of the Sec. 3.6 remapping loop.
        """
        leaf_a = self.leaf_of(instance_a)
        leaf_b = self.leaf_of(instance_b)
        if leaf_a == leaf_b:
            raise AssignmentError(
                f"{instance_a} and {instance_b} share leaf {leaf_a}; swap is a no-op"
            )
        mapping = dict(self._leaf_of)
        mapping[instance_a] = leaf_b
        mapping[instance_b] = leaf_a
        return Assignment(self.topology, mapping)

    def with_added(self, additions: Mapping[str, str]) -> "Assignment":
        """A new assignment with extra instances placed (capacity-checked)."""
        overlap = set(additions) & set(self._leaf_of)
        if overlap:
            raise AssignmentError(f"instances already placed: {sorted(overlap)[:5]}")
        mapping = dict(self._leaf_of)
        mapping.update(additions)
        return Assignment(self.topology, mapping)

    def as_mapping(self) -> Dict[str, str]:
        return dict(self._leaf_of)
