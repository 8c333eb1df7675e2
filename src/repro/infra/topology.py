"""Multi-level power delivery infrastructure (Sec. 2.1, Figure 2).

Facebook datacenters feed power through a four-level tree: the datacenter
substation supplies suites, each suite has main switching boards (MSBs)
feeding switching boards (SBs), which feed reactive power panels (RPPs),
which feed racks of servers.  The power budget of each node is approximately
the sum of its children's budgets, and a node's breaker trips if its
aggregate draw exceeds its budget.

This module models that tree.  Nodes are identified by unique names; servers
(service instances) attach only to *leaf* nodes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class Level:
    """Canonical levels of the power tree, root to leaf."""

    DATACENTER = "datacenter"
    SUITE = "suite"
    MSB = "msb"
    SB = "sb"
    RPP = "rpp"
    RACK = "rack"

    #: Root-to-leaf ordering used by the default topology.
    DEFAULT_ORDER: Tuple[str, ...] = (DATACENTER, SUITE, MSB, SB, RPP, RACK)


class TopologyError(ValueError):
    """Raised for structurally invalid power trees or lookups."""


class PowerNode:
    """One power delivery device in the tree.

    A node knows its name, level, parent, children, and (optionally) a power
    budget in watts.  Budgets can also be assigned later from a provisioning
    policy (see :mod:`repro.infra.budget`).
    """

    __slots__ = ("name", "level", "parent", "children", "budget_watts", "capacity")

    def __init__(
        self,
        name: str,
        level: str,
        *,
        budget_watts: Optional[float] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if not name:
            raise TopologyError("node name cannot be empty")
        if budget_watts is not None and budget_watts < 0:
            raise TopologyError("budget cannot be negative")
        if capacity is not None and capacity <= 0:
            raise TopologyError("capacity must be positive when given")
        self.name = name
        self.level = level
        self.parent: Optional["PowerNode"] = None
        self.children: List["PowerNode"] = []
        self.budget_watts = budget_watts
        #: Max number of service instances attachable beneath this node
        #: (meaningful for leaves; None = unbounded).
        self.capacity = capacity

    def add_child(self, child: "PowerNode") -> "PowerNode":
        if child.parent is not None:
            raise TopologyError(f"node {child.name} already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_subtree(self) -> Iterator["PowerNode"]:
        """Pre-order traversal of this node and its descendants."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def leaves(self) -> List["PowerNode"]:
        return [node for node in self.iter_subtree() if node.is_leaf]

    def path_from_root(self) -> List["PowerNode"]:
        path: List[PowerNode] = []
        node: Optional[PowerNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        return list(reversed(path))

    def __repr__(self) -> str:
        return f"PowerNode({self.name!r}, level={self.level!r}, children={len(self.children)})"


class PowerTopology:
    """A whole power tree with name-indexed lookup.

    The tree is validated on construction: names must be unique and every
    non-root node must be reachable from the root.

    Construction also compiles the tree into DFS pre-order index lists —
    node order, name → index, parent index, depth, and each node's
    interval into the DFS-ordered leaf list — so leaf sets, subtree
    membership, root paths and per-level node lists are lookups and
    slices.  The compiled form snapshots the *shape* of the tree; node
    attributes that callers adjust later (budgets, leaf capacities) are
    always read live from the :class:`PowerNode` objects.
    """

    def __init__(self, root: PowerNode) -> None:
        self.root = root
        self._index: Dict[str, int] = {}
        order: List[PowerNode] = []
        parent: List[int] = []
        depth: List[int] = []
        stack: List[Tuple[PowerNode, int, int]] = [(root, -1, 0)]
        while stack:
            node, parent_index, node_depth = stack.pop()
            if node.name in self._index:
                raise TopologyError(f"duplicate node name: {node.name}")
            self._index[node.name] = len(order)
            order.append(node)
            parent.append(parent_index)
            depth.append(node_depth)
            me = len(order) - 1
            for child in reversed(node.children):
                stack.append((child, me, node_depth + 1))
        self._order = order
        self._parent = parent
        self._depth = depth
        # Pre-order makes every subtree contiguous: node i's subtree is
        # order[i:end[i]], and its leaves are
        # leaves[leaves_before[i]:leaves_before[end[i]]].
        n = len(order)
        end = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            end[parent[i]] = max(end[parent[i]], end[i])
        self._leaves = [node for node in order if node.is_leaf]
        leaves_before = [0] * (n + 1)
        for i, node in enumerate(order):
            leaves_before[i + 1] = leaves_before[i] + node.is_leaf
        self._leaf_lo = leaves_before[:n]
        self._leaf_hi = [leaves_before[e] for e in end]
        self._leaf_names = [leaf.name for leaf in self._leaves]
        self._leaf_position = {name: i for i, name in enumerate(self._leaf_names)}
        self._by_level: Dict[str, List[PowerNode]] = {}
        for node in order:
            self._by_level.setdefault(node.level, []).append(node)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._index

    def node(self, name: str) -> PowerNode:
        return self._order[self._position(name)]

    def _position(self, name: str) -> int:
        """The node's position in DFS pre-order."""
        try:
            return self._index[name]
        except KeyError:
            raise TopologyError(f"unknown node: {name}") from None

    def nodes(self) -> List[PowerNode]:
        return list(self._order)

    def depth(self, name: str) -> int:
        """Edges between the topology root and ``name`` (root = 0)."""
        return self._depth[self._position(name)]

    def levels(self) -> List[str]:
        """Distinct levels present, in root-to-leaf encounter order."""
        return list(self._by_level)

    def nodes_at_level(self, level: str) -> List[PowerNode]:
        found = self._by_level.get(level)
        if not found:
            raise TopologyError(f"no nodes at level {level!r}")
        return list(found)

    def leaves(self) -> List[PowerNode]:
        return list(self._leaves)

    def leaf_names(self) -> List[str]:
        return list(self._leaf_names)

    def leaf_position(self, name: str) -> int:
        """Index of leaf ``name`` in :meth:`leaves` order."""
        try:
            return self._leaf_position[name]
        except KeyError:
            raise TopologyError(f"{name!r} is not a leaf node") from None

    def leaf_span(self, name: str) -> Tuple[int, int]:
        """``[lo, hi)`` such that ``leaves()[lo:hi]`` are the leaves under ``name``."""
        i = self._position(name)
        return self._leaf_lo[i], self._leaf_hi[i]

    def leaves_under(self, name: str) -> List[PowerNode]:
        """Leaves of the subtree rooted at ``name``, in DFS order."""
        lo, hi = self.leaf_span(name)
        return self._leaves[lo:hi]

    def path_from_root(self, name: str) -> List[PowerNode]:
        """Nodes from the topology root down to ``name`` inclusive."""
        i = self._position(name)
        path: List[PowerNode] = []
        while i >= 0:
            path.append(self._order[i])
            i = self._parent[i]
        path.reverse()
        return path

    def parent_of(self, name: str) -> Optional[PowerNode]:
        return self.node(name).parent

    def subtree_capacity(self, name: str) -> Optional[int]:
        """Sum of leaf capacities under ``name``; None if any is unbounded."""
        total = 0
        for leaf in self.leaves_under(name):
            if leaf.capacity is None:
                return None
            total += leaf.capacity
        return total

    def total_leaf_capacity(self) -> Optional[int]:
        """Sum of leaf capacities; None if any leaf is unbounded."""
        return self.subtree_capacity(self.root.name)

    def describe(self) -> str:
        """Human-readable per-level summary ("4 suites, 8 MSBs, ...")."""
        parts = []
        for level in self.levels():
            count = len(self.nodes_at_level(level))
            parts.append(f"{count} {level}{'s' if count != 1 else ''}")
        return ", ".join(parts)
