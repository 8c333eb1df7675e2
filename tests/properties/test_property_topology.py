"""Property tests: the compiled power tree answers like the recursive walk.

:class:`PowerTopology` compiles its tree into DFS-ordered arrays.  Every
query it answers from them — leaves, subtree leaves and capacity, root
paths, per-level node lists, depths, and :class:`Assignment`'s
``instances_under`` — must equal the recursive :class:`PowerNode` walk on
regular trees, JSON round-tripped trees, unbalanced trees and single-child
chains alike.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra import (
    Assignment,
    AssignmentError,
    PowerNode,
    PowerTopology,
    TopologyError,
    build_topology,
)
from repro.infra.builder import LevelSpec, TopologySpec
from repro.infra.persistence import topology_from_dict, topology_to_dict

LEVELS = ("datacenter", "suite", "msb", "sb", "rpp", "rack", "pdu")


# ----------------------------------------------------------------------
# tree strategies
# ----------------------------------------------------------------------
def _random_tree(seed: int, max_depth: int, max_fanout: int, chain_bias: float):
    """An arbitrary tree; ``chain_bias`` favours single-child nodes."""
    rng = random.Random(seed)
    counter = iter(range(10**6))
    root = PowerNode(f"n{next(counter)}", LEVELS[0])

    def grow(node, depth):
        if depth == max_depth or (depth > 0 and rng.random() < 0.25):
            node.capacity = rng.choice([None, 1, 2, 3, 5])
            return
        fanout = 1 if rng.random() < chain_bias else rng.randint(1, max_fanout)
        for _ in range(fanout):
            child = node.add_child(
                PowerNode(f"n{next(counter)}", LEVELS[min(depth + 1, len(LEVELS) - 1)])
            )
            grow(child, depth + 1)

    grow(root, 0)
    return PowerTopology(root)


random_trees = st.builds(
    _random_tree,
    seed=st.integers(0, 10**6),
    max_depth=st.integers(0, 6),
    max_fanout=st.integers(1, 4),
    chain_bias=st.sampled_from([0.0, 0.3, 0.9]),
)

regular_trees = st.builds(
    lambda fanouts, capacity: build_topology(
        TopologySpec(
            name="dc",
            levels=tuple(
                LevelSpec(level, fanout)
                for level, fanout in zip(LEVELS[1:], fanouts)
            ),
            leaf_capacity=capacity,
        )
    ),
    fanouts=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    capacity=st.sampled_from([None, 1, 4]),
)

any_tree = st.one_of(
    random_trees,
    regular_trees,
    random_trees.map(lambda t: topology_from_dict(topology_to_dict(t))),
    regular_trees.map(lambda t: topology_from_dict(topology_to_dict(t))),
)


# ----------------------------------------------------------------------
# recursive references
# ----------------------------------------------------------------------
def _names(nodes):
    return [node.name for node in nodes]


def _ref_capacity(node):
    total = 0
    for leaf in node.leaves():
        if leaf.capacity is None:
            return None
        total += leaf.capacity
    return total


def _random_mapping(topology, seed):
    """Instances spread over leaves within capacity, in random order."""
    rng = random.Random(seed)
    slots = []
    for leaf in topology.root.leaves():
        room = leaf.capacity if leaf.capacity is not None else 3
        slots.extend([leaf.name] * rng.randint(0, room))
    rng.shuffle(slots)
    return {f"i{k}": leaf for k, leaf in enumerate(slots)}


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(any_tree)
@settings(max_examples=80, deadline=None)
def test_tree_queries_match_recursive_walk(topology):
    root = topology.root
    preorder = list(root.iter_subtree())
    assert _names(topology.nodes()) == _names(preorder)
    assert _names(topology.leaves()) == _names(root.leaves())
    assert topology.leaf_names() == _names(root.leaves())
    assert topology.total_leaf_capacity() == _ref_capacity(root)
    for level in {node.level for node in preorder}:
        expected = [node for node in preorder if node.level == level]
        assert _names(topology.nodes_at_level(level)) == _names(expected)
    for node in preorder:
        assert _names(topology.leaves_under(node.name)) == _names(node.leaves())
        assert _names(topology.path_from_root(node.name)) == _names(
            node.path_from_root()
        )
        assert topology.depth(node.name) == len(node.path_from_root()) - 1
        assert topology.subtree_capacity(node.name) == _ref_capacity(node)
        assert topology.node(node.name) is node
    for position, leaf in enumerate(root.leaves()):
        assert topology.leaf_position(leaf.name) == position


@given(random_trees, st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_subtree_topology_is_rooted_at_its_node(topology, seed):
    node = random.Random(seed).choice(topology.nodes())
    subtree = PowerTopology(node)
    assert _names(subtree.nodes()) == _names(node.iter_subtree())
    for member in node.iter_subtree():
        full_path = _names(member.path_from_root())
        assert _names(subtree.path_from_root(member.name)) == full_path[
            full_path.index(node.name) :
        ]
        assert _names(subtree.leaves_under(member.name)) == _names(member.leaves())


@given(any_tree, st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_assignment_queries_match_recursive_walk(topology, seed):
    mapping = _random_mapping(topology, seed)
    assignment = Assignment(topology, mapping)
    for leaf in topology.root.leaves():
        expected = [i for i, name in mapping.items() if name == leaf.name]
        assert assignment.instances_on_leaf(leaf.name) == expected
    for node in topology.root.iter_subtree():
        expected = [
            i
            for leaf in node.leaves()
            for i, name in mapping.items()
            if name == leaf.name
        ]
        assert assignment.instances_under(node.name) == expected
    occupancy = assignment.occupancy()
    assert list(occupancy) == topology.leaf_names()
    assert sum(occupancy.values()) == len(mapping)


@given(any_tree, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_assignment_rejects_bad_nodes(topology, seed):
    rng = random.Random(seed)
    internal = [node for node in topology.nodes() if not node.is_leaf]
    with pytest.raises(AssignmentError):
        Assignment(topology, {"x": "no-such-node"})
    if internal:
        node = rng.choice(internal)
        with pytest.raises(AssignmentError):
            Assignment(topology, {"x": node.name})
        with pytest.raises(AssignmentError):
            Assignment(topology, {}).instances_on_leaf(node.name)
    bounded = [leaf for leaf in topology.leaves() if leaf.capacity is not None]
    if bounded:
        leaf = rng.choice(bounded)
        crowd = {f"x{k}": leaf.name for k in range(leaf.capacity + 1)}
        with pytest.raises(AssignmentError):
            Assignment(topology, crowd)
    with pytest.raises(TopologyError):
        topology.path_from_root("no-such-node")
