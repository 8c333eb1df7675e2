"""Workload-aware hierarchical service placement (Sec. 3.5).

The placer walks the power tree top-down.  At each internal node it

1. extracts the S-traces of the top power-consumer services among the
   instances to be placed under that node,
2. computes every instance's I-to-S asynchrony-score vector,
3. runs balanced k-means into ``h`` equal-size clusters (``h`` a multiple of
   the child count ``q``),
4. deals each cluster's members round-robin across the children so every
   child receives ``|c_j| / q`` instances of every cluster,

then recurses until instances reach leaf power nodes.  Synchronous instances
(same cluster) end up spread evenly; each node's aggregate peak drops.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..infra.assignment import Assignment, AssignmentError
from ..infra.topology import PowerNode, PowerTopology
from ..traces.grid import TimeGrid
from ..traces.instance import InstanceRecord
from ..traces.service import basis_from_matrix
from ..traces.traceset import TraceSet, row_source
from .asynchrony import DEFAULT_SCORE_MAX_BYTES, score_matrix
from .clustering import balanced_kmeans


@dataclass(frozen=True)
class PlacementConfig:
    """Tuning knobs for the workload-aware placer.

    Attributes
    ----------
    top_m_services:
        Size of the S-trace basis |B| (the paper uses the top ~10 power
        consumers; clamped to the number of distinct services present).
    clusters_per_child:
        ``h = q × clusters_per_child`` clusters at a node with ``q``
        children (the paper configures h as a multiple of q).
    seed:
        Root seed; per-node seeds are derived deterministically from it.
    rebuild_basis_per_node:
        Re-extract S-traces from the local instance subset at every
        recursion step (matches Sec. 3.5's description).  When False the
        datacenter-level basis is reused throughout, which is faster.
    score_max_bytes:
        Caps a scoring chunk at the rows whose full
        ``(chunk, n_basis, n_samples)`` sum block would fit in this many
        bytes (see :func:`repro.core.asynchrony.score_matrix`; the kernel
        reduces small tiles and never builds that block); ``None``
        disables the cap and chunks purely by ``score_chunk_size``.
    score_dtype:
        Exactness toggle forwarded to the scorer: ``None`` (default) keeps
        the bit-exact float64 sums, ``numpy.float32`` halves the
        scoring stage's memory traffic at the cost of float32 rounding.
    """

    top_m_services: int = 10
    clusters_per_child: int = 2
    seed: int = 0
    kmeans_n_init: int = 3
    kmeans_max_iter: int = 50
    rebuild_basis_per_node: bool = True
    score_chunk_size: int = 256
    score_max_bytes: Optional[int] = DEFAULT_SCORE_MAX_BYTES
    score_dtype: Optional[object] = None

    def __post_init__(self) -> None:
        if self.top_m_services <= 0:
            raise ValueError("top_m_services must be positive")
        if self.clusters_per_child <= 0:
            raise ValueError("clusters_per_child must be positive")
        if self.score_max_bytes is not None and self.score_max_bytes <= 0:
            raise ValueError("score_max_bytes must be positive or None")


@dataclass
class PlacementResult:
    """An assignment plus the diagnostics gathered while deriving it."""

    assignment: Assignment
    basis_services: List[str]
    #: node name → cluster label per instance id placed under that node
    cluster_labels: Dict[str, Dict[str, int]] = field(default_factory=dict)


def scoped_placement(
    records: Sequence[InstanceRecord],
    baseline: Assignment,
    scope_level: str,
    config: Optional[PlacementConfig] = None,
) -> Assignment:
    """Re-place each ``scope_level`` subtree independently, keeping every
    instance inside the subtree that currently powers it.

    The paper's Figure 9 works exactly this way (the placement is applied
    to the subtree of one node N, "our placement policy does not move
    service instances into or out of the subtree").  Operationally this is
    the cheap variant: migrations stay within a suite or SB, no cross-room
    moves.  The cost is that cross-subtree imbalance in the original
    placement cannot be fixed — the global placer's reductions upper-bound
    the scoped ones.
    """
    topology = baseline.topology
    by_id = {record.instance_id: record for record in records}
    missing = [i for i in baseline.instance_ids() if i not in by_id]
    if missing:
        raise ValueError(f"records missing for placed instances: {missing[:5]}")

    scoped = []
    for node in topology.nodes_at_level(scope_level):
        member_ids = baseline.instances_under(node.name)
        if member_ids:
            scoped.append((node, member_ids))

    mapping: Dict[str, str] = {}
    placer = WorkloadAwarePlacer(config)
    for node, member_ids in scoped:
        subtree = PowerTopology(node)
        local = placer.place([by_id[i] for i in member_ids], subtree)
        mapping.update(local.assignment.as_mapping())
    return Assignment(topology, mapping)


class WorkloadAwarePlacer:
    """SmoothOperator's placement engine (Figure 7, steps 2-4).

    The recursion carries row indices into one matrix of the instances'
    training traces — the synthesised fleet matrix itself when the records
    are row views of it — and each clustered node gathers its rows once
    for S-trace extraction and scoring.
    """

    def __init__(self, config: Optional[PlacementConfig] = None) -> None:
        self.config = config if config is not None else PlacementConfig()

    # ------------------------------------------------------------------
    def place(
        self, records: Sequence[InstanceRecord], topology: PowerTopology
    ) -> PlacementResult:
        """Derive a workload-aware assignment of ``records`` onto ``topology``."""
        if not records:
            raise ValueError("nothing to place")
        capacity = topology.total_leaf_capacity()
        if capacity is not None and len(records) > capacity:
            raise AssignmentError(
                f"{len(records)} instances exceed total leaf capacity {capacity}"
            )
        with obs.span("place", instances=len(records)):
            matrix, rows = row_source([record.training_trace for record in records])
            everyone = matrix[rows]
            fleet = _Fleet(
                topology=topology,
                matrix=matrix,
                rows=rows,
                grid=records[0].training_trace.grid,
                ids=[record.instance_id for record in records],
                services=[record.service for record in records],
                peaks=everyone.max(axis=1).tolist(),
            )
            global_basis = basis_from_matrix(
                everyone, fleet.services, fleet.grid, self.config.top_m_services
            )
            del everyone  # not held across the recursion
            self._place_under(
                fleet, topology.root, list(range(len(records))), global_basis
            )
            assignment = Assignment(topology, fleet.mapping)
            obs.count("place.instances_placed", len(fleet.mapping))
            return PlacementResult(
                assignment=assignment,
                basis_services=list(global_basis.ids),
                cluster_labels=fleet.diagnostics,
            )

    # ------------------------------------------------------------------
    def _place_under(
        self,
        fleet: "_Fleet",
        node: PowerNode,
        members: List[int],
        basis: Optional[TraceSet],
    ) -> None:
        """Place ``members`` (record positions) beneath ``node``.

        ``basis`` is the S-trace basis to cluster with, or ``None`` when it
        must first be extracted from ``members`` (per-node rebuild).
        """
        if not members:
            return
        if node.is_leaf:
            if node.capacity is not None and len(members) > node.capacity:
                raise AssignmentError(
                    f"leaf {node.name} receives {len(members)} instances, "
                    f"capacity {node.capacity}"
                )
            for member in members:
                fleet.mapping[fleet.ids[member]] = node.name
            return
        if len(node.children) == 1:
            self._place_under(fleet, node.children[0], members, basis)
            return

        obs.count("place.nodes_clustered")
        block = fleet.matrix[fleet.rows[members]]
        if basis is None:
            basis = basis_from_matrix(
                block,
                [fleet.services[m] for m in members],
                fleet.grid,
                self.config.top_m_services,
            )
        clusters, labels = self._cluster(fleet, node, members, block, basis)
        del block  # not held across the recursion
        fleet.diagnostics[node.name] = {
            fleet.ids[member]: int(label) for member, label in zip(members, labels)
        }
        shares = self._child_shares(fleet.topology, node, len(members))
        buckets = self._deal_round_robin(node, fleet.ids, clusters, shares)
        child_basis = None if self.config.rebuild_basis_per_node else basis
        for child, bucket in zip(node.children, buckets):
            self._place_under(fleet, child, bucket, child_basis)

    # ------------------------------------------------------------------
    def _cluster(
        self,
        fleet: "_Fleet",
        node: PowerNode,
        members: List[int],
        block: np.ndarray,
        basis: TraceSet,
    ) -> Tuple[List[List[int]], np.ndarray]:
        """Cluster the local instances (traces ``block``) in asynchrony-score space."""
        scores = score_matrix(
            block,
            basis,
            chunk_size=self.config.score_chunk_size,
            max_bytes=self.config.score_max_bytes,
            dtype=self.config.score_dtype,
        )
        q = len(node.children)
        h = min(len(members), q * self.config.clusters_per_child)
        h = max(h, 1)
        result = balanced_kmeans(
            scores,
            h,
            seed=self._node_seed(node),
            n_init=self.config.kmeans_n_init,
            max_iter=self.config.kmeans_max_iter,
        )
        clusters: List[List[int]] = [[] for _ in range(result.k)]
        for member, label in zip(members, result.labels):
            clusters[int(label)].append(member)
        # Deterministic intra-cluster order: deal the power-hungriest
        # instances first so the heaviest members spread widest.
        for cluster in clusters:
            cluster.sort(key=lambda m: (-fleet.peaks[m], fleet.ids[m]))
        return clusters, result.labels

    def _node_seed(self, node: PowerNode) -> int:
        return (self.config.seed * 2654435761 + zlib.crc32(node.name.encode())) % (2**32)

    # ------------------------------------------------------------------
    @staticmethod
    def _child_shares(topology: PowerTopology, node: PowerNode, n: int) -> List[int]:
        """How many of ``n`` instances each child should receive.

        Even split, adjusted down where a child's subtree capacity binds and
        the overflow pushed to children with room.
        """
        q = len(node.children)
        capacities = [topology.subtree_capacity(child.name) for child in node.children]
        shares = [n // q + (1 if i < n % q else 0) for i in range(q)]
        # Waterfill overflow from capacity-bound children.
        for _ in range(q):
            overflow = 0
            for i, capacity in enumerate(capacities):
                if capacity is not None and shares[i] > capacity:
                    overflow += shares[i] - capacity
                    shares[i] = capacity
            if overflow == 0:
                break
            for i, capacity in enumerate(capacities):
                if overflow == 0:
                    break
                room = float("inf") if capacity is None else capacity - shares[i]
                take = int(min(room, overflow))
                shares[i] += take
                overflow -= take
            if overflow > 0:
                raise AssignmentError(
                    f"subtree of {node.name} cannot hold {n} instances"
                )
        return shares

    @staticmethod
    def _deal_round_robin(
        node: PowerNode,
        ids: Sequence[str],
        clusters: List[List[int]],
        shares: List[int],
    ) -> List[List[int]]:
        """Deal each cluster's members across children like cards.

        Iterating cluster-by-cluster and child-by-child gives every child
        ``≈ |c_j| / q`` members of each cluster j — the paper's round-robin
        heuristic.  Children that reached their share are skipped.
        """
        q = len(node.children)
        buckets: List[List[int]] = [[] for _ in range(q)]
        child_cursor = 0
        for cluster in clusters:
            for member in cluster:
                placed = False
                for _ in range(q):
                    index = child_cursor % q
                    child_cursor += 1
                    if len(buckets[index]) < shares[index]:
                        buckets[index].append(member)
                        placed = True
                        break
                if not placed:
                    raise AssignmentError(
                        f"no child of {node.name} can take instance "
                        f"{ids[member]}"
                    )
        return buckets


@dataclass
class _Fleet:
    """One :meth:`WorkloadAwarePlacer.place` call's inputs and outputs.

    Instances are addressed by their position in the input records;
    ``rows[position]`` is the instance's row in ``matrix``.
    """

    topology: PowerTopology
    matrix: np.ndarray
    rows: np.ndarray
    grid: TimeGrid
    ids: List[str]
    services: List[str]
    peaks: List[float]
    mapping: Dict[str, str] = field(default_factory=dict)
    diagnostics: Dict[str, Dict[str, int]] = field(default_factory=dict)
