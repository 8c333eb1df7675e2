"""Exact Γ-sum headroom accounting with incremental updates.

The Γ-robust load of a power node holding instances ``S`` is::

    load_Γ(S) = Σ_{i∈S} p_c(i)  +  max_{T⊆S, |T|≤Γ} Σ_{i∈T} p_r(i)

The inner maximum is exact and cheap: it is simply the sum of the Γ
largest radii in ``S`` (Bertsimas–Sim protection for a single budget row).
Γ = 0 reduces to nominal accounting; Γ ≥ |S| to worst-case (all-max)
accounting; the node's robust headroom is monotonically non-increasing in
Γ — the property suite in ``tests/properties`` pins all three.

Two access patterns are served:

* :func:`robust_node_loads` / :func:`robust_node_headroom` — vectorised
  whole-tree sweeps (``np.partition`` per node) for one-shot audits;
* :class:`GammaAccountant` / :class:`RobustHeadroomIndex` — mutable
  per-node state for inner loops (first-fit placement, swap evaluation):
  adding or removing one instance costs O(log n) comparisons against a
  sorted radius list plus an O(1) patch of the cached top-Γ sum, so a
  placement pass over the whole fleet never re-sorts a node.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence

import numpy as np

from .uncertainty import UncertainPowerModel

__all__ = [
    "GammaAccountant",
    "RobustHeadroomIndex",
    "gamma_sum",
    "robust_load",
    "robust_node_headroom",
    "robust_node_loads",
]


def gamma_sum(radii: np.ndarray, gamma: int) -> float:
    """Sum of the ``gamma`` largest entries of ``radii`` (exact Γ-sum)."""
    if gamma < 0:
        raise ValueError("gamma cannot be negative")
    radii = np.asarray(radii, dtype=np.float64)
    n = radii.shape[0]
    if gamma == 0 or n == 0:
        return 0.0
    if gamma >= n:
        return float(radii.sum())
    # partition puts the gamma largest in the tail without a full sort.
    return float(np.partition(radii, n - gamma)[n - gamma :].sum())


def robust_load(nominal: np.ndarray, radii: np.ndarray, gamma: int) -> float:
    """Γ-robust aggregate load: ``Σ nominal + top-Γ radii``."""
    nominal = np.asarray(nominal, dtype=np.float64)
    return float(nominal.sum()) + gamma_sum(radii, gamma)


class GammaAccountant:
    """Γ-robust load of one node, maintained incrementally.

    Members are tracked as ``instance_id → (nominal, radius)``; the radii
    additionally live in an ascending sorted list so membership changes
    patch the cached top-Γ sum in O(log n):

    * **add r** — if fewer than Γ members, ``r`` joins the top set; else it
      joins only if it beats the current top-set minimum, which it evicts.
    * **remove r** — if ``r`` sat in the top set, the largest non-top
      radius is promoted in its place.

    ``bisect``'s list insertion moves memory, but the comparison work — the
    part that grows with node size — stays logarithmic, and no operation
    ever re-sorts or re-sums the whole membership.
    """

    __slots__ = ("gamma", "_members", "_radii", "_nominal_sum", "_top_sum")

    def __init__(self, gamma: int) -> None:
        if gamma < 0:
            raise ValueError("gamma cannot be negative")
        self.gamma = gamma
        self._members: Dict[str, tuple] = {}
        self._radii: List[float] = []  # ascending
        self._nominal_sum = 0.0
        self._top_sum = 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._members

    @property
    def members(self) -> List[str]:
        return list(self._members)

    @property
    def nominal_sum(self) -> float:
        return self._nominal_sum

    @property
    def top_sum(self) -> float:
        """The cached sum of the Γ largest member radii."""
        return self._top_sum

    @property
    def radius_sum(self) -> float:
        """Sum of *all* member radii (the Γ→∞ protection mass)."""
        return float(sum(self._radii))

    # ------------------------------------------------------------------
    def add(self, instance_id: str, nominal: float, radius: float) -> None:
        if instance_id in self._members:
            raise ValueError(f"{instance_id!r} already accounted here")
        if nominal < 0 or radius < 0:
            raise ValueError("nominal and radius cannot be negative")
        self._members[instance_id] = (float(nominal), float(radius))
        self._nominal_sum += nominal
        self._top_sum += self._top_delta_for_add(radius)
        insort(self._radii, float(radius))

    def remove(self, instance_id: str) -> None:
        try:
            nominal, radius = self._members.pop(instance_id)
        except KeyError:
            raise KeyError(f"{instance_id!r} is not accounted here")
        self._nominal_sum -= nominal
        n = len(self._radii)
        if self.gamma > 0:
            if n <= self.gamma:
                self._top_sum -= radius
            else:
                boundary = self._radii[n - self.gamma]
                if radius >= boundary:
                    # r occupied a top slot; the best of the rest moves up.
                    self._top_sum -= radius
                    self._top_sum += self._radii[n - self.gamma - 1]
        index = bisect_left(self._radii, radius)
        self._radii.pop(index)

    def _top_delta_for_add(self, radius: float) -> float:
        """How the top-Γ sum changes if a member with ``radius`` joins."""
        if self.gamma == 0:
            return 0.0
        n = len(self._radii)
        if n < self.gamma:
            return radius
        boundary = self._radii[n - self.gamma]
        if radius > boundary:
            return radius - boundary
        return 0.0

    # ------------------------------------------------------------------
    def robust_load(self) -> float:
        return self._nominal_sum + self._top_sum

    def load_if_added(self, nominal: float, radius: float) -> float:
        """Robust load after a hypothetical add — no mutation, O(log n)."""
        return (
            self._nominal_sum
            + nominal
            + self._top_sum
            + self._top_delta_for_add(radius)
        )

    def headroom(self, budget: float) -> float:
        """Budget minus robust load (may be negative: Γ-infeasible)."""
        return budget - self.robust_load()

    def recompute(self) -> None:
        """Rebuild the cached sums exactly from the membership (drift reset)."""
        values = list(self._members.values())
        self._nominal_sum = float(sum(v[0] for v in values))
        self._radii = sorted(v[1] for v in values)
        self._top_sum = gamma_sum(np.asarray(self._radii), self.gamma)


class RobustHeadroomIndex:
    """Γ-accountants for every node of a topology, updated along root paths.

    Placing (or removing) one instance touches every ancestor of its leaf,
    so a single placement step costs ``O(depth × log n)``.  The index is
    what keeps the first-fit placement pass and swap-style loops fast: no
    per-step re-aggregation of any node.
    """

    def __init__(self, topology, model: UncertainPowerModel, gamma: int) -> None:
        self.topology = topology
        self.model = model
        self.gamma = gamma
        self.accountants: Dict[str, GammaAccountant] = {
            node.name: GammaAccountant(gamma) for node in topology.nodes()
        }
        self._leaf_of: Dict[str, str] = {}
        self._paths: Dict[str, List[str]] = {
            leaf.name: [node.name for node in topology.path_from_root(leaf.name)]
            for leaf in topology.leaves()
        }

    # ------------------------------------------------------------------
    def path(self, leaf_name: str) -> List[str]:
        try:
            return self._paths[leaf_name]
        except KeyError:
            raise KeyError(f"{leaf_name!r} is not a leaf of this topology")

    def place(self, instance_id: str, leaf_name: str) -> None:
        nominal = self.model.nominal_of(instance_id)
        radius = self.model.radius_of(instance_id)
        if instance_id in self._leaf_of:
            raise ValueError(f"{instance_id!r} already placed")
        for name in self.path(leaf_name):
            self.accountants[name].add(instance_id, nominal, radius)
        self._leaf_of[instance_id] = leaf_name

    def remove(self, instance_id: str) -> str:
        """Un-place an instance; returns the leaf it occupied."""
        try:
            leaf_name = self._leaf_of.pop(instance_id)
        except KeyError:
            raise KeyError(f"{instance_id!r} is not placed")
        for name in self.path(leaf_name):
            self.accountants[name].remove(instance_id)
        return leaf_name

    def move(self, instance_id: str, leaf_name: str) -> None:
        self.remove(instance_id)
        self.place(instance_id, leaf_name)

    def leaf_of(self, instance_id: str) -> str:
        try:
            return self._leaf_of[instance_id]
        except KeyError:
            raise KeyError(f"{instance_id!r} is not placed")

    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> None:
        """Apply a :class:`~repro.engine.delta.FleetDelta` to the index.

        Moves map directly onto :meth:`place` / :meth:`remove` /
        :meth:`move` (each O(depth × log n)).  Trace updates re-read the
        uncertainty model for the named instances (remove + place), so a
        refreshed nominal/radius takes effect along the whole root path.
        """
        for mv in delta.moves:
            instance_id = mv.instance_id
            if mv.src_leaf is None:
                self.place(instance_id, mv.dst_leaf)
                continue
            current = self.leaf_of(instance_id)
            if current != mv.src_leaf:
                raise ValueError(
                    f"{instance_id!r} is on {current!r}, not {mv.src_leaf!r}"
                )
            if mv.dst_leaf is None:
                self.remove(instance_id)
            else:
                self.move(instance_id, mv.dst_leaf)
        for instance_id in delta.trace_updates:
            leaf_name = self.remove(instance_id)
            self.place(instance_id, leaf_name)

    #: :func:`repro.infra.headroom.HeadroomIndex`-style alias.
    apply = apply_delta

    def verify(self) -> None:
        """Cross-check every accountant against an exact recomputation.

        The Γ-accounting analogue of the remapping engine's
        ``verify_every`` harness: rebuilds each node's nominal sum and
        top-Γ radius sum from the membership and raises on divergence.
        """
        for name, accountant in self.accountants.items():
            values = list(accountant._members.values())
            nominal_sum = float(sum(v[0] for v in values))
            top_sum = gamma_sum(
                np.asarray(sorted(v[1] for v in values)), accountant.gamma
            )
            # The accountant's O(1) patches reorder float additions, so
            # compare within accumulation tolerance, not bit-exactly.
            scale = max(1.0, abs(nominal_sum), abs(top_sum))
            if (
                abs(accountant._nominal_sum - nominal_sum) > 1e-9 * scale
                or abs(accountant._top_sum - top_sum) > 1e-9 * scale
            ):
                raise RuntimeError(
                    f"node {name}: incremental Γ-accounting diverged "
                    "from exact recomputation"
                )

    def as_mapping(self) -> Dict[str, str]:
        """instance id → leaf name for everything currently placed."""
        return dict(self._leaf_of)

    # ------------------------------------------------------------------
    def robust_load(self, node_name: str) -> float:
        return self.accountants[node_name].robust_load()

    def headroom_along_path(
        self, leaf_name: str, budgets: Dict[str, float]
    ) -> float:
        """Scarcest budgeted headroom on the leaf's root path (inf if none)."""
        slack = float("inf")
        for name in self.path(leaf_name):
            budget = budgets.get(name)
            if budget is None:
                continue
            slack = min(slack, self.accountants[name].headroom(budget))
        return slack

    def fits(
        self, instance_id: str, leaf_name: str, budgets: Dict[str, float]
    ) -> bool:
        """Would placing the instance keep every budgeted ancestor Γ-feasible?"""
        nominal = self.model.nominal_of(instance_id)
        radius = self.model.radius_of(instance_id)
        for name in self.path(leaf_name):
            budget = budgets.get(name)
            if budget is None:
                continue
            if self.accountants[name].load_if_added(nominal, radius) > budget + 1e-9:
                return False
        return True

    def slack_if_added(
        self, instance_id: str, leaf_name: str, budgets: Dict[str, float]
    ) -> float:
        """Scarcest post-placement headroom along the path (inf if unbudgeted)."""
        nominal = self.model.nominal_of(instance_id)
        radius = self.model.radius_of(instance_id)
        slack = float("inf")
        for name in self.path(leaf_name):
            budget = budgets.get(name)
            if budget is None:
                continue
            slack = min(
                slack,
                budget - self.accountants[name].load_if_added(nominal, radius),
            )
        return slack

    def slack_vector_if_added(
        self, instance_id: str, leaf_name: str, budgets: Dict[str, float]
    ) -> tuple:
        """Post-placement headrooms along the path, sorted ascending.

        The full vector matters when budgets are tight: candidate leaves
        share their upper ancestors, so once a shared level goes negative
        the scalar min is identical for every candidate and can no longer
        rank them.  Comparing the sorted vectors lexicographically (leximin)
        lets the leaf-local terms break exactly those ties.
        """
        nominal = self.model.nominal_of(instance_id)
        radius = self.model.radius_of(instance_id)
        slacks = []
        for name in self.path(leaf_name):
            budget = budgets.get(name)
            if budget is None:
                continue
            slacks.append(
                budget - self.accountants[name].load_if_added(nominal, radius)
            )
        slacks.sort()
        return tuple(slacks)


# ----------------------------------------------------------------------
# vectorised whole-tree sweeps
# ----------------------------------------------------------------------
def robust_node_loads(
    topology,
    assignment,
    model: UncertainPowerModel,
    gamma: int,
    *,
    nodes: Optional[Sequence] = None,
) -> Dict[str, float]:
    """Γ-robust load of every node (or of ``nodes``) under a placement."""
    result: Dict[str, float] = {}
    for node in nodes if nodes is not None else topology.nodes():
        members = assignment.instances_under(node.name)
        if not members:
            result[node.name] = 0.0
            continue
        nominal, radii = model.rows(members)
        result[node.name] = robust_load(nominal, radii, gamma)
    return result


def robust_node_headroom(
    topology,
    assignment,
    model: UncertainPowerModel,
    gamma: int,
) -> Dict[str, float]:
    """Budget minus Γ-robust load for every *budgeted* node.

    Unlike the nominal :func:`repro.infra.headroom.node_headroom` this is
    deliberately **not** floored at zero: a negative value is the signal
    that the node is Γ-infeasible — Γ simultaneous spikes would breach its
    budget — which is exactly what robust placement exists to prevent.
    """
    budgeted = [n for n in topology.nodes() if n.budget_watts is not None]
    loads = robust_node_loads(topology, assignment, model, gamma, nodes=budgeted)
    return {node.name: node.budget_watts - loads[node.name] for node in budgeted}
