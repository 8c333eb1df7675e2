"""K-means clustering over asynchrony-score vectors (Sec. 3.5).

The paper embeds every instance as a point in the |B|-dimensional space
spanned by its I-to-S asynchrony scores and applies k-means to group
*synchronous* instances together (so the placer can then spread each group
across power nodes).  Two requirements shape this implementation:

* **determinism** — placements must be reproducible, so all randomness flows
  from an explicit seed;
* **equal-size clusters** — Sec. 3.5: "Each of these clusters have the same
  number of instances", which makes the round-robin distribution exact.
  :func:`balanced_kmeans` enforces that with a capacity-constrained
  assignment step on top of Lloyd iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of a clustering run.

    Attributes
    ----------
    labels:
        Cluster index per point, shape ``(n_points,)``.
    centroids:
        Cluster centres, shape ``(k, n_dims)``.
    inertia:
        Sum of squared distances of points to their assigned centroid.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the points assigned to ``cluster``."""
        if not 0 <= cluster < self.k:
            raise IndexError(f"cluster {cluster} out of range (k={self.k})")
        return np.flatnonzero(self.labels == cluster)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            centroids[i] = points[int(rng.integers(n))]
            continue
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = points[choice]
        distance_sq = ((points - centroids[i]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> ClusteringResult:
    """Standard Lloyd's k-means with k-means++ seeding and restarts."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    best: Optional[ClusteringResult] = None
    for _ in range(max(1, n_init)):
        obs.count("cluster.restarts")
        centroids = _kmeans_pp_init(points, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(max_iter):
            obs.count("cluster.lloyd_iterations")
            distances = _pairwise_sq_distances(points, centroids)
            labels = distances.argmin(axis=1)
            new_centroids = _recompute_centroids(points, labels, centroids, rng)
            shift = float(((new_centroids - centroids) ** 2).sum())
            centroids = new_centroids
            if shift <= tol:
                break
        distances = _pairwise_sq_distances(points, centroids)
        labels = distances.argmin(axis=1)
        inertia = float(distances[np.arange(n), labels].sum())
        candidate = ClusteringResult(labels=labels, centroids=centroids, inertia=inertia)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best


def balanced_kmeans(
    points: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 100,
    balance_rounds: int = 4,
) -> ClusteringResult:
    """K-means with (near-)equal cluster sizes.

    Cluster sizes differ by at most one: ``n mod k`` clusters receive
    ``ceil(n/k)`` points, the rest ``floor(n/k)``.  Assignment is a greedy
    capacity-constrained fill: (point, cluster) pairs are taken in order of
    ascending distance, each point landing in the nearest cluster that still
    has room.  Centroids are then recomputed and the fill repeated for
    ``balance_rounds`` rounds.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    with obs.span("cluster", points=n, k=k):
        unbalanced = kmeans(points, k, seed=seed, n_init=n_init, max_iter=max_iter)
        centroids = unbalanced.centroids
        labels = unbalanced.labels
        for _ in range(max(1, balance_rounds)):
            obs.count("cluster.balance_rounds")
            labels = _capacity_assign(points, centroids, k)
            rng = np.random.default_rng(seed)
            centroids = _recompute_centroids(points, labels, centroids, rng)
        distances = _pairwise_sq_distances(points, centroids)
        inertia = float(distances[np.arange(n), labels].sum())
        return ClusteringResult(labels=labels, centroids=centroids, inertia=inertia)


def _capacity_assign(points: np.ndarray, centroids: np.ndarray, k: int) -> np.ndarray:
    """Greedy balanced assignment of points to capacity-limited clusters."""
    n = points.shape[0]
    base, remainder = divmod(n, k)
    capacities = np.full(k, base, dtype=np.int64)
    capacities[:remainder] += 1

    distances = _pairwise_sq_distances(points, centroids)
    # Process points hardest-to-place first: those with the largest gap
    # between their best and worst option have the most to lose.
    spread = distances.max(axis=1) - distances.min(axis=1)
    order = np.argsort(-spread, kind="stable")

    # Every point's clusters, nearest first — one row-wise stable sort.
    ranked = np.argsort(distances, axis=1, kind="stable").tolist()
    labels = np.full(n, -1, dtype=np.int64)
    remaining = capacities.tolist()
    for point in order.tolist():
        for cluster in ranked[point]:
            if remaining[cluster] > 0:
                labels[point] = cluster
                remaining[cluster] -= 1
                break
    assert (labels >= 0).all()
    return labels


def _pairwise_sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(n_points, k)``."""
    diff = points[:, np.newaxis, :] - centroids[np.newaxis, :, :]
    return (diff * diff).sum(axis=2)


def _recompute_centroids(
    points: np.ndarray,
    labels: np.ndarray,
    previous: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean of each cluster; empty clusters re-seeded from a random point."""
    k = previous.shape[0]
    centroids = previous.copy()
    # Members of each cluster as one contiguous block, in index order: the
    # same rows ``points[labels == cluster]`` would gather, so each mean
    # reduces exactly as a per-cluster gather would.
    grouped = points[np.argsort(labels, kind="stable")]
    start = 0
    for cluster, end in enumerate(np.cumsum(np.bincount(labels, minlength=k)).tolist()):
        if end > start:
            centroids[cluster] = np.add.reduce(grouped[start:end], axis=0) / (end - start)
        else:
            centroids[cluster] = points[int(rng.integers(points.shape[0]))]
        start = end
    return centroids
