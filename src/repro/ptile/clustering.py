"""Viewing-center clustering (paper Algorithm 1).

Users with similar viewing interests have nearby viewing centers.  The
paper clusters them with a density-style expansion bounded by two
parameters:

* ``delta`` — two viewing centers belong to the same cluster when their
  distance is at most delta (the close-neighbor radius).
* ``sigma`` — the maximum allowed distance between any two members of a
  cluster; a cluster whose diameter exceeds sigma is split in two with
  k-means (k=2), keeping Ptiles from growing too large (Fig. 6).

The algorithm:

1. precompute each node's close neighbors ``N_u`` (distance <= delta);
2. seed a cluster at the node with the most close neighbors and expand
   it breadth-first through close-neighbor links;
3. if the resulting cluster's diameter exceeds sigma, split it with
   2-means;
4. repeat until every node is clustered.

Distances are planar Euclidean on the equirectangular frame with yaw
wraparound (:func:`repro.geometry.sphere.equirect_distance`).  All tie
breaking is deterministic (lowest user id), so clustering is exactly
reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..geometry.sphere import equirect_distance

__all__ = ["ViewingCenter", "Cluster", "cluster_viewing_centers"]

# Relative slack of the numpy prefilters, far above the few-ulp gap
# between numpy's and ``math``'s evaluation of the same distance.
_PREFILTER_SLACK = 1e-9


@dataclass(frozen=True, order=True)
class ViewingCenter:
    """One user's viewing center at a given segment."""

    user_id: int
    yaw: float
    pitch: float

    def distance_to(self, other: "ViewingCenter") -> float:
        return equirect_distance(self.yaw, self.pitch, other.yaw, other.pitch)


@dataclass(frozen=True)
class Cluster:
    """A group of viewing centers with similar interests."""

    members: tuple[ViewingCenter, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("cluster cannot be empty")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    def diameter(self) -> float:
        """Maximum pairwise distance between members (degrees)."""
        best = 0.0
        members = self.members
        for i, j in _diameter_candidates(members):
            best = max(best, members[i].distance_to(members[j]))
        return best

    def centroid(self) -> tuple[float, float]:
        """Wrap-aware centroid (circular mean yaw, plain mean pitch)."""
        yaws = np.radians([m.yaw for m in self.members])
        pitch = float(np.mean([m.pitch for m in self.members]))
        yaw = float(
            np.degrees(np.arctan2(np.mean(np.sin(yaws)), np.mean(np.cos(yaws))))
        ) % 360.0
        return yaw, pitch

    def user_ids(self) -> tuple[int, ...]:
        return tuple(m.user_id for m in self.members)


def cluster_viewing_centers(
    centers: list[ViewingCenter] | tuple[ViewingCenter, ...],
    delta: float,
    sigma: float,
    recursive_split: bool = False,
) -> list[Cluster]:
    """Algorithm 1: cluster viewing centers.

    ``recursive_split=False`` matches the paper's pseudocode exactly
    (one 2-means split per oversized cluster); ``True`` keeps splitting
    until every cluster's diameter is within sigma.

    Returns clusters sorted by size descending (ties by lowest member
    user id).
    """
    if delta <= 0 or sigma <= 0:
        raise ValueError("delta and sigma must be positive")
    nodes = sorted(centers)
    if len({c.user_id for c in nodes}) != len(nodes):
        raise ValueError("duplicate user ids among viewing centers")
    if not nodes:
        return []

    # Line 1: close-neighbor sets over the full input.
    neighbors = _close_neighbors(nodes, delta)

    remaining: dict[int, ViewingCenter] = {u.user_id: u for u in nodes}
    clusters: list[Cluster] = []
    while remaining:
        members = _expand_cluster(remaining, neighbors)
        cluster = Cluster(tuple(sorted(members)))
        if cluster.diameter() > sigma:
            clusters.extend(_split(cluster, sigma, recursive_split))
        else:
            clusters.append(cluster)

    clusters.sort(key=lambda c: (-c.size, c.members[0].user_id))
    return clusters


def _wrapped_offsets(
    centers: tuple[ViewingCenter, ...] | list[ViewingCenter],
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise wrap-aware |delta yaw| and |delta pitch| matrices, by
    the same float operations as :func:`equirect_distance`."""
    yaws = np.array([c.yaw for c in centers]) % 360.0
    pitches = np.array([c.pitch for c in centers])
    dyaw = np.abs(yaws[:, None] - yaws[None, :])
    dyaw = np.minimum(dyaw, 360.0 - dyaw)
    dpitch = np.abs(pitches[:, None] - pitches[None, :])
    return dyaw, dpitch


def _close_neighbors(
    nodes: list[ViewingCenter], delta: float
) -> dict[int, list[ViewingCenter]]:
    """Each node's close neighbors (distance <= delta), in node order.

    A pair within delta has both |delta yaw| and |delta pitch| within
    delta (the distance is their hypotenuse), so a numpy bound on both
    prefilters the pairs; every candidate is then confirmed with
    :func:`equirect_distance` itself, once per unordered pair (the
    distance is symmetric), so each ``<= delta`` decision is exactly
    the scalar one.
    """
    neighbors: dict[int, list[ViewingCenter]] = {u.user_id: [] for u in nodes}
    dyaw, dpitch = _wrapped_offsets(nodes)
    bound = delta + _PREFILTER_SLACK * max(1.0, delta)
    mask = (dyaw <= bound) & (dpitch <= bound)
    # NaN coordinates fail every comparison, as in the scalar test.
    rows, cols = np.nonzero(np.triu(mask, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        u, v = nodes[i], nodes[j]
        if u.distance_to(v) <= delta:
            neighbors[u.user_id].append(v)
            neighbors[v.user_id].append(u)
    return neighbors


def _diameter_candidates(
    members: tuple[ViewingCenter, ...],
) -> list[tuple[int, int]]:
    """Index pairs ``i < j`` that can realize a cluster's diameter.

    A numpy estimate of every pairwise distance keeps the pairs within
    a relative slack of the largest estimate, which always includes the
    exact farthest pair; non-finite coordinates keep every pair.
    """
    n = len(members)
    if n < 2:
        return []
    dyaw, dpitch = _wrapped_offsets(members)
    estimate = np.triu(np.hypot(dyaw, dpitch), 1)
    if not np.isfinite(estimate).all():
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    top = float(estimate.max())
    cutoff = top - _PREFILTER_SLACK * max(1.0, top)
    rows, cols = np.nonzero(estimate >= cutoff)
    return [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < j]


def _expand_cluster(
    remaining: dict[int, ViewingCenter],
    neighbors: dict[int, list[ViewingCenter]],
) -> list[ViewingCenter]:
    """ClusterFunc of Algorithm 1: seed at max close-neighbor count and
    expand breadth-first; mutates ``remaining`` by removing members."""
    seed_id = max(remaining, key=lambda uid: (len(neighbors[uid]), -uid))
    seed = remaining.pop(seed_id)
    members = [seed]
    queue: deque[ViewingCenter] = deque([seed])
    while queue:
        u = queue.popleft()
        for n in neighbors[u.user_id]:
            if n.user_id in remaining:
                members.append(remaining.pop(n.user_id))
                queue.append(n)
    return members


def _split(cluster: Cluster, sigma: float, recursive: bool) -> list[Cluster]:
    """Split an oversized cluster with 2-means (optionally recursing)."""
    if len(cluster) < 2:
        return [cluster]
    left, right = _two_means(cluster)
    result: list[Cluster] = []
    for part in (left, right):
        if recursive and part.diameter() > sigma and len(part) >= 2:
            result.extend(_split(part, sigma, recursive))
        else:
            result.append(part)
    return result


def _two_means(cluster: Cluster, max_iterations: int = 100) -> tuple[Cluster, Cluster]:
    """Deterministic 2-means in a wrap-free local frame.

    Yaws are re-expressed relative to the first member so the cluster
    (diameter bounded in practice) never straddles the seam; centroids
    are initialized at the diameter pair, the most stable seeding.
    """
    members = cluster.members
    ref = members[0].yaw
    points = np.array(
        [[(m.yaw - ref + 180.0) % 360.0 - 180.0, m.pitch] for m in members]
    )

    # Initialize at the farthest pair.
    best_pair = (0, 1)
    best_dist = -1.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = float(np.linalg.norm(points[i] - points[j]))
            if d > best_dist:
                best_dist = d
                best_pair = (i, j)
    centroids = points[list(best_pair)].copy()

    assignment = np.full(len(members), -1, dtype=int)
    for _iteration in range(max_iterations):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        new_assignment = np.argmin(dists, axis=1)
        # Keep both clusters non-empty (possible with duplicate points).
        for k in (0, 1):
            if not np.any(new_assignment == k):
                new_assignment[best_pair[k]] = k
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for k in (0, 1):
            centroids[k] = points[assignment == k].mean(axis=0)

    left = tuple(sorted(m for m, a in zip(members, assignment) if a == 0))
    right = tuple(sorted(m for m, a in zip(members, assignment) if a == 1))
    return Cluster(left), Cluster(right)
