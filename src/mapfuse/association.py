"""Detection-to-object association across vehicles.

All vehicles' global-frame detections are clustered with DBSCAN over the
ground-plane centers.  Each cluster becomes one global object; the result
is the predicted object count and one binary assignment matrix per
vehicle.  A transitive-closure oracle with the same conventions is kept
alongside for testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mapfuse.geometry import ObjectState

ORACLE_MAX_POINTS = 200


@dataclass(frozen=True)
class ClusterConfig:
    """DBSCAN hyperparameters: neighborhood radius (m) and core threshold.

    The neighborhood boundary is inclusive (distance <= eps).  With the
    default min_pts of 1 every detection is a core point, so an object
    witnessed by a single vehicle still enters the global map.
    """

    eps: float = 2.0
    min_pts: int = 1

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be at least 1")


@dataclass
class AssociationMatrix:
    """Binary assignment of one vehicle's detections to global objects.

    entries has shape (N_k, M); each row sums to 0 or 1.
    """

    vehicle_id: int
    entries: np.ndarray

    def column_of(self, detection_index: int) -> int | None:
        """Global object index assigned to a detection, or None."""
        row = self.entries[detection_index]
        hits = np.flatnonzero(row)
        return int(hits[0]) if hits.size else None


def _neighbor_matrix(points: np.ndarray, eps: float) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    return dist2 <= eps * eps


def _attach_borders(labels, core_mask, neighbors, points, keys):
    """Assign each non-core point to its nearest core neighbor's cluster.

    Ties are broken by the smallest (vehicle_id, detection_index) core.
    Non-core points without a core neighbor keep label -1 (noise).
    """
    for i in np.flatnonzero(~core_mask):
        cores = np.flatnonzero(neighbors[i] & core_mask)
        if cores.size == 0:
            continue
        dists = np.linalg.norm(points[cores] - points[i], axis=1)
        best = min(zip(dists, (keys[j] for j in cores), cores))
        labels[i] = labels[best[2]]


def _partition(entries, cfg: ClusterConfig) -> list[int]:
    """Raw DBSCAN cluster labels (noise promoted to singletons later)."""
    n = len(entries)
    points = np.array([[e[2].center[0], e[2].center[1]] for e in entries])
    keys = [(e[0], e[1]) for e in entries]
    neighbors = _neighbor_matrix(points, cfg.eps)
    core_mask = neighbors.sum(axis=1) >= cfg.min_pts
    labels = np.full(n, -1, dtype=int)
    next_label = 0
    for seed in range(n):
        if not core_mask[seed] or labels[seed] >= 0:
            continue
        labels[seed] = next_label
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for j in np.flatnonzero(neighbors[cur] & core_mask):
                if labels[j] < 0:
                    labels[j] = next_label
                    frontier.append(j)
        next_label += 1
    _attach_borders(labels, core_mask, neighbors, points, keys)
    return list(labels)


def _closure_partition(entries, cfg: ClusterConfig) -> list[int]:
    """Same partition computed by explicit transitive closure."""
    n = len(entries)
    points = np.array([[e[2].center[0], e[2].center[1]] for e in entries])
    keys = [(e[0], e[1]) for e in entries]
    neighbors = _neighbor_matrix(points, cfg.eps)
    core_mask = neighbors.sum(axis=1) >= cfg.min_pts
    core_adj = neighbors & core_mask[None, :] & core_mask[:, None]
    reach = core_adj.copy()
    while True:
        nxt = reach | ((reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    labels = np.full(n, -1, dtype=int)
    next_label = 0
    for i in range(n):
        if not core_mask[i] or labels[i] >= 0:
            continue
        members = np.flatnonzero(reach[i] & core_mask)
        labels[members] = next_label
        labels[i] = next_label
        next_label += 1
    _attach_borders(labels, core_mask, neighbors, points, keys)
    return list(labels)


def _finalize(entries, labels, vehicle_ids):
    """Promote noise to singletons, order clusters, build matrices."""
    labels = list(labels)
    next_label = max(labels, default=-1) + 1
    for i, lab in enumerate(labels):
        if lab < 0:
            labels[i] = next_label
            next_label += 1
    # Deterministic ordering: by the smallest (vehicle_id, detection_index)
    # among each cluster's members.
    rep: dict[int, tuple[int, int]] = {}
    for (veh, idx, _), lab in zip(entries, labels):
        key = (veh, idx)
        if lab not in rep or key < rep[lab]:
            rep[lab] = key
    order = sorted(rep, key=rep.get)
    remap = {lab: m for m, lab in enumerate(order)}
    num_objects = len(order)

    if vehicle_ids is None:
        vehicle_ids = sorted({veh for veh, _, _ in entries})
    counts = {veh: 0 for veh in vehicle_ids}
    for veh, idx, _ in entries:
        if veh not in counts:
            raise ValueError(f"detection references unknown vehicle {veh}")
        counts[veh] = max(counts[veh], idx + 1)
    matrices = {
        veh: np.zeros((counts[veh], num_objects), dtype=np.int8)
        for veh in vehicle_ids
    }
    for (veh, idx, _), lab in zip(entries, labels):
        matrices[veh][idx, remap[lab]] = 1
    return num_objects, [
        AssociationMatrix(vehicle_id=veh, entries=matrices[veh])
        for veh in vehicle_ids
    ]


def cluster_detections(
    detections: Sequence[tuple[int, int, ObjectState]],
    cfg: ClusterConfig,
    vehicle_ids: Sequence[int] | None = None,
) -> tuple[int, list[AssociationMatrix]]:
    """Cluster global-frame detections into global objects.

    detections are (vehicle_id, detection_index, state) triples.  Returns
    the predicted object count and one association matrix per vehicle.
    Noise points are promoted to singleton clusters so that no detection
    vanishes before the pruning stage can adjudicate it.
    """
    if not detections:
        if vehicle_ids:
            return 0, [
                AssociationMatrix(veh, np.zeros((0, 0), dtype=np.int8))
                for veh in vehicle_ids
            ]
        return 0, []
    labels = _partition(detections, cfg)
    return _finalize(detections, labels, vehicle_ids)


def cluster_brute_force_oracle(
    detections: Sequence[tuple[int, int, ObjectState]],
    cfg: ClusterConfig,
    vehicle_ids: Sequence[int] | None = None,
) -> tuple[int, list[AssociationMatrix]]:
    """Reference clustering via transitive closure; capped at 200 points."""
    if len(detections) > ORACLE_MAX_POINTS:
        raise ValueError(
            f"oracle capped at {ORACLE_MAX_POINTS} detections, "
            f"got {len(detections)}"
        )
    if not detections:
        return cluster_detections(detections, cfg, vehicle_ids)
    labels = _closure_partition(detections, cfg)
    return _finalize(detections, labels, vehicle_ids)
