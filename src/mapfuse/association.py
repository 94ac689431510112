"""Detection-to-object association across vehicles.

All vehicles' global-frame detections are grouped into the connected
components of the graph that links two detections whose ground-plane
centers lie within eps of each other.  This is DBSCAN with MinPts = 1:
every detection is a core point, so there is neither noise nor border.
Each component becomes one global object; the result is the predicted
object count and one binary assignment matrix per vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mapfuse.geometry import ObjectState


@dataclass(frozen=True)
class ClusterConfig:
    """Neighborhood radius (m) of the association graph.

    The boundary is inclusive (distance <= eps).  An object witnessed by a
    single vehicle becomes a cluster of its own.
    """

    eps: float = 2.0

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")


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


def _components(entries, eps: float) -> tuple[int, list[int]]:
    """Connected components of the eps graph as (count, label per entry).

    Components are numbered by their smallest (vehicle_id,
    detection_index) key, which fixes the column order of the matrices.
    """
    points = np.array(
        [[e[2].center[0], e[2].center[1]] for e in entries], dtype=float
    ).reshape(-1, 2)
    neighbors = _neighbor_matrix(points, eps)
    labels = [-1] * len(entries)
    count = 0
    for seed in sorted(range(len(entries)), key=lambda i: entries[i][:2]):
        if labels[seed] >= 0:
            continue
        labels[seed] = count
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for j in np.flatnonzero(neighbors[cur]):
                if labels[j] < 0:
                    labels[j] = count
                    frontier.append(j)
        count += 1
    return count, labels


def cluster_detections(
    detections: Sequence[tuple[int, int, ObjectState]],
    cfg: ClusterConfig,
    vehicle_ids: Sequence[int] | None = None,
) -> tuple[int, list[AssociationMatrix]]:
    """Cluster global-frame detections into global objects.

    detections are (vehicle_id, detection_index, state) triples.  Returns
    the predicted object count and one association matrix per vehicle
    (by default, per vehicle seen, in id order); every detection lands in
    exactly one cluster.  vehicle_ids must not repeat.
    """
    if vehicle_ids is None:
        vehicle_ids = sorted({veh for veh, _, _ in detections})
    elif len(set(vehicle_ids)) != len(vehicle_ids):
        # Detections are keyed by (vehicle_id, index): a repeated id would
        # merge two vehicles' maps and silently drop detections.
        raise ValueError(f"duplicate vehicle ids in {list(vehicle_ids)}")
    num_objects, labels = _components(detections, cfg.eps)
    counts = {veh: 0 for veh in vehicle_ids}
    for veh, idx, _ in detections:
        if veh not in counts:
            raise ValueError(f"detection references unknown vehicle {veh}")
        counts[veh] = max(counts[veh], idx + 1)
    matrices = {
        veh: np.zeros((counts[veh], num_objects), dtype=np.int8)
        for veh in vehicle_ids
    }
    for (veh, idx, _), label in zip(detections, labels):
        matrices[veh][idx, label] = 1
    return num_objects, [
        AssociationMatrix(vehicle_id=veh, entries=matrices[veh])
        for veh in vehicle_ids
    ]
