"""Detection-to-object association across vehicles.

All vehicles' global-frame detections are grouped into the connected
components of the graph that links two detections whose ground-plane
centers lie within eps of each other.  This is DBSCAN with MinPts = 1:
every detection is a core point, so there is neither noise nor border.
Each component becomes one global object; the result is the predicted
object count and one cluster label per detection.
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


def cluster_detections(
    detections: Sequence[tuple[int, int, ObjectState]],
    cfg: ClusterConfig,
) -> tuple[int, list[int]]:
    """Cluster global-frame detections into global objects.

    detections are (vehicle_id, detection_index, state) triples.  Returns
    the predicted object count and one cluster label per detection, in
    input order; every detection lands in exactly one cluster.  Clusters
    are numbered by their smallest (vehicle_id, detection_index) member.
    """
    points = np.array(
        [[e[2].center[0], e[2].center[1]] for e in detections], dtype=float
    ).reshape(-1, 2)
    diff = points[:, None, :] - points[None, :, :]
    neighbors = np.einsum("ijk,ijk->ij", diff, diff) <= cfg.eps * cfg.eps
    labels = [-1] * len(detections)
    count = 0
    for seed in sorted(range(len(detections)), key=lambda i: detections[i][:2]):
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
