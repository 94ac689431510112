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
    n = len(detections)
    if not n:
        return 0, []
    x, y = np.array([e[2].center[:2] for e in detections], dtype=float).T
    # Centres far apart may overflow to an infinite distance: no link.
    with np.errstate(over="ignore"):
        dx = x[:, None] - x
        dy = y[:, None] - y
        neighbors = dx * dx + dy * dy <= cfg.eps * cfg.eps
    # Work in rank order of (vehicle_id, detection_index): each detection
    # takes the smallest rank among its neighbours and itself, then jumps
    # to its label's label, until nothing changes.  Labels only fall and
    # stay inside their component, so each ends at the component's
    # smallest rank; jumping keeps a long chain to a few passes.
    keys = [e[:2] for e in detections]
    order = np.array(sorted(range(n), key=keys.__getitem__))
    linked = neighbors[order][:, order]
    label = np.arange(n)
    while True:
        nxt = np.where(linked, label, n).min(axis=1)
        nxt = nxt[nxt]
        if (nxt == label).all():
            break
        label = nxt
    # Each component's smallest rank is its own label: numbering those
    # roots in rank order numbers the clusters by their smallest member.
    root = label == np.arange(n)
    labels = np.empty(n, dtype=int)
    labels[order] = (np.cumsum(root) - 1)[label]
    return int(root.sum()), labels.tolist()
