"""Slow reference implementations that the tests check mapfuse against."""

import numpy as np

from mapfuse.association import AssociationMatrix, ClusterConfig
from mapfuse.geometry import angle_diff

ORACLE_MAX_POINTS = 200


def _closure_partition(entries, cfg: ClusterConfig) -> list[int]:
    """Cluster labels from the transitive closure of the eps graph."""
    points = np.array([[e[2].center[0], e[2].center[1]] for e in entries])
    diff = points[:, None, :] - points[None, :, :]
    reach = (diff ** 2).sum(axis=2) <= cfg.eps * cfg.eps
    while True:
        nxt = reach | ((reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    labels = [-1] * len(entries)
    next_label = 0
    for i in range(len(entries)):
        if labels[i] < 0:
            for j in np.flatnonzero(reach[i]):
                labels[j] = next_label
            next_label += 1
    return labels


def cluster_brute_force_oracle(detections, cfg: ClusterConfig,
                               vehicle_ids=None):
    """Reference clustering via transitive closure; capped at 200 points.

    Same return convention as ``cluster_detections``: clusters ordered by
    their smallest (vehicle_id, detection_index) member.
    """
    if len(detections) > ORACLE_MAX_POINTS:
        raise ValueError(
            f"oracle capped at {ORACLE_MAX_POINTS} detections, "
            f"got {len(detections)}"
        )
    labels = _closure_partition(detections, cfg) if detections else []
    rep = {}
    for (veh, idx, _), lab in zip(detections, labels):
        rep[lab] = min(rep.get(lab, (veh, idx)), (veh, idx))
    column = {lab: m for m, lab in enumerate(sorted(rep, key=rep.get))}
    if vehicle_ids is None:
        vehicle_ids = sorted({veh for veh, _, _ in detections})
    counts = {veh: 0 for veh in vehicle_ids}
    for veh, idx, _ in detections:
        counts[veh] = max(counts[veh], idx + 1)
    matrices = {veh: np.zeros((counts[veh], len(rep)), dtype=np.int8)
                for veh in vehicle_ids}
    for (veh, idx, _), lab in zip(detections, labels):
        matrices[veh][idx, column[lab]] = 1
    return len(rep), [AssociationMatrix(veh, matrices[veh])
                      for veh in vehicle_ids]


def weighted_ls_objective(candidate, states, weights) -> float:
    """Weighted squared-residual objective a fused object minimizes.

    Continuous fields use plain residuals; yaw uses the wrapped angular
    difference.
    """
    total = 0.0
    cv = candidate.to_vector()[1:7]
    for s, w in zip(states, weights):
        r = cv - s.to_vector()[1:7]
        total += w * (float(r @ r) + angle_diff(candidate.yaw, s.yaw) ** 2)
    return total
