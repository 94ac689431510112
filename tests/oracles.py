"""Slow reference implementations that the tests check mapfuse against."""

import math

import numpy as np

from mapfuse.association import AssociationMatrix, ClusterConfig
from mapfuse.geometry import angle_diff
from mapfuse.simworld import OCCLUSION_RAYS, _corners

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


def _first_ray_hits(origin, dirs, segments):
    """Min positive ray parameter against a segment soup.

    dirs: (R, 2); segments: (E, 2, 2).  Returns (R,) with inf for misses.
    """
    p = segments[:, 0, :] - origin          # (E, 2)
    e = segments[:, 1, :] - segments[:, 0, :]
    denom = dirs[:, 0, None] * e[None, :, 1] - dirs[:, 1, None] * e[None, :, 0]
    cpe = p[:, 0] * e[:, 1] - p[:, 1] * e[:, 0]          # (E,)
    cpu = p[None, :, 0] * dirs[:, 1, None] - p[None, :, 1] * dirs[:, 0, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cpe[None, :] / denom
        s = cpu / denom
    valid = (np.abs(denom) > 1e-12) & (s >= 0.0) & (s <= 1.0) & (t > 1e-9)
    t = np.where(valid, t, np.inf)
    return t.min(axis=1)


def visible_objects_per_target(scenario, vehicle, frame):
    """Reference visibility: one ray cast per target, one box at a time.

    Same contract as ``simworld.visible_objects``.
    """
    sensor = scenario.config.sensor
    ego = scenario.xy[frame, vehicle]
    heading = scenario.yaw[frame, vehicle]
    rel = scenario.xy[frame] - ego
    dist = np.hypot(rel[:, 0], rel[:, 1])
    dist[vehicle] = np.inf
    bearing = np.arctan2(rel[:, 1], rel[:, 0])
    ang = (bearing - heading + math.pi) % (2 * math.pi) - math.pi
    candidates = np.flatnonzero(
        (dist <= sensor.range) & (np.abs(ang) <= sensor.fov / 2.0)
    )
    if candidates.size == 0:
        return []

    in_range = np.flatnonzero(dist <= sensor.range)
    corners = {
        int(i): _corners(
            scenario.xy[frame, i : i + 1],
            scenario.yaw[frame, i : i + 1],
            scenario.extents[i : i + 1],
        )[0]
        for i in in_range
    }

    out = []
    for t_id in candidates:
        tc = corners[int(t_id)]
        corner_ang = (
            np.arctan2(tc[:, 1] - ego[1], tc[:, 0] - ego[0])
            - bearing[t_id] + math.pi
        ) % (2 * math.pi) - math.pi
        lo, hi = corner_ang.min(), corner_ang.max()
        ray_ang = bearing[t_id] + np.linspace(lo, hi, OCCLUSION_RAYS)
        dirs = np.stack([np.cos(ray_ang), np.sin(ray_ang)], axis=-1)

        target_seg = np.stack([tc, np.roll(tc, -1, axis=0)], axis=1)
        t_target = _first_ray_hits(ego, dirs, target_seg)

        occluders = [
            i for i in in_range
            if i != t_id and i != vehicle and dist[i] < dist[t_id]
        ]
        if occluders:
            occ_corners = np.concatenate(
                [
                    np.stack(
                        [corners[int(i)], np.roll(corners[int(i)], -1, axis=0)],
                        axis=1,
                    )
                    for i in occluders
                ]
            )
            t_occ = _first_ray_hits(ego, dirs, occ_corners)
        else:
            t_occ = np.full(OCCLUSION_RAYS, np.inf)

        hit = np.isfinite(t_target)
        if not hit.any():
            occl = 0.0
        else:
            blocked = hit & (t_occ < t_target - 1e-9)
            occl = float(blocked.sum()) / float(hit.sum())
        if occl >= 1.0 - 1e-12:
            continue
        out.append((int(t_id), float(dist[t_id]), occl))
    return out
