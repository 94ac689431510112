"""Slow reference implementations that the tests check mapfuse against."""

import math
import struct

import numpy as np

from mapfuse.association import ClusterConfig
from mapfuse.evalbench import SLICE_NAMES, match_detections
from mapfuse.fedlearn import (
    F_CATEGORY,
    F_CONST,
    F_COS_YAW,
    F_DISTANCE,
    F_HEIGHT,
    F_OCCLUSION,
    F_SCORE,
    F_SIN_YAW,
    F_X,
    FEATURE_DIM,
    FEATURE_SCALES,
    LabelSet,
    LossBreakdown,
    ModelParams,
    ModelSpec,
    SensorFrame,
    _check_features,
    _check_params,
    _heads,
    _smooth_l1,
    _smooth_l1_grad,
    direction_bin,
    fedavg,
)
from mapfuse.geometry import (
    _DEGENERATE_AREA,
    IDENTITY_POSE,
    ObjectState,
    _footprint_overlap,
    angle_diff,
    iou_bev,
    wrap_angle,
)
from mapfuse.fusion import (
    _TINY,
    Boxes,
    FusionResult,
    GlobalMap,
    LocalMap,
    ScoredDetection,
    _sigmoid,
)
from mapfuse.orchestrator import (
    BROADCAST_ID,
    MESSAGE_MAGIC,
    MESSAGE_VERSION,
    SERVER_ID,
    CodecError,
    MessageKind,
    V2xMessage,
)
from mapfuse.simworld import (
    FP_SCORE_MEAN,
    FP_SCORE_SIGMA,
    OCCLUSION_RAYS,
    SCORE_BASE,
    SCORE_DIST_COEFF,
    SCORE_OCCL_COEFF,
    _corners,
)

ORACLE_MAX_POINTS = 200


# --- frame transforms and ground truth, one box at a time ------------------


def transform_to_global_reference(obj, pose):
    """Reference ``geometry.transform_to_global``: the scalar expressions."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    x, y, z = obj.center
    px, py, pz = pose.position
    return ObjectState(
        category=obj.category,
        center=(c * x - s * y + px, s * x + c * y + py, z + pz),
        extents=obj.extents,
        yaw=obj.yaw + pose.heading,
    )


def transform_to_local_reference(obj, pose):
    """Reference ``geometry.transform_to_local``: the scalar expressions."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    px, py, pz = pose.position
    x, y, z = obj.center
    dx, dy = x - px, y - py
    return ObjectState(
        category=obj.category,
        center=(c * dx + s * dy, -s * dx + c * dy, z - pz),
        extents=obj.extents,
        yaw=obj.yaw - pose.heading,
    )


def object_state_reference(scenario, frame, obj):
    """Reference ``Scenario.object_state``: one object read field by field
    from the scenario's arrays."""
    return ObjectState(
        category=int(scenario.categories[obj]),
        center=(scenario.xy[frame, obj, 0], scenario.xy[frame, obj, 1],
                scenario.z[obj]),
        extents=tuple(scenario.extents[obj]),
        yaw=scenario.yaw[frame, obj],
    )

# Two 1.46 x 2.74 footprints whose bounding circles meet where pow() and a
# product round one ulp apart: squared with pow(), the center distance lies
# beyond the sum of the half-diagonals; squared as reach * reach, as both
# iou_bev's circle test and the array prefilter do, it does not.  The
# footprints' facing edges lie 1.64 m apart, so their IoU is 0 either way.
POW_BOUNDARY_PAIR = (
    ObjectState(0, (0.0, 0.0, 0.0), (1.46, 2.74, 1.0), 0.0),
    ObjectState(0, (float.fromhex("0x1.8d670278e0d37p+1"), 0.0, 0.0),
                (1.46, 2.74, 1.0), 0.0),
)
# The same pair with the second center one ulp farther out: beyond the
# reach under either squaring.
OUTSIDE_BOUNDARY_PAIR = (
    POW_BOUNDARY_PAIR[0],
    ObjectState(0, (float.fromhex("0x1.8d670278e0d38p+1"), 0.0, 0.0),
                (1.46, 2.74, 1.0), 0.0),
)


def rsu_label_reference(teacher, state, frame):
    """Reference ``RoadSideUnit.label``: one object distance scan per
    box."""
    if not teacher.covers(state):
        return None
    xy = teacher.scenario.xy[frame]
    d = np.hypot(xy[:, 0] - state.center[0], xy[:, 1] - state.center[1])
    best = int(np.argmin(d))
    if d[best] > teacher.match_radius:
        return None
    return object_state_reference(teacher.scenario, frame, best)


def distill_labels_reference(local_maps, result, frame, registry=()):
    """Reference ``distill.distill_labels``: per fused box, the teachers
    asked in turn, and each target moved into a vehicle's frame on its
    own."""
    targets = []
    for fused_state, _ in result.fused_all:
        for teacher in registry:
            target = rsu_label_reference(teacher, fused_state, frame)
            if target is not None:
                break
        else:
            target = fused_state
        targets.append(target)
    return {lm.vehicle_id: LabelSet(lm.frame_time, tuple(
                transform_to_local_reference(targets[cluster], lm.pose)
                for cluster in result.labels[lm.vehicle_id]))
            for lm in local_maps}


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


def cluster_brute_force_oracle(detections, cfg: ClusterConfig):
    """Reference clustering via transitive closure; capped at 200 points.

    Same return convention as ``cluster_detections``: the cluster count
    and one label per detection, clusters numbered by their smallest
    (vehicle_id, detection_index) member.
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
    number = {lab: m for m, lab in enumerate(sorted(rep, key=rep.get))}
    return len(rep), [number[lab] for lab in labels]


def compute_weights_reference(scores):
    """Reference ``fusion.compute_weights``: one cluster's normalized
    sigmoid weights, with the exp(s - max s) limit when even the largest
    sigmoid is subnormal."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cluster must be non-empty")
    raw = _sigmoid(scores)
    if not raw.max() >= _TINY:
        raw = np.exp(scores - scores.max())
    return raw / raw.sum()


def fuse_cluster_reference(states, scores, weights):
    """Reference ``fusion.fuse_cluster``: one cluster at a time."""
    w = np.asarray(weights, dtype=float)
    vecs = np.stack([s.to_vector() for s in states])
    cont = w @ vecs[:, 1:7]
    ref = states[int(np.argmax(w))].yaw
    yaws = np.array([
        s.yaw if abs(angle_diff(s.yaw, ref)) <= math.pi / 2
        else s.yaw + math.pi
        for s in states
    ])
    sin_sum = float(w @ np.sin(yaws))
    cos_sum = float(w @ np.cos(yaws))
    if math.hypot(sin_sum, cos_sum) < 1e-12:
        yaw = ref
    else:
        yaw = math.atan2(sin_sum, cos_sum)
    votes = {}
    for s, wi in zip(states, w):
        votes[s.category] = votes.get(s.category, 0.0) + float(wi)
    category = min(votes, key=lambda c: (-votes[c], c))
    fused_score = float(w @ np.asarray(scores, dtype=float))
    state = ObjectState(
        category=category,
        center=(cont[0], cont[1], cont[2]),
        extents=(cont[3], cont[4], cont[5]),
        yaw=wrap_angle(yaw),
    )
    return state, fused_score


def max_score_reference(states, scores):
    """Reference max-score rule: the highest-scoring member, ties to the
    lowest index."""
    best = max(range(len(states)), key=lambda i: (scores[i], -i))
    return states[best], float(scores[best])


def prune_overlaps_reference(objects, delta):
    """Reference ``fusion.prune_overlaps``: every candidate against every
    kept object with the scalar ``iou_bev``."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    order = sorted(range(len(objects)), key=lambda i: (-objects[i][1], i))
    kept = []
    for i in order:
        state, score = objects[i]
        if all(iou_bev(state, k[0]) <= delta for k in kept):
            kept.append((state, score))
    return kept


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

    Returns ``simworld.visible_objects(scenario, frame)[vehicle]``.
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


def ray_hits_reference(origins, dx, dy, starts, edges):
    """Positive ray parameter of each row's rays against each of its
    segments, all segments at once: (P, E, R) with inf where the ray
    misses.  simworld._ray_hits is its minimum over the segments.

    origins: (P, 2); ray directions (dx, dy): (P, R) each; segment k of
    row n runs from starts[n, k] to starts[n, k] + edges[n, k], both
    (P, E, 2).
    """
    p = starts - origins[:, None, :]                      # (P, E, 2)
    px, py = p[..., 0, None], p[..., 1, None]             # (P, E, 1)
    ex, ey = edges[..., 0, None], edges[..., 1, None]
    dx, dy = dx[:, None], dy[:, None]                     # (P, 1, R)
    denom = dx * ey - dy * ex
    cpe = px * ey - py * ex
    cpu = px * dy - py * dx
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = cpe / denom
        s = cpu / denom
    valid = (np.abs(denom) > 1e-12) & (s >= 0.0) & (s <= 1.0) & (t > 1e-9)
    return np.where(valid, t, np.inf)


def _segment_ray_hits(origin, dirs, segments):
    """Positive ray parameter of every ray against every segment.

    dirs: (..., 2); segments: (E, 2, 2).  Returns (..., E) with inf where
    the ray misses the segment.
    """
    p = segments[:, 0, :] - origin          # (E, 2)
    e = segments[:, 1, :] - segments[:, 0, :]
    dx, dy = dirs[..., 0, None], dirs[..., 1, None]
    denom = dx * e[:, 1] - dy * e[:, 0]
    cpe = p[:, 0] * e[:, 1] - p[:, 1] * e[:, 0]          # (E,)
    cpu = p[:, 0] * dy - p[:, 1] * dx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cpe / denom
        s = cpu / denom
    valid = (np.abs(denom) > 1e-12) & (s >= 0.0) & (s <= 1.0) & (t > 1e-9)
    return np.where(valid, t, np.inf)


def visible_objects_per_vehicle(scenario, vehicle, frame):
    """Reference visibility: one vehicle's targets against every in-range
    footprint's edges at once.

    Returns ``simworld.visible_objects(scenario, frame)[vehicle]``.
    """
    sensor = scenario.config.sensor
    ego = scenario.xy[frame, vehicle]
    heading = scenario.yaw[frame, vehicle]
    rel = scenario.xy[frame] - ego
    dist = np.hypot(rel[:, 0], rel[:, 1])
    dist[vehicle] = np.inf
    bearing = np.arctan2(rel[:, 1], rel[:, 0])
    ang = (bearing - heading + math.pi) % (2 * math.pi) - math.pi
    in_range = dist <= sensor.range
    targets = np.flatnonzero(in_range & (np.abs(ang) <= sensor.fov / 2.0))
    if targets.size == 0:
        return []

    # Every in-range footprint is a target's own outline or a possible
    # occluder; its four edges are segments tagged with their owner.
    owners = np.flatnonzero(in_range)
    corners = _corners(
        scenario.xy[frame, owners], scenario.yaw[frame, owners],
        scenario.extents[owners],
    )                                                     # (n, 4, 2)
    segments = np.stack(
        [corners, np.roll(corners, -1, axis=1)], axis=2
    ).reshape(-1, 2, 2)                                   # (4n, 2, 2)
    owner = np.repeat(owners, 4)

    tc = corners[np.searchsorted(owners, targets)]        # (T, 4, 2)
    corner_ang = (
        np.arctan2(tc[..., 1] - ego[1], tc[..., 0] - ego[0])
        - bearing[targets, None] + math.pi
    ) % (2 * math.pi) - math.pi
    ray_ang = bearing[targets, None] + np.linspace(
        corner_ang.min(axis=1), corner_ang.max(axis=1), OCCLUSION_RAYS,
        axis=-1,
    )                                                     # (T, R)
    dirs = np.stack([np.cos(ray_ang), np.sin(ray_ang)], axis=-1)
    t = _segment_ray_hits(ego, dirs, segments)            # (T, R, 4n)

    own = owner == targets[:, None, None]
    nearer = dist[owner] < dist[targets, None, None]
    t_target = np.where(own, t, np.inf).min(axis=2)
    t_occ = np.where(nearer, t, np.inf).min(axis=2)
    hit = np.isfinite(t_target)
    blocked = hit & (t_occ < t_target - 1e-9)
    # A target no ray hits has no blocked ray either: 0 / 1 = 0.
    occl = blocked.sum(axis=1) / np.maximum(hit.sum(axis=1), 1)
    return [
        (int(i), float(dist[i]), float(o))
        for i, o in zip(targets, occl)
        if o < 1.0 - 1e-12
    ]


def iou_3d(a, b) -> float:
    """Volumetric IoU: BEV intersection area times vertical overlap."""
    inter_area, area_a, area_b = _footprint_overlap(a, b)
    vol_a = area_a * a.extents[2]
    vol_b = area_b * b.extents[2]
    if vol_a < _DEGENERATE_AREA or vol_b < _DEGENERATE_AREA:
        return 0.0
    za0, za1 = a.center[2] - 0.5 * a.extents[2], a.center[2] + 0.5 * a.extents[2]
    zb0, zb1 = b.center[2] - 0.5 * b.extents[2], b.center[2] + 0.5 * b.extents[2]
    overlap_z = min(za1, zb1) - max(za0, zb0)
    if overlap_z <= 0.0:
        return 0.0
    inter = inter_area * overlap_z
    union = vol_a + vol_b - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _loss_terms(params, frame, labels, spec):
    """Per-frame forward/backward pass.  Returns breakdown pieces and the
    per-head gradients of the *unweighted* mean losses."""
    _check_params(params, spec)
    _check_features(frame, spec)
    if len(labels.labels) != frame.candidates.shape[0]:
        raise ValueError("labels must align with candidates")
    mask = [i for i, lbl in enumerate(labels.labels) if lbl is not None]
    zero = np.zeros((spec.head_rows, spec.feature_dim))
    if not mask:
        return None, zero
    feats = frame.candidates[mask]
    scaled = feats / FEATURE_SCALES[: spec.feature_dim]
    n = feats.shape[0]
    box_h, angle_h, dir_h, cls_h = _heads(params.values, spec)

    lbl_vecs = np.stack(
        [labels.labels[i].to_vector() for i in mask]
    )  # (n, 8): c, x..h, yaw
    cats = lbl_vecs[:, 0].astype(int)
    targets6 = lbl_vecs[:, 1:7]
    yaw_t = lbl_vecs[:, 7]

    grad = np.zeros_like(zero)

    # Box: smooth-L1 on the six refined fields, mean over fields.
    pred6 = feats[:, F_X : F_HEIGHT + 1] + scaled @ box_h.T
    r = pred6 - targets6
    box_loss = float(_smooth_l1(r).mean(axis=1).mean())
    g_r = _smooth_l1_grad(r) / (6.0 * n)
    grad[0:6] = g_r.T @ scaled

    # Angle: smooth-L1 on sin(yaw error).
    obs_yaw = np.array([math.atan2(s, c) for s, c in
                        feats[:, [F_SIN_YAW, F_COS_YAW]].tolist()])
    yaw_p = obs_yaw + scaled @ angle_h
    d_yaw = yaw_p - yaw_t
    e = np.sin(d_yaw)
    angle_loss = float(_smooth_l1(e).mean())
    g_a = _smooth_l1_grad(e) * np.cos(d_yaw) / n
    grad[6] = g_a @ scaled

    # Direction: cross-entropy on the front/back bin of the label yaw.
    dir_logits = scaled @ dir_h.T
    bins = (np.cos(yaw_t) < 0.0).astype(int)
    dz = dir_logits - dir_logits.max(axis=1, keepdims=True)
    p_dir = np.exp(dz)
    p_dir /= p_dir.sum(axis=1, keepdims=True)
    dir_loss = float(-np.log(p_dir[np.arange(n), bins] + 1e-300).mean())
    g_dir = p_dir.copy()
    g_dir[np.arange(n), bins] -= 1.0
    grad[7:9] = (g_dir / n).T @ scaled

    # Classification: cross-entropy on the label category.
    cls_logits = scaled @ cls_h.T
    cz = cls_logits - cls_logits.max(axis=1, keepdims=True)
    p_cls = np.exp(cz)
    p_cls /= p_cls.sum(axis=1, keepdims=True)
    cls_loss = float(-np.log(p_cls[np.arange(n), cats] + 1e-300).mean())
    g_cls = p_cls.copy()
    g_cls[np.arange(n), cats] -= 1.0
    grad[9:] = (g_cls / n).T @ scaled

    return (cls_loss, angle_loss, box_loss, dir_loss, n), grad


def _combine(terms, coeffs) -> LossBreakdown:
    b1, b2, b3 = coeffs
    if terms is None:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, num_labeled=0)
    cls_loss, angle_loss, box_loss, dir_loss, n = terms
    total = b1 * cls_loss + b2 * (angle_loss + box_loss) + b3 * dir_loss
    return LossBreakdown(total, cls_loss, angle_loss, box_loss, dir_loss, n)


def loss_per_frame(params, frame, labels, spec=None,
                   coefficients=(1.0, 2.0, 0.2)) -> LossBreakdown:
    """Reference ``fedlearn.loss``: one frame's own forward pass."""
    spec = spec or ModelSpec()
    terms, _ = _loss_terms(params, frame, labels, spec)
    return _combine(terms, coefficients)


def loss_gradient_per_frame(params, frame, labels, spec=None,
                            coefficients=(1.0, 2.0, 0.2)):
    """Reference ``fedlearn.loss_gradient``: one frame's own pass."""
    spec = spec or ModelSpec()
    terms, grad_heads = _loss_terms(params, frame, labels, spec)
    breakdown = _combine(terms, coefficients)
    b1, b2, b3 = coefficients
    full = np.zeros_like(grad_heads)
    full[0:6] = b2 * grad_heads[0:6]
    full[6] = b2 * grad_heads[6]
    full[7:9] = b3 * grad_heads[7:9]
    full[9:] = b1 * grad_heads[9:]
    return breakdown, full.reshape(-1)


def local_train_per_frame(params, dataset, cfg, spec=None, seed=0):
    """Reference ``fedlearn.local_train``: each batch step sums one
    ``loss_gradient_per_frame`` call per frame."""
    spec = spec or ModelSpec()
    if not dataset:
        return params
    rng = np.random.default_rng(seed)
    w = params.values.copy()
    n = len(dataset)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = np.zeros_like(w)
            for idx in batch:
                frame, labels = dataset[idx]
                _, g = loss_gradient_per_frame(
                    ModelParams(w), frame, labels, spec, cfg.loss_coefficients
                )
                grad += g
            w = w - cfg.learning_rate * grad
    return ModelParams(w)


def run_federated_per_frame(vehicle_datasets, init, cfg, spec=None,
                            base_seed=0, curve=None):
    """Reference ``fedlearn.run_federated`` built on the per-frame loop;
    curve entries average ``loss_per_frame`` over the labelled frames."""
    spec = spec or ModelSpec()
    shared = init
    for rnd in range(1, cfg.max_rounds + 1):
        locals_ = []
        for k, dataset in enumerate(vehicle_datasets):
            trained = local_train_per_frame(
                shared, dataset, cfg, spec, seed=[base_seed, rnd, k]
            )
            locals_.append(trained)
            if curve is not None:
                labeled = [
                    b for b in (
                        loss_per_frame(trained, f, l, spec,
                                       cfg.loss_coefficients)
                        for f, l in dataset
                    ) if b.num_labeled
                ]
                if labeled:
                    mean = LossBreakdown(
                        total=float(np.mean([b.total for b in labeled])),
                        class_loss=float(np.mean([b.class_loss for b in labeled])),
                        angle_loss=float(np.mean([b.angle_loss for b in labeled])),
                        box_loss=float(np.mean([b.box_loss for b in labeled])),
                        dir_loss=float(np.mean([b.dir_loss for b in labeled])),
                        num_labeled=sum(b.num_labeled for b in labeled),
                    )
                else:
                    mean = LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0)
                curve.append((rnd, k, mean))
        shared = fedavg(locals_)
    return shared


def predict_reference(params, frame, spec=None):
    """Reference ``fedlearn.predict``: a ScoredDetection per candidate,
    made row by row."""
    spec = spec or ModelSpec()
    _check_params(params, spec)
    _check_features(frame, spec)
    if frame.candidates.shape[0] == 0:
        return []
    box_h, angle_h, dir_h, cls_h = _heads(params.values, spec)
    feats = frame.candidates
    scaled = feats / FEATURE_SCALES[: spec.feature_dim]

    box_res = scaled @ box_h.T                      # (n, 6)
    angle_res = scaled @ angle_h                    # (n,)
    dir_logits = scaled @ dir_h.T                   # (n, 2)
    cls_logits = scaled @ cls_h.T                   # (n, C)

    out = []
    for i in range(feats.shape[0]):
        obs_yaw = math.atan2(feats[i, F_SIN_YAW], feats[i, F_COS_YAW])
        yaw = wrap_angle(obs_yaw + float(angle_res[i]))
        pred_bin = int(np.argmax(dir_logits[i]))
        if pred_bin != direction_bin(yaw):
            yaw = wrap_angle(yaw + math.pi)
        fields = feats[i, F_X : F_HEIGHT + 1] + box_res[i]
        extents = np.maximum(fields[3:6], 1e-3)
        state = ObjectState(
            category=int(np.argmax(cls_logits[i])),
            center=(fields[0], fields[1], fields[2]),
            extents=(extents[0], extents[1], extents[2]),
            yaw=yaw,
        )
        out.append(ScoredDetection(state, float(np.max(cls_logits[i]))))
    return out

def average_precision_reference(records, num_truths):
    """All-point interpolated AP as a Python loop over records sorted by
    (-score, index)."""
    if num_truths == 0:
        return None
    if not records:
        return 0.0
    order = sorted(range(len(records)), key=lambda i: (-records[i][0], i))
    tp = np.cumsum([1.0 if records[i][1] else 0.0 for i in order])
    fp = np.cumsum([0.0 if records[i][1] else 1.0 for i in order])
    recall = tp / num_truths
    precision = tp / (tp + fp)
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, precision):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


class SliceRecords:
    """(score, is_true_positive) records and truth count of one AP slice."""

    def __init__(self):
        self.records = []
        self.num_truths = 0

    def add(self, scores, assigned, in_slice):
        """Add one frame's assignment; in_slice flags each truth.  A match
        on a truth outside the slice is ignored, not penalized."""
        self.num_truths += sum(bool(b) for b in in_slice)
        for score, j in zip(scores, assigned):
            if j is not None and not in_slice[j]:
                continue
            self.records.append((score, j is not None))

    def result(self):
        return average_precision_reference(self.records, self.num_truths)


def slice_membership(tags, density):
    """Per slice, which of a frame's truths belong to it; a None tag is a
    truth in no slice.  The density slice the frame is not in is left
    out: it gets no truths or records."""
    return {
        name: [
            t is not None and name in (
                "overall", density, t.distance_slice, t.occlusion_slice)
            for t in tags
        ]
        for name in SLICE_NAMES
        if name not in ("LD", "HD") or name == density
    }


class SliceAccumulator:
    """Reference for evalbench.Accumulator: one SliceRecords per slice,
    each fed the flags that slice_membership gives it."""

    def __init__(self):
        self.slices = {name: SliceRecords() for name in SLICE_NAMES}

    def add(self, scores, assigned, membership):
        for name, in_slice in membership.items():
            self.slices[name].add(scores, assigned, in_slice)

    def add_frame(self, predictions, truths, tags, density):
        assigned = match_detections(predictions, truths)
        self.add([score for _, score in predictions], assigned,
                 slice_membership(tags, density))

    def extend(self, other):
        for name, acc in self.slices.items():
            acc.records += other.slices[name].records
            acc.num_truths += other.slices[name].num_truths

    def results(self):
        return {name: acc.result() for name, acc in self.slices.items()}


# --- the wire codec, one struct per entry ---------------------------------


def _scored_fields(entry):
    state, score = entry
    return (state.category, *state.center, *state.extents, state.yaw, score)


def _scored(cat, x, y, z, l, w, h, yaw, score):
    if not math.isfinite(score):
        raise ValueError("score must be finite")
    return ObjectState(cat, (x, y, z), (l, w, h), yaw), score


def _parameter(value):
    if not math.isfinite(value):
        raise ValueError("parameter must be finite")
    return value


def _label_fields(entry):
    idx, state = entry
    return (idx, state.category, *state.center, *state.extents, state.yaw)


def _label(idx, cat, x, y, z, l, w, h, yaw):
    return idx, ObjectState(cat, (x, y, z), (l, w, h), yaw)


_HEADER = struct.Struct("<4sHHII")
_COUNT = struct.Struct("<I")
_SCORED = struct.Struct("<H8d")
_PARAMETER = (struct.Struct("<d"), "parameter", lambda v: (v,), _parameter)
_STRUCT_ENTRIES = {
    MessageKind.LOCAL_MAP_UPLOAD: (
        _SCORED, "detection entry", _scored_fields, _scored),
    MessageKind.GLOBAL_MAP_BROADCAST: (
        _SCORED, "object entry", _scored_fields, _scored),
    MessageKind.PARAMS_UPLOAD: _PARAMETER,
    MessageKind.PARAMS_BROADCAST: _PARAMETER,
    MessageKind.LABEL_BROADCAST: (
        struct.Struct("<IH7d"), "label entry", _label_fields, _label),
}


def struct_encode_message(msg):
    """Reference ``orchestrator.encode_message``: one struct per entry."""
    kind = MessageKind(msg.kind)
    layout, name, fields, _ = _STRUCT_ENTRIES[kind]
    try:
        entries = [layout.pack(*fields(e)) for e in msg.payload]
    except (struct.error, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"bad {name} in {kind.name} payload: {exc}") from None
    return (_HEADER.pack(MESSAGE_MAGIC, MESSAGE_VERSION, kind, msg.sender,
                         msg.receiver)
            + _COUNT.pack(len(entries)) + b"".join(entries))


def _require(blob, offset, size, what):
    if len(blob) < offset + size:
        raise CodecError(f"truncated {what} at offset {offset}")


def struct_decode_message(blob):
    """Reference ``orchestrator.decode_message``: entry by entry, each
    validated as it is read; box payloads are tuples of pairs."""
    _require(blob, 0, _HEADER.size, "header")
    magic, version, kind_raw, sender, receiver = _HEADER.unpack_from(blob, 0)
    if magic != MESSAGE_MAGIC:
        raise CodecError("bad magic at offset 0")
    if version != MESSAGE_VERSION:
        raise CodecError("unsupported version at offset 4")
    try:
        kind = MessageKind(kind_raw)
    except ValueError:
        raise CodecError("unknown message kind at offset 6") from None
    offset = _HEADER.size
    _require(blob, offset, _COUNT.size, "count")
    (count,) = _COUNT.unpack_from(blob, offset)
    offset += _COUNT.size
    layout, name, _, build = _STRUCT_ENTRIES[kind]
    entries = []
    for _ in range(count):
        _require(blob, offset, layout.size, name)
        try:
            entries.append(build(*layout.unpack_from(blob, offset)))
        except ValueError as exc:
            raise CodecError(
                f"invalid {name} at offset {offset}: {exc}") from None
        offset += layout.size
    if offset != len(blob):
        raise CodecError(f"trailing bytes at offset {offset}")
    return V2xMessage(kind=kind, sender=sender, receiver=receiver,
                      payload=tuple(entries))


# --- the edge server, one detection at a time ------------------------------


def _reference_rule(fuse_fn_name):
    """The per-cluster reference of a fusion entry point's rule."""
    def weighted(states, scores):
        return fuse_cluster_reference(states, scores,
                                      compute_weights_reference(scores))

    def mean(states, scores):
        n = len(scores)
        return fuse_cluster_reference(states, scores, np.full(n, 1.0 / n))

    return {"three_stage_fuse": weighted, "baseline_mean_fuse": mean,
            "baseline_max_score_fuse": max_score_reference}[fuse_fn_name]


def fuse_frame_reference(local_maps, fuse_fn_name, delta=0.1):
    """Reference ``fusion._fuse_frame``: each detection moved to the global
    frame by ``transform_to_global_reference``, clusters from the transitive
    closure, each cluster fused on its own in vehicle-then-detection
    order, and the scalar pruning loop."""
    if not local_maps:
        return FusionResult(GlobalMap(0.0, ()), {}, [])
    local_maps = sorted(local_maps, key=lambda lm: lm.vehicle_id)
    entries, scores = [], []
    for lm in local_maps:
        for n, det in enumerate(lm.detections):
            entries.append(
                (lm.vehicle_id, n,
                 transform_to_global_reference(det.state, lm.pose)))
            scores.append(det.score)
    count, labels = cluster_brute_force_oracle(entries, ClusterConfig())
    members = [[] for _ in range(count)]
    for (_, _, state), score, label in zip(entries, scores, labels):
        members[label].append((state, score))
    rule = _reference_rule(fuse_fn_name)
    fused_all = [rule([s for s, _ in m], [c for _, c in m]) for m in members]
    vehicle_labels, start = {}, 0
    for lm in local_maps:
        vehicle_labels[lm.vehicle_id] = labels[start:start + len(lm.detections)]
        start += len(lm.detections)
    pruned = prune_overlaps_reference(fused_all, delta)
    return FusionResult(GlobalMap(local_maps[0].frame_time, tuple(pruned)),
                        vehicle_labels, fused_all)


def run_frame_reference(local_maps, frame_time, fuse_fn_name):
    """Reference ``orchestrator.run_frame`` on given local maps: each
    detection moved to the global frame and encoded on its own, decoded
    entry by entry into ScoredDetections, and fused by
    ``fuse_frame_reference``.  Returns the fusion result, the bytes moved
    and the bytes per message kind."""
    per_kind = {}
    server_maps = []
    for lm in local_maps:
        upload = tuple(
            (transform_to_global_reference(d.state, lm.pose), d.score)
            for d in lm.detections)
        wire = struct_encode_message(V2xMessage(
            MessageKind.LOCAL_MAP_UPLOAD, lm.vehicle_id, SERVER_ID, upload))
        per_kind[MessageKind.LOCAL_MAP_UPLOAD] = (
            per_kind.get(MessageKind.LOCAL_MAP_UPLOAD, 0) + len(wire))
        server_maps.append(LocalMap(
            vehicle_id=lm.vehicle_id,
            frame_time=frame_time,
            detections=tuple(ScoredDetection(s, score) for s, score
                             in struct_decode_message(wire).payload),
            pose=IDENTITY_POSE,
        ))
    if server_maps:
        result = fuse_frame_reference(server_maps, fuse_fn_name)
    else:
        result = FusionResult(GlobalMap(frame_time, ()), {}, [])
    broadcast = struct_encode_message(V2xMessage(
        MessageKind.GLOBAL_MAP_BROADCAST, SERVER_ID, BROADCAST_ID,
        result.global_map.objects))
    per_kind[MessageKind.GLOBAL_MAP_BROADCAST] = len(broadcast)
    return result, sum(per_kind.values()), per_kind


def sense_reference(scenario, vehicle, frame, noise, seed, visibility=None):
    """Reference sensing: each detection through an ObjectState, moved by
    transform_to_local_reference, noised with 3-element numpy arrays.

    Returns ``simworld.sense(scenario, vehicle, frame, noise, seed,
    visibility)``.
    """
    sensor = scenario.config.sensor
    pose = scenario.pose(frame, vehicle)
    rng = np.random.default_rng([seed, vehicle, frame])
    vis = scenario.visibility(vehicle, frame) if visibility is None else visibility

    # One row per detection: (category, x, y, z, l, w, h, raw yaw, score,
    # distance / range, occlusion).
    rows = []
    sources = []
    for obj_id, dist, occl in vis:
        p_miss = min(
            max(
                noise.miss_prob
                + noise.miss_dist_coeff * dist / sensor.range
                + noise.miss_occl_coeff * occl,
                0.0,
            ),
            1.0,
        )
        if rng.random() < p_miss:
            continue
        local = transform_to_local_reference(
            object_state_reference(scenario, frame, obj_id), pose)
        scale = 1.0 + noise.noise_dist_scale * (dist / sensor.range + occl)
        center = np.array(local.center) + rng.normal(
            0.0, noise.center_sigma * scale, 3
        )
        extents = np.maximum(
            np.array(local.extents)
            + rng.normal(0.0, noise.extent_sigma * scale, 3),
            0.2,
        )
        yaw = local.yaw + rng.normal(0.0, noise.yaw_sigma * scale)
        flip = rng.random() < noise.flip_prob
        bias = noise.bias
        center += bias[0:3]
        extents = np.maximum(extents + np.array(bias[3:6]), 0.2)
        yaw += bias[6]
        if flip:
            yaw += math.pi
        score = (
            SCORE_BASE
            - SCORE_DIST_COEFF * dist / sensor.range
            - SCORE_OCCL_COEFF * occl
            + rng.normal(0.0, noise.score_sigma)
        )
        rows.append((local.category, *center, *extents, yaw, score,
                     dist / sensor.range, occl))
        sources.append(obj_id)

    n_fp = int(rng.poisson(noise.false_positive_rate))
    for _ in range(n_fp):
        angle = rng.uniform(-sensor.fov / 2.0, sensor.fov / 2.0)
        radius = sensor.range * math.sqrt(rng.random())
        extents = (
            4.5 + rng.normal(0.0, 0.3),
            2.0 + rng.normal(0.0, 0.15),
            1.5 + rng.normal(0.0, 0.1),
        )
        extents = tuple(max(e, 0.5) for e in extents)
        yaw = rng.uniform(-math.pi, math.pi)
        score = FP_SCORE_MEAN + rng.normal(0.0, FP_SCORE_SIGMA)
        rows.append((0, radius * math.cos(angle), radius * math.sin(angle),
                     extents[2] / 2.0, *extents, yaw, score,
                     radius / sensor.range, 0.0))
        sources.append(None)

    rows = np.array(rows, dtype=float).reshape(-1, 11)
    boxes = Boxes.from_rows(rows[:, :9])
    box = boxes.rows
    yaws = box[:, 7].tolist()
    features = np.empty((len(rows), FEATURE_DIM))
    features[:, F_CATEGORY : F_HEIGHT + 1] = box[:, 0:7]
    features[:, F_COS_YAW] = [math.cos(t) for t in yaws]
    features[:, F_SIN_YAW] = [math.sin(t) for t in yaws]
    features[:, F_DISTANCE : F_OCCLUSION + 1] = rows[:, 9:11]
    features[:, F_SCORE] = box[:, 8]
    features[:, F_CONST] = 1.0
    local_map = LocalMap(
        vehicle_id=vehicle,
        frame_time=scenario.frame_time(frame),
        detections=boxes,
        pose=pose,
    )
    sensor_frame = SensorFrame(
        frame_time=scenario.frame_time(frame),
        candidates=features,
        source_ids=tuple(sources),
    )
    return local_map, sensor_frame
