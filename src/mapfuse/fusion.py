"""Score-weighted map fusion at the edge server.

Pipeline: transform every vehicle's detections to the global frame,
associate them into clusters, fuse each cluster by a score-weighted
average (the closed-form weighted least-squares solution for the
continuous box fields), then greedily prune overlapping fused boxes.
Mean-fusion and max-score-fusion baselines share the same association and
pruning stages.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from mapfuse.association import ClusterConfig, cluster_detections
from mapfuse.geometry import (
    ObjectState,
    Pose,
    circle_prefilter,
    iou_bev,
    transform_to_global,
    wrap_angle,
)

CATEGORY_NAMES = {0: "Car", 1: "Pedestrian", 2: "Cyclist"}


@dataclass(frozen=True)
class ScoredDetection:
    """A detected box with its raw (pre-sigmoid) confidence score."""

    state: ObjectState
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError("score must be finite")


@dataclass(frozen=True)
class LocalMap:
    """One vehicle's detections for a frame, in its own coordinate frame."""

    vehicle_id: int
    frame_time: float
    detections: tuple[ScoredDetection, ...]
    pose: Pose

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))


@dataclass(frozen=True)
class GlobalMap:
    """The fused global-frame map: (state, fused score) pairs."""

    frame_time: float
    objects: tuple[tuple[ObjectState, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass(frozen=True)
class FusionConfig:
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass
class FusionResult:
    """Output of the three-stage pipeline.

    fused_all keeps every cluster's fused object (before pruning), indexed
    by cluster label; labels maps each vehicle id to its detections'
    cluster labels, so the label-generation stage can find each
    detection's fused object.
    """

    global_map: GlobalMap
    labels: dict[int, list[int]]
    fused_all: list[tuple[ObjectState, float]]


_TINY = np.finfo(float).tiny   # smallest normal double


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    ez = np.exp(s[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _weights(scores: np.ndarray) -> np.ndarray:
    """Normalized fusion weights of each row of a (G, n) score block.

    Each member is weighted by the sigmoid of its score, so a higher score
    earns more trust.  In a row whose largest sigmoid is subnormal (all
    scores below about -708), the sigmoids have lost precision or
    underflowed to 0, and the weights take their limit exp(s - max s),
    normalized.
    """
    raw = _sigmoid(scores)
    low = ~(raw.max(axis=1) >= _TINY)
    if low.any():
        s = scores[low]
        raw[low] = np.exp(s - s.max(axis=1, keepdims=True))
    return raw / raw.sum(axis=1, keepdims=True)


def _weighted_sum(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row g of w times row g of x, for (G, n) w and (G, n) or (G, n, k) x.

    A batched matmul runs each row through the BLAS kernel that the
    one-cluster ``w[g] @ x[g]`` uses, so the sums round alike; an einsum
    or a plain sum rounds differently.
    """
    if x.ndim == 2:
        return np.matmul(w[:, None, :], x[:, :, None])[:, 0, 0]
    return np.matmul(w[:, None, :], x)[:, 0, :]


def _fuse_block(
    states: Sequence[Sequence[ObjectState]],
    vecs: np.ndarray,
    scores: np.ndarray,
    weights: np.ndarray,
) -> list[tuple[ObjectState, float]]:
    """Fuse G clusters of n members each under (G, n) normalized weights.

    ``states`` holds each cluster's members, ``vecs`` their (G, n, 8)
    vectors (``ObjectState.to_vector``) and ``scores`` their raw scores.
    Continuous fields are the weighted mean of the members (the minimizer
    of the weighted least-squares objective); yaw uses a weighted circular
    mean; the category is a weighted vote; the fused score is the
    weighted mean of the raw scores.
    """
    w = weights
    cont = _weighted_sum(w, vecs[:, :, 1:7]).tolist()

    # Yaw on the circle.  Members pointing against the dominant member
    # (angular gap beyond pi/2) are flipped by pi before averaging so an
    # orientation-flipped witness cannot drag the mean sideways.
    yaws = vecs[:, :, 7]
    ref = yaws[np.arange(len(yaws)), w.argmax(axis=1)]
    gap = (yaws - ref[:, None] + math.pi) % (2.0 * math.pi) - math.pi
    yaws = np.where(np.abs(gap) <= math.pi / 2, yaws, yaws + math.pi)
    sin_sum = _weighted_sum(w, np.sin(yaws)).tolist()
    cos_sum = _weighted_sum(w, np.cos(yaws)).tolist()
    fused_score = _weighted_sum(w, scores).tolist()
    ref = ref.tolist()

    fused = []
    for g, (members, row) in enumerate(zip(states, w.tolist())):
        if math.hypot(sin_sum[g], cos_sum[g]) < 1e-12:
            yaw = ref[g]
        else:
            yaw = math.atan2(sin_sum[g], cos_sum[g])
        # Category by weighted vote; ties by higher total weight then
        # lower id.
        votes: dict[int, float] = {}
        for s, wi in zip(members, row):
            votes[s.category] = votes.get(s.category, 0.0) + wi
        category = min(votes, key=lambda c: (-votes[c], c))
        x, y, z, l, wd, h = cont[g]
        fused.append((
            ObjectState(category=category, center=(x, y, z),
                        extents=(l, wd, h), yaw=wrap_angle(yaw)),
            fused_score[g],
        ))
    return fused


def _weighted_rule(states, vecs, scores):
    return _fuse_block(states, vecs, scores, _weights(scores))


def _mean_rule(states, vecs, scores):
    g, n = scores.shape
    return _fuse_block(states, vecs, scores, np.full((g, n), 1.0 / n))


def _max_score_rule(states, vecs, scores):
    # argmax keeps the first of tied maxima: the lowest member index.
    return [(members[b], float(row[b]))
            for members, row, b in zip(states, scores, scores.argmax(axis=1))]


def compute_weights(scores: Sequence[float]) -> np.ndarray:
    """Normalized fusion weights for one cluster's raw scores (see
    :func:`_weights`)."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cluster must be non-empty")
    return _weights(scores.reshape(1, -1))[0]


def fuse_cluster(
    states: Sequence[ObjectState],
    scores: Sequence[float],
    weights: np.ndarray,
) -> tuple[ObjectState, float]:
    """Fuse one cluster of global-frame states under normalized weights
    (see :func:`_fuse_block`)."""
    return _fuse_block(
        [states],
        np.stack([s.to_vector() for s in states])[None],
        np.asarray(scores, dtype=float).reshape(1, -1),
        np.asarray(weights, dtype=float).reshape(1, -1),
    )[0]


def prune_overlaps(
    objects: Sequence[tuple[ObjectState, float]], delta: float
) -> list[tuple[ObjectState, float]]:
    """Greedy score-descending suppression of overlapping boxes.

    Keeps an object iff its BEV IoU with every already-kept object is at
    most delta.  Ties in score keep the earlier input entry first.  Pairs
    whose bounding circles do not touch have IoU 0, so only the kept
    objects that pass the circle prefilter are scored.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    order = sorted(range(len(objects)), key=lambda i: (-objects[i][1], i))
    states = [state for state, _ in objects]
    touch = circle_prefilter(states, states)
    np.fill_diagonal(touch, False)
    near = touch.any(axis=1).tolist()
    kept: list[int] = []
    for i in order:
        if near[i]:
            row = touch[i]
            if not all(iou_bev(states[i], states[k]) <= delta
                       for k in kept if row[k]):
                continue
        kept.append(i)
    return [objects[i] for i in kept]


def _fuse_frame(
    local_maps: Sequence[LocalMap],
    cfg: FusionConfig,
    rule: Callable[[list[list[ObjectState]], np.ndarray, np.ndarray],
                   list[tuple[ObjectState, float]]],
) -> FusionResult:
    """Associate, fuse the clusters, and prune.

    Clusters go to ``rule(states, vecs, scores)`` one size group at a
    time: the G clusters with n members each as G member lists, their
    (G, n, 8) vectors and (G, n) scores, members in vehicle order, then
    detection order.  The maps are taken in vehicle-id order, so the
    result does not depend on the order in which they arrive.
    """
    if not local_maps:
        return FusionResult(GlobalMap(0.0, ()), {}, [])
    vehicle_ids = [lm.vehicle_id for lm in local_maps]
    if len(set(vehicle_ids)) != len(vehicle_ids):
        # Detections are keyed by (vehicle_id, index): a repeated id would
        # merge two vehicles' maps and silently drop detections.
        raise ValueError(f"duplicate vehicle ids in {vehicle_ids}")
    local_maps = sorted(local_maps, key=lambda lm: lm.vehicle_id)
    frame_time = local_maps[0].frame_time
    if any(lm.frame_time != frame_time for lm in local_maps):
        raise ValueError("local maps must share a frame time")

    entries = []
    scores = []
    for lm in local_maps:
        for n, det in enumerate(lm.detections):
            entries.append(
                (lm.vehicle_id, n, transform_to_global(det.state, lm.pose)))
            scores.append(det.score)
    num_objects, labels = cluster_detections(entries, cfg.cluster)

    states = [g for _, _, g in entries]
    vehicle_labels = {}
    start = 0
    for lm in local_maps:
        end = start + len(lm.detections)
        vehicle_labels[lm.vehicle_id] = labels[start:end]
        start = end

    fused_all: list = [None] * num_objects
    if entries:
        vecs = np.array([(g.category, *g.center, *g.extents, g.yaw)
                         for g in states], dtype=float)
        scores = np.array(scores, dtype=float)
        label = np.array(labels)
        # members[starts[c]:starts[c] + size[c]] are cluster c's detections
        # in input order.
        members = np.argsort(label, kind="stable")
        size = np.bincount(label)
        starts = np.cumsum(size) - size
        for n in sorted(set(size.tolist())):
            clusters = np.flatnonzero(size == n)
            idx = members[starts[clusters, None] + np.arange(n)]
            block = rule([[states[i] for i in row] for row in idx.tolist()],
                         vecs[idx], scores[idx])
            for c, obj in zip(clusters.tolist(), block):
                fused_all[c] = obj
    pruned = prune_overlaps(fused_all, cfg.delta)
    return FusionResult(
        global_map=GlobalMap(frame_time, tuple(pruned)),
        labels=vehicle_labels,
        fused_all=fused_all,
    )


def three_stage_fuse(
    local_maps: Sequence[LocalMap], cfg: FusionConfig | None = None
) -> FusionResult:
    """Associate, score-weight-fuse and prune one frame of local maps."""
    return _fuse_frame(local_maps, cfg or FusionConfig(), _weighted_rule)


def baseline_mean_fuse(
    local_maps: Sequence[LocalMap], cfg: FusionConfig | None = None
) -> FusionResult:
    """Same pipeline with uniform weights within each cluster."""
    return _fuse_frame(local_maps, cfg or FusionConfig(), _mean_rule)


def baseline_max_score_fuse(
    local_maps: Sequence[LocalMap], cfg: FusionConfig | None = None
) -> FusionResult:
    """Per cluster, keep only the single highest-scoring member verbatim."""
    return _fuse_frame(local_maps, cfg or FusionConfig(), _max_score_rule)


# --- serialization -----------------------------------------------------------


def _state_to_dict(state: ObjectState) -> dict:
    return {
        "category": state.category,
        "center": list(state.center),
        "extents": list(state.extents),
        "yaw": state.yaw,
    }


def _finite(v) -> bool:
    # abs() compares a huge JSON integer exactly, where float() overflows.
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a finite number": _finite,
    "an object": lambda v: type(v) is dict,
    "a list of finite numbers":
        lambda v: type(v) is list and all(map(_finite, v)),
    "a list of objects":
        lambda v: type(v) is list and all(type(d) is dict for d in v),
    "an object of objects":
        lambda v: type(v) is dict and all(type(d) is dict for d in v.values()),
    "a list of integers":
        lambda v: type(v) is list and all(type(i) is int for i in v),
    "a string": lambda v: type(v) is str,
    "an object of finite numbers or nulls":
        lambda v: type(v) is dict
        and all(x is None or _finite(x) for x in v.values()),
    "an object from vehicle ids to finite numbers or nulls":
        lambda v: type(v) is dict
        and all(k.isdecimal() and (x is None or _finite(x))
                for k, x in v.items()),
}


def _field(record: dict, key: str, kind: str, where: str = ""):
    """record[key] if it is of the named kind, else a ValueError naming it."""
    name = f"{where}.{key}" if where else key
    if key not in record:
        raise ValueError(f"missing field {name!r}")
    if not _KINDS[kind](record[key]):
        raise ValueError(f"field {name!r} must be {kind}, got {record[key]!r}")
    return record[key]


def _state_from_dict(d: dict, where: str) -> ObjectState:
    return ObjectState(
        category=_field(d, "category", "an integer", where),
        center=tuple(_field(d, "center", "a list of finite numbers", where)),
        extents=tuple(_field(d, "extents", "a list of finite numbers", where)),
        yaw=_field(d, "yaw", "a finite number", where),
    )


def _scored_from_dict(d: dict, where: str) -> tuple[ObjectState, float]:
    return (
        _state_from_dict(d, where),
        float(_field(d, "score", "a finite number", where)),
    )


def global_map_to_json(gmap: GlobalMap) -> str:
    """One JSONL record for a fused frame."""
    record = {
        "frame_time": gmap.frame_time,
        "objects": [
            {**_state_to_dict(state), "score": score}
            for state, score in gmap.objects
        ],
    }
    return json.dumps(record, sort_keys=True)


def global_map_from_json(line: str) -> GlobalMap:
    """Parse one fused-frame record, naming the first malformed field."""
    record = json.loads(line)
    if type(record) is not dict:
        raise ValueError(
            f"a global map must be a JSON object, got {record!r}")
    frame_time = float(_field(record, "frame_time", "a finite number"))
    objects = tuple(
        _scored_from_dict(o, f"objects[{n}]")
        for n, o in enumerate(_field(record, "objects", "a list of objects"))
    )
    return GlobalMap(frame_time=frame_time, objects=objects)


def kitti_label_line(state: ObjectState, score: float) -> str:
    """KITTI-style label line for one box.

    Layout: type, truncation, occlusion, alpha, 2D bbox (unused, zeros),
    h w l, x y z, yaw, score.
    """
    name = CATEGORY_NAMES.get(state.category, f"Class{state.category}")
    l, w, h = state.extents
    x, y, z = state.center
    return (
        f"{name} 0 0 -10 0 0 0 0 "
        f"{h:.4f} {w:.4f} {l:.4f} {x:.4f} {y:.4f} {z:.4f} "
        f"{state.yaw:.4f} {score:.4f}"
    )


def global_map_to_kitti(gmap: GlobalMap) -> list[str]:
    return [kitti_label_line(state, score) for state, score in gmap.objects]


def local_map_to_json(lm: LocalMap) -> str:
    record = {
        "vehicle_id": lm.vehicle_id,
        "frame_time": lm.frame_time,
        "pose": {"position": list(lm.pose.position), "heading": lm.pose.heading},
        "detections": [
            {**_state_to_dict(d.state), "score": d.score} for d in lm.detections
        ],
    }
    return json.dumps(record, sort_keys=True)


def local_map_from_json(line: str) -> LocalMap:
    """Parse one local-map record.

    Every field's type is checked before it is used, so a malformed record
    raises a ValueError that names the field.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"a local map must be a JSON object, got {record!r}")
    vehicle_id = _field(record, "vehicle_id", "an integer")
    frame_time = float(_field(record, "frame_time", "a finite number"))
    pose = _field(record, "pose", "an object")
    position = _field(pose, "position", "a list of finite numbers", "pose")
    heading = _field(pose, "heading", "a finite number", "pose")
    detections = _field(record, "detections", "a list of objects")
    return LocalMap(
        vehicle_id=vehicle_id,
        frame_time=frame_time,
        detections=tuple(
            ScoredDetection(*_scored_from_dict(d, f"detections[{n}]"))
            for n, d in enumerate(detections)
        ),
        pose=Pose(position=tuple(position), heading=heading),
    )
