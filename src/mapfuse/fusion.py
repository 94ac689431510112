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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from mapfuse.association import (
    AssociationMatrix,
    ClusterConfig,
    cluster_detections,
)
from mapfuse.geometry import (
    ObjectState,
    Pose,
    angle_diff,
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

    fused_all keeps every cluster's fused object (before pruning), aligned
    with the association matrix columns; the label-generation stage needs
    that alignment.
    """

    global_map: GlobalMap
    matrices: list[AssociationMatrix]
    fused_all: list[tuple[ObjectState, float]]


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    ez = np.exp(s[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def compute_weights(scores: Sequence[float]) -> np.ndarray:
    """Normalized fusion weights for one cluster's raw scores.

    Each member is weighted by the sigmoid of its score, so a higher score
    earns more trust.  When every sigmoid underflows to 0 (all scores
    below about -745), the weights take their limit exp(s - max s),
    normalized.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cluster must be non-empty")
    raw = _sigmoid(scores)
    total = raw.sum()
    if not total > 0.0:
        raw = np.exp(scores - scores.max())
        total = raw.sum()
    return raw / total


def fuse_cluster(
    states: Sequence[ObjectState],
    scores: Sequence[float],
    weights: np.ndarray,
) -> tuple[ObjectState, float]:
    """Fuse one cluster of global-frame states under normalized weights.

    Continuous fields are the weighted mean of the members (the minimizer
    of the weighted least-squares objective); yaw uses a weighted circular
    mean; the category is a weighted vote; the fused score is the
    weighted mean of the raw scores.
    """
    w = np.asarray(weights, dtype=float)
    vecs = np.stack([s.to_vector() for s in states])
    cont = w @ vecs[:, 1:7]

    # Yaw on the circle.  Members pointing against the dominant member
    # (angular gap beyond pi/2) are flipped by pi before averaging so an
    # orientation-flipped witness cannot drag the mean sideways.
    ref = states[int(np.argmax(w))].yaw
    yaws = np.array(
        [
            s.yaw if abs(angle_diff(s.yaw, ref)) <= math.pi / 2 else s.yaw + math.pi
            for s in states
        ]
    )
    sin_sum = float(w @ np.sin(yaws))
    cos_sum = float(w @ np.cos(yaws))
    if math.hypot(sin_sum, cos_sum) < 1e-12:
        yaw = ref
    else:
        yaw = math.atan2(sin_sum, cos_sum)

    # Category by weighted vote; ties by higher total weight then lower id.
    votes: dict[int, float] = {}
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


def prune_overlaps(
    objects: Sequence[tuple[ObjectState, float]], delta: float
) -> list[tuple[ObjectState, float]]:
    """Greedy score-descending suppression of overlapping boxes.

    Keeps an object iff its BEV IoU with every already-kept object is at
    most delta.  Ties in score keep the earlier input entry first.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    order = sorted(range(len(objects)), key=lambda i: (-objects[i][1], i))
    kept: list[tuple[ObjectState, float]] = []
    for i in order:
        state, score = objects[i]
        if all(iou_bev(state, k[0]) <= delta for k in kept):
            kept.append((state, score))
    return kept


def _fuse_frame(
    local_maps: Sequence[LocalMap],
    cfg: FusionConfig,
    rule: Callable[[list[ObjectState], list[float]],
                   tuple[ObjectState, float]],
) -> FusionResult:
    """Associate, fuse each cluster with rule(states, scores), and prune."""
    if not local_maps:
        return FusionResult(GlobalMap(0.0, ()), [], [])
    frame_time = local_maps[0].frame_time
    if any(lm.frame_time != frame_time for lm in local_maps):
        raise ValueError("local maps must share a frame time")

    entries = []
    by_key: dict[tuple[int, int], tuple[ObjectState, float]] = {}
    for lm in local_maps:
        for n, det in enumerate(lm.detections):
            g = transform_to_global(det.state, lm.pose)
            entries.append((lm.vehicle_id, n, g))
            by_key[(lm.vehicle_id, n)] = (g, det.score)
    vehicle_ids = [lm.vehicle_id for lm in local_maps]
    num_objects, matrices = cluster_detections(entries, cfg.cluster, vehicle_ids)

    # Members of each cluster in vehicle order, then detection order.
    members: list[list[tuple[ObjectState, float]]] = [
        [] for _ in range(num_objects)
    ]
    for mat in matrices:
        rows, cols = np.nonzero(mat.entries)
        for n, m in zip(rows, cols):
            members[m].append(by_key[(mat.vehicle_id, int(n))])

    fused_all = [
        rule([g for g, _ in group], [s for _, s in group]) for group in members
    ]
    pruned = prune_overlaps(fused_all, cfg.delta)
    return FusionResult(
        global_map=GlobalMap(frame_time, tuple(pruned)),
        matrices=matrices,
        fused_all=fused_all,
    )


def three_stage_fuse(
    local_maps: Sequence[LocalMap], cfg: FusionConfig | None = None
) -> FusionResult:
    """Associate, score-weight-fuse and prune one frame of local maps."""
    cfg = cfg or FusionConfig()
    return _fuse_frame(
        local_maps,
        cfg,
        lambda states, scores: fuse_cluster(
            states, scores, compute_weights(scores)
        ),
    )


def baseline_mean_fuse(
    local_maps: Sequence[LocalMap], cfg: FusionConfig | None = None
) -> FusionResult:
    """Same pipeline with uniform weights within each cluster."""
    return _fuse_frame(
        local_maps,
        cfg or FusionConfig(),
        lambda states, scores: fuse_cluster(
            states, scores, np.full(len(states), 1.0 / len(states))
        ),
    )


def baseline_max_score_fuse(
    local_maps: Sequence[LocalMap], cfg: FusionConfig | None = None
) -> FusionResult:
    """Per cluster, keep only the single highest-scoring member verbatim."""

    def keep_best(states, scores):
        best = max(range(len(states)), key=lambda i: (scores[i], -i))
        return states[best], float(scores[best])

    return _fuse_frame(local_maps, cfg or FusionConfig(), keep_best)


# --- serialization -----------------------------------------------------------


def _state_to_dict(state: ObjectState) -> dict:
    return {
        "category": state.category,
        "center": list(state.center),
        "extents": list(state.extents),
        "yaw": state.yaw,
    }


def _state_from_dict(d: dict) -> ObjectState:
    return ObjectState(
        category=int(d["category"]),
        center=tuple(d["center"]),
        extents=tuple(d["extents"]),
        yaw=float(d["yaw"]),
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
    record = json.loads(line)
    objects = tuple(
        (_state_from_dict(o), float(o["score"])) for o in record["objects"]
    )
    return GlobalMap(frame_time=float(record["frame_time"]), objects=objects)


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
    record = json.loads(line)
    pose = Pose(
        position=tuple(record["pose"]["position"]),
        heading=float(record["pose"]["heading"]),
    )
    detections = tuple(
        ScoredDetection(_state_from_dict(d), float(d["score"]))
        for d in record["detections"]
    )
    return LocalMap(
        vehicle_id=int(record["vehicle_id"]),
        frame_time=float(record["frame_time"]),
        detections=detections,
        pose=pose,
    )
