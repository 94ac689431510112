"""Score-weighted map fusion at the edge server.

Pipeline: transform every vehicle's detections to the global frame,
associate them into clusters, fuse each cluster by a score-weighted
average (the closed-form weighted least-squares solution for the
continuous box fields), then greedily prune overlapping fused boxes.
Mean-fusion and max-score-fusion baselines share the same association and
pruning stages.

A rule fuses a frame's clusters in one call.  What it computes per member
or per cluster runs once for the frame; only the weight normalization,
the choice of each cluster's dominant member and the weighted sums run
per group of equal-size clusters, so that every sum rounds as one
cluster's own sum does.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from mapfuse.association import ClusterConfig, cluster_detections
from mapfuse.geometry import (
    InputError,
    ObjectState,
    Pose,
    circle_prefilter,
    iou_bev,
    rows_to_global,
    wrap_angle,
    wrap_angles,
)

CATEGORY_NAMES = {0: "Car", 1: "Pedestrian", 2: "Cyclist"}

# Categories travel on the wire as uint16.
MAX_CATEGORY = 0xFFFF


class ScoredDetection(NamedTuple):
    """A detected box with its raw (pre-sigmoid) confidence score.  The
    blocks it enters check the score (see Boxes)."""

    state: ObjectState
    score: float


class RowError(ValueError):
    """A box row, or a parameter entry on the wire, failed its check;
    ``row`` is the first such row."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


# A box row is (category, x, y, z, l, w, h, yaw, score).  Its bounds,
# both exclusive: every field finite, extents positive, the category in
# [0, MAX_CATEGORY] once it is known to be whole.
_LOW = np.array([-1.0, *[-np.inf] * 3, 0.0, 0.0, 0.0, -np.inf, -np.inf])
_HIGH = np.array([MAX_CATEGORY + 1.0, *[np.inf] * 8])


def _check_rows(rows: np.ndarray) -> None:
    """Raise RowError at the first of the (N, 9) box rows that is not
    valid."""
    if (np.count_nonzero((rows > _LOW) & (rows < _HIGH)) == rows.size
            and all(c.is_integer() for c in rows[:, 0].tolist())):
        return
    cat = rows[:, 0]
    ok = ((rows > _LOW) & (rows < _HIGH)).all(axis=1) & (np.floor(cat) == cat)
    row = int(ok.argmin())
    fields = rows[row]
    if not np.isfinite(fields).all():
        reason = "fields must be finite"
    elif not (fields[4:7] > 0.0).all():
        reason = "extents must be strictly positive"
    else:
        reason = f"category must be an integer in [0, {MAX_CATEGORY}]"
    raise RowError(row, reason)


class Boxes(Sequence):
    """An immutable sequence of ScoredDetection held as one read-only
    (N, 9) array ``rows`` of (category, x, y, z, l, w, h, yaw, score);
    ``vecs`` is its first eight columns and ``scores`` its last.

    Every row is a valid box with a finite score and a category in
    [0, MAX_CATEGORY], so any block can cross the wire.  ``Boxes(items)``
    takes another block, whose rows it shares, or (state, score) pairs
    such as ScoredDetections, whose rows it builds and checks at once.
    ``Boxes.from_rows`` checks rows and wraps the yaw.  A block keeps
    only its rows and makes its items from them on each read.  A slice
    is a block.  A block equals another block or sequence of pairs with
    the same rows.
    """

    __slots__ = ("rows",)

    def __init__(self, items=()):
        if not isinstance(items, Boxes):
            rows = np.array([(s.category, *s.center, *s.extents, s.yaw, c)
                             for s, c in items], dtype=float).reshape(-1, 9)
            _check_rows(rows)
            items = Boxes._of(rows)
        object.__setattr__(self, "rows", items.rows)

    @classmethod
    def _of(cls, rows) -> "Boxes":
        """A block of rows that are valid already, made read-only."""
        rows.setflags(write=False)
        block = object.__new__(cls)
        object.__setattr__(block, "rows", rows)
        return block

    @classmethod
    def from_rows(cls, rows) -> "Boxes":
        """A block of (N, 9) rows, checked once (see the class); the yaw
        is wrapped.  Raises RowError at the first bad row."""
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 9:
            raise ValueError(f"expected (N, 9) rows, got {rows.shape}")
        _check_rows(rows)
        rows[:, 7] = wrap_angles(rows[:, 7])
        return cls._of(rows)

    @property
    def vecs(self) -> np.ndarray:
        return self.rows[:, :8]

    @property
    def scores(self) -> np.ndarray:
        return self.rows[:, 8]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Boxes._of(self.rows[i])
        # operator.index keeps tuple indexing: a float raises TypeError.
        row = self.rows[operator.index(i)].tolist()
        return ScoredDetection(ObjectState.from_row(row[:8]), row[8])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        try:
            return np.array_equal(self.rows, Boxes(other).rows)
        except (TypeError, ValueError, AttributeError):
            return NotImplemented

    def __hash__(self):
        # + 0.0 turns -0.0, which equals 0.0, into 0.0.
        return hash((self.rows + 0.0).tobytes())

    def __setattr__(self, name, value):
        raise AttributeError("Boxes is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a block from its items.
        return Boxes, (tuple(self),)

    def __repr__(self) -> str:
        return f"Boxes({tuple(self)!r})"


@dataclass(frozen=True)
class LocalMap:
    """One vehicle's detections for a frame, in its own coordinate frame.

    Any sequence of ScoredDetections or (state, score) pairs is stored as
    one Boxes block.
    """

    vehicle_id: int
    frame_time: float
    detections: Boxes
    pose: Pose

    def __post_init__(self):
        if not isinstance(self.detections, Boxes):
            object.__setattr__(self, "detections", Boxes(self.detections))


def frame_boxes(local_maps: Sequence[LocalMap]) -> Boxes:
    """Every map's boxes in the global frame as one block, map after map
    (geometry.rows_to_global under each map's pose).  Raises RowError at
    the first row of the block that is not finite there."""
    if not local_maps:
        return Boxes()
    blocks = [lm.detections for lm in local_maps]
    # Overflow gives a non-finite field, rejected below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = rows_to_global(np.concatenate([b.rows for b in blocks]),
                              [lm.pose for lm in local_maps],
                              [len(b) for b in blocks])
    finite = np.isfinite(rows)
    if np.count_nonzero(finite) != rows.size:
        raise RowError(int(finite.all(axis=1).argmin()),
                       "box leaves the finite range in the global frame")
    return Boxes._of(rows)


def map_slices(local_maps: Sequence[LocalMap]) -> list[slice]:
    """Each map's rows in its frame_boxes block."""
    ends = itertools.accumulate(
        (len(lm.detections) for lm in local_maps), initial=0)
    return list(itertools.starmap(slice, itertools.pairwise(ends)))


@dataclass(frozen=True)
class GlobalMap:
    """The fused global-frame map as one Boxes block (pairs are stored as
    one), which the repr lists as (state, fused score) pairs."""

    frame_time: float
    objects: Boxes

    def __post_init__(self):
        object.__setattr__(self, "objects", Boxes(self.objects))

    def __repr__(self) -> str:
        pairs = tuple(tuple(d) for d in self.objects)
        return f"GlobalMap(frame_time={self.frame_time!r}, objects={pairs!r})"


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

    fused_all keeps every cluster's fused object (before pruning) as a
    block indexed by cluster label (a sequence of pairs is stored as
    one); labels maps each vehicle id to its detections' cluster labels,
    so the label-generation stage can find each detection's fused object.
    """

    global_map: GlobalMap
    labels: dict[int, list[int]]
    fused_all: Boxes

    def __post_init__(self):
        self.fused_all = Boxes(self.fused_all)


_TINY = np.finfo(float).tiny   # smallest normal double


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    ez = np.exp(s[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _weights(raw: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Normalized fusion weights of each row of a (G, n) score block,
    given the block's sigmoids ``raw``, which it overwrites.

    Each member is weighted by the sigmoid of its score, so a higher score
    earns more trust.  In a row whose largest sigmoid is subnormal (all
    scores below about -708), the sigmoids have lost precision or
    underflowed to 0, and the weights take their limit exp(s - max s),
    normalized.  _weighted_rule skips this test in a frame without one.
    """
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


def _size_groups(label: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The clusters of a frame's (N,) member labels by size: for each
    member count n, in rising order, the ids of the G clusters of n
    members, in rising order, and their (G, n) member indices, each row
    in input order."""
    size = np.bincount(label)
    # The members by their cluster's size, then cluster, then input order.
    order = np.argsort(size[label] * len(size) + label, kind="stable")
    groups, start = [], 0
    for n, g in enumerate(np.bincount(size).tolist()):
        if g:
            idx = order[start:start + g * n].reshape(g, n)
            groups.append((label[idx[:, 0]], idx))
            start += g * n
    return groups


def _fuse_block(vecs, scores, label, groups, weights) -> np.ndarray:
    """Fuse a frame's clusters into (C, 9) box rows, row c for cluster c.

    ``vecs`` holds the frame's (N, 8) member rows (``ObjectState.to_vector``),
    ``scores`` their raw scores and ``label`` their clusters; ``groups``
    are the clusters by size (see :func:`_size_groups`), and ``weights``
    one (G, n) block of normalized weights per group.
    Continuous fields are the weighted mean of the members (the minimizer
    of the weighted least-squares objective); yaw uses a weighted circular
    mean; the category is a weighted vote; the fused score is the
    weighted mean of the raw scores.
    Only each cluster's dominant member (its largest weight) and the four
    weighted sums are found per size group, each sum so that it rounds as
    one cluster's ``w @ x`` does; the yaw flip, sin and cos, the circular
    mean's angle and the vote run once for the frame.
    """
    count = label.max() + 1
    fused = np.empty((count, 9))
    ref = np.empty(count)
    member_w = np.empty(len(scores))
    yaws = vecs[:, 7]
    for (clusters, idx), w in zip(groups, weights):
        ref[clusters] = yaws[idx[np.arange(len(idx)), w.argmax(axis=1)]]
        member_w[idx] = w

    # Yaw on the circle.  Members pointing against the dominant member
    # (angular gap beyond pi/2) are flipped by pi before averaging so an
    # orientation-flipped witness cannot drag the mean sideways.
    gap = wrap_angles(yaws - ref[label])
    flipped = np.where(np.abs(gap) <= math.pi / 2, yaws, yaws + math.pi)
    sin, cos = np.sin(flipped), np.cos(flipped)
    sin_sum, cos_sum = np.empty(count), np.empty(count)
    for (clusters, idx), w in zip(groups, weights):
        fused[clusters, 1:7] = _weighted_sum(w, vecs[idx][:, :, 1:7])
        fused[clusters, 8] = _weighted_sum(w, scores[idx])
        sin_sum[clusters] = _weighted_sum(w, sin[idx])
        cos_sum[clusters] = _weighted_sum(w, cos[idx])

    fused_yaws = []
    for s, c, r in zip(sin_sum.tolist(), cos_sum.tolist(), ref.tolist()):
        yaw = r if math.hypot(s, c) < 1e-12 else math.atan2(s, c)
        # One wrap: on atan2's range, or a stored row's wrapped yaw, it
        # lands in [-pi, pi), where a second wrap changes no bit.
        fused_yaws.append(wrap_angle(yaw))
    fused[:, 7] = fused_yaws
    # Category by weighted vote, members in input order; ties by higher
    # total weight then lower id.
    votes: list[dict[int, float]] = [{} for _ in range(count)]
    for c, cat, wi in zip(label.tolist(), vecs[:, 0].astype(int).tolist(),
                          member_w.tolist()):
        v = votes[c]
        v[cat] = v.get(cat, 0.0) + wi
    fused[:, 0] = [next(iter(v)) if len(v) == 1
                   else min(v, key=lambda c: (-v[c], c)) for v in votes]
    return fused


def _weighted_rule(vecs, scores, label, groups):
    """_weights per group, or, when no member's sigmoid is subnormal and so
    no row takes their limit, only the normalization _weights ends with."""
    raw = _sigmoid(scores)
    blocks = [(raw[idx], idx) for _, idx in groups]
    weights = ([w / w.sum(axis=1, keepdims=True) for w, _ in blocks]
               if raw.min() >= _TINY else
               [_weights(w, scores[idx]) for w, idx in blocks])
    return _fuse_block(vecs, scores, label, groups, weights)


def _mean_rule(vecs, scores, label, groups):
    return _fuse_block(vecs, scores, label, groups,
                       [np.full(idx.shape, 1.0 / idx.shape[1])
                        for _, idx in groups])


def _max_score_rule(vecs, scores, label, groups):
    best = np.empty(label.max() + 1, int)
    for clusters, idx in groups:
        # argmax keeps the first of tied maxima: the lowest member index.
        best[clusters] = idx[np.arange(len(idx)), scores[idx].argmax(axis=1)]
    return np.column_stack((vecs[best], scores[best]))


def compute_weights(scores: Sequence[float]) -> np.ndarray:
    """Normalized fusion weights for one cluster's raw scores (see
    :func:`_weights`)."""
    scores = np.asarray(scores, dtype=float).reshape(1, -1)
    if scores.size == 0:
        raise ValueError("cluster must be non-empty")
    return _weights(_sigmoid(scores), scores)[0]


def fuse_cluster(
    states: Sequence[ObjectState],
    scores: Sequence[float],
    weights: np.ndarray,
) -> ScoredDetection:
    """Fuse one cluster of global-frame states under normalized weights
    (see :func:`_fuse_block`)."""
    vecs = np.stack([s.to_vector() for s in states])
    label = np.zeros(len(vecs), dtype=int)
    return Boxes._of(_fuse_block(
        vecs, np.asarray(scores, dtype=float).reshape(-1), label,
        _size_groups(label), [np.asarray(weights, dtype=float).reshape(1, -1)],
    ))[0]


def prune_overlaps(objects, delta: float) -> Boxes:
    """Greedy score-descending suppression of overlapping boxes, given as
    a block or (state, score) pairs; the kept boxes are returned as a
    block, in the order they were kept.

    Keeps an object iff its BEV IoU with every already-kept object is at
    most delta.  Ties in score keep the earlier input entry first.  Pairs
    whose bounding circles do not touch have IoU 0, so only the kept
    objects that pass the circle prefilter are scored.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    block = Boxes(objects)
    if len(block) < 2:
        return block
    rows = block.rows
    # A stable sort keeps tied scores in input order.
    order = np.argsort(-rows[:, 8], kind="stable").tolist()
    touch = circle_prefilter(rows, rows)
    np.fill_diagonal(touch, False)
    near = touch.any(axis=1).tolist()
    vecs = rows[:, :8].tolist()
    kept: list[int] = []
    for i in order:
        if near[i]:
            row = touch[i]
            state = ObjectState.from_row(vecs[i])
            if not all(iou_bev(state, ObjectState.from_row(vecs[k])) <= delta
                       for k in kept if row[k]):
                continue
        kept.append(i)
    return Boxes._of(rows[kept])


class _Center:
    """A row's ground-plane center, all that cluster_detections reads."""

    __slots__ = ("center",)

    def __init__(self, center):
        self.center = center


def _fuse_frame(
    local_maps: Sequence[LocalMap],
    cfg: FusionConfig,
    rule: Callable[[np.ndarray, np.ndarray, np.ndarray, list], np.ndarray],
) -> FusionResult:
    """Associate, fuse the clusters, and prune.

    The rule fuses the whole frame in one call,
    ``rule(vecs, scores, label, groups)``: the frame's (N, 8) global-frame
    rows and (N,) scores in vehicle order, then detection order, each
    member's cluster label, and the clusters by size (see
    :func:`_size_groups`); it returns the fused (C, 9) box rows, row c for
    cluster c.
    The maps are taken in vehicle-id order, so the result does not depend
    on the order in which they arrive.  An InputError when two maps share
    a vehicle id or a frame time differs, or a fused box is not finite.
    """
    if not local_maps:
        return FusionResult(GlobalMap(0.0, ()), {}, [])
    vehicle_ids = [lm.vehicle_id for lm in local_maps]
    if len(set(vehicle_ids)) != len(vehicle_ids):
        # Detections are keyed by (vehicle_id, index): a repeated id would
        # merge two vehicles' maps and silently drop detections.
        raise InputError(f"duplicate vehicle ids in {vehicle_ids}")
    local_maps = sorted(local_maps, key=lambda lm: lm.vehicle_id)
    frame_time = local_maps[0].frame_time
    if any(lm.frame_time != frame_time for lm in local_maps):
        raise InputError("local maps must share a frame time")

    rows = frame_boxes(local_maps).rows
    vecs, scores = rows[:, :8], rows[:, 8]
    slices = map_slices(local_maps)
    centers = vecs[:, 1:3].tolist()
    num_objects, labels = cluster_detections(
        [(lm.vehicle_id, n, _Center(c)) for lm, s in zip(local_maps, slices)
         for n, c in enumerate(centers[s])],
        cfg.cluster)

    vehicle_labels = {lm.vehicle_id: labels[s]
                      for lm, s in zip(local_maps, slices)}

    fused = np.empty((num_objects, 9))
    if labels:
        label = np.array(labels)
        # Members near the float range can fuse past it: rejected below.
        with np.errstate(over="ignore"):
            fused = rule(vecs, scores, label, _size_groups(label))
    # Checked, not wrapped again as Boxes.from_rows would: the yaw is final.
    try:
        _check_rows(fused)
    except RowError as exc:
        raise InputError(f"fused box {exc.row}: {exc.reason}") from None
    fused_all = Boxes._of(fused)
    return FusionResult(
        global_map=GlobalMap(frame_time, prune_overlaps(fused_all, cfg.delta)),
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


# Fusion rules by name: the one registry of rules, read by the method
# table (orchestrator.METHODS) and by `dmf fuse --method`.
FUSE_RULES = {
    "three_stage": three_stage_fuse,
    "mean": baseline_mean_fuse,
    "max_score": baseline_max_score_fuse,
}


# --- serialization -----------------------------------------------------------


def _box_records(boxes: Boxes) -> list[dict]:
    """Each box of a block as a JSON object."""
    return [{"category": int(cat), "center": [x, y, z], "extents": [l, w, h],
             "yaw": yaw, "score": score}
            for cat, x, y, z, l, w, h, yaw, score in boxes.rows.tolist()]


def _finite(v) -> bool:
    # abs() compares a huge JSON integer exactly, where float() overflows.
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_KINDS = {
    "an integer": lambda v: type(v) is int,
    f"an integer in [0, {MAX_CATEGORY}]":
        lambda v: type(v) is int and 0 <= v <= MAX_CATEGORY,
    "a finite number": _finite,
    "an object": lambda v: type(v) is dict,
    "three finite numbers":
        lambda v: type(v) is list and len(v) == 3 and all(map(_finite, v)),
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


def _json_object(text: str, what: str) -> dict:
    """text parsed as one JSON object, else an InputError."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"a {what} must be valid JSON: {exc}") from None
    if type(record) is not dict:
        raise InputError(f"a {what} must be a JSON object, got {record!r}")
    return record


def _field(record: dict, key: str, kind: str, where: str = ""):
    """record[key] if it is of the named kind, else an InputError naming
    it."""
    name = f"{where}.{key}" if where else key
    if key not in record:
        raise InputError(f"missing field {name!r}")
    if not _KINDS[kind](record[key]):
        raise InputError(f"field {name!r} must be {kind}, got {record[key]!r}")
    return record[key]


def _box_rows(boxes: list, entry: str) -> Boxes:
    """A list of JSON boxes as a block: every field's kind is checked
    (an InputError names the first bad one), then every row (RowError)."""
    return Boxes.from_rows(np.array([(
        _field(d, "category", f"an integer in [0, {MAX_CATEGORY}]", where),
        *_field(d, "center", "three finite numbers", where),
        *_field(d, "extents", "three finite numbers", where),
        _field(d, "yaw", "a finite number", where),
        _field(d, "score", "a finite number", where),
    ) for n, d in enumerate(boxes) for where in [f"{entry}[{n}]"]],
        dtype=float).reshape(-1, 9))


def global_map_to_json(gmap: GlobalMap) -> str:
    """One JSONL record for a fused frame."""
    record = {"frame_time": gmap.frame_time,
              "objects": _box_records(gmap.objects)}
    return json.dumps(record, sort_keys=True)


def global_map_from_json(line: str) -> GlobalMap:
    """Parse one fused-frame record; an InputError names the first
    malformed field."""
    record = _json_object(line, "global map")
    frame_time = float(_field(record, "frame_time", "a finite number"))
    objects = _field(record, "objects", "a list of objects")
    try:
        return GlobalMap(frame_time, _box_rows(objects, "objects"))
    except RowError as exc:
        raise InputError(f"field 'objects[{exc.row}]': {exc.reason}") from None


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
        "detections": _box_records(lm.detections),
    }
    return json.dumps(record, sort_keys=True)


def local_map_from_json(line: str) -> LocalMap:
    """Parse one local-map record.

    Every field's type is checked before it is used, so a malformed record
    raises an InputError that names the field.
    """
    record = _json_object(line, "local map")
    vehicle_id = _field(record, "vehicle_id", "an integer")
    frame_time = float(_field(record, "frame_time", "a finite number"))
    pose = _field(record, "pose", "an object")
    pose = Pose(_field(pose, "position", "three finite numbers", "pose"),
                _field(pose, "heading", "a finite number", "pose"))
    detections = _field(record, "detections", "a list of objects")
    try:
        lm = LocalMap(vehicle_id, frame_time,
                      _box_rows(detections, "detections"), pose)
        # Every box must stay finite in the global frame too.
        frame_boxes([lm])
    except RowError as exc:
        raise InputError(
            f"field 'detections[{exc.row}]': {exc.reason}") from None
    return lm
