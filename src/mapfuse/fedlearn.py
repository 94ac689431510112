"""Federated fine-tuning of a lightweight box-refinement detector.

The detector applies affine heads to per-candidate observation features:
a 6-field box residual, a yaw residual with a 2-way direction logit, and
class logits whose maximum doubles as the detection score.  Gradients are
analytic, so local SGD epochs plus parameter averaging run in
milliseconds while keeping the four-term loss structure (classification,
angle, box, direction) of the full-scale system.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from mapfuse.geometry import ObjectState, wrap_angle
from mapfuse.fusion import ScoredDetection

# Candidate feature layout.  Box fields are embedded raw so they stay
# identical to the emitted detection; yaw travels as cos/sin.
(
    F_CATEGORY,
    F_X,
    F_Y,
    F_Z,
    F_LENGTH,
    F_WIDTH,
    F_HEIGHT,
    F_COS_YAW,
    F_SIN_YAW,
    F_DISTANCE,
    F_OCCLUSION,
    F_SCORE,
    F_CONST,
) = range(13)

FEATURE_DIM = 13

# Per-channel divisors applied before the affine heads; keeps gradient
# magnitudes comparable across channels.
FEATURE_SCALES = np.array(
    [1.0, 100.0, 100.0, 10.0, 5.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0, 4.0, 1.0]
)

CHECKPOINT_MAGIC = b"DMFW"
CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<4sHHQ")


def direction_bin(yaw: float) -> int:
    """0 for the front half-circle (cos >= 0), 1 for the back."""
    return 0 if math.cos(yaw) >= 0.0 else 1


@dataclass(frozen=True)
class ModelSpec:
    """Head shapes of the refinement detector."""

    feature_dim: int = FEATURE_DIM
    num_classes: int = 2

    @property
    def head_rows(self) -> int:
        # box residual (6) + yaw residual (1) + direction (2) + classes
        return 6 + 1 + 2 + self.num_classes

    @property
    def num_params(self) -> int:
        return self.head_rows * self.feature_dim


@dataclass(frozen=True)
class ModelParams:
    """A flat parameter vector; immutable between training steps."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("parameter vector must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameters must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def _heads(params: ModelParams, spec: ModelSpec):
    w = params.values.reshape(spec.head_rows, spec.feature_dim)
    box = w[0:6]
    angle = w[6]
    direction = w[7:9]
    classes = w[9:]
    return box, angle, direction, classes


@dataclass(frozen=True)
class SensorFrame:
    """Per-frame candidate features the detector refines.

    candidates has shape (n, feature_dim).  source_ids carries the
    ground-truth object id behind each candidate (None for clutter); it is
    simulator bookkeeping, not a model input.
    """

    frame_time: float
    candidates: np.ndarray
    source_ids: tuple[int | None, ...] = ()

    def __post_init__(self):
        candidates = np.asarray(self.candidates, dtype=np.float64)
        if candidates.ndim != 2:
            candidates = candidates.reshape(0, FEATURE_DIM)
        object.__setattr__(self, "candidates", candidates)
        if self.source_ids and len(self.source_ids) != candidates.shape[0]:
            raise ValueError("source_ids must align with candidates")


@dataclass(frozen=True)
class LabelSet:
    """Optional per-candidate target boxes for one frame."""

    frame_time: float
    labels: tuple[ObjectState | None, ...]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    local_epochs: int = 2
    max_rounds: int = 5
    batch_size: int = 8
    loss_coefficients: tuple[float, float, float] = (1.0, 2.0, 0.2)
    train_window: tuple[float, float] = (0.0, 25.5)
    sampling_ratio: int = 3

    def __post_init__(self):
        counts = (self.local_epochs, self.max_rounds, self.batch_size,
                  self.sampling_ratio)
        if not all(isinstance(c, numbers.Integral) for c in counts):
            raise ValueError("epoch, round, batch and sampling counts "
                             "must be integers")
        # Written as "not (valid)" so that NaN fails every check.
        if not self.learning_rate >= 0.0:
            raise ValueError("learning rate must be non-negative")
        if not (self.local_epochs >= 1 and self.max_rounds >= 0):
            raise ValueError("invalid epoch/round counts")
        if not self.batch_size >= 1:
            raise ValueError("batch size must be at least 1")
        if not all(b >= 0 for b in self.loss_coefficients):
            raise ValueError("loss coefficients must be non-negative")
        lo, hi = self.train_window
        if not 0.0 <= lo < hi:
            raise ValueError("train window must satisfy 0 <= start < end")
        if not self.sampling_ratio >= 1:
            raise ValueError("sampling ratio must be at least 1")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    class_loss: float
    angle_loss: float
    box_loss: float
    dir_loss: float
    num_labeled: int = 0


def default_init_params(spec: ModelSpec | None = None) -> ModelParams:
    """Pretrained-equivalent starting point.

    Residual heads are zero (identity refinement).  The class head passes
    the observed score through as the top logit; the direction head reads
    the sign of cos(yaw) so the predicted direction matches the observed
    box.
    """
    spec = spec or ModelSpec()
    w = np.zeros((spec.head_rows, spec.feature_dim))
    w[9, F_SCORE] = FEATURE_SCALES[F_SCORE]       # class 0 logit = observed score
    w[10, F_CONST] = -10.0                        # other classes held far down
    w[7, F_COS_YAW] = 3.0                         # direction follows cos(yaw)
    w[8, F_COS_YAW] = -3.0
    return ModelParams(w.reshape(-1))


def _check_frame(params: ModelParams, frame: SensorFrame, spec: ModelSpec):
    if len(params) != spec.num_params:
        raise ValueError(
            f"parameter vector length {len(params)} does not match "
            f"model size {spec.num_params}"
        )
    if frame.candidates.size and frame.candidates.shape[1] != spec.feature_dim:
        raise ValueError(
            f"candidate feature dimension {frame.candidates.shape[1]} "
            f"does not match {spec.feature_dim}"
        )


def predict(
    params: ModelParams, frame: SensorFrame, spec: ModelSpec | None = None
) -> list[ScoredDetection]:
    """Refine every candidate into a scored detection (deterministic)."""
    spec = spec or ModelSpec()
    _check_frame(params, frame, spec)
    if frame.candidates.shape[0] == 0:
        return []
    box_h, angle_h, dir_h, cls_h = _heads(params, spec)
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


def _smooth_l1(r: np.ndarray) -> np.ndarray:
    a = np.abs(r)
    return np.where(a < 1.0, 0.5 * r * r, a - 0.5)


def _smooth_l1_grad(r: np.ndarray) -> np.ndarray:
    return np.clip(r, -1.0, 1.0)


def _loss_terms(params, frame, labels, spec):
    """Shared forward/backward pass.  Returns breakdown pieces and the
    per-head gradients of the *unweighted* mean losses."""
    _check_frame(params, frame, spec)
    if len(labels.labels) != frame.candidates.shape[0]:
        raise ValueError("labels must align with candidates")
    mask = [i for i, lbl in enumerate(labels.labels) if lbl is not None]
    zero = np.zeros((spec.head_rows, spec.feature_dim))
    if not mask:
        return None, zero
    feats = frame.candidates[mask]
    scaled = feats / FEATURE_SCALES[: spec.feature_dim]
    n = feats.shape[0]
    box_h, angle_h, dir_h, cls_h = _heads(params, spec)

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
    obs_yaw = np.arctan2(feats[:, F_SIN_YAW], feats[:, F_COS_YAW])
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


def loss(
    params: ModelParams,
    frame: SensorFrame,
    labels: LabelSet,
    spec: ModelSpec | None = None,
    coefficients: tuple[float, float, float] = (1.0, 2.0, 0.2),
) -> LossBreakdown:
    """Four-term training loss, averaged over labeled candidates."""
    spec = spec or ModelSpec()
    terms, _ = _loss_terms(params, frame, labels, spec)
    return _combine(terms, coefficients)


def loss_gradient(
    params: ModelParams,
    frame: SensorFrame,
    labels: LabelSet,
    spec: ModelSpec | None = None,
    coefficients: tuple[float, float, float] = (1.0, 2.0, 0.2),
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss plus its analytic gradient as a flat vector."""
    spec = spec or ModelSpec()
    terms, grad_heads = _loss_terms(params, frame, labels, spec)
    breakdown = _combine(terms, coefficients)
    b1, b2, b3 = coefficients
    box_h_like = grad_heads
    full = np.zeros_like(grad_heads)
    full[0:6] = b2 * box_h_like[0:6]
    full[6] = b2 * box_h_like[6]
    full[7:9] = b3 * box_h_like[7:9]
    full[9:] = b1 * box_h_like[9:]
    return breakdown, full.reshape(-1)


def local_train(
    params: ModelParams,
    dataset: Sequence[tuple[SensorFrame, LabelSet]],
    cfg: TrainConfig,
    spec: ModelSpec | None = None,
    seed=0,
) -> ModelParams:
    """Mini-batch SGD for the configured number of local epochs.

    The batch step uses the summed gradient over the batch's frames.
    Batch shuffling is driven by the given seed, so identical inputs give
    identical outputs.
    """
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
                _, g = loss_gradient(
                    ModelParams(w), frame, labels, spec, cfg.loss_coefficients
                )
                grad += g
            w = w - cfg.learning_rate * grad
    return ModelParams(w)


def fedavg(all_params: Sequence[ModelParams]) -> ModelParams:
    """Elementwise arithmetic mean of the vehicles' parameter vectors."""
    if not all_params:
        raise ValueError("fedavg needs at least one parameter vector")
    length = len(all_params[0])
    if any(len(p) != length for p in all_params):
        raise ValueError("parameter vectors must share one length")
    stacked = np.stack([p.values for p in all_params])
    return ModelParams(stacked.mean(axis=0))


def run_federated(
    vehicle_datasets: Sequence[Sequence[tuple[SensorFrame, LabelSet]]],
    init: ModelParams,
    cfg: TrainConfig,
    spec: ModelSpec | None = None,
    base_seed: int = 0,
    curve: list | None = None,
) -> ModelParams:
    """Alternate local training and parameter averaging for max_rounds.

    Local updates for different vehicles are independent pure calls.  If
    curve is given, one (round, vehicle, breakdown) entry is appended per
    local update, measured on that vehicle's own dataset.
    """
    spec = spec or ModelSpec()
    shared = init
    for rnd in range(1, cfg.max_rounds + 1):
        locals_ = []
        for k, dataset in enumerate(vehicle_datasets):
            trained = local_train(
                shared, dataset, cfg, spec, seed=[base_seed, rnd, k]
            )
            locals_.append(trained)
            if curve is not None:
                breakdowns = [
                    loss(trained, f, l, spec, cfg.loss_coefficients)
                    for f, l in dataset
                ]
                labeled = [b for b in breakdowns if b.num_labeled]
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


def training_curve_csv(curve) -> str:
    """CSV rows (round, vehicle, total, class, angle, box, dir)."""
    lines = ["round,vehicle,total,class,angle,box,dir"]
    for rnd, veh, b in curve:
        lines.append(
            f"{rnd},{veh},{b.total!r},{b.class_loss!r},"
            f"{b.angle_loss!r},{b.box_loss!r},{b.dir_loss!r}"
        )
    return "\n".join(lines) + "\n"


def save_checkpoint(params: ModelParams, path) -> None:
    header = _CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0, len(params)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(params.values.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CHECKPOINT_HEADER.size:
        raise ValueError("checkpoint truncated")
    magic, version, _, length = _CHECKPOINT_HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    body = blob[_CHECKPOINT_HEADER.size :]
    if len(body) != 8 * length:
        raise ValueError("checkpoint length mismatch")
    return ModelParams(np.frombuffer(body, dtype="<f8"))
