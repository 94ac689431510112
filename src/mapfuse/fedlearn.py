"""Federated fine-tuning of a lightweight box-refinement detector.

The detector applies affine heads to per-candidate observation features:
a 6-field box residual, a yaw residual with a 2-way direction logit, and
class logits whose maximum doubles as the detection score.  Gradients are
analytic, so local SGD epochs plus parameter averaging run in
milliseconds while keeping the four-term loss structure (classification,
angle, box, direction) of the full-scale system.
"""

from __future__ import annotations

import itertools
import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from mapfuse.geometry import InputError, ObjectState, wrap_angle
from mapfuse.fusion import Boxes, RowError

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


def _heads(values: np.ndarray, spec: ModelSpec):
    w = values.reshape(spec.head_rows, spec.feature_dim)
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
        if not all(isinstance(c, numbers.Integral)
                   and not isinstance(c, bool) for c in counts):
            raise ValueError("epoch, round, batch and sampling counts "
                             "must be integers")
        # Written as "not (valid)" so that NaN fails every check.
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and non-negative")
        if not (self.local_epochs >= 1 and self.max_rounds >= 0):
            raise ValueError("invalid epoch/round counts")
        if not self.batch_size >= 1:
            raise ValueError("batch size must be at least 1")
        if not (len(self.loss_coefficients) == 3
                and all(0.0 <= b < math.inf for b in self.loss_coefficients)):
            raise ValueError("loss coefficients must be three finite, "
                             "non-negative values")
        lo, hi = self.train_window
        if not 0.0 <= lo < hi < math.inf:
            raise ValueError("train window must satisfy 0 <= start < end, "
                             "with a finite end")
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


def _check_params(params: ModelParams, spec: ModelSpec):
    if len(params) != spec.num_params:
        raise ValueError(
            f"parameter vector length {len(params)} does not match "
            f"model size {spec.num_params}"
        )


def _check_features(frame: SensorFrame, spec: ModelSpec):
    if frame.candidates.shape[1] != spec.feature_dim:
        raise ValueError(
            f"candidate feature dimension {frame.candidates.shape[1]} "
            f"does not match {spec.feature_dim}"
        )


def _head_products(x: np.ndarray, heads) -> tuple[np.ndarray, ...]:
    """The box, angle, direction and class head products of rows x."""
    box_h, angle_h, dir_h, cls_h = heads
    return x @ box_h.T, x @ angle_h, x @ dir_h.T, x @ cls_h.T


def _observed_yaws(feats: np.ndarray) -> list[float]:
    """Each candidate's observed yaw, decoded per row with math.atan2:
    numpy's arctan2 can round it an ulp away."""
    return list(map(math.atan2, feats[:, F_SIN_YAW].tolist(),
                    feats[:, F_COS_YAW].tolist()))


def _refine(params: ModelParams, frames: Sequence[SensorFrame],
            spec: ModelSpec) -> list[Boxes]:
    """One or more frames' candidates refined, each frame's as a slice of
    one block.  Raises RowError at the block's first bad row."""
    heads = _heads(params.values, spec)
    # Each frame's head products are taken on its own rows: how a product
    # rounds a row can depend on the rows stacked with it (the angle
    # head's gemv, a one-row product), so each rounds as its predict.
    # Overflow gives a non-finite field, rejected below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        feats = np.concatenate([f.candidates for f in frames])
        scaled = feats / FEATURE_SCALES[: spec.feature_dim]
        ends = list(itertools.accumulate(
            (f.candidates.shape[0] for f in frames), initial=0))
        box_res, angle_res, dir_logits, cls_logits = map(
            np.concatenate, zip(*(
                _head_products(scaled[a:b], heads)
                for a, b in itertools.pairwise(ends))))
        fields = feats[:, F_X : F_HEIGHT + 1] + box_res

    # wrap_angle and the direction test stay per row, as the yaw decode
    # does: numpy's cos may round differently from math's.
    yaws = []
    for observed, res, pred_bin in zip(
            _observed_yaws(feats), angle_res.tolist(),
            np.argmax(dir_logits, axis=1).tolist()):
        yaw = wrap_angle(observed + res)
        if pred_bin != direction_bin(yaw):
            yaw = wrap_angle(yaw + math.pi)
        yaws.append(yaw)
    block = Boxes.from_rows(np.column_stack([
        np.argmax(cls_logits, axis=1), fields[:, 0:3],
        np.maximum(fields[:, 3:6], 1e-3), yaws, cls_logits.max(axis=1),
    ]))
    return [block[a:b] for a, b in itertools.pairwise(ends)]


def predict(
    params: ModelParams, frame: SensorFrame, spec: ModelSpec | None = None
) -> Boxes:
    """Refine every candidate into a scored detection (deterministic):
    one block row per candidate, in candidate order.  predict_fleet's
    code on one frame.  An InputError when a candidate refines past the
    float range."""
    spec = spec or ModelSpec()
    _check_params(params, spec)
    _check_features(frame, spec)
    try:
        return _refine(params, [frame], spec)[0]
    except RowError as exc:
        raise InputError(f"refined box {exc.row}: {exc.reason}") from None


def predict_fleet(
    params: ModelParams,
    frames: Sequence[SensorFrame],
    spec: ModelSpec | None = None,
) -> list[Boxes]:
    """predict(params, frame, spec) of every frame, bit for bit, made as
    one block: a frame's head products stay on its own rows, and the yaw
    loop, the column fill and the row check run once.  A block that
    fails its row check is redone frame by frame through predict, which
    raises the first failing frame's InputError."""
    spec = spec or ModelSpec()
    _check_params(params, spec)
    for frame in frames:
        _check_features(frame, spec)
    if not frames:
        return []
    try:
        return _refine(params, frames, spec)
    except RowError:
        return [predict(params, frame, spec) for frame in frames]


def _smooth_l1(r: np.ndarray) -> np.ndarray:
    a = np.abs(r)
    return np.where(a < 1.0, 0.5 * r * r, a - 0.5)


def _smooth_l1_grad(r: np.ndarray) -> np.ndarray:
    return np.clip(r, -1.0, 1.0)


class _Rows(NamedTuple):
    """Labelled candidates as row arrays; every loss input is per row."""

    scaled: np.ndarray        # (n, feature_dim) scaled features
    observed: np.ndarray      # (n, 6) observed x, y, z, l, w, h
    targets: np.ndarray       # (n, 6) label x, y, z, l, w, h
    target_yaw: np.ndarray    # (n,)
    categories: np.ndarray    # (n,) label class
    observed_yaw: np.ndarray  # (n,)
    bins: np.ndarray          # (n,) direction bin of the label yaw
    frame_size: np.ndarray    # (n,) labelled rows in the row's frame

    def take(self, index) -> "_Rows":
        return _Rows(*(a[index] for a in self))


class PreparedDataset:
    """A training set of (SensorFrame, LabelSet) pairs as labelled rows.

    The rows of one frame are contiguous and frames keep dataset order.
    Each row's gradient is divided by its frame's row count, so a frame
    contributes the mean over its rows, whatever batch it lands in.
    """

    def __init__(self, dataset, spec: ModelSpec):
        counts, feats, vectors = [], [], []
        for frame, labels in dataset:
            _check_features(frame, spec)
            if len(labels.labels) != frame.candidates.shape[0]:
                raise ValueError("labels must align with candidates")
            mask = [i for i, lbl in enumerate(labels.labels) if lbl is not None]
            counts.append(len(mask))
            if mask:
                feats.append(frame.candidates[mask])
                vectors.extend(labels.labels[i].to_vector() for i in mask)
        self.counts = np.array(counts, dtype=np.intp)
        self.starts = np.cumsum(self.counts) - self.counts
        feats = (np.concatenate(feats) if feats
                 else np.zeros((0, spec.feature_dim)))
        lbl = np.array(vectors).reshape(-1, 8)  # c, x..h, yaw
        self.rows = _Rows(
            scaled=feats / FEATURE_SCALES[: spec.feature_dim],
            observed=feats[:, F_X : F_HEIGHT + 1],
            targets=lbl[:, 1:7],
            target_yaw=lbl[:, 7],
            categories=lbl[:, 0].astype(int),
            observed_yaw=np.array(_observed_yaws(feats)),
            bins=np.array(list(map(direction_bin, lbl[:, 7].tolist())),
                          dtype=int),
            frame_size=np.repeat(self.counts, self.counts).astype(np.float64),
        )

    def __len__(self) -> int:
        return self.counts.size

    def in_order(self, order: np.ndarray) -> tuple[_Rows, np.ndarray]:
        """The rows of the frames in ``order``, frame after frame, and
        the offsets at which those frames' rows begin (plus the end)."""
        counts = self.counts[order]
        bounds = np.concatenate([[0], np.cumsum(counts)])
        shift = np.repeat(self.starts[order] - bounds[:-1], counts)
        return self.rows.take(np.arange(bounds[-1]) + shift), bounds


class _Forward(NamedTuple):
    residual: np.ndarray   # (n, 6) refined minus label box fields
    sin_yaw: np.ndarray    # (n,) sin of the yaw error
    cos_yaw: np.ndarray    # (n,) cos of the yaw error
    p_dir: np.ndarray      # (n, 2) direction probabilities
    p_cls: np.ndarray      # (n, C) class probabilities


def _softmax(logits: np.ndarray) -> np.ndarray:
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


def _forward(values: np.ndarray, rows: _Rows, spec: ModelSpec) -> _Forward:
    """One matmul per head over all rows, as _refine takes them."""
    box_res, angle_res, dir_logits, cls_logits = _head_products(
        rows.scaled, _heads(values, spec))
    d_yaw = rows.observed_yaw + angle_res - rows.target_yaw
    return _Forward(
        residual=rows.observed + box_res - rows.targets,
        sin_yaw=np.sin(d_yaw),
        cos_yaw=np.cos(d_yaw),
        p_dir=_softmax(dir_logits),
        p_cls=_softmax(cls_logits),
    )


def _gradient(fwd: _Forward, rows: _Rows, coefficients) -> np.ndarray:
    """Gradient of the sum of the four-term losses of the rows' frames.

    Box and angle terms are smooth-L1 on the six refined fields and on
    sin(yaw error); direction and class terms are cross-entropies.  The
    per-row gradients are divided by the frame size before one matmul
    per head; the loss coefficients scale the result.
    """
    b1, b2, b3 = coefficients
    x, n = rows.scaled, rows.frame_size
    idx = np.arange(n.size)
    g_dir = fwd.p_dir.copy()
    g_dir[idx, rows.bins] -= 1.0
    g_cls = fwd.p_cls.copy()
    g_cls[idx, rows.categories] -= 1.0
    g_box = _smooth_l1_grad(fwd.residual) / (6.0 * n)[:, None]
    g_angle = _smooth_l1_grad(fwd.sin_yaw) * fwd.cos_yaw / n
    return np.concatenate([
        b2 * (g_box.T @ x),
        b2 * (g_angle @ x)[None],
        b3 * ((g_dir / n[:, None]).T @ x),
        b1 * ((g_cls / n[:, None]).T @ x),
    ]).reshape(-1)


def _breakdown(fwd: _Forward, data: PreparedDataset, coefficients
               ) -> LossBreakdown:
    """Four-term loss of each labelled frame (its rows' mean), averaged
    over the labelled frames."""
    counts = data.counts[data.counts > 0]
    if not counts.size:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, num_labeled=0)
    idx = np.arange(data.rows.frame_size.size)
    per_row = np.stack([
        -np.log(fwd.p_cls[idx, data.rows.categories] + 1e-300),
        _smooth_l1(fwd.sin_yaw),
        _smooth_l1(fwd.residual).mean(axis=1),
        -np.log(fwd.p_dir[idx, data.rows.bins] + 1e-300),
    ], axis=1)
    starts = np.cumsum(counts) - counts
    per_frame = np.add.reduceat(per_row, starts, axis=0) / counts[:, None]
    cls_loss, angle_loss, box_loss, dir_loss = per_frame.T
    b1, b2, b3 = coefficients
    total = b1 * cls_loss + b2 * (angle_loss + box_loss) + b3 * dir_loss
    return LossBreakdown(
        float(total.mean()), float(cls_loss.mean()), float(angle_loss.mean()),
        float(box_loss.mean()), float(dir_loss.mean()),
        num_labeled=int(counts.sum()),
    )


def loss(
    params: ModelParams,
    frame: SensorFrame,
    labels: LabelSet,
    spec: ModelSpec | None = None,
    coefficients: tuple[float, float, float] = TrainConfig.loss_coefficients,
) -> LossBreakdown:
    """Four-term training loss, averaged over labeled candidates."""
    return loss_gradient(params, frame, labels, spec, coefficients)[0]


def loss_gradient(
    params: ModelParams,
    frame: SensorFrame,
    labels: LabelSet,
    spec: ModelSpec | None = None,
    coefficients: tuple[float, float, float] = TrainConfig.loss_coefficients,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss plus its analytic gradient as a flat vector."""
    spec = spec or ModelSpec()
    _check_params(params, spec)
    data = PreparedDataset([(frame, labels)], spec)
    fwd = _forward(params.values, data.rows, spec)
    return (_breakdown(fwd, data, coefficients),
            _gradient(fwd, data.rows, coefficients))


def local_train(
    params: ModelParams,
    dataset: Sequence[tuple[SensorFrame, LabelSet]] | PreparedDataset,
    cfg: TrainConfig,
    spec: ModelSpec | None = None,
    seed=0,
) -> ModelParams:
    """Mini-batch SGD for the configured number of local epochs.

    The batch step uses the summed gradient over the batch's frames,
    taken in one pass over their concatenated rows.  Batch shuffling is
    driven by the given seed, so identical inputs give identical outputs.
    """
    spec = spec or ModelSpec()
    if not len(dataset):
        return params
    _check_params(params, spec)
    if not isinstance(dataset, PreparedDataset):
        dataset = PreparedDataset(dataset, spec)
    rng = np.random.default_rng(seed)
    w = params.values
    n = len(dataset)
    # A step that overflows leaves w non-finite; that is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            rows, bounds = dataset.in_order(rng.permutation(n))
            for start in range(0, n, cfg.batch_size):
                stop = min(start + cfg.batch_size, n)
                batch = rows.take(slice(bounds[start], bounds[stop]))
                grad = _gradient(_forward(w, batch, spec), batch,
                                 cfg.loss_coefficients)
                w = w - cfg.learning_rate * grad
    if not np.isfinite(w).all():
        raise InputError(
            "local training diverged to non-finite parameters; lower "
            "train.learning_rate or train.loss_coefficients")
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

    Each vehicle's dataset is turned into labelled rows once.  Local
    updates for different vehicles are independent pure calls.  If curve
    is given, one (round, vehicle, breakdown) entry is appended per local
    update, measured on that vehicle's own dataset.
    """
    spec = spec or ModelSpec()
    prepared = [PreparedDataset(ds, spec) for ds in vehicle_datasets]
    shared = init
    for rnd in range(1, cfg.max_rounds + 1):
        locals_ = []
        for k, data in enumerate(prepared):
            trained = local_train(
                shared, data, cfg, spec, seed=[base_seed, rnd, k]
            )
            locals_.append(trained)
            if curve is not None:
                fwd = _forward(trained.values, data.rows, spec)
                curve.append(
                    (rnd, k, _breakdown(fwd, data, cfg.loss_coefficients))
                )
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
    """The parameters save_checkpoint wrote; an InputError if the file
    holds anything else."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CHECKPOINT_HEADER.size:
        raise InputError("checkpoint truncated")
    magic, version, _, length = _CHECKPOINT_HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise InputError("bad checkpoint magic")
    if version != CHECKPOINT_VERSION:
        raise InputError(f"unsupported checkpoint version {version}")
    expected = ModelSpec().num_params
    if length != expected:
        raise InputError(f"checkpoint holds {length} parameters, the model "
                         f"takes {expected}")
    body = blob[_CHECKPOINT_HEADER.size :]
    if len(body) != 8 * length:
        raise InputError("checkpoint length mismatch")
    try:
        return ModelParams(np.frombuffer(body, dtype="<f8"))
    except ValueError as exc:
        raise InputError(f"checkpoint: {exc}") from None
