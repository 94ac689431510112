"""System loop: V2X wire protocol, byte accounting and experiment runs.

Vehicles upload their refined detections in the global frame, the edge
server fuses them and broadcasts the global map back.  Every exchanged
message passes through a binary codec so communication cost is measured
in real bytes, and a full experiment compares local and fused variants
with and without federated training.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from mapfuse.association import ClusterConfig
from mapfuse.distill import (
    RoadSideUnit,
    TeacherRegistry,
    full_coverage_registry,
    run_edfl,
    run_perfect_fl,
)
from mapfuse.evalbench import (
    Accumulator,
    EvalReport,
    MethodResult,
    SliceRecords,
    SliceThresholds,
    greedy_assign,
    match_detections,
    overlap_rows,
    slice_membership,
    tag_objects,
)
from mapfuse.fedlearn import (
    ModelParams,
    ModelSpec,
    TrainConfig,
    default_init_params,
    predict,
)
from mapfuse.fusion import (
    FusionConfig,
    LocalMap,
    GlobalMap,
    ScoredDetection,
    baseline_max_score_fuse,
    baseline_mean_fuse,
    three_stage_fuse,
)
from mapfuse.geometry import IDENTITY_POSE, ObjectState, transform_to_global
from mapfuse.simworld import (
    DetectorNoiseSpec,
    Scenario,
    ScenarioConfig,
    SensorSpec,
    generate_scenario,
    sense,
)

SERVER_ID = 0xFFFFFFFF
BROADCAST_ID = 0xFFFFFFFE

MESSAGE_MAGIC = b"DMF1"
MESSAGE_VERSION = 1

_HEADER = struct.Struct("<4sHHII")
_COUNT = struct.Struct("<I")
_SCORED_ENTRY = struct.Struct("<H8d")   # category + box fields + score
_LABEL_ENTRY = struct.Struct("<IH7d")   # detection index + labeled box

METHOD_NAMES = (
    "local_no_fl",
    "local_perfect_fl",
    "local_edfl",
    "fusion_mean",
    "fusion_max_score",
    "fusion_three_stage",
    "fusion_perfect_fl",
    "fusion_edfl",
)


class CodecError(ValueError):
    """Raised on malformed wire bytes; names the failing byte offset."""


class MessageKind(enum.IntEnum):
    LOCAL_MAP_UPLOAD = 1
    GLOBAL_MAP_BROADCAST = 2
    PARAMS_UPLOAD = 3
    PARAMS_BROADCAST = 4
    LABEL_BROADCAST = 5


@dataclass(frozen=True)
class LocalMapUpload:
    """Global-frame scored detections from one vehicle."""

    detections: tuple[ScoredDetection, ...]


@dataclass(frozen=True)
class GlobalMapBroadcast:
    """The fused map sent back to the fleet."""

    objects: tuple[tuple[ObjectState, float], ...]


@dataclass(frozen=True)
class ParamsPayload:
    """A flat model parameter vector (upload or broadcast)."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class LabelBroadcast:
    """(detection index, labeled box) pairs for one vehicle's frame."""

    labels: tuple[tuple[int, ObjectState], ...]


@dataclass(frozen=True)
class V2xMessage:
    kind: MessageKind
    sender: int
    receiver: int
    payload: object

    def __post_init__(self):
        expected = _PAYLOAD_TYPES[MessageKind(self.kind)]
        if not isinstance(self.payload, expected):
            raise ValueError(
                f"{MessageKind(self.kind).name} payload must be "
                f"{expected.__name__}"
            )


_PAYLOAD_TYPES = {
    MessageKind.LOCAL_MAP_UPLOAD: LocalMapUpload,
    MessageKind.GLOBAL_MAP_BROADCAST: GlobalMapBroadcast,
    MessageKind.PARAMS_UPLOAD: ParamsPayload,
    MessageKind.PARAMS_BROADCAST: ParamsPayload,
    MessageKind.LABEL_BROADCAST: LabelBroadcast,
}


def _pack_scored(state: ObjectState, score: float) -> bytes:
    return _SCORED_ENTRY.pack(
        state.category, *state.center, *state.extents, state.yaw, score
    )


def _unpack_scored(blob: bytes, offset: int, what: str) -> ScoredDetection:
    _require(blob, offset, _SCORED_ENTRY.size, what)
    cat, x, y, z, l, w, h, yaw, score = _SCORED_ENTRY.unpack_from(blob, offset)
    try:
        return ScoredDetection(ObjectState(cat, (x, y, z), (l, w, h), yaw),
                               score)
    except ValueError as exc:
        raise CodecError(f"invalid {what} at offset {offset}: {exc}") from None


def encode_message(msg: V2xMessage) -> bytes:
    header = _HEADER.pack(
        MESSAGE_MAGIC, MESSAGE_VERSION, int(msg.kind), msg.sender, msg.receiver
    )
    kind = MessageKind(msg.kind)
    if kind is MessageKind.LOCAL_MAP_UPLOAD:
        body = _COUNT.pack(len(msg.payload.detections)) + b"".join(
            _pack_scored(d.state, d.score) for d in msg.payload.detections
        )
    elif kind is MessageKind.GLOBAL_MAP_BROADCAST:
        body = _COUNT.pack(len(msg.payload.objects)) + b"".join(
            _pack_scored(s, sc) for s, sc in msg.payload.objects
        )
    elif kind in (MessageKind.PARAMS_UPLOAD, MessageKind.PARAMS_BROADCAST):
        values = np.asarray(msg.payload.values, dtype="<f8")
        body = _COUNT.pack(values.size) + values.tobytes()
    else:
        body = _COUNT.pack(len(msg.payload.labels)) + b"".join(
            _LABEL_ENTRY.pack(
                idx, s.category, *s.center, *s.extents, s.yaw
            )
            for idx, s in msg.payload.labels
        )
    return header + body


def _require(blob: bytes, offset: int, size: int, what: str) -> None:
    if len(blob) < offset + size:
        raise CodecError(f"truncated {what} at offset {offset}")


def decode_message(blob: bytes) -> V2xMessage:
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

    if kind is MessageKind.LOCAL_MAP_UPLOAD:
        dets = []
        for _ in range(count):
            dets.append(_unpack_scored(blob, offset, "detection entry"))
            offset += _SCORED_ENTRY.size
        payload = LocalMapUpload(tuple(dets))
    elif kind is MessageKind.GLOBAL_MAP_BROADCAST:
        objs = []
        for _ in range(count):
            obj = _unpack_scored(blob, offset, "object entry")
            objs.append((obj.state, obj.score))
            offset += _SCORED_ENTRY.size
        payload = GlobalMapBroadcast(tuple(objs))
    elif kind in (MessageKind.PARAMS_UPLOAD, MessageKind.PARAMS_BROADCAST):
        _require(blob, offset, 8 * count, "parameter vector")
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise CodecError(
                f"non-finite parameter at offset {offset + 8 * int(bad[0])}"
            )
        payload = ParamsPayload(tuple(float(v) for v in values))
        offset += 8 * count
    else:
        labels = []
        for _ in range(count):
            _require(blob, offset, _LABEL_ENTRY.size, "label entry")
            idx, cat, x, y, z, l, w, h, yaw = _LABEL_ENTRY.unpack_from(
                blob, offset
            )
            try:
                state = ObjectState(cat, (x, y, z), (l, w, h), yaw)
            except ValueError as exc:
                raise CodecError(
                    f"invalid label entry at offset {offset}: {exc}"
                ) from None
            labels.append((idx, state))
            offset += _LABEL_ENTRY.size
        payload = LabelBroadcast(tuple(labels))

    if offset != len(blob):
        raise CodecError(f"trailing bytes at offset {offset}")
    return V2xMessage(kind=kind, sender=sender, receiver=receiver,
                      payload=payload)


@dataclass
class ByteLedger:
    """Running byte totals per message kind."""

    per_kind: dict[MessageKind, int] = field(default_factory=dict)

    def record(self, kind: MessageKind, num_bytes: int) -> None:
        self.per_kind[kind] = self.per_kind.get(kind, 0) + num_bytes

    @property
    def total(self) -> int:
        return sum(self.per_kind.values())

    def merge(self, other: "ByteLedger") -> None:
        for kind, n in other.per_kind.items():
            self.record(kind, n)


# --- frame loop --------------------------------------------------------------


def run_frame(
    scenario: Scenario,
    frame: int,
    noise: DetectorNoiseSpec,
    params: ModelParams,
    fusion_cfg: FusionConfig | None = None,
    spec: ModelSpec | None = None,
    sensor_seed: int = 0,
    ledger: ByteLedger | None = None,
    local_maps: Sequence[LocalMap] | None = None,
    fuse_fn=three_stage_fuse,
) -> tuple[GlobalMap, int]:
    """One sensing / upload / fuse / broadcast cycle.

    All vehicle detections cross the wire as global-frame payloads; the
    server reassembles them under an identity pose, so no pose exchange
    is needed.  Returns the broadcast map and the bytes this frame moved.
    If local_maps is given the sensing and refinement steps are skipped;
    that lets several methods share one set of measurements.
    """
    spec = spec or ModelSpec()
    fusion_cfg = fusion_cfg or FusionConfig()
    if local_maps is None:
        local_maps = []
        for k in range(scenario.num_vehicles):
            raw_map, sensor_frame = sense(
                scenario, k, frame, noise, sensor_seed
            )
            local_maps.append(
                LocalMap(
                    vehicle_id=k,
                    frame_time=raw_map.frame_time,
                    detections=tuple(predict(params, sensor_frame, spec)),
                    pose=raw_map.pose,
                )
            )

    delta = ByteLedger()
    server_maps = []
    frame_time = scenario.frame_time(frame)
    for lm in local_maps:
        k = lm.vehicle_id
        refined = lm.detections
        pose = lm.pose
        upload = LocalMapUpload(
            tuple(
                ScoredDetection(transform_to_global(d.state, pose), d.score)
                for d in refined
            )
        )
        wire = encode_message(
            V2xMessage(MessageKind.LOCAL_MAP_UPLOAD, k, SERVER_ID, upload)
        )
        delta.record(MessageKind.LOCAL_MAP_UPLOAD, len(wire))
        decoded = decode_message(wire)
        server_maps.append(
            LocalMap(
                vehicle_id=k,
                frame_time=frame_time,
                detections=decoded.payload.detections,
                pose=IDENTITY_POSE,
            )
        )

    if server_maps:
        result = fuse_fn(server_maps, fusion_cfg)
        gmap = result.global_map
    else:
        gmap = GlobalMap(frame_time, ())
    broadcast = encode_message(
        V2xMessage(
            MessageKind.GLOBAL_MAP_BROADCAST,
            SERVER_ID,
            BROADCAST_ID,
            GlobalMapBroadcast(gmap.objects),
        )
    )
    delta.record(MessageKind.GLOBAL_MAP_BROADCAST, len(broadcast))
    if ledger is not None:
        ledger.merge(delta)
    return gmap, delta.total


# --- configuration -----------------------------------------------------------


class ConfigError(ValueError):
    """Raised when a run configuration fails validation."""


@dataclass(frozen=True)
class TeacherSpec:
    """Placement of one road-side unit, or full coverage."""

    x: float = 0.0
    y: float = 0.0
    radius: float = 0.0
    full_coverage: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigError("teacher position must be finite")
        if not self.radius >= 0.0:
            raise ConfigError("teacher radius must be non-negative")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    noise: DetectorNoiseSpec = field(default_factory=DetectorNoiseSpec)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    thresholds: SliceThresholds = field(default_factory=SliceThresholds)
    teachers: tuple[TeacherSpec, ...] = ()
    methods: tuple[str, ...] = METHOD_NAMES
    seed: int = 0
    sensor_seed: int = 0

    def __post_init__(self):
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")


_NESTED = {
    "scenario": ScenarioConfig,
    "noise": DetectorNoiseSpec,
    "fusion": FusionConfig,
    "train": TrainConfig,
    "thresholds": SliceThresholds,
}


def _build_dataclass(cls, mapping: dict, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path.rstrip('.')} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in names:
            raise ConfigError(f"unknown key {path}{key}")
        if isinstance(value, dict):
            sub = {"cluster": ClusterConfig, "sensor": SensorSpec}.get(key)
            if sub is None:
                raise ConfigError(f"unexpected mapping at {path}{key}")
            value = _build_dataclass(sub, value, f"{path}{key}.")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value under {path or 'config'}: {exc}")


def run_config_from_dict(payload: dict) -> RunConfig:
    """Validate a parsed JSON config into a RunConfig."""
    if not isinstance(payload, dict):
        raise ConfigError("config root must be an object")
    kwargs = {}
    names = {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in payload.items():
        if key not in names:
            raise ConfigError(f"unknown key {key}")
        if key in _NESTED:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object")
            kwargs[key] = _build_dataclass(_NESTED[key], value, f"{key}.")
        elif key == "teachers":
            if not isinstance(value, list):
                raise ConfigError("teachers must be a list")
            kwargs[key] = tuple(
                _build_dataclass(TeacherSpec, t, "teachers[].") for t in value
            )
        elif key == "methods":
            if not isinstance(value, list):
                raise ConfigError("methods must be a list")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc))


def build_teacher_registry(cfg: RunConfig, scenario: Scenario) -> TeacherRegistry:
    if any(t.full_coverage for t in cfg.teachers):
        return full_coverage_registry(scenario)
    return TeacherRegistry(
        teachers=[
            RoadSideUnit(center=(t.x, t.y), radius=t.radius, scenario=scenario)
            for t in cfg.teachers
        ]
    )


def default_benchmark_noise() -> DetectorNoiseSpec:
    """Detector error model of the standard noisy benchmark.

    Noise grows with distance and occlusion while scores shrink, so
    confidence weighting has signal to exploit; the local-frame bias is
    the systematic error federated training can learn away.
    """
    return DetectorNoiseSpec(
        miss_prob=0.05,
        miss_dist_coeff=0.15,
        miss_occl_coeff=0.3,
        false_positive_rate=0.1,
        center_sigma=0.05,
        extent_sigma=0.04,
        yaw_sigma=0.02,
        noise_dist_scale=2.0,
        flip_prob=0.02,
        bias=(0.1, 0.15, 0.0, -0.25, -0.12, 0.0, 0.02),
        score_sigma=0.5,
    )


def default_benchmark_config(seed: int = 0) -> RunConfig:
    """The standard benchmark: default scenario, noisy detector, one
    road-side teacher at the crossing for the distillation variants."""
    return RunConfig(
        noise=default_benchmark_noise(),
        teachers=(TeacherSpec(x=0.0, y=0.0, radius=60.0),),
        seed=seed,
    )


# --- experiment --------------------------------------------------------------


def training_frames(scenario_cfg: ScenarioConfig, train_cfg: TrainConfig) -> list[int]:
    """Frame indices in the training window, thinned by the sampling ratio."""
    lo, hi = train_cfg.train_window
    first = int(round(lo * scenario_cfg.frame_rate))
    last = min(int(round(hi * scenario_cfg.frame_rate)),
               scenario_cfg.num_frames)
    return list(range(first, last, train_cfg.sampling_ratio))


def testing_frames(scenario_cfg: ScenarioConfig, train_cfg: TrainConfig) -> list[int]:
    """Every frame after the training window."""
    _, hi = train_cfg.train_window
    first = int(round(hi * scenario_cfg.frame_rate))
    return list(range(first, scenario_cfg.num_frames))


_FUSED_FNS = {
    "fusion_mean": baseline_mean_fuse,
    "fusion_max_score": baseline_max_score_fuse,
    "fusion_three_stage": three_stage_fuse,
    "fusion_perfect_fl": three_stage_fuse,
    "fusion_edfl": three_stage_fuse,
}

_PARAMS_OF = {
    "local_no_fl": "none",
    "local_perfect_fl": "perfect",
    "local_edfl": "edfl",
    "fusion_mean": "none",
    "fusion_max_score": "none",
    "fusion_three_stage": "none",
    "fusion_perfect_fl": "perfect",
    "fusion_edfl": "edfl",
}


def run_experiment(cfg: RunConfig, test_frames: Sequence[int] | None = None) -> EvalReport:
    """Train the configured variants, run the test window, build a report.

    Local methods score each vehicle's own detections against the objects
    that vehicle can see; fused methods score the broadcast map against
    everything the fleet can see.  All sensing draws are shared across
    methods, so differences come only from the model and fusion rule.

    Each frame makes one IoU pass per prediction set (a broadcast map or
    one vehicle's map) against the fleet's truths.  Every assignment the
    frame's scores need, against the fleet or masked to one vehicle's
    truths, is a greedy run on that pass.
    """
    scenario = generate_scenario(cfg.scenario, cfg.seed)
    spec = ModelSpec()
    init = default_init_params(spec)
    tr_frames = training_frames(cfg.scenario, cfg.train)
    if test_frames is None:
        test_frames = testing_frames(cfg.scenario, cfg.train)

    needed = {_PARAMS_OF[m] for m in cfg.methods}
    params = {"none": init}
    if "perfect" in needed:
        params["perfect"] = run_perfect_fl(
            scenario, tr_frames, cfg.noise, init, cfg.train,
            cfg.fusion, spec, cfg.sensor_seed,
        )
    if "edfl" in needed:
        params["edfl"] = run_edfl(
            scenario, tr_frames, cfg.noise, init, cfg.train,
            cfg.fusion, spec, cfg.sensor_seed,
            registry=build_teacher_registry(cfg, scenario),
        )

    k_count = scenario.num_vehicles
    # Fleet AP: a fused method's broadcast map against every object the
    # fleet sees; a local method pools its vehicles' own maps, each against
    # what that vehicle sees, vehicle after vehicle.
    fleet_acc = {m: Accumulator() for m in cfg.methods}
    veh_acc = {m: [Accumulator() for _ in range(k_count)]
               for m in cfg.methods if m not in _FUSED_FNS}
    # Per-vehicle AP: the broadcast map against one vehicle's objects (hits
    # on other fleet objects are ignored), or one vehicle's own map as a
    # stand-alone global map against everything the fleet sees.
    per_vehicle = {m: [SliceRecords() for _ in range(k_count)]
                   for m in cfg.methods}
    ledgers = {m: ByteLedger() for m in cfg.methods if m in _FUSED_FNS}

    for f in test_frames:
        sensed = [sense(scenario, k, f, cfg.noise, cfg.sensor_seed)
                  for k in range(k_count)]
        fleet_tags, density = tag_objects(scenario, f, cfg.thresholds)
        fleet_truths = [scenario.object_state(f, t.object_id)
                        for t in fleet_tags]
        fleet_slices = slice_membership(fleet_tags, density)
        fleet_index = {t.object_id: j for j, t in enumerate(fleet_tags)}
        all_in = [True] * len(fleet_tags)
        # Each vehicle's visible objects are a subset of the fleet's, in
        # the same object-id order: a vehicle's truths are the fleet truths
        # under a mask, and veh_local maps a fleet index to its own tag.
        veh_masks, veh_slices, veh_local = [], [], []
        for k in range(k_count):
            tags, dens_k = tag_objects(scenario, f, cfg.thresholds,
                                       vehicles=[k])
            veh_local.append({fleet_index[t.object_id]: i
                              for i, t in enumerate(tags)})
            veh_masks.append([j in veh_local[k]
                              for j in range(len(fleet_tags))])
            veh_slices.append(slice_membership(tags, dens_k))

        refined_maps = {
            pname: [
                LocalMap(k, raw.frame_time,
                         tuple(predict(params[pname], sensor_frame, spec)),
                         raw.pose)
                for k, (raw, sensor_frame) in enumerate(sensed)
            ]
            for pname in {_PARAMS_OF[m] for m in cfg.methods}
        }

        for m in cfg.methods:
            pname = _PARAMS_OF[m]
            if m in _FUSED_FNS:
                gmap, _ = run_frame(
                    scenario, f, cfg.noise, params[pname], cfg.fusion,
                    spec, cfg.sensor_seed, ledgers[m],
                    local_maps=refined_maps[pname],
                    fuse_fn=_FUSED_FNS[m],
                )
                preds = list(gmap.objects)
                scores = [score for _, score in preds]
                assigned = match_detections(preds, fleet_truths)
                fleet_acc[m].add(scores, assigned, fleet_slices)
                for k in range(k_count):
                    per_vehicle[m][k].add(scores, assigned, veh_masks[k])
            else:
                for k, lm in enumerate(refined_maps[pname]):
                    preds = [(transform_to_global(d.state, lm.pose), d.score)
                             for d in lm.detections]
                    scores = [score for _, score in preds]
                    rows = overlap_rows(preds, fleet_truths)
                    per_vehicle[m][k].add(
                        scores, greedy_assign(scores, rows), all_in
                    )
                    own = greedy_assign(scores, rows, veh_masks[k])
                    veh_acc[m][k].add(
                        scores,
                        [None if j is None else veh_local[k][j] for j in own],
                        veh_slices[k],
                    )

    methods = {}
    for m in cfg.methods:
        for acc in veh_acc.get(m, ()):
            fleet_acc[m].extend(acc)
        methods[m] = MethodResult(
            m, fleet_acc[m].results(),
            {k: records.result() for k, records in enumerate(per_vehicle[m])},
            ledgers[m].total if m in ledgers else 0,
        )
    return EvalReport(
        scenario_seed=cfg.seed, frames=tuple(test_frames), methods=methods
    )
