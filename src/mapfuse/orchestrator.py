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
import numbers
import struct
import typing
from dataclasses import dataclass, field
from typing import Sequence

from mapfuse.distill import (
    RoadSideUnit,
    run_edfl,
    run_perfect_fl,
)
from mapfuse.evalbench import (
    Accumulator,
    EvalReport,
    MethodResult,
    greedy_assign,
    overlap_rows,
    slice_bits,
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
    generate_scenario,
    sense,
)

SERVER_ID = 0xFFFFFFFF
BROADCAST_ID = 0xFFFFFFFE

MESSAGE_MAGIC = b"DMF1"
MESSAGE_VERSION = 1

_HEADER = struct.Struct("<4sHHII")
_COUNT = struct.Struct("<I")

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
class V2xMessage:
    """One V2X message: its payload is a tuple of entries whose form is
    set by the kind (see _ENTRIES)."""

    kind: MessageKind
    sender: int
    receiver: int
    payload: tuple


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


_SCORED = struct.Struct("<H8d")   # category + box fields + score
_PARAMETER = (struct.Struct("<d"), "parameter", lambda v: (v,), _parameter)

# kind -> (entry struct, entry name in CodecError texts, entry -> struct
# fields, struct fields -> entry, raising ValueError on an invalid one).
# Upload and broadcast entries are (ObjectState, score) pairs, parameter
# entries floats, label entries (detection index, ObjectState) pairs.
_ENTRIES = {
    MessageKind.LOCAL_MAP_UPLOAD: (
        _SCORED, "detection entry", _scored_fields, _scored),
    MessageKind.GLOBAL_MAP_BROADCAST: (
        _SCORED, "object entry", _scored_fields, _scored),
    MessageKind.PARAMS_UPLOAD: _PARAMETER,
    MessageKind.PARAMS_BROADCAST: _PARAMETER,
    MessageKind.LABEL_BROADCAST: (
        struct.Struct("<IH7d"), "label entry", _label_fields, _label),
}


def encode_message(msg: V2xMessage) -> bytes:
    kind = MessageKind(msg.kind)
    layout, name, fields, _ = _ENTRIES[kind]
    try:
        entries = [layout.pack(*fields(e)) for e in msg.payload]
    except (struct.error, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"bad {name} in {kind.name} payload: {exc}") from None
    return (_HEADER.pack(MESSAGE_MAGIC, MESSAGE_VERSION, kind, msg.sender,
                         msg.receiver)
            + _COUNT.pack(len(entries)) + b"".join(entries))


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

    layout, name, _, build = _ENTRIES[kind]
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


@dataclass
class ByteLedger:
    """Running byte totals per message kind."""

    per_kind: dict[MessageKind, int] = field(default_factory=dict)

    def record(self, kind: MessageKind, num_bytes: int) -> None:
        self.per_kind[kind] = self.per_kind.get(kind, 0) + num_bytes

    @property
    def total(self) -> int:
        return sum(self.per_kind.values())


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
    is needed.  Returns the broadcast map and the bytes this frame moved,
    which are also recorded in ledger when one is given.
    If local_maps is given the sensing and refinement steps are skipped;
    that lets several methods share one set of measurements.
    """
    spec = spec or ModelSpec()
    fusion_cfg = fusion_cfg or FusionConfig()
    ledger = ledger if ledger is not None else ByteLedger()
    if local_maps is None:
        local_maps = []
        for k in range(scenario.num_vehicles):
            raw, sensor_frame = sense(scenario, k, frame, noise, sensor_seed)
            local_maps.append(dataclasses.replace(
                raw, detections=tuple(predict(params, sensor_frame, spec))))

    moved = 0
    server_maps = []
    frame_time = scenario.frame_time(frame)
    for lm in local_maps:
        upload = tuple((transform_to_global(d.state, lm.pose), d.score)
                       for d in lm.detections)
        wire = encode_message(V2xMessage(
            MessageKind.LOCAL_MAP_UPLOAD, lm.vehicle_id, SERVER_ID, upload))
        ledger.record(MessageKind.LOCAL_MAP_UPLOAD, len(wire))
        moved += len(wire)
        server_maps.append(LocalMap(
            vehicle_id=lm.vehicle_id,
            frame_time=frame_time,
            detections=tuple(ScoredDetection(s, score) for s, score
                             in decode_message(wire).payload),
            pose=IDENTITY_POSE,
        ))

    if server_maps:
        gmap = fuse_fn(server_maps, fusion_cfg).global_map
    else:
        gmap = GlobalMap(frame_time, ())
    broadcast = encode_message(V2xMessage(
        MessageKind.GLOBAL_MAP_BROADCAST, SERVER_ID, BROADCAST_ID,
        gmap.objects))
    ledger.record(MessageKind.GLOBAL_MAP_BROADCAST, len(broadcast))
    return gmap, moved + len(broadcast)


# --- configuration -----------------------------------------------------------


class ConfigError(ValueError):
    """Raised when a run configuration fails validation."""


@dataclass(frozen=True)
class TeacherSpec:
    """Placement of one road-side unit's coverage disc.  A disc that
    covers the whole arena gives perfect labels."""

    x: float = 0.0
    y: float = 0.0
    radius: float = 0.0

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
    teachers: tuple[TeacherSpec, ...] = ()
    methods: tuple[str, ...] = METHOD_NAMES
    seed: int = 0
    sensor_seed: int = 0

    def __post_init__(self):
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")
        for s in (self.seed, self.sensor_seed):
            if not (isinstance(s, numbers.Integral) and s >= 0):
                raise ConfigError("seed and sensor_seed must be integers "
                                  ">= 0")


def _from_json(cls, value, path: str):
    """Build the config dataclass cls from parsed JSON.

    The dataclass fields are the schema: a field whose type is a dataclass
    takes an object, a tuple field takes a list (its items are built the
    same way when they are dataclasses), and any other value goes to the
    constructor, which validates it.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, item in value.items():
        where = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"unknown key {where}")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            item = _from_json(hint, item, where)
        elif typing.get_origin(hint) is tuple:
            if not isinstance(item, list):
                raise ConfigError(f"{where} must be a list")
            sub = typing.get_args(hint)[0]
            if dataclasses.is_dataclass(sub):
                item = [_from_json(sub, x, f"{where}[]") for x in item]
            item = tuple(item)
        kwargs[key] = item
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer too large for a float.
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


def run_config_from_dict(payload: dict) -> RunConfig:
    """Validate a parsed JSON config into a RunConfig."""
    return _from_json(RunConfig, payload, "")


def build_teacher_registry(
    cfg: RunConfig, scenario: Scenario
) -> tuple[RoadSideUnit, ...]:
    return tuple(
        RoadSideUnit(center=(t.x, t.y), radius=t.radius, scenario=scenario)
        for t in cfg.teachers
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
    """Frame indices in the training window, thinned by the sampling ratio.
    Window times are clamped to the frame count before rounding."""
    n = scenario_cfg.num_frames
    lo, hi = (round(min(t * scenario_cfg.frame_rate, n))
              for t in train_cfg.train_window)
    return list(range(lo, hi, train_cfg.sampling_ratio))


def testing_frames(scenario_cfg: ScenarioConfig, train_cfg: TrainConfig) -> list[int]:
    """Every frame after the training window."""
    n = scenario_cfg.num_frames
    hi = round(min(train_cfg.train_window[1] * scenario_cfg.frame_rate, n))
    return list(range(hi, n))


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

    Each frame makes one IoU pass over all its prediction sets (each
    broadcast map and each vehicle's map) against the fleet's truths.
    Every assignment the frame's scores need, against the fleet or masked
    to one vehicle's truths, is a greedy run on that set's rows.
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
    per_vehicle = {m: [Accumulator() for _ in range(k_count)]
                   for m in cfg.methods}
    ledgers = {m: ByteLedger() for m in cfg.methods if m in _FUSED_FNS}

    for f in test_frames:
        sensed = [sense(scenario, k, f, cfg.noise, cfg.sensor_seed)
                  for k in range(k_count)]
        fleet_tags, density = tag_objects(scenario, f)
        fleet_truths = [scenario.object_state(f, t.object_id)
                        for t in fleet_tags]
        fleet_bits = slice_bits(fleet_tags, density)
        # Each vehicle's visible objects are a subset of the fleet's: its
        # slice masks are over the fleet truths, and a fleet truth the
        # vehicle does not see has mask 0, so the masks are its truth mask.
        veh_bits = []
        for k in range(k_count):
            tags, dens_k = tag_objects(scenario, f, vehicles=[k])
            seen = {t.object_id: t for t in tags}
            veh_bits.append((slice_bits(
                [seen.get(t.object_id) for t in fleet_tags], dens_k), dens_k))

        refined_maps = {
            pname: [
                dataclasses.replace(raw, detections=tuple(
                    predict(params[pname], sensor_frame, spec)))
                for raw, sensor_frame in sensed
            ]
            for pname in {_PARAMS_OF[m] for m in cfg.methods}
        }

        # Per method, its prediction sets: the broadcast map of a fused
        # method, or each vehicle's own map of a local one.
        pred_sets = {}
        for m in cfg.methods:
            pname = _PARAMS_OF[m]
            if m in _FUSED_FNS:
                gmap, _ = run_frame(
                    scenario, f, cfg.noise, params[pname], cfg.fusion,
                    spec, cfg.sensor_seed, ledgers[m],
                    local_maps=refined_maps[pname],
                    fuse_fn=_FUSED_FNS[m],
                )
                pred_sets[m] = [list(gmap.objects)]
            else:
                pred_sets[m] = [
                    [(transform_to_global(d.state, lm.pose), d.score)
                     for d in lm.detections]
                    for lm in refined_maps[pname]
                ]
        # One IoU pass over every set's predictions, split back by set.
        all_rows = overlap_rows(
            [p for sets in pred_sets.values() for preds in sets
             for p in preds],
            fleet_truths,
        )
        start = 0
        for m, sets in pred_sets.items():
            for k, preds in enumerate(sets):
                rows = all_rows[start:start + len(preds)]
                start += len(preds)
                scores = [score for _, score in preds]
                if m in _FUSED_FNS:
                    assigned = greedy_assign(scores, rows)
                    fleet_acc[m].add(scores, assigned, fleet_bits, density)
                    for acc, (bits, dens_v) in zip(per_vehicle[m], veh_bits):
                        acc.add(scores, assigned, bits, dens_v)
                else:
                    per_vehicle[m][k].add(scores, greedy_assign(scores, rows),
                                          fleet_bits, density)
                    bits, dens_k = veh_bits[k]
                    own = greedy_assign(scores, rows, bits)
                    veh_acc[m][k].add(scores, own, bits, dens_k)

    methods = {}
    for m in cfg.methods:
        for acc in veh_acc.get(m, ()):
            fleet_acc[m].extend(acc)
        methods[m] = MethodResult(
            m, fleet_acc[m].results(),
            {k: acc.results()["overall"]
             for k, acc in enumerate(per_vehicle[m])},
            ledgers[m].total if m in ledgers else 0,
        )
    return EvalReport(
        scenario_seed=cfg.seed, frames=tuple(test_frames), methods=methods
    )
