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
import itertools
import math
import numbers
import operator
import struct
import sys
import typing
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from mapfuse.distill import (
    RoadSideUnit,
    WindowFrame,
    fuse_window,
    refine_fleet,
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
)
from mapfuse.fusion import (
    FUSE_RULES,
    Boxes,
    FusionConfig,
    LocalMap,
    GlobalMap,
    RowError,
    frame_boxes,
    map_slices,
    three_stage_fuse,
)
from mapfuse.geometry import IDENTITY_POSE
from mapfuse.simworld import (
    DetectorNoiseSpec,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    sense_fleet,
)

SERVER_ID = 0xFFFFFFFF
BROADCAST_ID = 0xFFFFFFFE

MESSAGE_MAGIC = b"DMF1"
MESSAGE_VERSION = 1

_HEADER = struct.Struct("<4sHHII")
_COUNT = struct.Struct("<I")
_BODY = _HEADER.size + _COUNT.size   # where a blob's entries start


@dataclass(frozen=True)
class Method:
    """A parameter set ("none", "perfect_fl" or "edfl"; see train_params)
    and a FUSE_RULES key, or None for a local method: one that scores
    each vehicle's own map."""

    params: str
    rule: str | None


# The evaluation grid: a labelling scheme crossed with a fusion rule.
# Parameter sets are trained, and methods reported, in this order.
METHODS = {
    "local_no_fl": Method("none", None),
    "local_perfect_fl": Method("perfect_fl", None),
    "local_edfl": Method("edfl", None),
    "fusion_mean": Method("none", "mean"),
    "fusion_max_score": Method("none", "max_score"),
    "fusion_three_stage": Method("none", "three_stage"),
    "fusion_perfect_fl": Method("perfect_fl", "three_stage"),
    "fusion_edfl": Method("edfl", "three_stage"),
}
METHOD_NAMES = tuple(METHODS)


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
    """One V2X message: its payload is a sequence of entries whose form
    is set by the kind (see _ENTRIES)."""

    kind: MessageKind
    sender: int
    receiver: int
    payload: Sequence


# Entry layouts, byte-equal to the packed structs "<H8d", "<IH7d" and "<d".
_BOX = np.dtype([("cat", "<u2"), ("f", "<f8", (8,))])   # box fields, score
_LABEL = np.dtype([("idx", "<u4"), ("cat", "<u2"), ("f", "<f8", (7,))])
_PARAMETER = np.dtype("<f8")
# A box entry with its category as a float64: one Boxes row.  Casts
# between it and _BOX go field by field.
_ROW = np.dtype([("cat", "<f8"), ("f", "<f8", (8,))])


def _pack_boxes(payload) -> np.ndarray:
    # Every row's category is a whole number in the uint16 range.
    return Boxes(payload).rows.view(_ROW)[:, 0].astype(_BOX)


def _unpack_boxes(entries: np.ndarray) -> Boxes:
    return Boxes.from_rows(entries.astype(_ROW).view((np.float64, 9)))


def _uint32(value, what: str) -> int:
    """value as a "<I" field; a ValueError naming it if it cannot be one."""
    try:
        # operator.index takes integers only, as a struct field does.
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"{what} must lie in [0, 2**32 - 1]")
    return value


def _pack_labels(payload) -> np.ndarray:
    payload = tuple(payload)
    idx = [_uint32(i, "detection index") for i, _ in payload]
    rows = Boxes([(s, 0.0) for _, s in payload]).rows
    entries = np.empty(len(idx), _LABEL)
    entries["idx"] = idx
    entries["cat"] = rows[:, 0]
    entries["f"] = rows[:, 1:8]
    return entries


def _unpack_labels(entries: np.ndarray) -> tuple:
    rows = np.zeros((len(entries), 9))
    rows[:, 0] = entries["cat"]
    rows[:, 1:8] = entries["f"]
    boxes = Boxes.from_rows(rows)
    return tuple(zip(entries["idx"].tolist(), (d.state for d in boxes)))


def _pack_parameters(payload) -> np.ndarray:
    if not all(isinstance(v, numbers.Real) for v in payload):
        raise ValueError("parameters must be real numbers")
    return np.array(payload, dtype=_PARAMETER).reshape(-1)


def _unpack_parameters(entries: np.ndarray) -> tuple:
    finite = np.isfinite(entries)
    if not finite.all():
        raise RowError(int(finite.argmin()), "parameter must be finite")
    return tuple(entries.tolist())


_PARAMETERS = (_PARAMETER, "parameter", _pack_parameters, _unpack_parameters)

# kind -> (entry dtype, entry name in CodecError texts, payload -> entry
# array, raising ValueError on a bad entry, and entry array -> payload,
# raising RowError at the first invalid entry).  Upload and broadcast
# payloads are Boxes blocks or sequences of (ObjectState, score) pairs and
# decode to a block; parameter entries are floats, label entries
# (detection index, ObjectState) pairs.
_ENTRIES = {
    MessageKind.LOCAL_MAP_UPLOAD: (
        _BOX, "detection entry", _pack_boxes, _unpack_boxes),
    MessageKind.GLOBAL_MAP_BROADCAST: (
        _BOX, "object entry", _pack_boxes, _unpack_boxes),
    MessageKind.PARAMS_UPLOAD: _PARAMETERS,
    MessageKind.PARAMS_BROADCAST: _PARAMETERS,
    MessageKind.LABEL_BROADCAST: (
        _LABEL, "label entry", _pack_labels, _unpack_labels),
}


def encode_message(msg: V2xMessage) -> bytes:
    kind = MessageKind(msg.kind)
    _, name, pack, _ = _ENTRIES[kind]
    try:
        entries = pack(msg.payload)
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValueError(f"bad {name} in {kind.name} payload: {exc}") from None
    return (_HEADER.pack(MESSAGE_MAGIC, MESSAGE_VERSION, kind,
                         _uint32(msg.sender, "sender"),
                         _uint32(msg.receiver, "receiver"))
            + _COUNT.pack(len(entries)) + entries.tobytes())


def _require(blob: bytes, offset: int, size: int, what: str) -> None:
    if len(blob) < offset + size:
        raise CodecError(f"truncated {what} at offset {offset}")


def _read_head(blob: bytes) -> tuple[MessageKind, int, int, int]:
    """A blob's kind, sender, receiver and entry count, its header and
    count checked."""
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
    _require(blob, _HEADER.size, _COUNT.size, "count")
    (count,) = _COUNT.unpack_from(blob, _HEADER.size)
    return kind, sender, receiver, count


def decode_message(blob: bytes) -> V2xMessage:
    """One message from its bytes.  A CodecError names the offset of the
    first malformed part: the header, then the first invalid entry, then
    a truncated entry or trailing bytes."""
    kind, sender, receiver, count = _read_head(blob)
    layout, name, _, unpack = _ENTRIES[kind]
    size = layout.itemsize
    # Only the entries the blob holds in full are read, so a huge count
    # on a short blob allocates nothing.
    whole = min(count, (len(blob) - _BODY) // size)
    try:
        payload = unpack(np.frombuffer(blob, layout, whole, _BODY))
    except RowError as exc:
        raise CodecError(f"invalid {name} at offset "
                         f"{_BODY + exc.row * size}: {exc.reason}") from None
    if whole < count:
        raise CodecError(f"truncated {name} at offset {_BODY + whole * size}")
    if len(blob) != _BODY + count * size:
        raise CodecError(f"trailing bytes at offset {_BODY + count * size}")
    return V2xMessage(kind, sender, receiver, payload)


def _decode_blobs(blobs: Sequence[bytes]) -> list[V2xMessage]:
    """decode_message over each blob.  A batch of one kind whose blobs
    hold exactly their counts of entries, as run_frame's uploads do, is
    read as one array: its entries are checked (and box yaws wrapped)
    once, and each message gets its slice.  Any other batch, or one with
    an invalid entry, is decoded blob by blob, so a malformed batch
    raises its first failing blob's CodecError."""
    try:
        heads = [_read_head(blob) for blob in blobs]
    except CodecError:
        heads = []
    if len({kind for kind, *_ in heads}) == 1:
        layout, _, _, unpack = _ENTRIES[heads[0][0]]
        counts = [count for *_, count in heads]
        if all(len(blob) == _BODY + n * layout.itemsize
               for blob, n in zip(blobs, counts)):
            try:
                payload = unpack(np.frombuffer(b"".join(
                    memoryview(blob)[_BODY:] for blob in blobs), layout))
            except RowError:
                pass
            else:
                ends = list(itertools.accumulate(counts, initial=0))
                return [V2xMessage(kind, sender, receiver, payload[a:b])
                        for (kind, sender, receiver, _), a, b
                        in zip(heads, ends, ends[1:])]
    return [decode_message(blob) for blob in blobs]


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


def _global_boxes(local_maps: Sequence[LocalMap]) -> list[Boxes]:
    """Each map's boxes in the global frame, cut from one block."""
    boxes = frame_boxes(local_maps)
    return [boxes[s] for s in map_slices(local_maps)]


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

    All vehicle detections cross the wire as global-frame payloads, moved
    into that frame by one row transform for the whole frame and encoded
    one message per vehicle; the server decodes the frame's uploads in one
    pass and reassembles them under an identity pose, so no pose exchange
    is needed; each server map takes its vehicle id from its upload's
    sender.  Returns the broadcast map and the bytes this frame moved,
    which are also recorded in ledger when one is given.
    If local_maps is given the sensing and refinement steps are skipped;
    that lets several methods share one set of measurements.  Otherwise
    the fleet is sensed with one sense_fleet and refined with one
    predict_fleet call.
    """
    spec = spec or ModelSpec()
    fusion_cfg = fusion_cfg or FusionConfig()
    ledger = ledger if ledger is not None else ByteLedger()
    if local_maps is None:
        local_maps = refine_fleet(
            params, sense_fleet(scenario, frame, noise, sensor_seed), spec)

    wires = []
    for lm, upload in zip(local_maps, _global_boxes(local_maps)):
        wires.append(encode_message(V2xMessage(
            MessageKind.LOCAL_MAP_UPLOAD, lm.vehicle_id, SERVER_ID, upload)))
        ledger.record(MessageKind.LOCAL_MAP_UPLOAD, len(wires[-1]))
    frame_time = scenario.frame_time(frame)
    server_maps = [
        LocalMap(vehicle_id=msg.sender, frame_time=frame_time,
                 detections=msg.payload, pose=IDENTITY_POSE)
        for msg in _decode_blobs(wires)]

    if server_maps:
        gmap = fuse_fn(server_maps, fusion_cfg).global_map
    else:
        gmap = GlobalMap(frame_time, ())
    broadcast = encode_message(V2xMessage(
        MessageKind.GLOBAL_MAP_BROADCAST, SERVER_ID, BROADCAST_ID,
        gmap.objects))
    ledger.record(MessageKind.GLOBAL_MAP_BROADCAST, len(broadcast))
    return gmap, sum(map(len, wires)) + len(broadcast)


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
            # bool is an Integral, but JSON's true is no seed.
            if not (isinstance(s, numbers.Integral)
                    and not isinstance(s, bool) and s >= 0):
                raise ConfigError("seed and sensor_seed must be integers "
                                  ">= 0")


def _json_float(value, where: str):
    """A JSON integer for a float field as a double; a ConfigError naming
    the field for a boolean or an integer past the float range."""
    if type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if type(value) in (bool, int):
        raise ConfigError(f"{where} must be a number within the float range")
    return value


def _from_json(cls, value, path: str):
    """Build the config dataclass cls from parsed JSON.

    The dataclass fields are the schema: a field whose type is a dataclass
    takes an object, a tuple field takes a list (its items are built the
    same way when they are dataclasses), a float field or item a number
    (_json_float), and any other value goes to the constructor.
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
        if hint is float:
            item = _json_float(item, where)
        elif dataclasses.is_dataclass(hint):
            item = _from_json(hint, item, where)
        elif typing.get_origin(hint) is tuple:
            if not isinstance(item, list):
                raise ConfigError(f"{where} must be a list")
            sub = typing.get_args(hint)[0]
            if dataclasses.is_dataclass(sub):
                item = [_from_json(sub, x, f"{where}[]") for x in item]
            elif sub is float:
                item = [_json_float(x, f"{where}[{n}]")
                        for n, x in enumerate(item)]
            item = tuple(item)
        kwargs[key] = item
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a frame count of duration * frame_rate = inf.
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


def _empty_window(cfg: RunConfig, use: str) -> ConfigError:
    return ConfigError(
        f"train.train_window {list(cfg.train.train_window)} selects no "
        f"{use} frames of the scenario's {cfg.scenario.num_frames}")


def train_params(name: str, cfg: RunConfig, scenario: Scenario,
                 frames: Sequence[int], init: ModelParams,
                 window: Sequence[WindowFrame] | None = None) -> ModelParams:
    """The parameter set a Method names: init itself for "none", else init
    trained on frames by perfect-label FL ("perfect_fl") or by EDFL with
    the configured teachers ("edfl").  window, if given, is those frames
    as fuse_window senses, refines (under init) and fuses them for cfg;
    without it the training call builds its own.  A ConfigError when
    there are no frames to train on, so that untrained parameters never
    pass as trained."""
    if name == "none":
        return init
    if not frames:
        raise _empty_window(cfg, "training")
    if name == "perfect_fl":
        return run_perfect_fl(scenario, frames, cfg.noise, init, cfg.train,
                              cfg.fusion, sensor_seed=cfg.sensor_seed,
                              window=window)
    if name == "edfl":
        return run_edfl(scenario, frames, cfg.noise, init, cfg.train,
                        cfg.fusion, sensor_seed=cfg.sensor_seed,
                        registry=build_teacher_registry(cfg, scenario),
                        window=window)
    raise ValueError(f"unknown parameter set {name!r}")


def run_experiment(cfg: RunConfig, test_frames: Sequence[int] | None = None) -> EvalReport:
    """Train the configured variants, run the test window, build a report.

    Local methods score each vehicle's own detections against the objects
    that vehicle can see, in that vehicle's distance and occlusion slices;
    fused methods score the broadcast map against everything the fleet can
    see.  Every method scores a frame at the fleet's density.  All sensing
    draws are shared, so methods differ only by model and fusion rule.

    The training window is sensed, refined and fused once (fuse_window)
    and handed to run_perfect_fl and run_edfl, each called once, which
    label it with their own teachers and train.  Each test frame is
    sensed with one sense_fleet and refined with one predict_fleet per
    parameter set.

    Each frame makes one IoU pass over all its prediction sets (each
    broadcast map and each vehicle's map) against the fleet's truths.
    Every assignment the frame's scores need, against the fleet or masked
    to one vehicle's truths, is a greedy run on that set's rows.  A local
    method adds each vehicle's own-truth run to its one fleet accumulator
    as it goes.  AP stable-sorts the records by score, so the order they
    are added in matters only between equal scores: those keep frame
    order, then vehicle order.

    A ConfigError when there is no test frame, or no training frame for
    a method that needs trained parameters.
    """
    if test_frames is None:
        test_frames = testing_frames(cfg.scenario, cfg.train)
    if not test_frames:
        raise _empty_window(cfg, "testing")
    scenario = generate_scenario(cfg.scenario, cfg.seed)
    spec = ModelSpec()
    init = default_init_params(spec)
    tr_frames = training_frames(cfg.scenario, cfg.train)

    methods = {m: METHODS[m] for m in cfg.methods}
    names = dict.fromkeys(
        method.params for m, method in METHODS.items() if m in methods)
    # The training window, sensed, refined and fused once for every
    # variant that trains on it, and dropped once they are trained.
    window = None
    if set(names) - {"none"}:
        window = fuse_window(scenario, tr_frames, cfg.noise, init, spec,
                             cfg.fusion, cfg.sensor_seed)
    # Each parameter set the methods need, trained once, in table order.
    params = {name: train_params(name, cfg, scenario, tr_frames, init, window)
              for name in names}
    del window

    k_count = scenario.num_vehicles
    # Fleet AP: a fused method's broadcast map against every object the
    # fleet sees; a local method's vehicles' own maps, each against what
    # that vehicle sees, frame after frame, vehicle after vehicle.
    fleet_acc = {m: Accumulator() for m in methods}
    # Per-vehicle AP: the broadcast map against one vehicle's objects (hits
    # on other fleet objects are ignored), or one vehicle's own map as a
    # stand-alone global map against everything the fleet sees.
    per_vehicle = {m: [Accumulator() for _ in range(k_count)]
                   for m in methods}
    ledgers = {m: ByteLedger() for m in methods}

    for f in test_frames:
        sensed = sense_fleet(scenario, f, cfg.noise, cfg.sensor_seed)
        fleet_tags, density = tag_objects(scenario, f)
        fleet_truths = scenario.truth_rows(
            f, [t.object_id for t in fleet_tags])
        fleet_bits = slice_bits(fleet_tags, density)
        # Each vehicle's visible objects are a subset of the fleet's: its
        # slice masks are over the fleet truths, and a fleet truth the
        # vehicle does not see has mask 0, so the masks are its truth mask.
        veh_bits = []
        for k in range(k_count):
            seen = {t.object_id: t
                    for t in tag_objects(scenario, f, vehicles=[k])[0]}
            veh_bits.append(slice_bits(
                [seen.get(t.object_id) for t in fleet_tags], density))

        refined_maps = {pname: refine_fleet(p, sensed, spec)
                        for pname, p in params.items()}

        # Per method, its prediction sets: the broadcast map of a fused
        # method, or each vehicle's own map, in the global frame, of a
        # local one.
        pred_sets = {}
        for m, method in methods.items():
            if method.rule is None:
                pred_sets[m] = _global_boxes(refined_maps[method.params])
                continue
            gmap, _ = run_frame(
                scenario, f, cfg.noise, params[method.params], cfg.fusion,
                spec, cfg.sensor_seed, ledgers[m],
                local_maps=refined_maps[method.params],
                fuse_fn=FUSE_RULES[method.rule],
            )
            pred_sets[m] = [gmap.objects]
        # One IoU pass over every set's predictions, split back by set.
        # The empty block's rows keep a run without methods going.
        all_rows = overlap_rows(
            Boxes._of(np.concatenate([Boxes().rows, *(
                preds.rows for sets in pred_sets.values()
                for preds in sets)])),
            fleet_truths,
        )
        start = 0
        for m, sets in pred_sets.items():
            for k, preds in enumerate(sets):
                rows = all_rows[start:start + len(preds)]
                start += len(preds)
                scores = preds.scores.tolist()
                if methods[m].rule is not None:
                    assigned = greedy_assign(scores, rows)
                    fleet_acc[m].add(scores, assigned, fleet_bits, density)
                    for acc, bits in zip(per_vehicle[m], veh_bits):
                        acc.add(scores, assigned, bits, density)
                else:
                    per_vehicle[m][k].add(scores, greedy_assign(scores, rows),
                                          fleet_bits, density)
                    own = greedy_assign(scores, rows, veh_bits[k])
                    fleet_acc[m].add(scores, own, veh_bits[k], density)

    results = {}
    for m in methods:
        results[m] = MethodResult(
            m, fleet_acc[m].results(),
            {k: acc.results(["overall"])["overall"]
             for k, acc in enumerate(per_vehicle[m])},
            ledgers[m].total,
        )
    return EvalReport(
        scenario_seed=cfg.seed, frames=tuple(test_frames), methods=results
    )
