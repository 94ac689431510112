import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mapfuse.association import ClusterConfig
from mapfuse.distill import run_edfl, run_perfect_fl
from mapfuse.evalbench import (
    IOU_THRESHOLD,
    match_detections,
    tag_objects,
)
from mapfuse.fedlearn import ModelSpec, TrainConfig, default_init_params, predict
from mapfuse.fusion import (
    FusionConfig,
    LocalMap,
    three_stage_fuse,
)
from mapfuse.geometry import ObjectState, transform_to_global
from mapfuse.orchestrator import (
    _FUSED_FNS,
    _PARAMS_OF,
    BROADCAST_ID,
    ByteLedger,
    CodecError,
    ConfigError,
    MessageKind,
    METHOD_NAMES,
    RunConfig,
    SERVER_ID,
    TeacherSpec,
    V2xMessage,
    build_teacher_registry,
    decode_message,
    default_benchmark_config,
    encode_message,
    run_config_from_dict,
    run_experiment,
    run_frame,
    training_frames,
)
from mapfuse.orchestrator import testing_frames as eval_window_frames
from mapfuse.simworld import (
    DetectorNoiseSpec,
    ScenarioConfig,
    SensorSpec,
    generate_scenario,
    sense,
)

from oracles import (
    SliceAccumulator,
    average_precision_reference,
    iou_3d,
)

QUIET = DetectorNoiseSpec()


def box(x, y, yaw=0.0, cat=0):
    return ObjectState(cat, (x, y, 0.75), (4.0, 2.0, 1.5), yaw)


def upload_msg(pairs):
    return V2xMessage(MessageKind.LOCAL_MAP_UPLOAD, 3, SERVER_ID,
                      tuple(pairs))


# (kind, bytes per entry, one entry of that kind).
ENTRY_SIZES = [
    (MessageKind.LOCAL_MAP_UPLOAD, 66, (box(1, 2), 0.5)),
    (MessageKind.GLOBAL_MAP_BROADCAST, 66, (box(0, 0), 1.0)),
    (MessageKind.PARAMS_UPLOAD, 8, 0.25),
    (MessageKind.PARAMS_BROADCAST, 8, -3.0),
    (MessageKind.LABEL_BROADCAST, 62, (7, box(3, 4))),
]


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("kind,size,entry", ENTRY_SIZES,
                         ids=[kind.name for kind, _, _ in ENTRY_SIZES])
def test_wire_sizes(kind, size, entry, n):
    msg = V2xMessage(kind, SERVER_ID, BROADCAST_ID, (entry,) * n)
    wire = encode_message(msg)
    assert len(wire) == 20 + size * n
    assert decode_message(wire) == msg


state_st = st.builds(
    ObjectState,
    st.integers(0, 10),
    st.tuples(*[st.floats(-100, 100)] * 3),
    st.tuples(*[st.floats(0.1, 10)] * 3),
    st.floats(-math.pi, math.pi),
)
score_st = st.floats(-10, 10, allow_nan=False)


@st.composite
def message_st(draw):
    kind = draw(st.sampled_from(list(MessageKind)))
    if kind in (MessageKind.LOCAL_MAP_UPLOAD,
                MessageKind.GLOBAL_MAP_BROADCAST):
        entries = st.lists(st.tuples(state_st, score_st), max_size=5)
    elif kind is MessageKind.LABEL_BROADCAST:
        entries = st.lists(st.tuples(st.integers(0, 1000), state_st),
                           max_size=5)
    else:
        entries = st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           max_size=20)
    sender = draw(st.integers(0, SERVER_ID))
    receiver = draw(st.integers(0, SERVER_ID))
    return V2xMessage(kind, sender, receiver, tuple(draw(entries)))


@given(message_st())
@settings(max_examples=150, deadline=None)
def test_codec_round_trip(msg):
    back = decode_message(encode_message(msg))
    assert back == msg


def test_codec_errors_name_offsets():
    blob = encode_message(upload_msg([(box(1, 2), 0.5)]))
    with pytest.raises(CodecError, match="header at offset 0"):
        decode_message(blob[:10])
    with pytest.raises(CodecError, match="magic at offset 0"):
        decode_message(b"XXXX" + blob[4:])
    with pytest.raises(CodecError, match="version at offset 4"):
        decode_message(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(CodecError, match="kind at offset 6"):
        decode_message(blob[:6] + b"\x63\x00" + blob[8:])
    with pytest.raises(CodecError, match="detection entry at offset 20"):
        decode_message(blob[:40])
    with pytest.raises(CodecError, match="trailing bytes at offset 86"):
        decode_message(blob + b"\x00")
    two = encode_message(upload_msg([(box(1, 2), 0.5)] * 2))
    # The second entry starts at 20 + 66; its x is 2 bytes in, its length 26.
    with pytest.raises(CodecError, match="detection entry at offset 86"):
        decode_message(two[:88] + struct.pack("<d", math.nan) + two[96:])
    with pytest.raises(CodecError, match="detection entry at offset 86"):
        decode_message(two[:112] + struct.pack("<d", 0.0) + two[120:])
    params = encode_message(V2xMessage(MessageKind.PARAMS_UPLOAD, 1,
                                       SERVER_ID, (1.0, 2.0)))
    with pytest.raises(CodecError, match="parameter at offset 28"):
        decode_message(params[:28] + struct.pack("<d", math.inf))


def _float_offsets(msg):
    """Byte offsets of every float64 field in msg's encoding."""
    if msg.kind in (MessageKind.LOCAL_MAP_UPLOAD,
                    MessageKind.GLOBAL_MAP_BROADCAST):
        size, skip = 66, 2
    elif msg.kind is MessageKind.LABEL_BROADCAST:
        size, skip = 62, 6
    else:
        size, skip = 8, 0
    return [20 + size * i + j
            for i in range(len(msg.payload)) for j in range(skip, size, 8)]


framed_st = st.builds(
    lambda kind, count, body: (struct.pack("<4sHHII", b"DMF1", 1, kind, 0, 0)
                               + struct.pack("<I", count) + body),
    st.integers(0, 6), st.integers(0, 4), st.binary(max_size=300),
)


@given(st.one_of(st.binary(max_size=300), framed_st))
@settings(max_examples=300, deadline=None)
def test_decode_arbitrary_bytes_raises_only_codec_error(blob):
    try:
        decode_message(blob)
    except CodecError:
        pass


@given(message_st(), st.data(),
       st.sampled_from([math.nan, math.inf, -math.inf]))
@settings(max_examples=150, deadline=None)
def test_decode_rejects_any_non_finite_float(msg, data, bad):
    offsets = _float_offsets(msg)
    assume(offsets)
    at = data.draw(st.sampled_from(offsets))
    blob = encode_message(msg)
    blob = blob[:at] + struct.pack("<d", bad) + blob[at + 8:]
    with pytest.raises(CodecError, match=r"at offset \d+"):
        decode_message(blob)


def test_payload_kind_mismatch_rejected():
    pair = (box(1, 2), 0.5)
    for kind, payload in [
        (MessageKind.PARAMS_UPLOAD, (pair,)),
        (MessageKind.PARAMS_BROADCAST, ("1.0",)),
        (MessageKind.LOCAL_MAP_UPLOAD, (1.0,)),
        (MessageKind.LOCAL_MAP_UPLOAD, ((3, box(1, 2)),)),
        (MessageKind.GLOBAL_MAP_BROADCAST, ((box(1, 2),),)),
        (MessageKind.LABEL_BROADCAST, (pair,)),
        (MessageKind.LABEL_BROADCAST, ((-1, box(1, 2)),)),
    ]:
        with pytest.raises(ValueError, match=f"in {kind.name} payload"):
            encode_message(V2xMessage(kind, 0, SERVER_ID, payload))


def test_byte_ledger_merge_and_total():
    a = ByteLedger()
    a.record(MessageKind.LOCAL_MAP_UPLOAD, 100)
    a.record(MessageKind.LOCAL_MAP_UPLOAD, 20)
    a.record(MessageKind.GLOBAL_MAP_BROADCAST, 7)
    a.record(MessageKind.LOCAL_MAP_UPLOAD, 1)
    assert a.per_kind[MessageKind.LOCAL_MAP_UPLOAD] == 121
    assert a.per_kind[MessageKind.GLOBAL_MAP_BROADCAST] == 7
    assert a.total == 128


def test_run_frame_byte_accounting_matches_closed_form():
    sc = generate_scenario(ScenarioConfig(duration=5.0, num_objects=20),
                           seed=0)
    ledger = ByteLedger()
    gmap, delta = run_frame(sc, 10, QUIET, default_init_params(),
                            ledger=ledger)
    per_vehicle = [len(sense(sc, k, 10, QUIET, 0)[0].detections)
                   for k in range(sc.num_vehicles)]
    expected = sum(20 + 66 * n for n in per_vehicle)
    expected += 20 + 66 * len(gmap.objects)
    assert delta == expected
    assert ledger.total == expected


def test_run_frame_without_vehicles_is_empty_broadcast():
    sc = generate_scenario(ScenarioConfig(duration=5.0, num_objects=20),
                           seed=0)
    gmap, delta = run_frame(sc, 0, QUIET, default_init_params(),
                            local_maps=[])
    assert gmap.objects == ()
    assert delta == 20


def test_run_frame_noiseless_matches_direct_fusion():
    sc = generate_scenario(ScenarioConfig(duration=5.0, num_objects=20),
                           seed=4)
    f = 30
    gmap, _ = run_frame(sc, f, QUIET, default_init_params())
    maps = [sense(sc, k, f, QUIET, 0)[0] for k in range(sc.num_vehicles)]
    direct = three_stage_fuse(maps).global_map
    assert len(gmap.objects) == len(direct.objects)
    for (sa, ca), (sb, cb) in zip(gmap.objects, direct.objects):
        assert iou_3d(sa, sb) > 1.0 - 1e-9
        assert ca == pytest.approx(cb)


def test_run_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key bogus"):
        run_config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="unknown key noise.bogus"):
        run_config_from_dict({"noise": {"bogus": 1}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"scenario": {"speed_max": math.inf}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"methods": ["warp_drive"]})
    with pytest.raises(ConfigError):
        run_config_from_dict([1, 2])
    with pytest.raises(ConfigError):
        run_config_from_dict({"teachers": [1]})
    with pytest.raises(ConfigError):
        run_config_from_dict({"methods": 5})
    with pytest.raises(ConfigError):
        run_config_from_dict({"teachers": [{"x": 10**400}]})


def test_run_config_from_dict_builds_nested():
    cfg = run_config_from_dict({
        "scenario": {"duration": 5.0, "num_objects": 20,
                     "sensor": {"range": 40.0}},
        "noise": {"center_sigma": 0.2, "bias": [0, 1, 0, 0, 0, 0, 0]},
        "train": {"max_rounds": 2},
        "teachers": [{"x": 1.0, "y": 2.0, "radius": 30.0}],
        "methods": ["fusion_three_stage", "local_no_fl"],
        "seed": 9,
    })
    assert cfg.scenario.sensor.range == 40.0
    assert cfg.noise.bias == (0, 1, 0, 0, 0, 0, 0)
    assert cfg.teachers == (TeacherSpec(1.0, 2.0, 30.0),)
    assert cfg.methods == ("fusion_three_stage", "local_no_fl")
    assert cfg.seed == 9


@pytest.mark.parametrize("cls, section, key, value", [
    (ClusterConfig, ("fusion", "cluster"), "eps", math.nan),
    (TrainConfig, ("train",), "batch_size", 0),
    (TrainConfig, ("train",), "sampling_ratio", 0),
    (TrainConfig, ("train",), "train_window", [5.0, 1.0]),
    (DetectorNoiseSpec, ("noise",), "bias", [1.0, 2.0, 3.0]),
    (DetectorNoiseSpec, ("noise",), "false_positive_rate", -1.0),
    (TrainConfig, ("train",), "learning_rate", math.inf),
    (TrainConfig, ("train",), "loss_coefficients", [math.inf, 1.0, 1.0]),
    (FusionConfig, ("fusion",), "delta", 0.0),
    (TrainConfig, ("train",), "sampling_ratio", 1.5),
    (TrainConfig, ("train",), "batch_size", 2.5),
    (TrainConfig, ("train",), "local_epochs", 2.0),
    (TrainConfig, ("train",), "max_rounds", 1.5),
    (SensorSpec, ("scenario", "sensor"), "range", math.nan),
    (TeacherSpec, ("teachers", "[]"), "x", math.nan),
    (TeacherSpec, ("teachers", "[]"), "y", math.inf),
    (TeacherSpec, ("teachers", "[]"), "radius", -1.0),
    (TeacherSpec, ("teachers", "[]"), "radius", math.nan),
    (FusionConfig, ("fusion",), "delta", 1.0),
    (FusionConfig, ("fusion",), "delta", math.nan),
    (ScenarioConfig, ("scenario",), "min_separation", math.nan),
    (ScenarioConfig, ("scenario",), "speed_max", math.nan),
    (ScenarioConfig, ("scenario",), "duration", math.nan),
    (ScenarioConfig, ("scenario",), "duration", -1.0),
    (ScenarioConfig, ("scenario",), "duration", math.inf),
    (ScenarioConfig, ("scenario",), "duration", 0.01),
    (ScenarioConfig, ("scenario",), "frame_rate", math.nan),
    (ScenarioConfig, ("scenario",), "frame_rate", -1.0),
    (ScenarioConfig, ("scenario",), "num_vehicles", -1),
    (ScenarioConfig, ("scenario",), "num_vehicles", 0),
    (ScenarioConfig, ("scenario",), "num_vehicles", 2.5),
    (ScenarioConfig, ("scenario",), "num_objects", 37.0),
    (ScenarioConfig, ("scenario",), "max_attempts", 0),
    (ScenarioConfig, ("scenario",), "max_attempts", 1.5),
    (ScenarioConfig, ("scenario",), "lane_offset", math.nan),
    (ScenarioConfig, ("scenario",), "lane_offset", math.inf),
    (ScenarioConfig, ("scenario",), "span", math.nan),
    (ScenarioConfig, ("scenario",), "span", 0.0),
    (ScenarioConfig, ("scenario",), "span", math.inf),
    (ScenarioConfig, ("scenario",), "speed_min", math.nan),
    (ScenarioConfig, ("scenario",), "speed_min", -1.0),
    (ScenarioConfig, ("scenario",), "speed_min", 12.0),
    (ScenarioConfig, ("scenario",), "turn_prob", 2.0),
    (ScenarioConfig, ("scenario",), "turn_prob", -0.1),
    (ScenarioConfig, ("scenario",), "turn_prob", math.nan),
    (RunConfig, (), "seed", 1.5),
    (RunConfig, (), "seed", -1),
    (RunConfig, (), "sensor_seed", -1),
    (RunConfig, (), "sensor_seed", 2.0),
    (DetectorNoiseSpec, ("noise",), "miss_dist_coeff", math.nan),
    (DetectorNoiseSpec, ("noise",), "miss_occl_coeff", math.inf),
    (DetectorNoiseSpec, ("noise",), "noise_dist_scale", -5.0),
    (DetectorNoiseSpec, ("noise",), "noise_dist_scale", math.nan),
    (DetectorNoiseSpec, ("noise",), "noise_dist_scale", math.inf),
    (TrainConfig, ("train",), "loss_coefficients", [1.0, 2.0]),
    (TrainConfig, ("train",), "loss_coefficients", [1.0, 2.0, 0.2, 0.1]),
    (DetectorNoiseSpec, ("noise",), "false_positive_rate", math.inf),
    (DetectorNoiseSpec, ("noise",), "false_positive_rate", 1e300),
    (ScenarioConfig, ("scenario",), "speed_max", 1e6),
    (ScenarioConfig, ("scenario",), "speed_max", 1e307),
    (TrainConfig, ("train",), "train_window", [0.0, math.inf]),
    (TrainConfig, ("train",), "train_window", [5.0, math.inf]),
])
def test_config_rejects_invalid_values(cls, section, key, value):
    with pytest.raises(ValueError):
        cls(**{key: tuple(value) if isinstance(value, list) else value})
    # "[]" marks a list of objects, such as teachers.
    payload = {key: value}
    for name in reversed(section):
        payload = [payload] if name == "[]" else {name: payload}
    with pytest.raises(ConfigError):
        run_config_from_dict(payload)


def test_scenario_needs_at_least_one_object():
    with pytest.raises(ValueError):
        ScenarioConfig(num_vehicles=0, num_objects=0)


def test_removed_options_are_rejected():
    for payload in (
        {"fusion": {"cluster": {"min_pts": 1}}},
        {"fusion": {"weight_mode": "uniform"}},
        {"fusion": {"weight_mode": "confidence"}},
        {"scenario": {"sensor": {"frame_rate": 20}}},
        {"iou_threshold": 0.7},
        {"teacher_match_radius": 2.0},
        {"thresholds": {}},
        {"noise": {"score_base": 4.0}},
        {"noise": {"score_dist_coeff": 3.0}},
        {"noise": {"score_occl_coeff": 2.0}},
        {"noise": {"fp_score_mean": -1.0}},
        {"noise": {"fp_score_sigma": 0.5}},
        {"teachers": [{"full_coverage": True}]},
        {"scenario": {"speed_cap": 15.0}},
    ):
        with pytest.raises(ConfigError):
            run_config_from_dict(payload)


def differs_everywhere(value, default):
    if dataclasses.is_dataclass(value):
        return all(differs_everywhere(getattr(value, f.name),
                                      getattr(default, f.name))
                   for f in dataclasses.fields(value))
    return value != default


NON_DEFAULT_CONFIG = RunConfig(
    scenario=ScenarioConfig(
        duration=6.0, frame_rate=10.0, num_vehicles=3, num_objects=12,
        lane_offset=3.0, span=200.0, speed_min=5.0, speed_max=10.0,
        turn_prob=0.3, min_separation=6.0, max_attempts=200,
        sensor=SensorSpec(range=80.0, fov=1.2),
    ),
    noise=DetectorNoiseSpec(
        miss_prob=0.1, miss_dist_coeff=0.2, miss_occl_coeff=-0.1,
        false_positive_rate=0.3, center_sigma=0.1, extent_sigma=0.05,
        yaw_sigma=0.01, noise_dist_scale=1.5, flip_prob=0.05,
        bias=(0.1, -0.2, 0.0, 0.3, -0.1, 0.05, 0.02), score_sigma=0.4,
    ),
    fusion=FusionConfig(cluster=ClusterConfig(eps=1.5), delta=0.2),
    train=TrainConfig(
        learning_rate=0.01, local_epochs=3, max_rounds=2, batch_size=4,
        loss_coefficients=(0.5, 1.0, 0.1), train_window=(1.0, 3.0),
        sampling_ratio=2,
    ),
    teachers=(TeacherSpec(1.0, -2.0, 30.0), TeacherSpec(0.0, 0.0, 1e9)),
    methods=("fusion_edfl", "local_no_fl"),
    seed=7,
    sensor_seed=11,
)


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    default_benchmark_config(0),
    RunConfig(teachers=(TeacherSpec(0.0, 0.0, 1e9),)),
    NON_DEFAULT_CONFIG,
], ids=["defaults", "benchmark", "full_coverage", "non_default"])
def test_run_config_json_round_trip(cfg):
    payload = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert run_config_from_dict(payload) == cfg


def test_non_default_config_sets_every_value():
    assert differs_everywhere(NON_DEFAULT_CONFIG, RunConfig())


def test_frame_windows():
    sc = ScenarioConfig()
    tr = TrainConfig()
    frames = training_frames(sc, tr)
    assert len(frames) == 170
    assert frames[0] == 0 and frames[-1] < 510
    test = eval_window_frames(sc, tr)
    assert test[0] == 510
    assert len(test) == 500
    assert sc.num_frames == 1010


def small_run_config(**kw):
    base = dict(
        scenario={"duration": 6.0, "num_objects": 20},
        noise={"center_sigma": 0.1, "extent_sigma": 0.05, "yaw_sigma": 0.03,
               "miss_prob": 0.1, "false_positive_rate": 0.1,
               "score_sigma": 0.5},
        train={"max_rounds": 1, "train_window": [0.0, 3.0],
               "sampling_ratio": 10},
        teachers=[{"x": 0.0, "y": 0.0, "radius": 1e9}],
        methods=["local_no_fl", "fusion_three_stage", "fusion_edfl"],
    )
    base.update(kw)
    return run_config_from_dict(base)


def test_run_experiment_small_and_deterministic():
    cfg = small_run_config()
    frames = list(range(60, 120, 10))
    a = run_experiment(cfg, test_frames=frames)
    b = run_experiment(cfg, test_frames=frames)
    assert a.to_json() == b.to_json()
    assert set(a.methods) == set(cfg.methods)
    assert a.frames == tuple(frames)
    ts = a.methods["fusion_three_stage"]
    assert ts.bytes_sent > 0
    assert a.methods["local_no_fl"].bytes_sent == 0
    assert ts.ap["overall"] is not None
    assert set(ts.per_vehicle_ap) == set(range(5))


def reference_scores(cfg, frames):
    """Scores run_experiment's methods with one direct match_detections
    call per prediction set and truth set: a local map against its
    vehicle's truths and against the fleet's, a fused map against the
    fleet's once for the fleet AP and once per vehicle.

    Returns {method: (ap, per_vehicle_ap)}.
    """
    scenario = generate_scenario(cfg.scenario, cfg.seed)
    spec = ModelSpec()
    init = default_init_params(spec)
    tr_frames = training_frames(cfg.scenario, cfg.train)
    params = {"none": init}
    needed = {_PARAMS_OF[m] for m in cfg.methods}
    if "perfect" in needed:
        params["perfect"] = run_perfect_fl(
            scenario, tr_frames, cfg.noise, init, cfg.train, cfg.fusion,
            spec, cfg.sensor_seed)
    if "edfl" in needed:
        params["edfl"] = run_edfl(
            scenario, tr_frames, cfg.noise, init, cfg.train, cfg.fusion,
            spec, cfg.sensor_seed,
            registry=build_teacher_registry(cfg, scenario))
    k_count = scenario.num_vehicles
    thr = IOU_THRESHOLD
    fleet_acc = {m: SliceAccumulator() for m in cfg.methods}
    own_acc = {m: [SliceAccumulator() for _ in range(k_count)]
               for m in cfg.methods}
    # Per method and vehicle: [(score, hit) records, truth count].
    veh = {m: [[[], 0] for _ in range(k_count)] for m in cfg.methods}

    for f in frames:
        fleet_tags, density = tag_objects(scenario, f)
        fleet_truths = [scenario.object_state(f, t.object_id)
                        for t in fleet_tags]
        veh_tags = [tag_objects(scenario, f, vehicles=[k])
                    for k in range(k_count)]
        sensed = [sense(scenario, k, f, cfg.noise, cfg.sensor_seed)
                  for k in range(k_count)]
        for m in cfg.methods:
            p = params[_PARAMS_OF[m]]
            maps = [LocalMap(k, raw.frame_time,
                             tuple(predict(p, sf, spec)), raw.pose)
                    for k, (raw, sf) in enumerate(sensed)]
            if m in _FUSED_FNS:
                gmap, _ = run_frame(
                    scenario, f, cfg.noise, p, cfg.fusion, spec,
                    cfg.sensor_seed, local_maps=maps, fuse_fn=_FUSED_FNS[m])
                preds = list(gmap.objects)
                fleet_acc[m].add_frame(preds, fleet_truths, fleet_tags,
                                       density)
                for k, (tags, _) in enumerate(veh_tags):
                    seen = {t.object_id for t in tags}
                    assigned = match_detections(preds, fleet_truths, thr)
                    for (_, score), j in zip(preds, assigned):
                        if (j is None
                                or fleet_tags[j].object_id in seen):
                            veh[m][k][0].append((score, j is not None))
                    veh[m][k][1] += len(seen)
            else:
                for k, (tags, dens_k) in enumerate(veh_tags):
                    preds = [(transform_to_global(d.state, maps[k].pose),
                              d.score) for d in maps[k].detections]
                    truths = [scenario.object_state(f, t.object_id)
                              for t in tags]
                    own_acc[m][k].add_frame(preds, truths, tags, dens_k)
                    assigned = match_detections(preds, fleet_truths, thr)
                    veh[m][k][0].extend(
                        (score, j is not None)
                        for (_, score), j in zip(preds, assigned))
                    veh[m][k][1] += len(fleet_truths)

    out = {}
    for m in cfg.methods:
        for acc in own_acc[m]:
            fleet_acc[m].extend(acc)
        ap = fleet_acc[m].results()
        per_vehicle = {k: average_precision_reference(records, count)
                       for k, (records, count) in enumerate(veh[m])}
        out[m] = (ap, per_vehicle)
    return out


def test_run_experiment_matches_direct_matching_reference():
    cfg = small_run_config()
    frames = list(range(60, 120, 10))
    report = run_experiment(cfg, test_frames=frames)
    reference = reference_scores(cfg, frames)
    for m in cfg.methods:
        ap, per_vehicle = reference[m]
        assert report.methods[m].ap == ap, m
        assert report.methods[m].per_vehicle_ap == per_vehicle, m


def test_default_benchmark_config_composition():
    cfg = default_benchmark_config(seed=3)
    assert cfg.seed == 3
    assert cfg.methods == METHOD_NAMES
    assert cfg.teachers == (TeacherSpec(0.0, 0.0, 60.0),)
    assert cfg.noise.miss_prob == 0.05
    assert cfg.noise.bias != (0.0,) * 7


def test_run_config_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.methods == METHOD_NAMES
    with pytest.raises(ConfigError):
        RunConfig(methods=("nope",))
