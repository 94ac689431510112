import dataclasses
import importlib.util
import inspect
import itertools
import json
import math
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mapfuse.association import ClusterConfig
from mapfuse.distill import (distill_labels, refine_fleet, run_edfl,
                             run_perfect_fl)
from mapfuse import evalbench, orchestrator
from mapfuse.evalbench import (
    SLICE_NAMES,
    match_detections,
    tag_objects,
)
from mapfuse.fedlearn import (ModelParams, ModelSpec, TrainConfig,
                              default_init_params, predict)
from mapfuse.fusion import (
    FUSE_RULES,
    Boxes,
    FusionConfig,
    LocalMap,
    ScoredDetection,
    baseline_max_score_fuse,
    baseline_mean_fuse,
    three_stage_fuse,
)
from mapfuse.geometry import ObjectState, Pose, iou_bev
from mapfuse.orchestrator import (
    BROADCAST_ID,
    ByteLedger,
    CodecError,
    ConfigError,
    MessageKind,
    METHOD_NAMES,
    METHODS,
    RunConfig,
    SERVER_ID,
    TeacherSpec,
    V2xMessage,
    _decode_blobs,
    build_teacher_registry,
    decode_message,
    default_benchmark_config,
    encode_message,
    run_config_from_dict,
    run_experiment,
    run_frame,
    train_params,
    training_frames,
)
from mapfuse.orchestrator import testing_frames as eval_window_frames
from mapfuse.simworld import (
    DetectorNoiseSpec,
    ScenarioConfig,
    SensorSpec,
    generate_scenario,
    sense,
    sense_fleet,
)

from oracles import (
    SliceAccumulator,
    average_precision_reference,
    iou_3d,
    object_state_reference,
    run_frame_reference,
    struct_decode_message,
    struct_encode_message,
    transform_to_global_reference,
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


def entry_bits(payload):
    """A payload's entries as reprs, so that equal means bit-identical;
    a ScoredDetection reads as its (state, score) pair."""
    return [repr(e if isinstance(e, float) else tuple(e)) for e in payload]


@given(message_st())
@settings(max_examples=200, deadline=None)
def test_codec_matches_the_struct_codec(msg):
    wire = struct_encode_message(msg)
    assert encode_message(msg) == wire
    got, want = decode_message(wire), struct_decode_message(wire)
    assert (got.kind, got.sender, got.receiver) == (
        want.kind, want.sender, want.receiver)
    assert entry_bits(got.payload) == entry_bits(want.payload)


any_double = st.floats(allow_nan=True, allow_infinity=True)


@given(st.sampled_from([MessageKind.LOCAL_MAP_UPLOAD,
                        MessageKind.GLOBAL_MAP_BROADCAST]),
       st.lists(st.tuples(st.integers(0, 65535),
                          st.lists(any_double, min_size=8, max_size=8)),
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_decode_of_any_box_entries_matches_the_struct_codec(kind, entries):
    # Raw entries as another sender may write them: yaws off [-pi, pi),
    # -0.0, and non-finite or non-positive fields.
    blob = (struct.pack("<4sHHII", b"DMF1", 1, kind, 7, SERVER_ID)
            + struct.pack("<I", len(entries))
            + b"".join(struct.pack("<H8d", c, *f) for c, f in entries))
    try:
        want = struct_decode_message(blob)
    except CodecError as exc:
        with pytest.raises(CodecError) as got:
            decode_message(blob)
        assert _offset(got) == int(re.search(r"at offset (\d+)",
                                             str(exc)).group(1))
        return
    assert entry_bits(decode_message(blob).payload) == entry_bits(
        want.payload)


def _offset(info) -> int:
    return int(re.search(r"at offset (\d+)", str(info.value)).group(1))


def test_codec_errors_name_the_struct_codec_offsets():
    two = encode_message(upload_msg([(box(1, 2), 0.5),
                                     (box(3, -4, 1.0, cat=2), -1.5)]))
    blobs = [two[:k] for k in range(len(two))]
    for entry in range(2):
        # x, y, z, l, w, h, yaw and score follow the 2-byte category.
        for field in range(8):
            at = 20 + 66 * entry + 2 + 8 * field
            bad = [math.nan, math.inf, -math.inf]
            if 3 <= field <= 5:
                bad += [0.0, -2.0]
            blobs += [two[:at] + struct.pack("<d", v) + two[at + 8:]
                      for v in bad]
    # An invalid first entry comes before a truncated second one.
    blobs += [bad[:k] for bad in blobs[len(two):] for k in range(20, len(bad))]
    for blob in blobs:
        with pytest.raises(CodecError) as want:
            struct_decode_message(blob)
        with pytest.raises(CodecError) as got:
            decode_message(blob)
        assert _offset(got) == _offset(want), (blob, want.value, got.value)


def test_huge_count_on_a_short_blob_raises_at_once():
    one = encode_message(upload_msg([(box(1, 2), 0.5)]))
    blob = one[:16] + struct.pack("<I", 0xFFFFFFFF) + one[20:]
    tracemalloc.start()
    try:
        with pytest.raises(CodecError,
                           match="truncated detection entry at offset 86"):
            decode_message(blob)
        with pytest.raises(CodecError,
                           match="truncated detection entry at offset 86"):
            _decode_blobs([one, blob])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def decoded_bits(msg):
    return (msg.kind, msg.sender, msg.receiver, entry_bits(msg.payload))


@given(st.lists(message_st(), max_size=5))
@settings(max_examples=150, deadline=None)
def test_frame_reader_decodes_each_blob_as_the_struct_codec(msgs):
    # Messages of mixed kinds, which are decoded blob by blob, or of
    # one kind, whose entries are read as one array.
    blobs = [struct_encode_message(m) for m in msgs]
    assert [decoded_bits(m) for m in _decode_blobs(blobs)] == [
        decoded_bits(struct_decode_message(b)) for b in blobs]


raw_box_blob_st = st.builds(
    lambda kind, entries: (
        struct.pack("<4sHHII", b"DMF1", 1, kind, 7, SERVER_ID)
        + struct.pack("<I", len(entries))
        + b"".join(struct.pack("<H8d", c, *f) for c, f in entries)),
    st.sampled_from([MessageKind.LOCAL_MAP_UPLOAD,
                     MessageKind.GLOBAL_MAP_BROADCAST]),
    st.lists(st.tuples(st.integers(0, 65535),
                       st.lists(st.one_of(st.floats(-10, 10), any_double),
                                min_size=8, max_size=8)),
             max_size=3),
)


@given(st.lists(st.one_of(message_st().map(encode_message), framed_st,
                          raw_box_blob_st), max_size=5))
@settings(max_examples=300, deadline=None)
def test_frame_reader_raises_the_first_failing_blobs_error(blobs):
    for blob in blobs:
        try:
            decode_message(blob)
        except CodecError as exc:
            with pytest.raises(CodecError) as got:
                _decode_blobs(blobs)
            assert str(got.value) == str(exc)
            return
    assert [decoded_bits(m) for m in _decode_blobs(blobs)] == [
        decoded_bits(decode_message(b)) for b in blobs]


upload_st = st.builds(
    lambda sender, pairs: V2xMessage(MessageKind.LOCAL_MAP_UPLOAD, sender,
                                     SERVER_ID, tuple(pairs)),
    st.integers(0, SERVER_ID),
    st.lists(st.tuples(state_st, score_st), max_size=3),
)


@st.composite
def upload_blob_st(draw):
    """An upload blob, valid or with one fault: a NaN field, a zero
    extent, a cut, a trailing byte or a count no blob can hold."""
    blob = encode_message(draw(upload_st))
    fault = draw(st.one_of(st.just("valid"), st.sampled_from(
        ["nan", "zero extent", "truncated", "trailing", "huge count"])))
    entries = (len(blob) - 20) // 66
    if fault == "nan" and entries:
        # The eight float fields follow an entry's 2-byte category.
        at = 20 + 66 * draw(st.integers(0, entries - 1)) + 2 + 8 * draw(
            st.integers(0, 7))
        return blob[:at] + struct.pack("<d", math.nan) + blob[at + 8:]
    if fault == "zero extent" and entries:
        # Fields 3 to 5 are the length, width and height.
        at = 20 + 66 * draw(st.integers(0, entries - 1)) + 2 + 8 * draw(
            st.integers(3, 5))
        return blob[:at] + struct.pack("<d", 0.0) + blob[at + 8:]
    if fault == "truncated":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if fault == "trailing":
        return blob + b"\x00"
    if fault == "huge count":
        return blob[:16] + struct.pack("<I", 0xFFFFFFFF) + blob[20:]
    return blob


@given(st.lists(upload_blob_st(), min_size=2, max_size=6))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_frame_reader_on_upload_batches_is_decode_message_per_blob(blobs):
    # The batches run_frame makes: one kind, so the one-array path serves
    # every batch whose blobs are all valid.
    try:
        want = [decoded_bits(decode_message(b)) for b in blobs]
    except CodecError as exc:
        with pytest.raises(CodecError) as got:
            _decode_blobs(blobs)
        assert str(got.value) == str(exc)
        return
    assert [decoded_bits(m) for m in _decode_blobs(blobs)] == want


def test_frame_reader_reports_the_first_failing_blob():
    good = encode_message(upload_msg([(box(1, 2), 0.5)]))
    # The entry's x is 2 bytes into it, at offset 22.
    bad_entry = good[:22] + struct.pack("<d", math.nan) + good[30:]
    bad_header = b"XXXX" + good[4:]
    truncated = good[:40]
    for blobs, error in [
        ([good, bad_entry, bad_header],
         "invalid detection entry at offset 20: fields must be finite"),
        ([good, bad_header, bad_entry], "bad magic at offset 0"),
        ([bad_entry, truncated],
         "invalid detection entry at offset 20: fields must be finite"),
        ([truncated, bad_entry], "truncated detection entry at offset 20"),
    ]:
        with pytest.raises(CodecError) as info:
            _decode_blobs(blobs)
        assert str(info.value) == error
    assert _decode_blobs([]) == []


def test_out_of_range_category_is_a_bad_entry():
    for cat in (-1, 65536, 1.5):
        with pytest.raises(ValueError,
                           match="bad object entry in GLOBAL_MAP_BROADCAST"):
            encode_message(V2xMessage(
                MessageKind.GLOBAL_MAP_BROADCAST, SERVER_ID, BROADCAST_ID,
                ((box(1, 2, cat=cat), 0.5),)))


@pytest.mark.parametrize("value", [-1, 2 ** 32, 1.5])
@pytest.mark.parametrize("field", ["sender", "receiver"])
def test_header_id_off_the_uint32_range_is_a_value_error(field, value):
    msg = dataclasses.replace(upload_msg([(box(1, 2), 0.5)]),
                              **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must "):
        encode_message(msg)


def test_run_frame_rejects_a_vehicle_id_the_header_cannot_carry():
    sc = generate_scenario(ScenarioConfig(duration=5.0, num_objects=20),
                           seed=0)
    lm = LocalMap(-3, 0.0, [ScoredDetection(box(1, 2), 0.5)],
                  Pose((0.0, 0.0, 0.0), 0.0))
    with pytest.raises(ValueError, match="sender must lie in"):
        run_frame(sc, 0, QUIET, default_init_params(), local_maps=[lm])


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


FLEET_SCENE = generate_scenario(ScenarioConfig(duration=1.0, num_objects=10),
                                seed=0)
fleet_coords = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-12, 12))
fleet_boxes = st.builds(
    ObjectState,
    st.integers(0, 2),
    st.tuples(fleet_coords, fleet_coords, st.floats(0, 2)),
    st.tuples(st.floats(0.5, 5), st.floats(0.5, 3), st.floats(0.5, 2)),
    st.floats(-4, 4),
)
fleet_scores = st.one_of(st.floats(-10, 10), st.floats(-800, -708))
fleet_poses = st.builds(Pose, st.tuples(fleet_coords, fleet_coords,
                                        st.just(0.0)),
                        st.floats(-4, 4))


@st.composite
def fleets(draw):
    """0-6 vehicles with 0-8 detections each, in a shuffled arrival
    order."""
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n,
                        unique=True))
    maps = [LocalMap(vid, 0.0, draw(st.lists(
                st.builds(ScoredDetection, fleet_boxes, fleet_scores),
                max_size=8)), draw(fleet_poses))
            for vid in ids]
    return draw(st.permutations(maps))


def check_run_frame_against_reference(fuse, maps):
    results, blobs = [], []

    def recorded(local_maps, cfg):
        results.append(fuse(local_maps, cfg))
        return results[-1]

    decode_blobs = orchestrator._decode_blobs

    def recorded_blobs(wires):
        blobs.extend(wires)
        return decode_blobs(wires)

    ledger = ByteLedger()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orchestrator, "_decode_blobs", recorded_blobs)
        gmap, nbytes = run_frame(FLEET_SCENE, 3, QUIET,
                                 default_init_params(), ledger=ledger,
                                 local_maps=maps, fuse_fn=recorded)
    want, want_bytes, want_kinds, want_blobs = run_frame_reference(
        maps, FLEET_SCENE.frame_time(3), fuse.__name__)
    # The uploads the server reads are the per-vehicle struct encodings,
    # byte for byte, in arrival order.
    assert blobs == want_blobs
    assert repr(gmap) == repr(want.global_map)
    assert nbytes == want_bytes
    assert ledger.per_kind == want_kinds
    if maps:
        (got,) = results
        assert got.labels == want.labels
        assert repr(got.fused_all) == repr(want.fused_all)


FUSE_FNS = [three_stage_fuse, baseline_mean_fuse, baseline_max_score_fuse]


@pytest.mark.parametrize("fuse", FUSE_FNS)
@given(maps=fleets())
@settings(max_examples=60, deadline=None)
def test_run_frame_matches_the_scalar_reference(fuse, maps):
    check_run_frame_against_reference(fuse, maps)


@pytest.mark.parametrize("fuse", FUSE_FNS)
def test_run_frame_with_an_empty_map_matches_the_scalar_reference(fuse):
    pose = Pose((3.0, -0.0, 0.0), 2.5)
    maps = [
        LocalMap(4, 0.0, (), pose),
        LocalMap(1, 0.0, [ScoredDetection(box(1, -0.0, 0.2), 0.5),
                          ScoredDetection(box(1.5, 0.5, -3.0), 2.0)], pose),
        LocalMap(2, 0.0, [ScoredDetection(box(-0.5, 0.0, 3.1), -1.0)],
                 Pose((2.0, 1.0, 0.0), -0.5)),
    ]
    check_run_frame_against_reference(fuse, maps)
    check_run_frame_against_reference(fuse, maps[:1])


CROWDED = ScenarioConfig(num_vehicles=10, num_objects=80)


@pytest.fixture(scope="module")
def crowded_frames():
    """Five frames of local maps on the edge_fusion benchmark's crowded
    crossing: ten vehicles, the untrained detector."""
    cfg = default_benchmark_config(0)
    scenario = generate_scenario(CROWDED, cfg.seed)
    params = default_init_params()
    return [[dataclasses.replace(raw, detections=predict(params, frame))
             for raw, frame in (sense(scenario, k, f, cfg.noise, 0)
                                for k in range(scenario.num_vehicles))]
            for f in eval_window_frames(CROWDED, cfg.train)[:200:40]]


@pytest.mark.parametrize("fuse", FUSE_FNS)
def test_run_frame_on_a_crowded_crossing_matches_the_scalar_reference(
        fuse, crowded_frames):
    for maps in crowded_frames:
        check_run_frame_against_reference(fuse, maps)


def test_fusing_blocks_builds_no_object_state(monkeypatch):
    # Maps held as row blocks, fusing to three boxes that do not touch (one
    # of two members), cross association, fusion, pruning and the wire as
    # rows: no ObjectState is made on the way.
    pose = Pose((3.0, -2.0, 0.0), 0.4)
    maps = [LocalMap(k, 0.0, Boxes.from_rows(
                [[0.0, x + 0.5 * k, 1.0, 0.75, 4.0, 2.0, 1.5, 0.2, k - 0.5]
                 for x in (0.0, 20.0 + 20.0 * k)]), pose)
            for k in range(2)]
    params = default_init_params()
    made = []
    post_init = ObjectState.__post_init__

    def counted(state):
        made.append(state)
        post_init(state)

    monkeypatch.setattr(ObjectState, "__post_init__", counted)
    for fuse in FUSE_FNS:
        assert len(fuse(maps).global_map.objects) == 3
        gmap, _ = run_frame(FLEET_SCENE, 3, QUIET, params, local_maps=maps,
                            fuse_fn=fuse)
        assert len(gmap.objects) == 3
    assert made == []


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
    (SensorSpec, ("scenario", "sensor"), "range", math.inf),
    (DetectorNoiseSpec, ("noise",), "center_sigma", math.inf),
    (DetectorNoiseSpec, ("noise",), "extent_sigma", math.inf),
    (DetectorNoiseSpec, ("noise",), "yaw_sigma", math.inf),
    (DetectorNoiseSpec, ("noise",), "score_sigma", math.inf),
    (DetectorNoiseSpec, ("noise",), "bias", [math.nan, 0, 0, 0, 0, 0, 0]),
    (DetectorNoiseSpec, ("noise",), "bias", [0, 0, 0, 0, 0, 0, -math.inf]),
    # JSON's true and false are Python bools, which are Integrals.
    (RunConfig, (), "seed", True),
    (RunConfig, (), "sensor_seed", False),
    (TrainConfig, ("train",), "local_epochs", True),
    (ScenarioConfig, ("scenario",), "num_vehicles", True),
    # Lengths whose squares overflow on the way (simworld.MAX_LENGTH).
    (ScenarioConfig, ("scenario",), "min_separation", 1e300),
    (ScenarioConfig, ("scenario",), "lane_offset", 1e300),
    (ScenarioConfig, ("scenario",), "lane_offset", -1e308),
    (ScenarioConfig, ("scenario",), "span", 1e300),
    # A trip of speed_max * duration past MAX_LENGTH.
    (ScenarioConfig, ("scenario",),
     ("span", "frame_rate", "speed_min", "speed_max", "duration"),
     (1e150, 1.0, 0.0, 1e150, 10.0)),
])
def test_config_rejects_invalid_values(cls, section, key, value):
    # A tuple of keys sets those fields to the tuple of values.
    fields = dict(zip(key, value)) if isinstance(key, tuple) else {key: value}
    with pytest.raises(ValueError):
        cls(**{k: tuple(v) if isinstance(v, list) else v
               for k, v in fields.items()})
    # "[]" marks a list of objects, such as teachers.
    payload = fields
    for name in reversed(section):
        payload = [payload] if name == "[]" else {name: payload}
    with pytest.raises(ConfigError):
        run_config_from_dict(payload)


# Every float field and float list of a RunConfig, as a JSON path.
FLOAT_FIELDS = [
    "train.learning_rate", "train.loss_coefficients.1",
    "train.train_window.1", "scenario.duration", "scenario.frame_rate",
    "scenario.span", "scenario.lane_offset", "scenario.speed_min",
    "scenario.speed_max", "scenario.turn_prob", "scenario.min_separation",
    "scenario.sensor.range", "scenario.sensor.fov", "noise.miss_prob",
    "noise.miss_dist_coeff", "noise.miss_occl_coeff",
    "noise.false_positive_rate", "noise.center_sigma", "noise.extent_sigma",
    "noise.yaw_sigma", "noise.noise_dist_scale", "noise.flip_prob",
    "noise.bias.3", "noise.score_sigma", "fusion.cluster.eps",
    "fusion.delta", "teachers.0.x", "teachers.0.y", "teachers.0.radius",
]


@pytest.mark.parametrize("value", [10 ** 400, True, False])
@pytest.mark.parametrize("path", FLOAT_FIELDS)
def test_config_names_a_float_field_it_cannot_read(path, value):
    # A JSON integer past the float range used to pass "x < math.inf" and
    # overflow later, and a JSON boolean used to read as 0 or 1.
    payload = {"train": {"loss_coefficients": [1.0, 2.0, 0.2],
                         "train_window": [0.0, 25.5]},
               "noise": {"bias": [0.0] * 7}, "teachers": [{}]}
    *parents, last = path.split(".")
    node = payload
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else (
            node.setdefault(key, {}))
    node[int(last) if isinstance(node, list) else last] = value
    # The error names a list item as "[n]", a teacher's field as "[].x".
    where = re.sub(r"\.(\d+)$", r"[\1]", path).replace(".0.", "[].")
    with pytest.raises(ConfigError, match=re.escape(
            f"{where} must be a number within the float range")):
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


def test_run_experiment_builds_object_states_only_for_labels_and_pruning(
        monkeypatch):
    # Truths, teacher answers and targets travel as rows: the only states
    # made are the training labels distill_labels returns and the boxes
    # pruning scores with the scalar iou_bev.
    made, kept = [], []
    post_init = ObjectState.__post_init__

    def counted(state):
        made.append(state)
        post_init(state)

    def labels(*args, **kwargs):
        out = distill_labels(*args, **kwargs)
        kept.extend(lbl for ls in out.values() for lbl in ls.labels)
        return out

    def scored(a, b):
        kept.extend((a, b))
        return iou_bev(a, b)

    monkeypatch.setattr(ObjectState, "__post_init__", counted)
    monkeypatch.setattr("mapfuse.distill.distill_labels", labels)
    monkeypatch.setattr("mapfuse.fusion.iou_bev", scored)
    run_experiment(small_run_config(), test_frames=list(range(60, 120, 10)))
    assert kept
    known = {id(state) for state in kept}
    assert [state for state in made if id(state) not in known] == []


def reference_scores(cfg, frames):
    """Scores run_experiment's methods with one direct match_detections
    call per prediction set and truth set: a local map against its
    vehicle's truths and against the fleet's, a fused map against the
    fleet's once for the fleet AP and once per vehicle.  Every method
    scores a frame at the fleet's density.

    Returns {method: (ap, per_vehicle_ap)}.
    """
    scenario = generate_scenario(cfg.scenario, cfg.seed)
    spec = ModelSpec()
    init = default_init_params(spec)
    tr_frames = training_frames(cfg.scenario, cfg.train)
    params = {"none": init}
    needed = {METHODS[m].params for m in cfg.methods}
    if "perfect_fl" in needed:
        params["perfect_fl"] = run_perfect_fl(
            scenario, tr_frames, cfg.noise, init, cfg.train, cfg.fusion,
            spec, cfg.sensor_seed)
    if "edfl" in needed:
        params["edfl"] = run_edfl(
            scenario, tr_frames, cfg.noise, init, cfg.train, cfg.fusion,
            spec, cfg.sensor_seed,
            registry=build_teacher_registry(cfg, scenario))
    k_count = scenario.num_vehicles
    fleet_acc = {m: SliceAccumulator() for m in cfg.methods}
    own_acc = {m: [SliceAccumulator() for _ in range(k_count)]
               for m in cfg.methods}
    # Per method and vehicle: [(score, hit) records, truth count].
    veh = {m: [[[], 0] for _ in range(k_count)] for m in cfg.methods}

    for f in frames:
        fleet_tags, density = tag_objects(scenario, f)
        fleet_truths = [object_state_reference(scenario, f, t.object_id)
                        for t in fleet_tags]
        veh_tags = [tag_objects(scenario, f, vehicles=[k])[0]
                    for k in range(k_count)]
        sensed = [sense(scenario, k, f, cfg.noise, cfg.sensor_seed)
                  for k in range(k_count)]
        for m in cfg.methods:
            p = params[METHODS[m].params]
            maps = [LocalMap(k, raw.frame_time,
                             tuple(predict(p, sf, spec)), raw.pose)
                    for k, (raw, sf) in enumerate(sensed)]
            if METHODS[m].rule is not None:
                gmap, _ = run_frame(
                    scenario, f, cfg.noise, p, cfg.fusion, spec,
                    cfg.sensor_seed, local_maps=maps,
                    fuse_fn=FUSE_RULES[METHODS[m].rule])
                preds = list(gmap.objects)
                fleet_acc[m].add_frame(preds, fleet_truths, fleet_tags,
                                       density)
                for k, tags in enumerate(veh_tags):
                    seen = {t.object_id for t in tags}
                    assigned = match_detections(preds, fleet_truths)
                    for (_, score), j in zip(preds, assigned):
                        if (j is None
                                or fleet_tags[j].object_id in seen):
                            veh[m][k][0].append((score, j is not None))
                    veh[m][k][1] += len(seen)
            else:
                for k, tags in enumerate(veh_tags):
                    preds = [(transform_to_global_reference(
                                  d.state, maps[k].pose), d.score)
                             for d in maps[k].detections]
                    truths = [object_state_reference(scenario, f, t.object_id)
                              for t in tags]
                    own_acc[m][k].add_frame(preds, truths, tags, density)
                    assigned = match_detections(preds, fleet_truths)
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
    # A local method's frames are dense when the fleet's are: one vehicle
    # alone is never MIN_WITNESSES witnesses.
    assert any(report.methods[m].ap["HD"] is not None
               for m in cfg.methods if METHODS[m].rule is None)


def test_per_vehicle_ap_reads_the_overall_slice_alone(monkeypatch):
    # Each method scores 9 slices fleet-wide and one per vehicle, and the
    # report equals one read from every vehicle's full slice table.
    cfg = small_run_config(methods=["local_no_fl", "fusion_three_stage"])
    frames = [60, 90]
    calls = []
    average_precision = evalbench.average_precision

    def counted(*args):
        calls.append(args)
        return average_precision(*args)

    monkeypatch.setattr(evalbench, "average_precision", counted)
    report = run_experiment(cfg, test_frames=frames)
    assert len(calls) == 2 * (len(SLICE_NAMES) + cfg.scenario.num_vehicles)
    results = evalbench.Accumulator.results
    monkeypatch.setattr(evalbench.Accumulator, "results",
                        lambda self, slices=(): results(self))
    assert run_experiment(cfg, test_frames=frames).to_json() == (
        report.to_json())


def test_default_benchmark_config_composition():
    cfg = default_benchmark_config(seed=3)
    assert cfg.seed == 3
    assert cfg.methods == METHOD_NAMES
    assert cfg.teachers == (TeacherSpec(0.0, 0.0, 60.0),)
    assert cfg.noise.miss_prob == 0.05
    assert cfg.noise.bias != (0.0,) * 7


def test_method_table_rules_and_parameter_sets():
    assert METHOD_NAMES == tuple(METHODS)
    for name, method in METHODS.items():
        assert method.rule is None or method.rule in FUSE_RULES, name
        assert method.params in ("none", "perfect_fl", "edfl"), name
        assert name.startswith("fusion_" if method.rule else "local_"), name


def test_experiment_trains_each_needed_set_once_in_table_order(monkeypatch):
    trained = []

    def fake(name):
        def run(scenario, frames, noise, init, *args, **kwargs):
            trained.append(name)
            return init
        return run

    monkeypatch.setattr("mapfuse.orchestrator.run_perfect_fl",
                        fake("perfect_fl"))
    monkeypatch.setattr("mapfuse.orchestrator.run_edfl", fake("edfl"))
    cfg = small_run_config(methods=list(reversed(METHOD_NAMES)))
    report = run_experiment(cfg, test_frames=[60])
    assert trained == ["perfect_fl", "edfl"]
    assert list(report.methods) == list(cfg.methods)
    with pytest.raises(ValueError, match="parameter set"):
        train_params("perfect", cfg, None, [0], default_init_params())


def test_experiment_makes_the_calls_the_benchmark_intercepts(monkeypatch):
    # bench/workloads.py wraps these three names in orchestrator around
    # run_experiment: it expects two trained models and reads each
    # run_frame call's local_maps keyword.
    calls = {name: [] for name in ("run_perfect_fl", "run_edfl",
                                   "run_frame")}

    def recorded(name):
        target = getattr(orchestrator, name)

        def wrapper(*args, **kwargs):
            out = target(*args, **kwargs)
            calls[name].append((kwargs, out))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(orchestrator, name, recorded(name))
    cfg = small_run_config(methods=list(METHOD_NAMES))
    frames = [60, 70, 80]
    report = run_experiment(cfg, test_frames=frames)
    assert list(report.methods) == list(METHOD_NAMES)
    spec = ModelSpec()
    for name in ("run_perfect_fl", "run_edfl"):
        assert len(calls[name]) == 1, name
        (_, params), = calls[name]
        assert len(params) == spec.num_params
    fused = [m for m in METHOD_NAMES if METHODS[m].rule is not None]
    assert len(calls["run_frame"]) == len(fused) * len(frames)
    for kwargs, (gmap, nbytes) in calls["run_frame"]:
        assert len(kwargs["local_maps"]) == cfg.scenario.num_vehicles
        assert nbytes > 0


def test_benchmark_tracer_rebinds_every_traced_name_and_changes_no_byte():
    # bench/tracer.py rebinds each traced function wherever a mapfuse
    # module holds it, and refuses to install if a reference is left.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    bench_tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tracer)
    cfg = small_run_config()
    untraced = run_experiment(cfg).to_json()
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        traced = run_experiment(cfg).to_json()
    finally:
        tracer.uninstall()
    assert tracer.sites
    assert traced == untraced
    assert bench_tracer.coverage_errors("experiment", tracer) == []
    # Uninstalled, every module holds its own functions again.
    for module, name, _ in bench_tracer.TRACED:
        fn = getattr(sys.modules[f"mapfuse.{module}"], name)
        assert fn.__module__ == f"mapfuse.{module}", name


def test_edge_fusion_workload_runs_its_calls(monkeypatch):
    # bench/workloads.py calls run_frame, predict and run_edfl with its own
    # arguments; a signature change would end the benchmark in run_failed.
    bench = Path(__file__).resolve().parents[1] / "bench"
    before = sorted(p.name for p in bench.iterdir())
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        import workloads
        edge = workloads.EdgeFusion()
        state = edge.setup(0)
        op = edge.operations(state)[0]
        assert edge.check(state, op(), 0.0).errors == []
        sensed = dict(itertools.islice(state.sensed.items(), 3))
        ap = workloads.probe_ap(state.scenario, sensed, state.cfg,
                                state.init, state.init)
    finally:
        for name in ("workloads", "tracer"):
            sys.modules.pop(name, None)
    assert set(ap) == set(workloads.AP_METHODS)
    assert all(0.0 <= v <= 1.0 for v in ap.values())
    # EdgeFusion.ap trains the fleet's detector with this call.
    cfg = state.cfg
    inspect.signature(run_edfl).bind(
        state.scenario, state.frames, cfg.noise, state.init, cfg.train,
        cfg.fusion, ModelSpec(), cfg.sensor_seed, registry=())
    assert sorted(p.name for p in bench.iterdir()) == before


def test_experiment_without_perfect_fl_methods_never_trains_it(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_perfect_fl was called")

    monkeypatch.setattr("mapfuse.orchestrator.run_perfect_fl", refuse)
    cfg = small_run_config()
    assert all(METHODS[m].params != "perfect_fl" for m in cfg.methods)
    report = run_experiment(cfg, test_frames=[60])
    assert set(report.methods) == set(cfg.methods)


def test_experiment_rejects_an_empty_window():
    with pytest.raises(ConfigError, match="selects no testing frames"):
        run_experiment(small_run_config(train={"train_window": [0.0, 6.0]}))
    # fusion_edfl needs training frames, and none are in the window.
    with pytest.raises(ConfigError, match="selects no training frames"):
        run_experiment(small_run_config(train={"train_window": [0.0, 0.02]}),
                       test_frames=[60])


def test_experiment_without_methods_is_an_empty_report():
    cfg = run_config_from_dict({"methods": [],
                                "scenario": {"duration": 3.0},
                                "train": {"train_window": [0.0, 1.0]}})
    report = run_experiment(cfg)
    assert report.frames == tuple(range(20, 60))
    assert report.methods == {}


def test_run_config_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.methods == METHOD_NAMES
    with pytest.raises(ConfigError):
        RunConfig(methods=("nope",))


def test_a_chunk_refines_and_moves_to_the_global_frame_as_its_frames_do():
    # One predict_fleet over a chunk's vehicle-frames and one transform
    # of all its maps give each frame's own results, bit for bit.
    cfg = default_benchmark_config(0)
    sc = generate_scenario(cfg.scenario, cfg.seed)
    spec = ModelSpec()
    init = default_init_params(spec).values
    params = ModelParams(init + np.random.default_rng(3).normal(
        0.0, 0.05, init.shape))
    frames = [0, 1, 2, 3, 4, 250, 499]
    sensed = sense_fleet(sc, frames, cfg.noise, cfg.sensor_seed)
    chunk = refine_fleet(params, sensed, spec)
    moved = orchestrator._global_boxes(sum(chunk, []))
    k = sc.num_vehicles
    assert len(chunk) == len(frames) and len(moved) == k * len(frames)
    for i, fleet in enumerate(sensed):
        [one] = refine_fleet(params, [fleet], spec)
        assert ([lm.detections.rows.tobytes() for lm in chunk[i]]
                == [lm.detections.rows.tobytes() for lm in one])
        assert ([b.rows.tobytes() for b in moved[i * k:(i + 1) * k]]
                == [b.rows.tobytes() for b in orchestrator._global_boxes(one)])
