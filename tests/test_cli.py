import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapfuse.cli import build_parser, main
from mapfuse.fedlearn import load_checkpoint
from mapfuse.fusion import (
    FUSE_RULES,
    LocalMap,
    ScoredDetection,
    global_map_from_json,
    global_map_to_json,
    local_map_to_json,
    three_stage_fuse,
)
from mapfuse.geometry import IDENTITY_POSE, InputError, ObjectState
from mapfuse.orchestrator import METHODS

SMALL = {
    "scenario": {"duration": 5.0, "num_objects": 20},
    "noise": {"center_sigma": 0.1, "extent_sigma": 0.05, "yaw_sigma": 0.03,
              "miss_prob": 0.1, "false_positive_rate": 0.1,
              "score_sigma": 0.5},
    "train": {"max_rounds": 1, "train_window": [0.0, 2.0],
              "sampling_ratio": 10},
    "teachers": [{"x": 0.0, "y": 0.0, "radius": 1e9}],
    "methods": ["local_no_fl", "fusion_three_stage"],
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def frame_maps():
    """Two vehicles seeing the same two objects with different scores, so
    the fusion rule actually changes the output."""
    def lm(vid, dx, score):
        return LocalMap(
            vehicle_id=vid,
            frame_time=0.5,
            detections=(
                ScoredDetection(
                    ObjectState(0, (10.0 + dx, 2.0, 0.75), (4, 2, 1.5), 0.1),
                    score,
                ),
                ScoredDetection(
                    ObjectState(0, (30.0 - dx, -4.0, 0.75), (4, 2, 1.5), 0.0),
                    score + 0.5,
                ),
            ),
            pose=IDENTITY_POSE,
        )

    return [lm(0, 0.0, 0.2), lm(1, 0.8, 1.5)]


@pytest.fixture
def frame_jsonl(tmp_path):
    path = tmp_path / "frame.jsonl"
    path.write_text("\n".join(map(local_map_to_json, frame_maps())) + "\n")
    return str(path)


def test_simulate_writes_jsonl(small_config, tmp_path):
    out = tmp_path / "scenario.jsonl"
    assert main(["simulate", "--config", small_config,
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 100
    assert "objects" in json.loads(lines[0])


def test_simulate_seed_override_changes_output(small_config, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["simulate", "--config", small_config, "--out", str(a)]) == 0
    assert main(["simulate", "--config", small_config, "--seed", "5",
                 "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_train_writes_checkpoint(small_config, tmp_path):
    out = tmp_path / "model.ckpt"
    assert main(["train", "--config", small_config, "--method", "perfect_fl",
                 "--out", str(out)]) == 0
    params = load_checkpoint(out)
    assert params.values.shape == (143,)
    assert np.isfinite(params.values).all()


def test_train_requires_out(small_config):
    assert main(["train", "--config", small_config]) == 1


def test_fuse_jsonl_and_kitti(frame_jsonl, tmp_path, capsys):
    out = tmp_path / "fused.json"
    assert main(["fuse", frame_jsonl, "--out", str(out)]) == 0
    fused = json.loads(out.read_text())
    assert fused["objects"]

    assert main(["fuse", frame_jsonl, "--format", "kitti"]) == 0
    captured = capsys.readouterr().out
    assert captured.splitlines()
    assert captured.split()[0] in ("Car", "Pedestrian")


def test_fuse_of_blank_lines_exits_2(tmp_path, capsys):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \n\t\n")
    assert main(["fuse", str(blank)]) == 2
    assert capsys.readouterr().err == "error: no local maps in input\n"


def test_fuse_weight_mode_changes_result(frame_jsonl, capsys):
    # Score weighting is the three-stage rule; --method mean drops it.
    assert main(["fuse", frame_jsonl]) == 0
    conf = capsys.readouterr().out
    assert main(["fuse", frame_jsonl, "--method", "mean"]) == 0
    mean = capsys.readouterr().out
    assert mean != conf


@pytest.mark.parametrize("flags", [["--weight-mode", "confidence"],
                                   ["--delta", "0.5"]])
def test_removed_fuse_flags_exit_1(frame_jsonl, flags):
    # The delta lives in --config as {"fusion": {"delta": ...}}.
    assert main(["fuse", frame_jsonl, *flags]) == 1


def test_fuse_underflowing_score(tmp_path, capsys):
    det = ScoredDetection(ObjectState(0, (5.0, 1.0, 0.75), (4, 2, 1.5), 0.0),
                          -800.0)
    path = tmp_path / "one.jsonl"
    path.write_text(local_map_to_json(
        LocalMap(0, 0.5, (det,), IDENTITY_POSE)) + "\n")
    assert main(["fuse", str(path)]) == 0
    (obj,) = json.loads(capsys.readouterr().out)["objects"]
    assert obj["score"] == -800.0


def test_fuse_of_finite_boxes_too_large_to_square(tmp_path, capsys):
    # Their bounding circles' reach squares past the float range; the
    # pair does not overlap, and both boxes are fused and kept.
    huge = ScoredDetection(
        ObjectState(0, (10.0, 2.0, 0.75), (1e200, 2, 1.5), 0.0), 1.0)
    small = ScoredDetection(
        ObjectState(0, (12.0, 40.0, 0.75), (4, 2, 1.5), 0.0), 0.5)
    path = tmp_path / "huge.jsonl"
    path.write_text(local_map_to_json(
        LocalMap(0, 0.5, (huge, small), IDENTITY_POSE)) + "\n")
    assert main(["fuse", str(path)]) == 0
    objects = json.loads(capsys.readouterr().out)["objects"]
    assert sorted(o["extents"][0] for o in objects) == [4.0, 1e200]


def test_fuse_of_aligned_boxes_whose_areas_overflow(tmp_path, capsys):
    # Two vehicles each see one footprint whose area overflows to inf; the
    # boxes overlap, so pruning takes their IoU, which is 0 and no warning.
    path = tmp_path / "huge.jsonl"
    path.write_text("".join(local_map_to_json(LocalMap(
        k, 0.0, [(ObjectState(0, (10.0 * k, 0.0, 0.75), (1e160, 1e160, 1.5),
                              0.0), 1.0)], IDENTITY_POSE)) + "\n"
        for k in range(2)))
    assert main(["fuse", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(json.loads(out)["objects"]) == 2


def test_fuse_rejects_mixed_frames(frame_jsonl, tmp_path, capsys):
    with open(frame_jsonl) as fh:
        lines = fh.read().strip().splitlines()
    doc = json.loads(lines[1])
    doc["frame_time"] = doc["frame_time"] + 1.0
    bad = tmp_path / "mixed.jsonl"
    bad.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
    assert main(["fuse", str(bad)]) == 2
    # Fusion's own map-set check, not a copy in the command.
    assert capsys.readouterr().err == (
        "error: local maps must share a frame time\n")


def test_fuse_rejects_duplicate_vehicle_ids(frame_jsonl, tmp_path, capsys):
    with open(frame_jsonl) as fh:
        lines = fh.read().strip().splitlines()
    doc = json.loads(lines[1])
    doc["vehicle_id"] = json.loads(lines[0])["vehicle_id"]
    bad = tmp_path / "duplicate.jsonl"
    bad.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
    assert main(["fuse", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: duplicate vehicle ids in [0, 0]\n")


def test_fuse_rejects_maps_that_fuse_past_the_float_range(tmp_path, capsys):
    # Each box is finite where it enters, but weights that sum to just
    # over 1 take the fused centre past the largest double.
    records = [local_map_to_json(LocalMap(
        k, 0.0, [(ObjectState(0, (sys.float_info.max, 2.0, 0.75),
                              (4, 2, 1.5), 0.0), float(k))], IDENTITY_POSE))
        for k in range(3)]
    bad = tmp_path / "far.jsonl"
    bad.write_text("\n".join(records) + "\n")
    assert main(["fuse", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: fused box 0: fields must be finite\n")


GOOD_MAP = json.loads(local_map_to_json(LocalMap(
    1, 0.5,
    (ScoredDetection(ObjectState(0, (5.0, 1.0, 0.75), (4, 2, 1.5), 0.0),
                     1.0),),
    IDENTITY_POSE,
)))


@pytest.mark.parametrize("record, field", [
    ({**GOOD_MAP, "detections": 5}, "field 'detections'"),
    ({**GOOD_MAP, "detections": [5]}, "field 'detections'"),
    ({**GOOD_MAP, "pose": None}, "field 'pose'"),
    ([1, 2], "JSON object"),
    ({**GOOD_MAP, "vehicle_id": 1.5}, "field 'vehicle_id'"),
    ({**GOOD_MAP, "vehicle_id": True}, "field 'vehicle_id'"),
    ({k: v for k, v in GOOD_MAP.items() if k != "pose"},
     "missing field 'pose'"),
    ({**GOOD_MAP, "frame_time": float("nan")}, "field 'frame_time'"),
    ({**GOOD_MAP, "pose": {**GOOD_MAP["pose"], "position": None}},
     "field 'pose.position'"),
    ({**GOOD_MAP,
      "detections": [{**GOOD_MAP["detections"][0], "category": 1.5}]},
     "field 'detections[0].category'"),
    # A short vector is reported at its own field.
    ({**GOOD_MAP,
      "detections": [{**GOOD_MAP["detections"][0], "center": [5.0, 1.0]}]},
     "field 'detections[0].center'"),
    ({**GOOD_MAP,
      "detections": [{**GOOD_MAP["detections"][0], "extents": [4.0, 2.0]}]},
     "field 'detections[0].extents'"),
    ({**GOOD_MAP, "pose": {**GOOD_MAP["pose"], "position": [0.0, 0.0]}},
     "field 'pose.position'"),
    # Finite in the vehicle's frame, past the float range in the global one.
    ({**GOOD_MAP,
      "pose": {**GOOD_MAP["pose"], "position": [1.7e308, 0.0, 0.0]},
      "detections": [{**GOOD_MAP["detections"][0],
                      "center": [1.7e308, 1.0, 0.75]}]},
     "field 'detections[0]'"),
    # A string stands for the line as it is.
    ("{\"vehicle_id\": 1,", "must be valid JSON"),
], ids=["detections-number", "detections-of-number", "pose-null",
        "record-list", "vehicle-id-float", "vehicle-id-bool", "pose-missing",
        "frame-time-nan", "position-null", "category-float",
        "center-short", "extents-short", "position-short",
        "global-overflow", "not-json"])
def test_fuse_rejects_malformed_local_map(frame_jsonl, tmp_path, capsys,
                                          record, field):
    # Malformed input exits 2 with the line and the field, not 3 from
    # deep inside fusion; a float vehicle id is not truncated and fused.
    with open(frame_jsonl) as fh:
        first = fh.readline()
    bad = tmp_path / "bad.jsonl"
    line = record if isinstance(record, str) else json.dumps(record)
    bad.write_text(first + line + "\n")
    assert main(["fuse", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and field in err


def _method_choices(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == "method")


def test_method_choices_come_from_the_tables():
    assert sorted(_method_choices("fuse")) == sorted(FUSE_RULES)
    assert set(_method_choices("train")) == (
        {m.params for m in METHODS.values()} - {"none"})


def test_evaluate_and_report_round_trip(small_config, tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    assert main(["evaluate", "--config", small_config,
                 "--out", str(rep_path)]) == 0
    payload = json.loads(rep_path.read_text())
    assert set(payload["methods"]) == {"local_no_fl", "fusion_three_stage"}

    csv_path = tmp_path / "report.csv"
    assert main(["evaluate", "--config", small_config,
                 "--out", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("method,overall")

    assert main(["report", str(rep_path)]) == 0
    radar = capsys.readouterr().out
    assert radar.startswith("slice,")


GOOD_REPORT = {
    "scenario_seed": 0,
    "frames": [1, 2],
    "methods": {"m": {"name": "m", "ap": {"overall": 0.5, "LD": None},
                      "per_vehicle_ap": {"0": 0.25}, "bytes_sent": 10}},
}


def _with(path, value):
    """GOOD_REPORT with the field at the dotted path set to value, or
    deleted when value is ...."""
    report = json.loads(json.dumps(GOOD_REPORT))
    *parents, last = path.split(".")
    node = report
    for key in parents:
        node = node[key]
    if value is ...:
        del node[last]
    else:
        node[last] = value
    return report


@pytest.mark.parametrize("report, field", [
    ([1, 2], "JSON object"),
    (None, "JSON object"),
    ({}, "scenario_seed"),
    ({"methods": 5}, "scenario_seed"),
    (_with("methods", 5), "'methods'"),
    (_with("scenario_seed", "0"), "'scenario_seed'"),
    (_with("frames", [1.5]), "'frames'"),
    (_with("methods.m", []), "'methods'"),
    (_with("methods.m.name", ...), "'methods.m.name'"),
    (_with("methods.m.ap", {"overall": "high"}), "'methods.m.ap'"),
    (_with("methods.m.per_vehicle_ap", {"a": 0.5}),
     "'methods.m.per_vehicle_ap'"),
    (_with("methods.m.bytes_sent", 1.5), "'methods.m.bytes_sent'"),
], ids=["root-list", "root-null", "empty", "methods-only", "methods-number",
        "seed-string", "frames-float", "method-list", "name-missing",
        "ap-string", "vehicle-id-name", "bytes-float"])
def test_report_rejects_malformed_report(report, field, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_REPORT))
    assert main(["report", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


# What the input-file fuzz puts in place of a field: non-finite, huge and
# wrongly typed JSON values.
ODD_VALUES = (math.nan, math.inf, -math.inf, 1e308, 2**64, 10**400, True,
              False, None, "", "x", [], {}, [1.0], {"a": 1})


def _paths(doc, prefix=()):
    """Every key path into a parsed JSON document, parents first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _holds(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and type(key) is int and key < len(node)


def mutated(draw, doc, values=ODD_VALUES, keep=lambda path, value: False):
    """A copy of doc with one to three fields replaced by values; a field
    that an earlier replacement took away, or where keep(path, value),
    is left as it is."""
    doc = json.loads(json.dumps(doc))
    paths = draw(st.lists(st.sampled_from(list(_paths(doc))),
                          min_size=1, max_size=3, unique=True))
    for *parents, last in paths:
        node = doc
        for key in parents:
            node = node[key] if _holds(node, key) else None
        if _holds(node, last):
            value = draw(st.sampled_from(values))
            if not keep((*parents, last), value):
                node[last] = copy.deepcopy(value)
    return doc


def _finite_number(text: str) -> float:
    value = float(text)
    assert math.isfinite(value), text
    return value


def _no_constant(text: str):
    raise AssertionError(f"{text} written")


def _finite_json(text):
    """Parse text, asserting that every number in it is finite."""
    json.loads(text, parse_float=_finite_number, parse_int=_finite_number,
               parse_constant=_no_constant)


FUZZ = settings(derandomize=True, max_examples=300, deadline=None)


@FUZZ
@given(data=st.data(), method=st.sampled_from(sorted(FUSE_RULES)))
def test_fuse_exits_0_or_2_on_mutated_local_maps(data, method):
    records = mutated(data.draw,
                      [json.loads(local_map_to_json(lm))
                       for lm in frame_maps()])
    with tempfile.TemporaryDirectory() as tmp:
        maps, out = Path(tmp, "maps.jsonl"), Path(tmp, "fused.jsonl")
        maps.write_text("".join(json.dumps(r) + "\n" for r in records))
        status = main(["fuse", str(maps), "--method", method,
                       "--out", str(out)])
        assert status in (0, 2)
        if status == 0:
            _finite_json(out.read_text())


@FUZZ
@given(data=st.data())
def test_report_exits_0_or_2_on_mutated_reports(data):
    report = mutated(data.draw, GOOD_REPORT)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "report.json"), Path(tmp, "radar.csv")
        path.write_text(json.dumps(report))
        status = main(["report", str(path), "--out", str(out)])
        assert status in (0, 2)
        if status == 0:
            for row in list(csv.reader(io.StringIO(out.read_text())))[1:]:
                for cell in row[1:]:
                    assert cell == "" or math.isfinite(float(cell)), cell


# A record of the global-map JSONL that `dmf fuse` writes.
GOOD_GLOBAL_MAP = json.loads(global_map_to_json(
    three_stage_fuse(frame_maps()).global_map))


@FUZZ
@given(data=st.data())
def test_global_map_reader_raises_only_input_error_on_mutated_records(data):
    # A mutated record is rejected with an InputError or read into finite
    # rows.
    record = mutated(data.draw, GOOD_GLOBAL_MAP)
    try:
        gmap = global_map_from_json(json.dumps(record))
    except InputError:
        return
    assert math.isfinite(gmap.frame_time)
    assert np.isfinite(gmap.objects.rows).all()


# A small valid run: 2 s, 10 objects, 3 vehicles, one training round.
FUZZ_CONFIG = {
    "scenario": {"duration": 2.0, "num_objects": 10, "num_vehicles": 3,
                 "lane_offset": 2.75, "span": 220.0, "min_separation": 5.0,
                 "max_attempts": 300,
                 "sensor": {"range": 100.0, "fov": 1.5}},
    "noise": {"miss_prob": 0.05, "miss_dist_coeff": 0.15,
              "center_sigma": 0.05, "noise_dist_scale": 2.0,
              "false_positive_rate": 0.1, "score_sigma": 0.5,
              "bias": [0.1, 0.15, 0.0, -0.25, -0.12, 0.0, 0.02]},
    "fusion": {"cluster": {"eps": 2.0}, "delta": 0.1},
    "train": {"learning_rate": 0.001, "max_rounds": 1, "local_epochs": 1,
              "loss_coefficients": [1.0, 2.0, 0.2],
              "train_window": [0.0, 1.0], "sampling_ratio": 10},
    "teachers": [{"x": 0.0, "y": 0.0, "radius": 60.0}],
    "methods": ["local_edfl", "fusion_three_stage"],
    "seed": 1,
}

# A huge but valid count runs the training or the placement loop almost
# without end (no cap is set), so these fields draw no huge integer.
LOOP_COUNTS = {("train", "max_rounds"), ("train", "local_epochs"),
               ("scenario", "max_attempts")}


def _keep_config_field(path, value) -> bool:
    if path in LOOP_COUNTS and type(value) is int and value > 1000:
        return True
    # An empty object gives a section its defaults: the full-size run,
    # valid and far slower than the rest.
    return value == {} and path in {("scenario",), ("train",)}


def _mutated_config_run(data, command, output):
    """Run command on a mutated FUZZ_CONFIG: it exits 0 or 2, and an
    exit-0 run writes only finite numbers, as output(path) reads them."""
    config = mutated(data.draw, FUZZ_CONFIG, ODD_VALUES + (1e300, -1e308),
                     _keep_config_field)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "config.json"), Path(tmp, "out")
        path.write_text(json.dumps(config))
        status = main([command, "--config", str(path), "--out", str(out)])
        assert status in (0, 2), config
        if status == 0:
            output(out)


# simulate takes about 7 ms a case, so it runs more of them.
@settings(FUZZ, max_examples=1000)
@given(data=st.data())
def test_simulate_exits_0_or_2_on_mutated_configs(data):
    def finite_lines(path):
        for line in path.read_text().splitlines():
            _finite_json(line)

    _mutated_config_run(data, "simulate", finite_lines)


@FUZZ
@given(data=st.data())
def test_train_exits_0_or_2_on_mutated_configs(data):
    def finite_checkpoint(path):
        assert np.isfinite(load_checkpoint(path).values).all()

    _mutated_config_run(data, "train", finite_checkpoint)


@FUZZ
@given(data=st.data())
def test_evaluate_exits_0_or_2_on_mutated_configs(data):
    _mutated_config_run(data, "evaluate",
                        lambda path: _finite_json(path.read_text()))


def test_bench_is_deterministic(small_config, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["bench", "--config", small_config, "--out", str(a)]) == 0
    csv_a = capsys.readouterr().out
    assert main(["bench", "--config", small_config, "--out", str(b)]) == 0
    csv_b = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert csv_a == csv_b
    assert csv_a.startswith("method,overall")


def test_evaluate_report_is_independent_of_hash_seed(small_config, tmp_path):
    # String hashing, and so set iteration order, changes with
    # PYTHONHASHSEED from one process to the next; the report must not.
    src = str(Path(__file__).resolve().parent.parent / "src")
    reports = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"report_{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "mapfuse.cli", "evaluate",
             "--config", small_config, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_usage_errors_exit_1():
    assert main(["no-such-command"]) == 1
    assert main(["fuse"]) == 1


def test_validation_errors_exit_2(tmp_path, small_config):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"bogus_key": 1}))
    assert main(["simulate", "--config", str(wrong)]) == 2
    garbage = tmp_path / "maps.jsonl"
    garbage.write_text("{\"nope\": 1}\n")
    assert main(["fuse", str(garbage)]) == 2


def test_internal_key_error_exits_3(small_config, tmp_path, monkeypatch,
                                    capsys):
    # Readers name a bad input field with a ValueError, so a KeyError is
    # a fault in the program, not invalid input.
    def broken(*args, **kwargs):
        raise KeyError("pose")

    monkeypatch.setattr("mapfuse.cli.generate_scenario", broken)
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", small_config,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("internal error: ")


def test_internal_value_error_exits_3(small_config, tmp_path, monkeypatch,
                                      capsys):
    # Only the input, config and wire errors are invalid input; a bare
    # ValueError from inside the program is a fault, with its traceback.
    def broken(*args, **kwargs):
        raise ValueError("an internal fault")

    monkeypatch.setattr("mapfuse.cli.run_experiment", broken)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", small_config,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: an internal fault")
    assert "Traceback (most recent call last)" in err
    assert not out.exists()


def test_undecodable_input_exits_2(tmp_path, capsys):
    binary = tmp_path / "maps.jsonl"
    binary.write_bytes(b"\xff\xfe{}\n")
    assert main(["fuse", str(binary)]) == 2
    assert main(["report", str(binary)]) == 2
    assert main(["simulate", "--config", str(binary)]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", [
    {"num_vehicles": -1},
    {"num_vehicles": 2.5},
    {"num_vehicles": 0, "num_objects": 0},
    {"lane_offset": float("nan")},
    {"span": float("nan")},
    {"speed_min": float("nan")},
    {"turn_prob": 2.0},
    {"turn_prob": float("nan")},
    {"speed_max": 1e6},
    # Valid settings that no placement can meet: too crowded an arena.
    {"num_objects": 60, "span": 20.0, "min_separation": 8.0,
     "max_attempts": 5},
    # Sizes whose arrays numpy cannot index (it raises before allocating).
    {"num_objects": 18446744073709551616},
    {"duration": 1e200},
    # Lengths whose squares overflow in the generator, and a boolean or a
    # huge integer in a float field.
    {"min_separation": 1e300},
    {"lane_offset": 1e300},
    {"lane_offset": -1e308},
    {"span": 1e200, "num_vehicles": 1},
    {"duration": True},
    {"span": 10 ** 400},
])
def test_simulate_rejects_invalid_scenario(tmp_path, scenario):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"duration": 1.0, **scenario}}))
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2


@pytest.mark.parametrize("scenario", [
    # The span's float spacing (64-128 m) swallows the 8-20 m start gaps.
    {"span": 1e18},
    # The separation is beyond those gaps.
    {"min_separation": 30.0},
], ids=["span-1e18", "min-separation-30"])
def test_simulate_names_the_platoon_it_cannot_place(tmp_path, capsys,
                                                     scenario):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {
        "duration": 2.0, "num_objects": 10, "num_vehicles": 3, **scenario}}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not place platoon vehicle 1:")
    assert "min_separation" in err and "span" in err
    assert "crowded" not in err


@pytest.mark.parametrize("scenario, field", [
    ({"num_objects": 18446744073709551616}, "num_objects"),
    ({"duration": 1e200}, "duration"),
])
def test_simulate_names_a_size_numpy_cannot_index(tmp_path, capsys,
                                                   scenario, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("payload", [
    {"seed": 1.5},
    {"sensor_seed": -1},
    {"thresholds": {}},
    {"noise": {"score_base": 4.0}},
    {"noise": {"score_dist_coeff": 3.0}},
    {"noise": {"score_occl_coeff": 2.0}},
    {"noise": {"fp_score_mean": -1.0}},
    {"noise": {"fp_score_sigma": 0.5}},
    {"teachers": [{"full_coverage": True}]},
    {"scenario": {"speed_cap": 15.0}},
    {"seed": True},
    # JSON integers too large for a double, in each section that reads
    # them, and booleans in float fields.
    {"train": {"learning_rate": 10 ** 400}},
    {"train": {"loss_coefficients": [1.0, 10 ** 400, 0.2]}},
    {"train": {"train_window": [0.0, 10 ** 400]}},
    {"scenario": {"sensor": {"range": 10 ** 400}}},
    {"noise": {"score_sigma": 10 ** 400}},
    {"fusion": {"cluster": {"eps": 10 ** 400}}},
    {"teachers": [{"radius": 10 ** 400}]},
    {"fusion": {"delta": True}},
    {"noise": {"bias": [0.0, 0.0, 0.0, False, 0.0, 0.0, 0.0]}},
])
def test_simulate_rejects_invalid_or_removed_config(tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"duration": 1.0}, **payload}))
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2


def test_train_rejects_two_loss_coefficients_at_config_load(
        tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "train": {"loss_coefficients": [1.0, 2.0], "max_rounds": 1,
                  "train_window": [0.0, 1.0], "sampling_ratio": 10},
        "scenario": {"duration": 2.0, "num_objects": 10},
    }))

    def no_scenario(*args, **kwargs):
        raise RuntimeError("the config should fail before a scenario")

    monkeypatch.setattr("mapfuse.cli.generate_scenario", no_scenario)
    out = tmp_path / "model.json"
    assert main(["train", "--config", str(cfg), "--method", "perfect_fl",
                 "--out", str(out)]) == 2
    assert "loss coefficients" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window,status", [
    ([0.0, math.inf], 2),
    # A finite end past the scenario selects no frames: nothing to train
    # or score.  It used to overflow converting the frame index.
    ([1e307, 1e308], 2),
])
def test_train_window_end_past_frame_index(tmp_path, capsys, window, status):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"duration": 2.0, "num_objects": 10},
        "train": {"train_window": window},
    }))
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / "model.ckpt")]) == status
    assert main(["evaluate", "--config", str(cfg),
                 "--out", str(tmp_path / "report.json")]) == status
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()
    assert not (tmp_path / "report.json").exists()


def test_window_that_ends_with_the_scenario_leaves_nothing_to_score(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"duration": 2.0, "num_objects": 10},
        "train": {"train_window": [0.0, 2.0], "max_rounds": 1},
    }))
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / "model.ckpt")]) == 0
    capsys.readouterr()
    for command in ("evaluate", "bench"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "report.json")]) == 2
        err = capsys.readouterr().err
        assert "train.train_window [0.0, 2.0] selects no testing frames" in err
        assert "of the scenario's 40" in err
    assert not (tmp_path / "report.json").exists()


def test_trained_methods_need_training_frames(tmp_path, capsys):
    # A window shorter than half a frame holds no training frame; the
    # untrained methods can still be scored on the frames after it.
    payload = {"scenario": {"duration": 2.0, "num_objects": 10},
               "train": {"train_window": [0.0, 0.02]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(["bench", "--config", str(cfg), "--out",
                 str(tmp_path / "report.json")]) == 2
    assert "selects no training frames" in capsys.readouterr().err
    payload["methods"] = ["local_no_fl", "fusion_mean"]
    cfg.write_text(json.dumps(payload))
    assert main(["evaluate", "--config", str(cfg), "--out",
                 str(tmp_path / "report.json")]) == 0


# Finite settings that overflow on the way: the detector noise takes a
# box past the float range, or the SGD steps diverge.  Both are invalid
# configuration (exit 2), where they used to fail as a fault (exit 3).
OVERFLOWING = {"scenario": {"duration": 5.0, "num_objects": 20},
               "train": {"max_rounds": 1, "train_window": [0.0, 2.0]}}


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("setting", ["score_sigma", "center_sigma"])
def test_noise_that_overflows_exits_2(tmp_path, capsys, command, setting):
    payload = json.loads(json.dumps(OVERFLOWING))
    payload["train"]["sampling_ratio"] = 10
    payload["noise"] = {setting: 1e308}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fields must be finite" in err and "noise" in err
    assert not out.exists()


def test_detections_that_refine_past_the_float_range_exit_2(tmp_path,
                                                           capsys):
    # Sensed boxes near 1e300 are finite, but trained parameters refine
    # them past the float range (found by the config fuzz; exit 3 before).
    payload = json.loads(json.dumps(FUZZ_CONFIG))
    payload["noise"]["center_sigma"] = 1e300
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "refined box 0: fields must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_training_that_diverges_exits_2(tmp_path, capsys):
    # The default sampling ratio: with 10, this config trains finitely.
    payload = json.loads(json.dumps(OVERFLOWING))
    payload["train"]["loss_coefficients"] = [1e308, 1e308, 1e308]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "train.learning_rate" in err and "train.loss_coefficients" in err
    assert not out.exists()
