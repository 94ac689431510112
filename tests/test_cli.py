import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mapfuse.cli import main
from mapfuse.fedlearn import load_checkpoint
from mapfuse.fusion import LocalMap, ScoredDetection, local_map_to_json
from mapfuse.geometry import IDENTITY_POSE, ObjectState

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


@pytest.fixture
def frame_jsonl(tmp_path):
    # Two vehicles seeing the same two objects with different scores, so
    # the fusion rule actually changes the output.
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

    lines = [local_map_to_json(lm(0, 0.0, 0.2)),
             local_map_to_json(lm(1, 0.8, 1.5))]
    path = tmp_path / "frame.jsonl"
    path.write_text("\n".join(lines) + "\n")
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


def test_fuse_rejects_mixed_frames(frame_jsonl, tmp_path):
    with open(frame_jsonl) as fh:
        lines = fh.read().strip().splitlines()
    doc = json.loads(lines[1])
    doc["frame_time"] = doc["frame_time"] + 1.0
    bad = tmp_path / "mixed.jsonl"
    bad.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
    assert main(["fuse", str(bad)]) == 2


def test_fuse_rejects_duplicate_vehicle_ids(frame_jsonl, tmp_path):
    with open(frame_jsonl) as fh:
        lines = fh.read().strip().splitlines()
    doc = json.loads(lines[1])
    doc["vehicle_id"] = json.loads(lines[0])["vehicle_id"]
    bad = tmp_path / "duplicate.jsonl"
    bad.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
    assert main(["fuse", str(bad)]) == 2


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
], ids=["detections-number", "detections-of-number", "pose-null",
        "record-list", "vehicle-id-float", "vehicle-id-bool", "pose-missing",
        "frame-time-nan", "position-null", "category-float"])
def test_fuse_rejects_malformed_local_map(frame_jsonl, tmp_path, capsys,
                                          record, field):
    # Malformed input exits 2 with the line and the field, not 3 from
    # deep inside fusion; a float vehicle id is not truncated and fused.
    with open(frame_jsonl) as fh:
        first = fh.readline()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(first + json.dumps(record) + "\n")
    assert main(["fuse", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and field in err


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
])
def test_simulate_rejects_invalid_scenario(tmp_path, scenario):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"duration": 1.0, **scenario}}))
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2


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
    # A finite end past the scenario selects no frames; it used to
    # overflow converting the frame index.
    ([1e307, 1e308], 0),
])
def test_train_window_end_past_frame_index(tmp_path, window, status):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"duration": 2.0, "num_objects": 10},
        "train": {"train_window": window},
    }))
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / "model.ckpt")]) == status
    assert main(["evaluate", "--config", str(cfg),
                 "--out", str(tmp_path / "report.json")]) == status
