import json

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
    "teachers": [{"full_coverage": True}],
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


@pytest.mark.parametrize("scenario", [
    {"num_vehicles": -1},
    {"num_vehicles": 2.5},
    {"num_vehicles": 0, "num_objects": 0},
    {"lane_offset": float("nan")},
    {"span": float("nan")},
    {"speed_min": float("nan")},
    {"turn_prob": 2.0},
    {"turn_prob": float("nan")},
])
def test_simulate_rejects_invalid_scenario(tmp_path, scenario):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"duration": 1.0, **scenario}}))
    out = tmp_path / "out.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
