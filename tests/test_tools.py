import hashlib
import json
import sys
from pathlib import Path

import pytest

from mapfuse import (association, distill, evalbench, fusion, orchestrator,
                     simworld)


def test_stage_times_times_every_stage_and_changes_no_byte(monkeypatch,
                                                          capsys):
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    bound = [(m, name, getattr(m, name)) for m, name in [
        (simworld, "visible_objects"), (simworld, "sense_fleet"),
        (distill, "refine_fleet"), (orchestrator, "refine_fleet"),
        (evalbench, "overlap_sets"), (orchestrator, "overlap_sets"),
        (orchestrator, "run_frame"), (orchestrator, "encode_message"),
        (orchestrator, "_decode_blobs"), (fusion, "_fuse_frame"),
        (association, "cluster_detections"), (fusion, "cluster_detections"),
        (fusion, "prune_overlaps")]]
    try:
        import stage_times
        stage_times.main(["--seed", "0", "--duration", "2"])
        cfg = stage_times.benchmark_config(0, 2.0)
    finally:
        sys.modules.pop("stage_times", None)
    out = json.loads(capsys.readouterr().out)
    # Every wrapper is gone again, and the wrapped run made the report
    # an unwrapped run makes.
    assert all(getattr(m, name) is fn for m, name, fn in bound)
    report = orchestrator.run_experiment(cfg)
    assert out["report_sha256"] == hashlib.sha256(
        report.to_json().encode()).hexdigest()
    assert len(report.frames) == 20
    stages = out["stages"]
    for name in ("visible_objects", "sense_fleet", "rows_to_local",
                 "refine_fleet", "overlap_sets", "_global_boxes", "run_frame",
                 "greedy_assign", "tag_objects", "fuse_window",
                 "train_params", "encode_message", "_decode_blobs",
                 "_fuse_frame", "cluster_detections", "prune_overlaps"):
        assert stages[name]["calls"] > 0 and stages[name]["s"] > 0.0, name
    assert stages["run_frame"]["calls"] == 5 * len(report.frames)
    # A frame encodes its broadcast alone and decodes its uploads at once.
    assert (stages["encode_message"]["calls"]
            == stages["_decode_blobs"]["calls"]
            == stages["run_frame"]["calls"])
    assert 0.0 < stages["train_params"]["s"] < out["run_s"]


def _load_bench_pairs(monkeypatch):
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        import bench_pairs
    finally:
        sys.modules.pop("bench_pairs", None)
    return bench_pairs


def test_bench_pairs_summary_of_fixed_numbers(monkeypatch):
    bench_pairs = _load_bench_pairs(monkeypatch)
    parent = [1.0, 1.2, 1.4, 1.6, 1.8]
    change = [0.9, 1.0, 1.5, 1.4, 1.6]
    aps = [0.5, 0.6, 0.4, 0.5, 0.5]
    pairs = [({"frame_p95_ms": p, "ap": 0.5}, {"frame_p95_ms": c, "ap": a})
             for p, c, a in zip(parent, change, aps)]
    # A metric one run lacks counts only in the pairs that have it.
    pairs[0][0]["setup_s"] = pairs[0][1]["setup_s"] = 2.0
    pairs[1][0]["setup_s"] = 3.0
    summary = bench_pairs.summarize(
        pairs, {"frame_p95_ms": "lower", "ap": "higher", "setup_s": "lower",
                "run_s": "lower"})
    frame = summary["frame_p95_ms"]
    assert frame["parent"] == pytest.approx(
        {"median": 1.4, "q1": 1.2, "q3": 1.6})
    assert frame["change"] == pytest.approx(
        {"median": 1.4, "q1": 1.0, "q3": 1.5})
    assert frame["ratio"] == pytest.approx(1.0)
    assert frame["parent_iqr"] == pytest.approx(0.4)
    assert frame["median_gap"] == pytest.approx(0.0)
    assert (frame["change_wins"], frame["ties"], frame["pairs"]) == (4, 0, 5)
    ap = summary["ap"]
    assert (ap["change_wins"], ap["ties"]) == (1, 3)
    assert summary["setup_s"]["pairs"] == 1
    assert summary["setup_s"]["parent"] == {"median": 2.0, "q1": 2.0,
                                            "q3": 2.0}
    assert "run_s" not in summary
    # A higher-is-better gap is positive when the change is higher.
    (higher,) = bench_pairs.summarize([({"ap": 0.5}, {"ap": 0.7})],
                                      {"ap": "higher"}).values()
    assert higher["median_gap"] == pytest.approx(0.2)
    assert higher["change_wins"] == 1


def test_bench_pairs_alternates_which_side_runs_first(monkeypatch,
                                                      tmp_path):
    bench_pairs = _load_bench_pairs(monkeypatch)
    spec = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(spec.read_text())
    order = []

    def fake_run(path, workload, seed, seconds):
        order.append(path.name)
        value = 1.0 if path.name == "parent" else 0.5
        return {"exit": 0, "wall_s": 0.0, "info": {"seed": seed},
                "result": {"metrics": {"run_s": {"value": value}}}}

    # No process starts: each run is a fake with fixed metrics.
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = bench_pairs.bench_pairs(tmp_path / "parent", tmp_path / "change",
                                  "edge_fusion", 0, 3, 30.0)
    assert order == ["parent", "change", "change", "parent",
                     "parent", "change"]
    assert [(r["pair"], r["side"], r["first"]) for r in out["runs"]][:4] == [
        (1, "parent", "parent"), (1, "change", "parent"),
        (2, "change", "change"), (2, "parent", "change")]
    assert out["summary"]["run_s"]["change_wins"] == 3
    assert out["summary"]["run_s"]["ratio"] == pytest.approx(0.5)
