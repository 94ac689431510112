import hashlib
import json
import sys
from pathlib import Path

from mapfuse import distill, evalbench, orchestrator, simworld


def test_stage_times_times_every_stage_and_changes_no_byte(monkeypatch,
                                                          capsys):
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    bound = [(m, name, getattr(m, name)) for m, name in [
        (simworld, "visible_objects"), (simworld, "sense_fleet"),
        (distill, "refine_fleet"), (orchestrator, "refine_fleet"),
        (evalbench, "overlap_sets"), (orchestrator, "overlap_sets"),
        (orchestrator, "run_frame")]]
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
    for name in ("visible_objects", "sense_fleet", "refine_fleet",
                 "overlap_sets", "_global_boxes", "run_frame",
                 "greedy_assign", "tag_objects", "fuse_window",
                 "train_params"):
        assert stages[name]["calls"] > 0 and stages[name]["s"] > 0.0, name
    assert stages["run_frame"]["calls"] == 5 * len(report.frames)
    assert 0.0 < stages["train_params"]["s"] < out["run_s"]
