"""Per-stage wall time of one benchmark experiment.

Wraps each stage function in STAGES wherever a mapfuse module holds it,
runs run_experiment(default_benchmark_config(seed)) once and prints JSON:
per stage its inclusive wall seconds and call count, the whole run's
seconds, and the report's sha256, which shows that the wrapping changed
no byte.  A stage the checked-out code does not define is left out, so
one script times two versions of the program side by side.

    PYTHONPATH=src python tools/stage_times.py --seed 0
    PYTHONPATH=src python tools/stage_times.py --duration 2   # a short run
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

import mapfuse  # noqa: F401  (loads every mapfuse module)
from mapfuse import orchestrator

# Visibility, sensing, the moves into vehicle frames that sensing and
# distillation make (rows_to_local), refinement and IoU scoring
# (overlap_sets is the chunk form of overlap_rows), then the rest of the
# frame loop and training, then the edge server's path inside run_frame
# and fuse_window: the codec, association, the fusion frame (the rules
# call _fuse_frame by its module name) and pruning.
STAGES = (
    "visible_objects", "sense_fleet", "rows_to_local", "refine_fleet",
    "overlap_rows", "overlap_sets", "_global_boxes", "run_frame",
    "greedy_assign", "tag_objects", "fuse_window", "train_params",
    "encode_message", "_decode_blobs", "_fuse_frame", "cluster_detections",
    "prune_overlaps",
)


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "mapfuse" or name.startswith("mapfuse.")]


def install(stages, seconds: dict, calls: dict) -> list:
    """Rebind each stage's function, in every mapfuse module that holds
    it, to a wrapper that adds its wall time and calls; returns the
    (module, name, original) triples that undo it."""
    undo = []
    for name in stages:
        owners = [m for m in _modules()
                  if getattr(getattr(m, name, None), "__module__", None)
                  == m.__name__]
        for fn in {id(getattr(m, name)): getattr(m, name)
                   for m in owners}.values():
            def timed(*args, _fn=fn, _name=name, **kwargs):
                start = time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    seconds[_name] += time.perf_counter() - start
                    calls[_name] += 1

            seconds[name], calls[name] = 0.0, 0
            for m in _modules():
                if vars(m).get(name) is fn:
                    undo.append((m, name, fn))
                    setattr(m, name, timed)
    return undo


def benchmark_config(seed: int = 0, duration: float | None = None):
    """The benchmark configuration, its scenario cut to duration seconds
    (the first half for training) when one is given."""
    cfg = orchestrator.default_benchmark_config(seed)
    if duration is None:
        return cfg
    return dataclasses.replace(
        cfg, scenario=dataclasses.replace(cfg.scenario, duration=duration),
        train=dataclasses.replace(cfg.train,
                                  train_window=(0.0, duration / 2)))


def stage_times(seed: int = 0, duration: float | None = None) -> dict:
    """One timed run_experiment of benchmark_config(seed, duration)."""
    cfg = benchmark_config(seed, duration)
    seconds, calls = {}, {}
    undo = install(STAGES, seconds, calls)
    try:
        start = time.perf_counter()
        report = orchestrator.run_experiment(cfg)
        total = time.perf_counter() - start
    finally:
        for m, name, fn in undo:
            setattr(m, name, fn)
    return {
        "seed": seed,
        "run_s": total,
        "stages": {name: {"s": seconds[name], "calls": calls[name]}
                   for name in seconds},
        "report_sha256": hashlib.sha256(
            report.to_json().encode()).hexdigest(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario seed of the benchmark configuration")
    parser.add_argument("--duration", type=float, default=None,
                        help="cut the scenario to this many seconds")
    args = parser.parse_args(argv)
    print(json.dumps(stage_times(args.seed, args.duration), indent=2))


if __name__ == "__main__":
    main()
