"""Command-line front end.

Subcommands cover the whole pipeline: scenario generation, federated
training, one-shot fusion of stored local maps, evaluation runs and the
full benchmark.  Exit codes: 0 success, 1 usage error, 2 invalid
configuration or input, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from mapfuse.fedlearn import default_init_params, save_checkpoint
from mapfuse.fusion import (
    baseline_max_score_fuse,
    baseline_mean_fuse,
    global_map_to_json,
    global_map_to_kitti,
    local_map_from_json,
    three_stage_fuse,
)
from mapfuse.distill import run_edfl, run_perfect_fl
from mapfuse.evalbench import EvalReport
from mapfuse.orchestrator import (
    ConfigError,
    RunConfig,
    build_teacher_registry,
    run_config_from_dict,
    run_experiment,
    training_frames,
)
from mapfuse.simworld import generate_scenario, scenario_to_jsonl

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_FUSE_RULES = {
    "three_stage": three_stage_fuse,
    "mean": baseline_mean_fuse,
    "max_score": baseline_max_score_fuse,
}


def _load_config(args) -> RunConfig:
    payload = {}
    if args.config:
        with open(args.config) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = run_config_from_dict(payload)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scenario = generate_scenario(cfg.scenario, cfg.seed)
    _write(args.out, scenario_to_jsonl(scenario))
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    scenario = generate_scenario(cfg.scenario, cfg.seed)
    frames = training_frames(cfg.scenario, cfg.train)
    init = default_init_params()
    if args.method == "perfect_fl":
        params = run_perfect_fl(
            scenario, frames, cfg.noise, init, cfg.train, cfg.fusion,
            sensor_seed=cfg.sensor_seed,
        )
    else:
        params = run_edfl(
            scenario, frames, cfg.noise, init, cfg.train, cfg.fusion,
            sensor_seed=cfg.sensor_seed,
            registry=build_teacher_registry(cfg, scenario),
        )
    save_checkpoint(params, args.out)
    return EXIT_OK


def _cmd_fuse(args) -> int:
    cfg = _load_config(args)
    with open(args.input) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError("no local maps in input")
    local_maps = [local_map_from_json(line) for line in lines]
    times = {lm.frame_time for lm in local_maps}
    if len(times) != 1:
        raise ValueError("local maps must all belong to one frame")
    result = _FUSE_RULES[args.method](local_maps, cfg.fusion)
    if args.format == "kitti":
        text = "\n".join(global_map_to_kitti(result.global_map)) + "\n"
    else:
        text = global_map_to_json(result.global_map) + "\n"
    _write(args.out, text)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    if args.out and args.out.endswith(".csv"):
        _write(args.out, report.to_csv())
    else:
        _write(args.out, report.to_json())
    return EXIT_OK


def _cmd_report(args) -> int:
    with open(args.input) as fh:
        report = EvalReport.from_json(fh.read())
    _write(args.out, report.to_radar_csv())
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    _write(args.out, report.to_json())
    if args.out:
        sys.stdout.write(report.to_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmf",
        description="Cooperative dynamic map fusion toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON configuration file")
        if seed:
            p.add_argument("--seed", type=int, help="scenario seed override")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("simulate", help="generate a scenario as JSONL")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="federated training to a checkpoint")
    common(p)
    p.add_argument("--method", choices=["perfect_fl", "edfl"],
                   default="edfl")
    p.set_defaults(func=_cmd_train)
    p.set_defaults(need_out=True)

    p = sub.add_parser("fuse", help="fuse one frame of stored local maps")
    common(p, seed=False)
    p.add_argument("input", help="local maps, one JSON object per line")
    p.add_argument("--method", choices=sorted(_FUSE_RULES),
                   default="three_stage")
    p.add_argument("--format", choices=["jsonl", "kitti"], default="jsonl")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("evaluate", help="run the test window, write a report")
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="convert a report to radar-plot CSV")
    p.add_argument("input", help="report JSON file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("bench", help="full eight-method benchmark")
    common(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return EXIT_USAGE
        return EXIT_OK
    if getattr(args, "need_out", False) and not args.out:
        sys.stderr.write("error: this command requires --out\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
