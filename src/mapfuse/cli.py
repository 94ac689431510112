"""Command-line front end.

Subcommands cover the whole pipeline: scenario generation, federated
training, one-shot fusion of stored local maps, evaluation runs and the
full benchmark.  Exit codes: 0 success, 1 usage error, 2 invalid
configuration or input (InputError, ConfigError, CodecError) or a file
that cannot be opened, 3 any other failure, which is a fault in the
program and prints its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

from mapfuse.fedlearn import default_init_params, save_checkpoint
from mapfuse.fusion import (
    FUSE_RULES,
    global_map_to_json,
    global_map_to_kitti,
    local_map_from_json,
)
from mapfuse.evalbench import EvalReport
from mapfuse.geometry import InputError
from mapfuse.orchestrator import (
    METHODS,
    CodecError,
    ConfigError,
    RunConfig,
    run_config_from_dict,
    run_experiment,
    train_params,
    training_frames,
)
from mapfuse.simworld import generate_scenario, scenario_to_jsonl

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _load_config(args) -> RunConfig:
    payload = {}
    if args.config:
        try:
            payload = json.loads(_read_text(args.config))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
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
    params = train_params(args.method, cfg, scenario,
                          training_frames(cfg.scenario, cfg.train),
                          default_init_params())
    save_checkpoint(params, args.out)
    return EXIT_OK


def _cmd_fuse(args) -> int:
    cfg = _load_config(args)
    local_maps = []
    for number, line in enumerate(_read_text(args.input).split("\n"), 1):
        if not line.strip():
            continue
        try:
            local_maps.append(local_map_from_json(line))
        except InputError as exc:
            raise InputError(f"line {number}: {exc}") from None
    if not local_maps:
        raise InputError("no local maps in input")
    result = FUSE_RULES[args.method](local_maps, cfg.fusion)
    if args.format == "kitti":
        text = "\n".join(global_map_to_kitti(result.global_map)) + "\n"
    else:
        text = global_map_to_json(result.global_map) + "\n"
    _write(args.out, text)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    report = run_experiment(_load_config(args))
    if args.out and args.out.endswith(".csv"):
        _write(args.out, report.to_csv())
    else:
        _write(args.out, report.to_json())
    return EXIT_OK


def _cmd_report(args) -> int:
    report = EvalReport.from_json(_read_text(args.input))
    _write(args.out, report.to_radar_csv())
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = run_experiment(_load_config(args))
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

    def common(p, seed=True, out_required=False):
        p.add_argument("--config", help="JSON configuration file")
        if seed:
            p.add_argument("--seed", type=int, help="scenario seed override")
        p.add_argument("--out", required=out_required, help="output path"
                       + ("" if out_required else " (default: stdout)"))

    p = sub.add_parser("simulate", help="generate a scenario as JSONL")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="federated training to a checkpoint")
    common(p, out_required=True)
    # The method table's trained parameter sets, in its order.
    p.add_argument("--method", default="edfl", choices=list(dict.fromkeys(
        m.params for m in METHODS.values() if m.params != "none")))
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fuse", help="fuse one frame of stored local maps")
    common(p, seed=False)
    p.add_argument("input", help="local maps, one JSON object per line")
    p.add_argument("--method", choices=sorted(FUSE_RULES),
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
    try:
        return args.func(args)
    except (InputError, ConfigError, CodecError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
