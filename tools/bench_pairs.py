"""Alternating benchmark pairs of two checkouts, and their summary.

Runs ``bench/run.py --workload W --seed S --seconds T`` from two
repository roots in turn, PAIRS times each: the parent first in odd
pairs, the change first in even ones, so that a drift in the host's speed
falls on both sides alike.  Prints JSON with every run's ``info`` and
result lines and, per end-to-end metric of the change's BENCHMARK.json,
each side's median and quartiles, the ratio change / parent, the
parent's interquartile range, the gap between the medians and the pairs
the change won or tied.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload edge_fusion --seed 0 --pairs 10 --out pairs.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run from root: its exit status, wall time and its
    info and result lines (None when it printed none)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    return {
        "exit": proc.returncode,
        "wall_s": time.perf_counter() - start,
        "info": next((line["info"] for line in lines if "info" in line),
                     None),
        "result": next((line for line in lines if "metrics" in line), None),
    }


def _spread(values: list[float]) -> dict:
    """Median and inclusive quartiles of values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]], better: dict) -> dict:
    """Per metric of better ("lower" or "higher"), over (parent, change)
    pairs of {metric: value}: each side's median and quartiles, the ratio
    of the medians, the parent's IQR, median_gap (how far the change's
    median is better than the parent's; negative when it is worse), and
    the pairs in which the change was better (change_wins) or equal
    (ties).  A metric missing from a pair's run is left out of it."""
    summary = {}
    for name, direction in better.items():
        both = [(p[name], c[name]) for p, c in pairs
                if name in p and name in c]
        if not both:
            continue
        parent = _spread([p for p, _ in both])
        change = _spread([c for _, c in both])
        sign = 1.0 if direction == "lower" else -1.0
        summary[name] = {
            "parent": parent,
            "change": change,
            "ratio": (change["median"] / parent["median"]
                      if parent["median"] else None),
            "parent_iqr": parent["q3"] - parent["q1"],
            "median_gap": sign * (parent["median"] - change["median"]),
            "change_wins": sum(sign * (p - c) > 0.0 for p, c in both),
            "ties": sum(p == c for p, c in both),
            "pairs": len(both),
        }
    return summary


def _metrics(run: dict) -> dict:
    result = run["result"] or {"metrics": {}}
    return {name: m["value"] for name, m in result["metrics"].items()}


def bench_pairs(parent: Path, change: Path, workload: str, seed: int,
                pairs: int, seconds: float) -> dict:
    """PAIRS alternating runs of each root; see the module docstring."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs, metric_pairs = [], []
    for pair in range(1, pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        done = {}
        for side in order:
            run = run_once(parent if side == "parent" else change,
                           workload, seed, seconds)
            run.update(workload=workload, seed=seed, pair=pair, side=side,
                       first=order[0])
            runs.append(run)
            done[side] = _metrics(run)
            print(f"pair {pair} {side}: exit {run['exit']}, "
                  f"{run['wall_s']:.1f} s", file=sys.stderr)
        metric_pairs.append((done["parent"], done["change"]))
    return {
        "command": f"python3 bench/run.py --workload {workload} "
                   f"--seed {seed} --seconds {seconds:g}",
        "summary": summarize(metric_pairs, better),
        "runs": runs,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent repository root")
    parser.add_argument("change", type=Path, help="changed repository root")
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "edge_fusion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the JSON to this file")
    args = parser.parse_args(argv)
    text = json.dumps(bench_pairs(args.parent, args.change, args.workload,
                                  args.seed, args.pairs, args.seconds),
                      indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
