"""Self-test of the benchmark's tracer and checks.

    python3 bench/selftest.py [--seed 0]

Runs one untraced and one traced pass of every workload and fails (exit
1) unless, on each workload:

- every mapfuse reference to a traced function was rebound (the tracer
  refuses to run otherwise) and the traced output is byte-identical to
  the untraced one;
- each layer has spans on the workloads whose end-to-end metrics it
  should move, and ``evalbench.*`` and ``fedlearn.local_train`` never run
  on ``edge_fusion``;
- every output check passes.

It then prints how the per-layer counts differ from the seed-0 baseline
in ``bench/counts_seed0.json``; a difference is reported, not failed,
since changing counts is what a later optimisation may set out to do.
"""

import argparse
import json
import sys
from pathlib import Path

import run

BASELINE = Path(__file__).resolve().parent / "counts_seed0.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    baseline = json.loads(BASELINE.read_text())
    ok = True
    for name in ("experiment", "edge_fusion"):
        result, info = run.run(name, args.seed, 0.0, True, setup_repeats=1)
        status = "PASS" if result["correct"] else "FAIL"
        ok = ok and result["correct"]
        print(f"{status} {name}: {result['attempted']} operations, "
              f"{len(info['rebound_sites'])} rebound sites, "
              f"output sha256 {info['output_sha256']}")
        for error in info["errors"]:
            print(f"    {error}")
        if args.seed != 0:
            continue
        counts = {k: v["value"] for k, v in result["metrics"].items()
                  if v["unit"] != "s"}
        for key, expected in baseline[name].items():
            if counts.get(key) != expected:
                print(f"    count {key}: {counts.get(key)} "
                      f"(baseline {expected})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
