"""Run one workload of the mapfuse benchmark and print its metrics.

    python3 bench/run.py --workload experiment --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of one traced run (see
``bench/README.md``).  The line before it is an ``info`` object with the
output digests, raw samples and the machine description.
"""

import os

# Pin the BLAS / OpenMP pools before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402


def load_program(root: Path):
    """Import mapfuse from ``root/src``; exit 1 when it is not there."""
    package = root / "src" / "mapfuse"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no mapfuse package under {root / 'src'}; "
                 "run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import mapfuse

    if Path(mapfuse.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported mapfuse from {mapfuse.__file__}")


def import_seconds(root: Path) -> float:
    """Wall time for a fresh interpreter to start and import mapfuse."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import mapfuse"], check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    return time.perf_counter() - start


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_pass(workload, state):
    """Run every operation once; returns (results, timed seconds)."""
    from workloads import OpResult

    results, seconds = [], 0.0
    clock = time.perf_counter
    for op in workload.operations(state):
        start = clock()
        try:
            raw = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(OpResult("", [f"operation raised {exc!r}"]))
            continue
        elapsed = clock() - start
        seconds += elapsed
        results.append(workload.check(state, raw, elapsed))
    return results, seconds


def measure(workload, state, seconds: float):
    """Repeat passes while the next is expected to end within ``seconds``.

    Runs at least one pass, and judges the next pass by the last one.
    """
    passes, pass_s = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results, elapsed = run_pass(workload, state)
        passes.append(results)
        pass_s.append(elapsed)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes, pass_s


def digests(results) -> list[str]:
    return [r.digest for r in results]


def output_sha256(results) -> str:
    """The operation's digest, or one over a multi-operation pass."""
    if len(results) == 1:
        return results[0].digest
    return hashlib.sha256("".join(digests(results)).encode()).hexdigest()


def end_to_end(workload, state, pass_s, setup_s, ops):
    frame_s = [s for r in ops for s in r.frame_s] or [0.0]
    frames = max(sum(r.frames for r in ops), 1)
    # Upper percentiles, not centres: on a shared host whose speed switches
    # between two modes for seconds at a time, a run's median or mean
    # measures how long it spent in each mode, while an upper percentile
    # lands in the slow mode in every run.
    metrics = {
        "setup_s": setup_s,
        "run_s": float(numpy.percentile(pass_s, 90)),
        "frame_p95_ms": float(numpy.percentile(frame_s, 95)) * 1e3,
        "wire_bytes_per_frame": sum(r.wire_bytes for r in ops) / frames,
        "success_rate": sum(not r.errors for r in ops) / len(ops),
    }
    good = [r for r in ops if not r.errors]
    for method, ap in workload.ap(state, good).items():
        metrics[f"ap.{method}"] = ap
    # Read last, so the AP probe's memory counts too.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return metrics, frame_s


def traced_pass(workload, state, untraced, untraced_s):
    """One more pass under the tracer.

    Returns its per-layer metrics, its results, the trace checks' errors
    and the rebound sites.
    """
    from tracer import Tracer, coverage_errors, layer_metrics

    tracer = Tracer()
    with tracer:
        results, elapsed = run_pass(workload, state)
    errors = coverage_errors(workload.name, tracer)
    if digests(results) != digests(untraced):
        errors.append("traced output differs from untraced output")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = elapsed - statistics.fmean(untraced_s)
    return metrics, results, errors, tracer.sites


def select(spec_metrics, values) -> dict:
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int | None = None):
    """Set up, measure and check one workload; returns (result, info)."""
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    load_program(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    # One set-up is a fresh interpreter importing mapfuse plus the
    # workload's own set-up; setup_s is the median of several.
    setup_runs, state = [], None
    for _ in range(setup_repeats or workload.setup_repeats):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        imported = import_seconds(root)
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_runs.append(imported + time.perf_counter() - start)
    setup_s = statistics.median(setup_runs)

    passes, pass_s = measure(workload, state, seconds)
    ops = [r for results in passes for r in results]
    # Every pass must reproduce the first pass's outputs exactly.
    errors = [f"pass {n} output differs from pass 0"
              for n, results in enumerate(passes)
              if digests(results) != digests(passes[0])]
    info = {
        "workload": workload_name,
        "seed": seed,
        "machine": machine(),
        "setup_runs_s": setup_runs,
        "run_s_samples": pass_s,
        "output_sha256": output_sha256(passes[0]),
    }
    if trace:
        values, traced, trace_errors, sites = traced_pass(
            workload, state, passes[0], pass_s
        )
        ops += traced
        errors += trace_errors
        info["rebound_sites"] = sites
        metrics = select(spec["per_layer"], values)
    else:
        values, frame_s = end_to_end(
            workload, state, pass_s, setup_s, ops
        )
        info["frame_samples"] = len(frame_s)
        info["frame_p50_ms"] = float(numpy.percentile(frame_s, 50)) * 1e3
        info["frame_mean_ms"] = statistics.fmean(frame_s) * 1e3
        metrics = select(spec["end_to_end"], values)
    errors += [e for r in ops for e in r.errors]
    info["errors"] = errors[:20]
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r.errors),
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "edge_fusion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
