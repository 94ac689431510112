"""The benchmark's workloads: set-up, timed operations, output checks.

Every workload is single-process, single-threaded and closed-loop: one
caller, and the next operation starts when the previous one returns.  The
system is driven only through public mapfuse functions.

- ``experiment``: one ``run_experiment`` of the standard benchmark.
- ``edge_fusion``: ``run_frame`` on pre-sensed local maps of a crowded
  crossing, one frame per operation.

The workload seed draws the detector noise (``RunConfig.sensor_seed``).
The crossing itself is scenario seed 0, the ROADMAP's reference: the work
in one scenario differs by up to 60% between scenario seeds, which would
swamp any regression bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from mapfuse import distill, fedlearn, fusion, orchestrator, simworld
from mapfuse.evalbench import Accumulator, EvalReport, tag_objects
from mapfuse.fusion import LocalMap
from mapfuse.geometry import transform_to_global
from mapfuse.orchestrator import (
    METHOD_NAMES,
    ByteLedger,
    MessageKind,
    default_benchmark_config,
    testing_frames,
    training_frames,
)

from tracer import Rebinder, short_name

# Wire format: 16-byte header plus 4-byte count per message, and 66 bytes
# (uint16 category, 8 float64 box fields and score) per box.
MESSAGE_OVERHEAD = 20
BOX_BYTES = 66
NUM_PARAMS = 143

SCENARIO_SEED = 0
AP_METHODS = ("fusion_three_stage", "fusion_edfl", "local_edfl")
EDGE_FRAMES = 200
EDGE_SCENARIO = simworld.ScenarioConfig(num_vehicles=10, num_objects=80)


def workload_config(seed: int):
    """The standard benchmark configuration with noise drawn from seed."""
    return dataclasses.replace(
        default_benchmark_config(SCENARIO_SEED), sensor_seed=seed
    )


def wire_bytes(detections_per_vehicle, broadcast_boxes: int) -> int:
    """Closed-form bytes of one frame: K uploads plus one broadcast."""
    return (
        sum(MESSAGE_OVERHEAD + BOX_BYTES * n for n in detections_per_vehicle)
        + MESSAGE_OVERHEAD + BOX_BYTES * broadcast_boxes
    )


def _finite_boxes(objects) -> bool:
    return all(
        math.isfinite(score)
        and all(math.isfinite(v) for v in (*s.center, *s.extents, s.yaw))
        for s, score in objects
    )


def _check_params(params) -> list[str]:
    values = np.asarray(params.values)
    if values.size != NUM_PARAMS:
        return [f"trained params have {values.size} entries"]
    if not np.all(np.isfinite(values)):
        return ["trained params are not finite"]
    return []


def _check_frame(local_maps, gmap, nbytes) -> list[str]:
    errors = []
    expected = wire_bytes([len(lm.detections) for lm in local_maps],
                          len(gmap.objects))
    if nbytes != expected:
        errors.append(f"frame bytes {nbytes} != closed form {expected}")
    if not _finite_boxes(gmap.objects):
        errors.append("broadcast map holds a non-finite box")
    return errors


class Intercept:
    """Records each call that ``module`` makes to its global ``name``.

    Used as a context manager around one operation.  Installed after the
    tracer, it wraps the traced function, so the two compose.
    """

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.calls: list[tuple[float, tuple, dict, object]] = []
        self._rebinder = Rebinder()

    def __enter__(self):
        target = getattr(self.module, self.name)
        calls, clock = self.calls, time.perf_counter

        def make(_consumer):
            def recorded(*args, **kwargs):
                start = clock()
                out = target(*args, **kwargs)
                calls.append((clock() - start, args, kwargs, out))
                return out
            return recorded

        self._rebinder.replace(target, make,
                               consumers={short_name(self.module)})
        return self

    def __exit__(self, *exc):
        self._rebinder.undo()
        return False


@dataclass
class OpResult:
    """The checked outcome of one timed operation."""

    digest: str
    errors: list[str] = field(default_factory=list)
    # Edge-server frame latencies inside the operation, in seconds.
    frame_s: list[float] = field(default_factory=list)
    wire_bytes: int = 0
    frames: int = 0
    keep: object = None


class Workload:
    name = ""
    # Set-ups per run; setup_s is their median.
    setup_repeats = 3

    def setup(self, seed: int):
        raise NotImplementedError

    def operations(self, state):
        """Zero-argument callables, one per timed operation."""
        raise NotImplementedError

    def check(self, state, raw, seconds: float) -> OpResult:
        """Check one operation's raw output, outside the timed part."""
        raise NotImplementedError

    def ap(self, state, results: list[OpResult]) -> dict[str, float]:
        raise NotImplementedError


class Experiment(Workload):
    """The ROADMAP's end-to-end unit and the work behind ``dmf bench``."""

    name = "experiment"

    def setup(self, seed):
        return workload_config(seed)

    def operations(self, cfg):
        return [lambda: self._run(cfg)]

    @staticmethod
    def _run(cfg):
        with Intercept(orchestrator, "run_frame") as frames, \
                Intercept(orchestrator, "run_perfect_fl") as perfect, \
                Intercept(orchestrator, "run_edfl") as edfl:
            report = orchestrator.run_experiment(cfg)
        return report, frames.calls, perfect.calls + edfl.calls

    def check(self, cfg, raw, seconds):
        report, frame_calls, train_calls = raw
        text = report.to_json()
        three = report.methods.get("fusion_three_stage")
        result = OpResult(
            digest=hashlib.sha256(text.encode()).hexdigest(),
            frame_s=[c[0] for c in frame_calls],
            frames=len(report.frames),
            wire_bytes=three.bytes_sent if three else 0,
            keep=report,
        )
        errors = result.errors
        if set(report.methods) != set(METHOD_NAMES):
            errors.append(f"report methods {sorted(report.methods)}")
        for m in report.methods.values():
            for ap in (*m.ap.values(), *m.per_vehicle_ap.values()):
                if ap is not None and not 0.0 <= ap <= 1.0:
                    errors.append(f"{m.name}: AP {ap} outside [0, 1]")
        if EvalReport.from_json(text).to_json() != text:
            errors.append("report does not round-trip through from_json")
        if len(train_calls) != 2:
            errors.append(f"{len(train_calls)} trained models, not 2")
        for *_, params in train_calls:
            errors.extend(_check_params(params))
        for _, _, kwargs, (gmap, nbytes) in frame_calls:
            errors.extend(_check_frame(kwargs["local_maps"], gmap, nbytes))
        return result

    def ap(self, cfg, results):
        report = results[-1].keep
        return {m: report.methods[m].ap["overall"] for m in AP_METHODS}


@dataclass
class EdgeState:
    cfg: object
    scenario: object
    frames: list[int]
    sensed: dict
    local_maps: dict
    init: object


class EdgeFusion(Workload):
    """The edge server's per-frame path on a crowded crossing."""

    name = "edge_fusion"
    # Each set-up senses 2,000 vehicle-frames (12-16 s); a third would
    # cost about as much as the run's whole measuring window.
    setup_repeats = 2

    def setup(self, seed):
        cfg = workload_config(seed)
        scenario = simworld.generate_scenario(EDGE_SCENARIO, cfg.seed)
        frames = testing_frames(EDGE_SCENARIO, cfg.train)[:EDGE_FRAMES]
        spec = fedlearn.ModelSpec()
        init = fedlearn.default_init_params(spec)
        sensed, local_maps = {}, {}
        for f in frames:
            sensed[f] = [
                simworld.sense(scenario, k, f, cfg.noise, cfg.sensor_seed)
                for k in range(scenario.num_vehicles)
            ]
            local_maps[f] = [
                LocalMap(k, raw.frame_time,
                         tuple(fedlearn.predict(init, sf, spec)), raw.pose)
                for k, (raw, sf) in enumerate(sensed[f])
            ]
        return EdgeState(cfg, scenario, frames, sensed, local_maps, init)

    def operations(self, state):
        return [lambda f=f: self._run(state, f) for f in state.frames]

    @staticmethod
    def _run(state, f):
        cfg, ledger = state.cfg, ByteLedger()
        gmap, nbytes = orchestrator.run_frame(
            state.scenario, f, cfg.noise, state.init, cfg.fusion,
            sensor_seed=cfg.sensor_seed, ledger=ledger,
            local_maps=state.local_maps[f], fuse_fn=fusion.three_stage_fuse,
        )
        return f, gmap, nbytes, ledger

    def check(self, state, raw, seconds):
        f, gmap, nbytes, ledger = raw
        result = OpResult(
            digest=hashlib.sha256(repr((nbytes, gmap)).encode()).hexdigest(),
            frame_s=[seconds],
            frames=1,
            wire_bytes=nbytes,
        )
        result.errors.extend(_check_frame(state.local_maps[f], gmap, nbytes))
        kinds = {MessageKind.LOCAL_MAP_UPLOAD, MessageKind.GLOBAL_MAP_BROADCAST}
        if ledger.total != nbytes or set(ledger.per_kind) != kinds:
            result.errors.append("ledger disagrees with run_frame's bytes")
        return result

    def ap(self, state, results):
        cfg = state.cfg
        # The fleet's trained detector: EDFL on the standard crossing.
        base = simworld.generate_scenario(cfg.scenario, cfg.seed)
        edfl = distill.run_edfl(
            base, training_frames(cfg.scenario, cfg.train), cfg.noise,
            state.init, cfg.train, cfg.fusion, fedlearn.ModelSpec(),
            cfg.sensor_seed,
            registry=orchestrator.build_teacher_registry(cfg, base),
        )
        return probe_ap(state.scenario, state.sensed, cfg, state.init, edfl)


def probe_ap(scenario, sensed, cfg, init, edfl) -> dict[str, float]:
    """Overall AP of the three guarded methods on pre-sensed frames.

    Scored as ``run_experiment`` scores them: fused maps against every
    object the fleet sees, each vehicle's own map against what that
    vehicle sees.
    """
    spec = fedlearn.ModelSpec()
    fused = {"fusion_three_stage": (init, Accumulator()),
             "fusion_edfl": (edfl, Accumulator())}
    local = Accumulator()
    for f, frame_sensed in sensed.items():
        tags, density = tag_objects(scenario, f)
        truths = [scenario.object_state(f, t.object_id) for t in tags]
        for params, acc in fused.values():
            maps = [
                LocalMap(k, raw.frame_time,
                         tuple(fedlearn.predict(params, sf, spec)), raw.pose)
                for k, (raw, sf) in enumerate(frame_sensed)
            ]
            gmap, _ = orchestrator.run_frame(
                scenario, f, cfg.noise, params, cfg.fusion,
                local_maps=maps, fuse_fn=fusion.three_stage_fuse,
            )
            acc.add_frame(list(gmap.objects), truths, tags, density)
        for k, (raw, sf) in enumerate(frame_sensed):
            vtags, vdensity = tag_objects(scenario, f, vehicles=[k])
            vtruths = [scenario.object_state(f, t.object_id) for t in vtags]
            preds = [(transform_to_global(d.state, raw.pose), d.score)
                     for d in fedlearn.predict(edfl, sf, spec)]
            local.add_frame(preds, vtruths, vtags, vdensity)
    out = {name: acc.results()["overall"] for name, (_, acc) in fused.items()}
    out["local_edfl"] = local.results()["overall"]
    return out


WORKLOADS = {w.name: w for w in (Experiment(), EdgeFusion())}
