"""Training-label generation for vehicles without ground truth.

Labels come from two sources: road-side-unit teachers, which return exact
ground truth for fused objects inside their coverage disc, and the fused
global map itself (the ensemble route).  Combined with federated training
this gives ensemble-distillation federated learning: the whole fleet
learns from its own consensus.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from mapfuse.fedlearn import (
    LabelSet,
    ModelParams,
    ModelSpec,
    SensorFrame,
    TrainConfig,
    predict_fleet,
    run_federated,
)
from mapfuse.fusion import (
    FusionConfig,
    FusionResult,
    LocalMap,
    map_slices,
    three_stage_fuse,
)
from mapfuse.geometry import ObjectState, rows_to_local
from mapfuse.simworld import DetectorNoiseSpec, Scenario, sense_fleet


@dataclass
class RoadSideUnit:
    """A teacher with a circular coverage area and ground-truth access.

    Labels a fused object with the state of the nearest true object,
    provided the object sits inside the disc and a true object lies
    within match_radius of it.  ``lookup`` answers a frame's fused
    centres at once; ``label`` is its one-box form.
    """

    center: tuple[float, float]
    radius: float
    scenario: Scenario
    match_radius: float = 2.0

    def covers(self, state: ObjectState) -> bool:
        x, y = state.center[:2]
        return math.hypot(x - self.center[0], y - self.center[1]) <= self.radius

    def lookup(self, centers: np.ndarray, frame: int) -> np.ndarray:
        """For each (x, y) row of centers, the id of the true object that
        labels it, or -1: one centre x object distance block."""
        covered = np.array([
            math.hypot(x - self.center[0], y - self.center[1]) <= self.radius
            for x, y in centers.tolist()], dtype=bool)
        xy = self.scenario.xy[frame]
        d = np.hypot(xy[:, 0] - centers[:, 0, None],
                     xy[:, 1] - centers[:, 1, None])      # (C, M)
        found = covered & (d.min(axis=1) <= self.match_radius)
        return np.where(found, d.argmin(axis=1), -1)

    def label(self, state: ObjectState, frame: int) -> ObjectState | None:
        best = int(self.lookup(np.array([state.center[:2]]), frame)[0])
        return None if best < 0 else self.scenario.object_state(frame, best)


def full_coverage_registry(scenario: Scenario) -> tuple[RoadSideUnit]:
    """A single omniscient teacher: the perfect-labeling setup."""
    return (RoadSideUnit(center=(0.0, 0.0), radius=1e9, scenario=scenario),)


def distill_labels(
    local_maps: Sequence[LocalMap],
    result: FusionResult,
    frame: int,
    registry: Sequence[RoadSideUnit] = (),
) -> dict[int, LabelSet]:
    """Per-vehicle label sets for one frame.

    Each detection is labeled from its cluster's fused object: either by
    the first teacher in the registry that labels that object (ground
    truth, transformed into the vehicle frame) or by the fused object
    itself.  Each teacher answers the frame's fused centres at once, and
    one row transform moves every vehicle's targets into its frame.
    """
    fused = result.fused_all.vecs
    targets = np.array(fused)                             # (C, 8) rows
    unlabeled = np.ones(len(fused), dtype=bool)
    for teacher in registry:
        found = teacher.lookup(fused[:, 1:3], frame)
        hit = unlabeled & (found >= 0)
        targets[hit] = teacher.scenario.truth_rows(frame, found[hit])
        unlabeled &= ~hit
    clusters = []
    for lm in local_maps:
        labels = result.labels.get(lm.vehicle_id)
        if labels is None or len(labels) != len(lm.detections):
            raise ValueError("cluster labels do not match the local maps")
        clusters += labels
    rows = rows_to_local(targets[clusters], [lm.pose for lm in local_maps],
                         [len(lm.detections) for lm in local_maps]).tolist()
    return {
        lm.vehicle_id: LabelSet(
            frame_time=lm.frame_time,
            labels=tuple(map(ObjectState.from_row, rows[s])))
        for lm, s in zip(local_maps, map_slices(local_maps))
    }


def refine_fleet(
    params: ModelParams,
    sensed: Sequence[tuple[LocalMap, SensorFrame]],
    spec: ModelSpec | None = None,
) -> list[LocalMap]:
    """The fleet's sensed maps, as sense_fleet gives them, with each
    map's detections refined under params by one predict_fleet call."""
    boxes = predict_fleet(params, [sf for _, sf in sensed], spec)
    return [dataclasses.replace(raw, detections=b)
            for (raw, _), b in zip(sensed, boxes)]


class WindowFrame(NamedTuple):
    """One training frame, sensed, refined and fused: the part of a
    distilled dataset that does not depend on the teachers."""

    frame: int
    sensor_frames: list[SensorFrame]
    local_maps: list[LocalMap]
    fused: FusionResult


def fuse_window(
    scenario: Scenario,
    frames: Sequence[int],
    noise: DetectorNoiseSpec,
    params: ModelParams,
    spec: ModelSpec,
    fusion_cfg: FusionConfig,
    sensor_seed: int,
) -> list[WindowFrame]:
    """Sense the fleet at each frame, refine its candidates under params
    and fuse the refined maps: one sense_fleet, one predict_fleet and one
    three_stage_fuse per frame."""
    window = []
    for f in frames:
        sensed = sense_fleet(scenario, f, noise, sensor_seed)
        local_maps = refine_fleet(params, sensed, spec)
        window.append(WindowFrame(f, [sf for _, sf in sensed], local_maps,
                                  three_stage_fuse(local_maps, fusion_cfg)))
    return window


def label_window(window: Sequence[WindowFrame], num_vehicles: int,
                 registry: Sequence[RoadSideUnit] = ()):
    """Each of the fleet's vehicles' distilled dataset: its (SensorFrame,
    LabelSet) pairs, frame after frame, labelled by distill_labels with
    the registry's teachers."""
    datasets = [[] for _ in range(num_vehicles)]
    for w in window:
        labels = distill_labels(w.local_maps, w.fused, w.frame, registry)
        for k, sensor_frame in enumerate(w.sensor_frames):
            datasets[k].append((sensor_frame, labels[k]))
    return datasets


def build_distilled_datasets(
    scenario: Scenario,
    frames: Sequence[int],
    noise: DetectorNoiseSpec,
    params: ModelParams,
    spec: ModelSpec,
    fusion_cfg: FusionConfig,
    sensor_seed: int,
    registry: Sequence[RoadSideUnit] = (),
):
    """Sense, fuse and label the given frames for every vehicle: one list
    of (SensorFrame, LabelSet) pairs per vehicle, label_window over
    fuse_window's frames.  A caller that labels one window with several
    teacher sets calls the two itself."""
    return label_window(fuse_window(scenario, frames, noise, params, spec,
                                    fusion_cfg, sensor_seed),
                        scenario.num_vehicles, registry)


def run_edfl(
    scenario: Scenario,
    frames: Sequence[int],
    noise: DetectorNoiseSpec,
    init: ModelParams,
    train_cfg: TrainConfig,
    fusion_cfg: FusionConfig | None = None,
    spec: ModelSpec | None = None,
    sensor_seed: int = 0,
    registry: Sequence[RoadSideUnit] = (),
    window: Sequence[WindowFrame] | None = None,
) -> ModelParams:
    """Ensemble-distillation federated learning over a training window.

    Labels come from the fused global map, overridden by any covering
    teachers; with a full-coverage registry this reduces to perfectly
    labeled federated training.  window, when given, is fuse_window's
    output for the same frames, noise, init, spec, fusion_cfg and
    sensor_seed, which several variants can share; only its labelling
    and the training are then left to do.  A ValueError when the
    window's frames are not frames.
    """
    spec = spec or ModelSpec()
    fusion_cfg = fusion_cfg or FusionConfig()
    if window is None:
        window = fuse_window(scenario, frames, noise, init, spec, fusion_cfg,
                             sensor_seed)
    elif [w.frame for w in window] != list(frames):
        raise ValueError("window does not hold the given frames")
    datasets = label_window(window, scenario.num_vehicles, registry)
    return run_federated(datasets, init, train_cfg, spec, base_seed=sensor_seed)


def run_perfect_fl(
    scenario: Scenario,
    frames: Sequence[int],
    noise: DetectorNoiseSpec,
    init: ModelParams,
    train_cfg: TrainConfig,
    fusion_cfg: FusionConfig | None = None,
    spec: ModelSpec | None = None,
    sensor_seed: int = 0,
    window: Sequence[WindowFrame] | None = None,
) -> ModelParams:
    """Federated training with perfect teacher labels everywhere; window
    as run_edfl takes it."""
    return run_edfl(scenario, frames, noise, init, train_cfg, fusion_cfg, spec,
                    sensor_seed, registry=full_coverage_registry(scenario),
                    window=window)
