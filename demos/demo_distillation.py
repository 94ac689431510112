"""Label generation without ground truth: teachers and the ensemble.

When no annotations exist, labels for federated training come from two
sources: a road-side unit that knows the truth inside its coverage disc,
and the fused global map, which acts as an ensemble teacher everywhere
else.  With full-coverage teachers the procedure collapses to perfect
supervised federated learning; this script shows both and measures how
close the distilled run gets.
"""

import numpy as np

from mapfuse import (
    DetectorNoiseSpec,
    RoadSideUnit,
    ScenarioConfig,
    TrainConfig,
    default_init_params,
    distill_labels,
    full_coverage_registry,
    generate_scenario,
    run_edfl,
    run_perfect_fl,
    sense,
    three_stage_fuse,
)

noise = DetectorNoiseSpec(
    miss_prob=0.05,
    center_sigma=0.08,
    extent_sigma=0.04,
    yaw_sigma=0.03,
    bias=(0.2, 0.15, 0.0, -0.25, -0.1, 0.0, 0.03),
    score_sigma=0.5,
)

scenario = generate_scenario(ScenarioConfig(duration=10.0), seed=1)
frames = list(range(0, scenario.num_frames, 8))

# One road-side unit parked at the crossing.
rsu = RoadSideUnit(center=(0.0, 0.0), radius=60.0, scenario=scenario)
registry = (rsu,)

# Look at the label mix late in the run, when the platoon has reached
# the teacher's coverage disc.
f = frames[-3]
maps = [sense(scenario, k, f, noise, seed=0)[0]
        for k in range(scenario.num_vehicles)]
result = three_stage_fuse(maps)
label_sets = distill_labels(maps, result, f, registry=registry)

total = labeled = covered = 0
for lm in maps:
    for det, label in zip(lm.detections, label_sets[lm.vehicle_id].labels):
        total += 1
        if label is not None:
            labeled += 1
for state, _ in result.global_map.objects:
    if rsu.covers(state):
        covered += 1
print(f"frame {f}: {total} detections, {labeled} labeled after distillation")
print(f"teacher disc covers {covered}/{len(result.global_map.objects)} "
      f"fused objects; the rest fall back to ensemble labels")

# Train three ways from the same starting point.
init = default_init_params()
cfg = TrainConfig()

perfect = run_perfect_fl(scenario, frames, noise, init, cfg, sensor_seed=0)
edfl = run_edfl(scenario, frames, noise, init, cfg, sensor_seed=0,
                registry=registry)
collapsed = run_edfl(scenario, frames, noise, init, cfg, sensor_seed=0,
                     registry=full_coverage_registry(scenario))

gap_edfl = np.max(np.abs(edfl.values - perfect.values))
gap_full = np.max(np.abs(collapsed.values - perfect.values))
print(f"\nmax-norm distance to the perfect-FL parameters:")
print(f"  one road-side teacher + ensemble: {gap_edfl:.4f}")
print(f"  full-coverage teachers:           {gap_full:.1e} "
      f"(exact collapse)")
