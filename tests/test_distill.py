import itertools
import math

import numpy as np
import pytest

from mapfuse.distill import (
    RoadSideUnit,
    distill_labels,
    full_coverage_registry,
    fuse_window,
    run_edfl,
    run_perfect_fl,
)
from mapfuse.fedlearn import (
    ModelSpec,
    TrainConfig,
    default_init_params,
    predict,
)
from mapfuse.fusion import FusionConfig, LocalMap, ScoredDetection, three_stage_fuse
from mapfuse.geometry import IDENTITY_POSE, ObjectState, transform_to_local
from mapfuse.orchestrator import build_teacher_registry, run_config_from_dict
from mapfuse.simworld import (
    DetectorNoiseSpec,
    ScenarioConfig,
    generate_scenario,
    sense,
)

from oracles import (
    distill_labels_reference,
    object_state_reference,
    rsu_label_reference,
)

NOISE = DetectorNoiseSpec(center_sigma=0.1, extent_sigma=0.05, yaw_sigma=0.03,
                          score_sigma=0.5)


def small_scenario(seed=3):
    return generate_scenario(ScenarioConfig(duration=5.0, num_objects=20),
                             seed)


def sensed_frame(scenario, frame, noise=NOISE, seed=0):
    maps = [sense(scenario, k, frame, noise, seed)[0]
            for k in range(scenario.num_vehicles)]
    return maps, three_stage_fuse(maps)


def test_rsu_disc_boundary():
    sc = small_scenario()
    truth = sc.object_state(0, 7)
    rsu = RoadSideUnit(center=truth.center[:2], radius=5.0, scenario=sc)
    assert rsu.covers(truth)
    far = ObjectState(0, (truth.center[0] + 6.0, truth.center[1], 0.75),
                      (4, 2, 1.5), 0.0)
    assert not rsu.covers(far)
    assert rsu.label(far, 0) is None


def test_rsu_labels_with_nearest_truth():
    sc = small_scenario()
    truth = sc.object_state(10, 4)
    probe = ObjectState(0, (truth.center[0] + 0.4, truth.center[1] - 0.2,
                            0.75), (4.4, 2.0, 1.5), truth.yaw + 0.1)
    rsu = RoadSideUnit(center=(0.0, 0.0), radius=1e9, scenario=sc)
    label = rsu.label(probe, 10)
    assert label == truth
    # Outside the match radius nothing is labeled.
    rsu_tight = RoadSideUnit(center=(0.0, 0.0), radius=1e9, scenario=sc,
                             match_radius=0.1)
    assert rsu_tight.label(probe, 10) is None


def hexes(state):
    return [float(v).hex() for v in state.to_vector()]


def test_teacher_frame_lookup_is_the_per_box_label_loop():
    sc = small_scenario()
    other = small_scenario(seed=4)
    for frame in (0, 20, 45, 90):
        maps, res = sensed_frame(sc, frame)
        fused = [state for state, _ in res.fused_all]
        # A fused box that a teacher labels sits exactly on the edge of
        # one disc and just outside a disc one ulp smaller, and its truth
        # exactly at one teacher's match radius; the other discs overlap
        # it and each other, and one teacher answers from another
        # scenario, so which teacher labels first shows.
        x, y = next(s for s in fused
                    if rsu_label_reference(full_coverage_registry(sc)[0], s,
                                           frame) is not None).center[:2]
        edge = math.hypot(x - 10.0, y - (-5.0))
        reach = np.hypot(sc.xy[frame, :, 0] - x, sc.xy[frame, :, 1] - y).min()
        registry = (
            RoadSideUnit((10.0, -5.0), math.nextafter(edge, 0.0), sc),
            RoadSideUnit((10.0, -5.0), edge, sc),
            RoadSideUnit((x, y), 15.0, sc, match_radius=0.5),
            RoadSideUnit((0.0, 0.0), 40.0, sc),
            RoadSideUnit((0.0, 0.0), 1e9, sc, match_radius=float(reach)),
            RoadSideUnit((0.0, 0.0), 1e9, other, match_radius=50.0),
            RoadSideUnit((0.0, 0.0), 1e9, sc),
        )
        probe = ObjectState(0, (x, y, 0.75), (4.0, 2.0, 1.5), 0.0)
        assert rsu_label_reference(registry[0], probe, frame) is None
        for teacher in (registry[1], registry[4]):
            assert rsu_label_reference(teacher, probe, frame) is not None
        for teacher in registry:
            want = [rsu_label_reference(teacher, s, frame) for s in fused]
            ids = teacher.lookup(res.fused_all.vecs[:, 1:3], frame).tolist()
            assert [None if i < 0 else
                    object_state_reference(teacher.scenario, frame, i)
                    for i in ids] == want
            assert [teacher.label(s, frame) for s in fused] == want
        pairs = list(itertools.permutations(registry[:6], 2))
        for regs in [(), registry, *pairs, *(p + registry[6:] for p in pairs)]:
            got = distill_labels(maps, res, frame, registry=regs)
            want = distill_labels_reference(maps, res, frame, regs)
            assert got.keys() == want.keys()
            for k in got:
                assert list(map(hexes, got[k].labels)) == list(
                    map(hexes, want[k].labels))


def test_registry_first_covering_teacher_wins():
    sc = small_scenario()
    maps, res = sensed_frame(sc, 20)
    far = RoadSideUnit(center=(1e6, 1e6), radius=1.0, scenario=sc)
    full = RoadSideUnit(center=(0.0, 0.0), radius=1e9, scenario=sc)
    both = distill_labels(maps, res, 20, registry=(far, full))
    assert both == distill_labels(maps, res, 20, registry=(full,))
    assert both != distill_labels(maps, res, 20)


def test_distill_labels_cover_associated_detections():
    sc = small_scenario()
    maps, res = sensed_frame(sc, 20)
    out = distill_labels(maps, res, 20)
    assert set(out) == {lm.vehicle_id for lm in maps}
    for lm in maps:
        labels = out[lm.vehicle_id].labels
        assert len(labels) == len(lm.detections)
        assert len(res.labels[lm.vehicle_id]) == len(lm.detections)
        assert all(label is not None for label in labels)


def test_distill_labels_ensemble_branch_is_fused_object_in_local_frame():
    sc = small_scenario()
    maps, res = sensed_frame(sc, 20)
    out = distill_labels(maps, res, 20, registry=())
    lm = maps[0]
    for label, cluster in zip(out[0].labels, res.labels[0], strict=True):
        expected = transform_to_local(res.fused_all[cluster][0], lm.pose)
        assert np.allclose(label.to_vector(), expected.to_vector())


def test_distill_labels_teacher_branch_overrides_ensemble():
    sc = small_scenario()
    maps, res = sensed_frame(sc, 20)
    reg = full_coverage_registry(sc)
    out = distill_labels(maps, res, 20, registry=reg)
    lm = maps[0]
    hit = 0
    for label, cluster in zip(out[0].labels, res.labels[0], strict=True):
        # teacher labels are exact ground truth, not the fused estimate
        g = res.fused_all[cluster][0]
        dists = [np.hypot(sc.xy[20, o, 0] - g.center[0],
                          sc.xy[20, o, 1] - g.center[1])
                 for o in range(sc.num_objects)]
        best = int(np.argmin(dists))
        if dists[best] <= 2.0:
            truth_local = transform_to_local(sc.object_state(20, best),
                                             lm.pose)
            assert np.allclose(label.to_vector(), truth_local.to_vector())
            hit += 1
    assert hit > 0


def test_distill_labels_rejects_misaligned_maps():
    sc = small_scenario()
    maps, res = sensed_frame(sc, 20)
    broken = LocalMap(
        vehicle_id=maps[0].vehicle_id,
        frame_time=maps[0].frame_time,
        detections=(
            *maps[0].detections,
            ScoredDetection(ObjectState(0, (0, 0, 0.75), (4, 2, 1.5), 0.0),
                            1.0),
        ),
        pose=maps[0].pose,
    )
    with pytest.raises(ValueError):
        distill_labels([broken] + maps[1:], res, 20)


def test_run_perfect_fl_equals_full_coverage_edfl():
    sc = small_scenario()
    frames = list(range(0, 40, 4))
    init = default_init_params()
    cfg = TrainConfig(max_rounds=2)
    a = run_perfect_fl(sc, frames, NOISE, init, cfg, sensor_seed=5)
    b = run_edfl(sc, frames, NOISE, init, cfg, sensor_seed=5,
                 registry=full_coverage_registry(sc))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, init.values)
    # A configured disc that covers the arena is the same teacher.
    arena = build_teacher_registry(
        run_config_from_dict({"teachers": [{"radius": 1e9}]}), sc)
    c = run_edfl(sc, frames, NOISE, init, cfg, sensor_seed=5,
                 registry=arena)
    assert np.array_equal(a.values, c.values)


def test_run_edfl_is_deterministic():
    sc = small_scenario()
    frames = list(range(0, 30, 5))
    init = default_init_params()
    cfg = TrainConfig(max_rounds=1)
    a = run_edfl(sc, frames, NOISE, init, cfg, sensor_seed=2)
    b = run_edfl(sc, frames, NOISE, init, cfg, sensor_seed=2)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("seed", [0, 5])
def test_variants_given_the_shared_window_train_as_without_it(seed):
    # One window serves both variants; each labels it with its own
    # teachers, and the parameters are the ones each makes alone.
    sc = small_scenario()
    frames = list(range(0, 40, 4))
    init = default_init_params()
    cfg = TrainConfig(max_rounds=2)
    window = fuse_window(sc, frames, NOISE, init, ModelSpec(),
                         FusionConfig(), seed)
    assert [w.frame for w in window] == frames
    for w in window:
        for k, (sf, lm) in enumerate(zip(w.sensor_frames, w.local_maps)):
            one = sense(sc, k, w.frame, NOISE, seed)[1]
            assert sf.candidates.tobytes() == one.candidates.tobytes()
            assert lm.detections.rows.tobytes() == (
                predict(init, one).rows.tobytes())
    registry = (RoadSideUnit(center=(0.0, 0.0), radius=30.0, scenario=sc),)
    pairs = [
        (run_perfect_fl(sc, frames, NOISE, init, cfg, sensor_seed=seed,
                        window=window),
         run_perfect_fl(sc, frames, NOISE, init, cfg, sensor_seed=seed)),
        (run_edfl(sc, frames, NOISE, init, cfg, sensor_seed=seed,
                  registry=registry, window=window),
         run_edfl(sc, frames, NOISE, init, cfg, sensor_seed=seed,
                  registry=registry)),
    ]
    for shared, alone in pairs:
        assert shared.values.tobytes() == alone.values.tobytes()
    assert pairs[0][0].values.tobytes() != pairs[1][0].values.tobytes()
    with pytest.raises(ValueError, match="does not hold the given frames"):
        run_edfl(sc, frames[1:], NOISE, init, cfg, window=window)
