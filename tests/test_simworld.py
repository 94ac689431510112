import json
import math

import numpy as np
import pytest

from mapfuse.fedlearn import (
    F_CONST,
    F_COS_YAW,
    F_HEIGHT,
    F_SIN_YAW,
    F_X,
    FEATURE_DIM,
)
from mapfuse.fusion import three_stage_fuse
from mapfuse.geometry import angle_diff, transform_to_global
from mapfuse.simworld import (
    DetectorNoiseSpec,
    Scenario,
    ScenarioConfig,
    SensorSpec,
    generate_scenario,
    scenario_to_jsonl,
    sense,
    visible_objects,
)
from oracles import iou_3d, visible_objects_per_target

QUIET = DetectorNoiseSpec()


def small_config(**kw):
    base = dict(duration=5.0, num_objects=20)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(num_vehicles=10, num_objects=5)
    with pytest.raises(ValueError):
        ScenarioConfig(speed_max=20.0)
    with pytest.raises(ValueError):
        SensorSpec(range=-1.0)
    assert ScenarioConfig().num_frames == 1010


def test_generation_shapes_and_determinism():
    cfg = small_config()
    a = generate_scenario(cfg, seed=3)
    b = generate_scenario(cfg, seed=3)
    assert a.xy.shape == (cfg.num_frames, cfg.num_objects, 2)
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.yaw, b.yaw)
    assert np.array_equal(a.extents, b.extents)
    c = generate_scenario(cfg, seed=4)
    assert not np.array_equal(a.xy, c.xy)


def test_minimum_separation_holds_every_frame():
    sc = generate_scenario(small_config(), seed=1)
    for f in range(0, sc.num_frames, 7):
        pts = sc.xy[f]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() >= sc.config.min_separation ** 2 - 1e-9


def test_speed_cap():
    sc = generate_scenario(small_config(), seed=2)
    step = np.linalg.norm(np.diff(sc.xy, axis=0), axis=-1)
    assert step.max() * sc.config.frame_rate <= sc.config.speed_cap


def test_platoon_shares_heading():
    sc = generate_scenario(ScenarioConfig(duration=5.0), seed=0)
    k = sc.num_vehicles
    # All intelligent vehicles drive the same straight approach.
    for f in (0, 50, 99):
        yaws = sc.yaw[f, :k]
        assert np.allclose(yaws, yaws[0])


def test_visibility_respects_range_and_fov():
    sc = generate_scenario(small_config(), seed=5)
    sensor = sc.config.sensor
    for f in (0, 40, 80):
        for k in range(sc.num_vehicles):
            pose = sc.pose(f, k)
            for obj, dist, occl in visible_objects(sc, k, f):
                assert obj != k
                dx = sc.xy[f, obj, 0] - pose.position[0]
                dy = sc.xy[f, obj, 1] - pose.position[1]
                assert math.hypot(dx, dy) == pytest.approx(dist, abs=1e-9)
                assert dist <= sensor.range
                bearing = math.atan2(dy, dx)
                assert abs(angle_diff(bearing, pose.heading)) <= (
                    sensor.fov / 2 + 1e-9
                )
                assert 0.0 <= occl < 1.0


@pytest.mark.parametrize("cfg, seed", [
    (ScenarioConfig(), 0),
    (ScenarioConfig(), 1),
    (ScenarioConfig(num_vehicles=10, num_objects=80), 0),
    (ScenarioConfig(sensor=SensorSpec(fov=2 * math.pi)), 0),
], ids=["default-seed0", "default-seed1", "crowded-10x80", "fov-2pi"])
def test_visible_objects_matches_per_target_reference(cfg, seed):
    sc = generate_scenario(cfg, seed)
    for f in range(0, sc.num_frames, 25):
        for k in range(sc.num_vehicles):
            assert visible_objects(sc, k, f) == visible_objects_per_target(
                sc, k, f
            )


def still_scenario(xy, extents):
    """One frame, every box at yaw 0, vehicle 0 at xy[0] heading +x."""
    m = len(xy)
    cfg = ScenarioConfig(num_vehicles=1, num_objects=m)
    return Scenario(cfg, 0, np.array([xy], dtype=float), np.zeros((1, m)),
                    np.array(extents, dtype=float), np.zeros(m, dtype=int))


def test_visible_objects_without_target_in_range():
    # One box beyond the 100 m range ahead, one in range beside the wedge.
    sc = still_scenario([(0.0, 0.0), (150.0, 0.0), (0.0, 20.0)],
                        [(4.5, 2.0, 1.5)] * 3)
    assert visible_objects(sc, 0, 0) == []
    assert visible_objects_per_target(sc, 0, 0) == []


def test_equally_distant_object_never_occludes():
    # Both boxes are centred 20 m ahead.  The long one's near face
    # (x = 17.75) lies in front of the wide one's (x = 19) on the middle
    # rays, but only a strictly nearer object occludes.
    sc = still_scenario([(0.0, 0.0), (20.0, 0.0), (20.0, 0.0)],
                        [(4.5, 2.0, 1.5), (4.5, 2.0, 1.5), (2.0, 6.0, 1.5)])
    expected = [(1, 20.0, 0.0), (2, 20.0, 0.0)]
    assert visible_objects(sc, 0, 0) == expected
    assert visible_objects_per_target(sc, 0, 0) == expected


def test_occlusion_blocks_hidden_object():
    # Vehicle 2 trails vehicles 1 and 0 in the same lane; the car ahead
    # fully masks the platoon leader even though it is in range and FoV.
    sc = generate_scenario(ScenarioConfig(duration=5.0), seed=0)
    pose = sc.pose(0, 2)
    dist = math.hypot(sc.xy[0, 0, 0] - pose.position[0],
                      sc.xy[0, 0, 1] - pose.position[1])
    assert dist < sc.config.sensor.range
    vis2 = {o for o, _, _ in sc.visibility(2, 0)}
    assert 0 not in vis2


def test_sense_deterministic_and_features_match_boxes():
    sc = generate_scenario(small_config(), seed=6)
    noise = DetectorNoiseSpec(center_sigma=0.1, extent_sigma=0.05,
                              yaw_sigma=0.05, false_positive_rate=0.5,
                              score_sigma=0.5)
    a_map, a_frame = sense(sc, 0, 10, noise, seed=42)
    b_map, b_frame = sense(sc, 0, 10, noise, seed=42)
    assert np.array_equal(a_frame.candidates, b_frame.candidates)
    assert [d.score for d in a_map.detections] == [
        d.score for d in b_map.detections
    ]
    c_map, _ = sense(sc, 0, 10, noise, seed=43)
    assert (len(c_map.detections) != len(a_map.detections)
            or any(x.state != y.state
                   for x, y in zip(c_map.detections, a_map.detections)))

    assert a_frame.candidates.shape[1] == FEATURE_DIM
    for det, feat in zip(a_map.detections, a_frame.candidates):
        assert np.allclose(feat[F_X:F_HEIGHT + 1],
                           [*det.state.center, *det.state.extents])
        obs_yaw = math.atan2(feat[F_SIN_YAW], feat[F_COS_YAW])
        assert abs(angle_diff(obs_yaw, det.state.yaw)) < 1e-9
        assert feat[F_CONST] == 1.0


def test_sense_miss_probability_one_drops_everything():
    sc = generate_scenario(small_config(), seed=7)
    lm, frame = sense(sc, 0, 0, DetectorNoiseSpec(miss_prob=1.0), seed=0)
    assert lm.detections == ()
    assert frame.candidates.shape == (0, FEATURE_DIM)


def test_sense_bias_is_applied_in_local_frame():
    sc = generate_scenario(small_config(), seed=8)
    biased = DetectorNoiseSpec(bias=(0.0, 2.0, 0, 0, 0, 0, 0))
    lm_b, _ = sense(sc, 0, 20, biased, seed=0)
    lm_q, _ = sense(sc, 0, 20, QUIET, seed=0)
    assert len(lm_b.detections) == len(lm_q.detections)
    for b, q in zip(lm_b.detections, lm_q.detections):
        assert b.state.center[1] - q.state.center[1] == pytest.approx(2.0)
        assert b.state.center[0] == pytest.approx(q.state.center[0])


def test_noiseless_sense_reproduces_ground_truth():
    sc = generate_scenario(small_config(), seed=9)
    for k in range(sc.num_vehicles):
        lm, frame = sense(sc, k, 30, QUIET, seed=0)
        vis = sc.visibility(k, 30)
        assert len(lm.detections) == len(vis)
        for det, (obj, _, _) in zip(lm.detections, vis):
            g = transform_to_global(det.state, lm.pose)
            truth = sc.object_state(30, obj)
            assert iou_3d(g, truth) > 1.0 - 1e-9


def test_noiseless_fusion_recovers_union():
    sc = generate_scenario(small_config(), seed=10)
    f = 40
    maps = [sense(sc, k, f, QUIET, seed=0)[0] for k in range(sc.num_vehicles)]
    res = three_stage_fuse(maps)
    union = set()
    for k in range(sc.num_vehicles):
        union |= {o for o, _, _ in sc.visibility(k, f)}
    assert len(res.fused_all) == len(union)
    for state, _ in res.global_map.objects:
        best = max(iou_3d(state, sc.object_state(f, o)) for o in union)
        assert best > 1.0 - 1e-9


def test_scenario_jsonl_parses():
    sc = generate_scenario(small_config(duration=1.0), seed=11)
    lines = scenario_to_jsonl(sc).strip().splitlines()
    assert len(lines) == sc.num_frames
    first = json.loads(lines[0])
    assert len(first["objects"]) == sc.num_objects
    obj = first["objects"][0]
    assert set(obj) >= {"id", "category", "center", "extents", "yaw"}
