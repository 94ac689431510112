import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapfuse.fedlearn import (
    F_CATEGORY,
    F_CONST,
    F_COS_YAW,
    F_HEIGHT,
    F_SCORE,
    F_SIN_YAW,
    F_X,
    FEATURE_DIM,
)
from mapfuse.fusion import three_stage_fuse
from mapfuse.geometry import InputError, angle_diff, transform_to_global
from mapfuse.orchestrator import (default_benchmark_config,
                                  default_benchmark_noise)
from mapfuse.simworld import (
    OCCLUSION_RAYS,
    DetectorNoiseSpec,
    Scenario,
    ScenarioConfig,
    SensorSpec,
    _ray_hits,
    frame_chunks,
    generate_scenario,
    scenario_to_jsonl,
    sense,
    sense_fleet,
    visible_objects,
)
from oracles import (
    iou_3d,
    object_state_reference,
    ray_hits_reference,
    sense_reference,
    visible_objects_per_target,
    visible_objects_per_vehicle,
)

QUIET = DetectorNoiseSpec()


def small_config(**kw):
    base = dict(duration=5.0, num_objects=20)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(num_vehicles=10, num_objects=5)
    with pytest.raises(ValueError):
        ScenarioConfig(speed_max=math.inf)
    for speed in (1e6, 1e307):
        with pytest.raises(ValueError, match="cross the arena"):
            ScenarioConfig(speed_max=speed)
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
    assert step.max() * sc.config.frame_rate <= sc.config.speed_max


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
            for obj, dist, occl in visible_objects(sc, f)[k]:
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
        fleet = visible_objects(sc, f)
        for k in range(sc.num_vehicles):
            assert fleet[k] == visible_objects_per_target(sc, k, f)


@pytest.mark.parametrize("cfg, seed, step", [
    (ScenarioConfig(), 0, 1),
    (ScenarioConfig(), 3, 1),
    (ScenarioConfig(num_vehicles=10, num_objects=80), 0, 5),
    (ScenarioConfig(sensor=SensorSpec(fov=2 * math.pi)), 1, 5),
], ids=["default-seed0", "default-seed3", "crowded-10x80", "fov-2pi"])
def test_visible_objects_matches_per_vehicle_reference(cfg, seed, step):
    # Exact equality: the fleet pass must keep every float of the
    # per-vehicle pass, since the reports hash these values.
    sc = generate_scenario(cfg, seed)
    for f in range(0, sc.num_frames, step):
        fleet = visible_objects(sc, f)
        assert len(fleet) == sc.num_vehicles
        for k in range(sc.num_vehicles):
            assert fleet[k] == visible_objects_per_vehicle(sc, k, f)
            assert sc.visibility(k, f) == fleet[k]
    # A chunk of frames is its frames' one-frame passes, bit for bit.
    frames = list(range(0, sc.num_frames, step))
    for size in (2, 5, 17):
        for at in range(0, len(frames), size):
            chunk = frames[at:at + size]
            assert (view_hexes(visible_objects(sc, chunk))
                    == [view_hexes(visible_objects(sc, f)) for f in chunk])


def view_hexes(view):
    """A visibility result with every float as float.hex, so that equal
    results are bit for bit the same."""
    if view and isinstance(view[0], tuple):
        return [(i, d.hex(), o.hex()) for i, d, o in view]
    return [view_hexes(v) for v in view]


@pytest.mark.parametrize("name", ["crowded", "fov-2pi"])
def test_visible_objects_of_a_turned_crossing_match_the_reference(name):
    # Turned, the platoon heads off the x axis, and bearings and corner
    # spans cross the +-pi seam in other places.
    sc = turned(crossing(name), 2.5)
    for f in range(0, sc.num_frames, 25):
        fleet = visible_objects(sc, f)
        for k in range(sc.num_vehicles):
            assert fleet[k] == visible_objects_per_vehicle(sc, k, f)


@pytest.mark.parametrize("vehicle, frame", [
    (7, 0), (5, 0), (-1, 0), (0, -1), (0, 20),
], ids=["vehicle-7", "vehicle-5", "vehicle-minus-1", "frame-minus-1",
        "frame-num-frames"])
def test_pose_and_visibility_reject_out_of_range_ids(vehicle, frame):
    # Vehicle 7 is an ordinary object of this 5-vehicle scenario, and -1
    # indexes the last object or frame; neither may pass as a vehicle.
    sc = generate_scenario(ScenarioConfig(duration=1.0), seed=0)
    assert (sc.num_vehicles, sc.num_frames) == (5, 20)
    with pytest.raises(ValueError, match="no such"):
        sc.visibility(vehicle, frame)
    with pytest.raises(ValueError, match="no such"):
        sc.pose(frame, vehicle)
    with pytest.raises(ValueError, match="no such"):
        sense(sc, vehicle, frame, QUIET, seed=0)


@pytest.mark.parametrize("frame, obj", [
    (-1, -1), (20, 0), (0, -1), (-1, 0), (0, 37),
], ids=["both-minus-1", "frame-num-frames", "object-minus-1",
        "frame-minus-1", "object-num-objects"])
def test_object_state_rejects_out_of_range_ids(frame, obj):
    # (-1, -1) would index the last object at the last frame.
    sc = generate_scenario(ScenarioConfig(duration=1.0), seed=0)
    assert (sc.num_frames, sc.num_objects) == (20, 37)
    sc.object_state(19, 36)
    with pytest.raises(ValueError, match="no such object"):
        sc.object_state(frame, obj)
    with pytest.raises(ValueError, match="no such object"):
        sc.truth_rows(frame, [0, obj])


def seam_scenario(seed):
    """One frame of boxes at yaws on and about the +-pi seam, with signed
    zero and tiny coordinates and every category."""
    yaws = [math.pi, -math.pi, 3 * math.pi, -0.0, math.nextafter(math.pi, 0),
            math.nextafter(-math.pi, 0), -7.5, 1e-300]
    m = len(yaws)
    xy = [(-0.0, 0.0), (1e-300, -2.5), (0.0, -0.0), (30.0, 4.0),
          (-12.5, 7.25), (5e-324, 1.0), (100.0, -100.0), (-0.0, -0.0)]
    return Scenario(ScenarioConfig(num_vehicles=1, num_objects=m), seed,
                    np.array([xy]), np.array([yaws]),
                    np.tile([4.5, 2.0, 1.5], (m, 1)), np.arange(m) % 3)


@pytest.mark.parametrize("make", [
    functools.partial(generate_scenario, ScenarioConfig(duration=3.0)),
    functools.partial(generate_scenario, ScenarioConfig(
        duration=2.0, num_vehicles=10, num_objects=80)),
    seam_scenario,
], ids=["crossing", "crowded-crossing", "seam"])
def test_truth_rows_are_object_state_bit_for_bit(make):
    for seed in range(3):
        sc = make(seed=seed)
        objects = list(range(sc.num_objects))[::-1]
        for f in range(sc.num_frames):
            rows = sc.truth_rows(f, objects)
            assert rows.shape == (len(objects), 8)
            for row, obj in zip(rows.tolist(), objects):
                want = [float(v).hex() for v in
                        object_state_reference(sc, f, obj).to_vector()]
                assert [v.hex() for v in row] == want
                assert [float(v).hex() for v in
                        sc.object_state(f, obj).to_vector()] == want
        assert sc.truth_rows(0, []).shape == (0, 8)
        # One frame per object: each row is its own frame's.
        frames = [f for f in range(sc.num_frames) for _ in objects]
        assert hexes(sc.truth_rows(frames, objects * sc.num_frames)) == [
            h for f in range(sc.num_frames)
            for h in hexes(sc.truth_rows(f, objects))]


def still_scenario(xy, extents, sensor=SensorSpec()):
    """One frame, every box at yaw 0, vehicle 0 at xy[0] heading +x."""
    m = len(xy)
    cfg = ScenarioConfig(num_vehicles=1, num_objects=m, sensor=sensor)
    return Scenario(cfg, 0, np.array([xy], dtype=float), np.zeros((1, m)),
                    np.array(extents, dtype=float), np.zeros(m, dtype=int))


def still_view(sc):
    """Vehicle 0's view, checked against both reference passes."""
    [view] = visible_objects(sc, 0)
    assert view == visible_objects_per_vehicle(sc, 0, 0)
    assert view == visible_objects_per_target(sc, 0, 0)
    return view


CAR = (4.5, 2.0, 1.5)
CAR_RADIUS = math.hypot(4.5, 2.0) / 2.0


def test_visible_objects_without_target_in_range():
    # One box beyond the 100 m range ahead, one in range beside the wedge.
    sc = still_scenario([(0.0, 0.0), (150.0, 0.0), (0.0, 20.0)], [CAR] * 3)
    assert still_view(sc) == []
    # In a chunk, beside a frame whose boxes are in view, and alone.
    near = still_scenario([(0.0, 0.0), (40.0, 0.0), (20.0, 1.0)], [CAR] * 3)
    chunked = Scenario(sc.config, 0, np.concatenate([sc.xy, near.xy, sc.xy]),
                       np.zeros((3, 3)), sc.extents, sc.categories)
    views = visible_objects(chunked, [0, 1, 2])
    assert views == [[[]], visible_objects(near, [0])[0], [[]]]
    assert views[1] == [still_view(near)] and views[1] != [[]]
    assert visible_objects(chunked, [0, 2]) == [[[]], [[]]]


@pytest.mark.parametrize("gap", [-0.08, -1e-3, 5e-7, 2e-6])
def test_occluder_disc_grazing_the_ray_span(gap):
    # The target 40 m ahead spans rays up to its near corner's bearing.
    # The occluder, 20 m out, has its bounding disc's lower tangent `gap`
    # rad beyond that top ray: overlapping (the box blocks some rays),
    # just overlapping (the disc meets the rays, the box does not), just
    # inside 1e-6 rad, and beyond it.
    top = math.atan2(1.0, 40.0 - 2.25)
    theta = top + gap + math.asin(CAR_RADIUS / 20.0)
    sc = still_scenario(
        [(0.0, 0.0), (40.0, 0.0),
         (20.0 * math.cos(theta), 20.0 * math.sin(theta))], [CAR] * 3)
    view = still_view(sc)
    target = [v for v in view if v[0] == 1]
    if gap < -0.01:
        assert 0.0 < target[0][2] < 1.0
    else:
        assert target == [(1, 40.0, 0.0)]


@pytest.mark.parametrize("gap", [-0.01, -1e-9, 5e-7, 2e-6])
def test_occluder_corner_grazing_the_ray_span(gap):
    # The target 40 m ahead spans rays between its near corners' bearings,
    # +-top.  The occluder, 20 m out, has its lowest corner's bearing
    # `gap` rad beyond the second ray from the top: the pairing must keep
    # a box whose corner reaches just past a ray.  still_view checks the
    # result against the references, which pair every box.
    top = math.atan2(1.0, 40.0 - 2.25)
    ray = -top + 30 * (2 * top) / (OCCLUSION_RAYS - 1)
    y = 1.0 + (20.0 + 2.25) * math.tan(ray + gap)
    sc = still_scenario([(0.0, 0.0), (40.0, 0.0), (20.0, y)], [CAR] * 3)
    [target] = [v for v in still_view(sc) if v[0] == 1]
    if gap < 0.0:
        assert 0.0 < target[2] < 1.0
    else:
        assert target == (1, 40.0, 0.0)


def test_occluder_beside_the_ego_inside_its_own_disc():
    # The occluder's centre is 3.2 m from the ego, nearer than its 8.06 m
    # bounding radius, so its disc spans every bearing.  The centre lies
    # behind the ego's flank, over 90 degrees from the target's bearing,
    # but the box reaches forward to x = 6 and cuts the target's upper rays.
    sc = still_scenario([(0.0, 0.0), (-2.0, 2.5), (30.0, 8.0)],
                        [CAR, (16.0, 2.0, 1.5), CAR])
    assert math.hypot(-2.0, 2.5) <= math.hypot(16.0, 2.0) / 2.0
    view = still_view(sc)
    assert [v[0] for v in view] == [2]
    assert 0.0 < view[0][2] < 1.0


def test_occluder_bearing_wrapping_past_pi():
    # With an all-round sensor, the target sits just left of straight
    # behind (bearing near +pi) and the occluder just right of it
    # (bearing near -pi): their relative bearing wraps through +-pi.
    sc = still_scenario([(0.0, 0.0), (-30.0, 0.5), (-15.0, -1.0)],
                        [CAR] * 3, SensorSpec(fov=2 * math.pi))
    assert math.atan2(0.5, -30.0) > 3.0 and math.atan2(-1.0, -15.0) < -3.0
    view = still_view(sc)
    assert [v[0] for v in view] == [1, 2]
    assert 0.0 < view[0][2] < 1.0
    assert view[1][2] == 0.0


def test_occluder_around_the_ego():
    # The ego stands inside a 16 m x 6 m box centred 3 m behind it, so
    # every ray leaves through the box's front face at x = 5 and the car
    # 30 m ahead is hidden.  The box's corners lie at +-31 and +-165
    # degrees, none among the target's rays (within +-2.1 degrees): the
    # pairing keeps the box because it lies within twice its bounding
    # radius of the ego (the near rule), and, its corners spanning more
    # than pi about its own bearing, by the seam clause as well.
    sc = still_scenario([(0.0, 0.0), (-3.0, 0.0), (30.0, 0.0)],
                        [CAR, (16.0, 6.0, 1.5), CAR])
    assert still_view(sc) == []


def test_occluder_across_the_seam_from_the_target_rays():
    # The ego stands inside a long target centred ahead, whose rays run
    # from -177.4 to +150.9 degrees about the target's bearing.  A small
    # box 1.5 m behind the ego spans +165.1 to +187.6 degrees on that
    # scale: past +180, where it meets the lowest ray at -177.4.  Only
    # the seam clause pairs the two, and the box blocks that one ray.
    a = math.radians(185.0)
    sc = still_scenario(
        [(0.0, 0.0), (3.0, 0.5), (1.5 * math.cos(a), 1.5 * math.sin(a))],
        [CAR, (20.0, 4.0, 1.5), (0.5, 0.5, 1.5)])
    view = still_view(sc)
    assert [v[0] for v in view] == [1]
    assert view[0][2] == 1 / OCCLUSION_RAYS


def test_occluder_corner_on_the_lowest_ray():
    # The occluder's upper front corner starts on the ray from the ego
    # through the target's lower near corner, the bearing of its lowest
    # ray, and moves up one ulp at a time until the ray meets the box.
    # Near that point the corner's bearing and the ray's agree to within
    # rounding, and the 1e-6 rad widening keeps the pair; every step must
    # match the references.
    bottom = math.atan2(1.0, 30.0 - 2.25)
    y = -(1.0 + (20.0 + 2.25) * math.tan(bottom))
    for _ in range(64):
        sc = still_scenario([(0.0, 0.0), (30.0, 0.0), (20.0, y)], [CAR] * 3)
        [target] = [v for v in still_view(sc) if v[0] == 1]
        if target[2] > 0.0:
            break
        y = math.nextafter(y, math.inf)
    assert target == (1, 30.0, 1 / OCCLUSION_RAYS)


def test_equally_distant_object_never_occludes():
    # Both boxes are centred 20 m ahead.  The long one's near face
    # (x = 17.75) lies in front of the wide one's (x = 19) on the middle
    # rays, but only a strictly nearer object occludes.
    sc = still_scenario([(0.0, 0.0), (20.0, 0.0), (20.0, 0.0)],
                        [(4.5, 2.0, 1.5), (4.5, 2.0, 1.5), (2.0, 6.0, 1.5)])
    assert still_view(sc) == [(1, 20.0, 0.0), (2, 20.0, 0.0)]


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


def hexes(values):
    return [float(v).hex() for v in np.ravel(values).tolist()]


def test_sense_candidates_are_its_map_rows_bit_for_bit():
    # Flips and a yaw bias push raw yaws past pi, so the wrap and the
    # trig of the wrapped yaw both show in the bits.
    sc = generate_scenario(small_config(), seed=6)
    noise = DetectorNoiseSpec(center_sigma=0.3, extent_sigma=0.1,
                              yaw_sigma=0.5, flip_prob=0.5,
                              false_positive_rate=2.0, score_sigma=0.5,
                              bias=(0.1, -0.2, 0.0, 0.1, 0.0, 0.0, 2.5))
    clutter = 0
    for f in range(0, sc.num_frames, 10):
        for k in range(sc.num_vehicles):
            lm, frame = sense(sc, k, f, noise, seed=3)
            rows, feats = lm.detections.rows, frame.candidates
            assert feats.shape == (len(rows), FEATURE_DIM)
            clutter += frame.source_ids.count(None)
            assert (hexes(feats[:, F_CATEGORY : F_HEIGHT + 1])
                    == hexes(rows[:, 0:7]))
            yaws = rows[:, 7].tolist()
            cos, sin = [math.cos(t) for t in yaws], [math.sin(t) for t in yaws]
            assert hexes(feats[:, F_COS_YAW]) == hexes(cos)
            assert hexes(feats[:, F_SIN_YAW]) == hexes(sin)
            assert hexes(feats[:, F_SCORE]) == hexes(rows[:, 8])
    assert clutter > 0

CROSSINGS = {
    "default": ScenarioConfig(),
    "crowded": ScenarioConfig(num_vehicles=10, num_objects=80),
    "fov-2pi": ScenarioConfig(sensor=SensorSpec(fov=2 * math.pi)),
}


@functools.lru_cache(maxsize=None)
def crossing(name):
    return generate_scenario(CROSSINGS[name], seed=0)


def special_or(values, lo, hi):
    return st.one_of(st.sampled_from(values), st.floats(lo, hi))


# Every setting is either one of its edge values or a float in range:
# misses and flips that always or never happen, zero sigmas, many false
# positives, and an extent bias of -10 that hits both 0.2 floors.
NOISE_SPECS = st.builds(
    DetectorNoiseSpec,
    miss_prob=special_or([0.0, 1.0], 0.0, 1.0),
    miss_dist_coeff=st.floats(-1.0, 1.0),
    miss_occl_coeff=st.floats(-1.0, 1.0),
    false_positive_rate=special_or([0.0, 5.0], 0.0, 5.0),
    center_sigma=special_or([0.0], 0.0, 2.0),
    extent_sigma=special_or([0.0], 0.0, 3.0),
    yaw_sigma=special_or([0.0], 0.0, 2.0),
    noise_dist_scale=special_or([0.0], 0.0, 3.0),
    flip_prob=special_or([0.0, 1.0], 0.0, 1.0),
    bias=st.tuples(*[special_or([0.0], -3.0, 3.0)] * 3,
                   *[special_or([0.0, -10.0], -10.0, 3.0)] * 3,
                   special_or([0.0], -4.0, 4.0)),
    score_sigma=special_or([0.0], 0.0, 2.0),
)


def turned(sc, phi):
    """sc with the whole crossing turned by phi about the origin.

    The platoon of a generated crossing always heads along +x; turned,
    its headings are not 0 and the yaws, left unwrapped, leave [-pi, pi).
    """
    c, s = math.cos(phi), math.sin(phi)
    x, y = sc.xy[..., 0], sc.xy[..., 1]
    xy = np.stack([c * x - s * y, s * x + c * y], axis=-1)
    return Scenario(sc.config, sc.seed, xy, sc.yaw + phi, sc.extents,
                    sc.categories)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(CROSSINGS)),
       turn=special_or([0.0], -7.0, 7.0),
       frame=st.integers(0, 1009), seed=st.integers(0, 2**32 - 1),
       noise=NOISE_SPECS)
def test_sense_matches_reference(name, turn, frame, seed, noise):
    sc = crossing(name) if turn == 0.0 else turned(crossing(name), turn)
    for k in range(sc.num_vehicles):
        assert_sense_is_reference(sc, k, frame, noise, seed)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(CROSSINGS)),
       turn=special_or([0.0], -7.0, 7.0),
       frame=st.integers(0, 1009), seed=st.integers(0, 2**32 - 1),
       noise=NOISE_SPECS)
def test_sense_fleet_is_the_reference_for_every_vehicle(name, turn, frame,
                                                        seed, noise):
    sc = crossing(name) if turn == 0.0 else turned(crossing(name), turn)
    fleet = sense_fleet(sc, frame, noise, seed)
    assert len(fleet) == sc.num_vehicles
    for k, (lm, sf) in enumerate(fleet):
        assert lm.vehicle_id == k
        assert_pair_is_reference(lm, sf, sc, k, frame, noise, seed)
    # Sensed in a chunk beside another frame, the frame is the same.
    [_, chunked] = sense_fleet(sc, [frame ^ 1, frame], noise, seed)
    for (lm, sf), (c_lm, c_sf) in zip(fleet, chunked, strict=True):
        assert (c_lm.vehicle_id, c_lm.frame_time, c_lm.pose) == (
            lm.vehicle_id, lm.frame_time, lm.pose)
        assert hexes(c_lm.detections.rows) == hexes(lm.detections.rows)
        assert hexes(c_sf.candidates) == hexes(sf.candidates)
        assert c_sf.source_ids == sf.source_ids


# Wide extent noise with a positive length bias and a -10 width bias, so
# that each 0.2 floor decides some extents.
HEAVY_NOISE = DetectorNoiseSpec(
    miss_prob=0.1, false_positive_rate=2.0, center_sigma=0.5,
    extent_sigma=3.0, yaw_sigma=0.5, noise_dist_scale=1.0, flip_prob=0.5,
    bias=(0.3, -0.2, 0.1, 0.5, -10.0, 1.0, 2.5), score_sigma=0.5)


@pytest.mark.parametrize("noise", [default_benchmark_noise(), HEAVY_NOISE],
                         ids=["benchmark", "heavy"])
@pytest.mark.parametrize("name", sorted(CROSSINGS))
@pytest.mark.parametrize("turn", [0.0, 2.5])
def test_sense_matches_reference_every_tenth_frame(name, turn, noise):
    # A sweep shows the wraps, which differ from the reference's only in
    # the last bit of some yaws.
    sc = crossing(name) if turn == 0.0 else turned(crossing(name), turn)
    for f in range(0, sc.num_frames, 10):
        for k in range(sc.num_vehicles):
            assert_sense_is_reference(sc, k, f, noise, seed=f)


def assert_sense_is_reference(sc, vehicle, frame, noise, seed):
    lm, sf = sense(sc, vehicle, frame, noise, seed)
    assert_pair_is_reference(lm, sf, sc, vehicle, frame, noise, seed)


def assert_pair_is_reference(lm, sf, sc, vehicle, frame, noise, seed):
    # Bit for bit: the rows feed the reports' hashes.
    ref_lm, ref_sf = sense_reference(sc, vehicle, frame, noise, seed)
    assert hexes(lm.detections.rows) == hexes(ref_lm.detections.rows)
    assert hexes(sf.candidates) == hexes(ref_sf.candidates)
    assert sf.source_ids == ref_sf.source_ids
    assert lm.pose == ref_lm.pose


@functools.lru_cache(maxsize=None)
def short_sighted():
    """A platoon with 15 m sensors: at frames 0 and 1 the vehicles 0, 1
    and 3 see no object while 2 and 4 each see the vehicle ahead."""
    return generate_scenario(small_config(sensor=SensorSpec(range=15.0)), 0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=NOISE_SPECS)
def test_sense_fleet_of_a_chunk_where_some_vehicles_see_nothing(seed, noise):
    # The vehicle-frames with no visible object sit in the block between
    # ones with rows, and each of those rows meets its own vehicle's pose.
    sc = short_sighted()
    frames = [0, 1]
    assert [[len(sc.visibility(k, f)) for k in range(sc.num_vehicles)]
            for f in frames] == [[0, 0, 1, 0, 1]] * 2
    for f, fleet in zip(frames, sense_fleet(sc, frames, noise, seed),
                        strict=True):
        for k, (lm, sf) in enumerate(fleet):
            assert lm.vehicle_id == k
            assert_pair_is_reference(lm, sf, sc, k, f, noise, seed)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(vehicle=st.integers(0, 4), frame=st.integers(0, 1009),
       seed=st.integers(0, 2**32 - 1), noise=NOISE_SPECS)
def test_sense_of_no_visible_object_is_the_reference(vehicle, frame, seed,
                                                     noise):
    # An empty block goes through the move into the vehicle frame; only
    # the vehicle's clutter is left.
    sc = crossing("default")
    lm, sf = sense(sc, vehicle, frame, noise, seed, visibility=[])
    ref_lm, ref_sf = sense_reference(sc, vehicle, frame, noise, seed,
                                     visibility=[])
    assert hexes(lm.detections.rows) == hexes(ref_lm.detections.rows)
    assert hexes(sf.candidates) == hexes(ref_sf.candidates)
    assert sf.source_ids == ref_sf.source_ids == (None,) * len(sf.source_ids)
    assert lm.pose == ref_lm.pose


@st.composite
def ray_rows(draw):
    """Rows of (origin, rays, four segments) on a small integer grid.

    Each ray runs through one of the row's corners, parallel to one of
    its segments (a zero denominator), or at a random angle; a stretch of
    about 1e9 puts a hit's ray parameter next to the 1e-9 cut-off.
    """
    coord = st.integers(-6, 6).map(float)
    point = st.tuples(coord, coord)
    stretch = st.sampled_from([1.0, 0.5, 1e9, 1e9 * (1 + 2**-50),
                               1e9 * (1 - 2**-50)])
    n_rows, n_rays = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    origins, dx, dy, starts = [], [], [], []
    for _ in range(n_rows):
        o = draw(point)
        corners = [draw(point) for _ in range(4)]
        edges = [(b[0] - a[0], b[1] - a[1])
                 for a, b in zip(corners, corners[1:] + corners[:1])]
        row_dx, row_dy = [], []
        for _ in range(n_rays):
            kind, k = draw(st.sampled_from(["corner", "edge", "angle"])), \
                draw(st.integers(0, 3))
            if kind == "corner":
                d = (corners[k][0] - o[0], corners[k][1] - o[1])
            elif kind == "edge":
                d = edges[k]
            else:
                a = draw(st.floats(-math.pi, math.pi))
                d = (math.cos(a), math.sin(a))
            m = draw(stretch)
            row_dx.append(d[0] * m)
            row_dy.append(d[1] * m)
        origins.append(o)
        starts.append(corners)
        dx.append(row_dx)
        dy.append(row_dy)
    starts = np.array(starts)
    edges = np.roll(starts, -1, axis=1) - starts
    return np.array(origins), np.array(dx), np.array(dy), starts, edges


@settings(max_examples=300, deadline=None)
@given(ray_rows())
def test_ray_hits_is_the_reference_minimum_over_edges(rows):
    assert (hexes(_ray_hits(*rows))
            == hexes(ray_hits_reference(*rows).min(axis=1)))


def test_sense_noise_that_overflows_is_invalid_input():
    sc = generate_scenario(small_config(), seed=6)
    noise = DetectorNoiseSpec(center_sigma=1e308)
    with pytest.raises(InputError, match=r"vehicle 0, frame 10: .*noise"):
        sense(sc, 0, 10, noise, seed=0)


def first_sense_error(sc, frame, noise, seed):
    """The InputError text of the first vehicle whose sense fails."""
    for k in range(sc.num_vehicles):
        try:
            sense(sc, k, frame, noise, seed)
        except InputError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("setting", ["score_sigma", "center_sigma",
                                     "extent_sigma"])
@pytest.mark.parametrize("frame", [0, 10, 50])
def test_sense_fleet_raises_the_first_failing_vehicles_error(setting,
                                                             frame):
    # Overflowing noise fails some vehicles' rows and not others'; the
    # fleet raises what sense raises for the first that fails, or, when
    # none fails, is each vehicle's sense.
    sc = generate_scenario(small_config(), seed=0)
    noise = DetectorNoiseSpec(**{setting: 1e308})
    expected = first_sense_error(sc, frame, noise, 0)
    if expected is None:
        for k, (lm, sf) in enumerate(sense_fleet(sc, frame, noise, 0)):
            one_lm, one_sf = sense(sc, k, frame, noise, 0)
            assert hexes(lm.detections.rows) == hexes(one_lm.detections.rows)
            assert hexes(sf.candidates) == hexes(one_sf.candidates)
        return
    with pytest.raises(InputError) as info:
        sense_fleet(sc, frame, noise, 0)
    assert str(info.value) == expected


def test_sense_fleet_on_the_clis_overflowing_config_names_vehicle_1():
    # The scenario and score noise of the CLI's overflowing config: at
    # frame 0 vehicle 0's rows stay finite and vehicle 1's do not.
    sc = generate_scenario(small_config(), seed=0)
    noise = DetectorNoiseSpec(score_sigma=1e308)
    sense(sc, 0, 0, noise, 0)
    first = (r"^vehicle 1, frame 0: detection 0: fields must be finite; "
             r"the detector noise")
    with pytest.raises(InputError, match=first):
        sense_fleet(sc, 0, noise, 0)
    # A chunk whose block fails is redone through sense, frame by frame:
    # the same first error, and no frame outside the chunk is sensed.
    with pytest.raises(InputError, match=first):
        sense_fleet(sc, [0, 1, 2], noise, 0)
    sc = generate_scenario(small_config(), seed=0)
    chunks = frame_chunks(sc, range(sc.num_frames),
                          lambda chunk: sense_fleet(sc, chunk, noise, 0))
    with pytest.raises(InputError, match=first):
        next(chunks)
    assert sorted(sc._vis_cache) == list(range(10))


def test_a_chunk_holds_about_a_thousand_vehicle_object_pairs():
    # 5 x 37 on the benchmark's crossing, 10 x 80 on the crowded one.
    for cfg, size in [(default_benchmark_config(0).scenario, 5),
                      (CROSSINGS["crowded"], 1)]:
        sc = generate_scenario(dataclasses.replace(cfg, duration=1.0), 0)
        frames = list(range(12))
        chunks = [c for c, _ in frame_chunks(sc, frames, lambda c: None)]
        assert chunks == [frames[i:i + size]
                          for i in range(0, len(frames), size)]


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
