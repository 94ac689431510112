import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapfuse.association import ClusterConfig
from mapfuse.fusion import (
    FusionConfig,
    GlobalMap,
    LocalMap,
    ScoredDetection,
    baseline_max_score_fuse,
    baseline_mean_fuse,
    compute_weights,
    fuse_cluster,
    global_map_from_json,
    global_map_to_json,
    global_map_to_kitti,
    kitti_label_line,
    local_map_from_json,
    local_map_to_json,
    prune_overlaps,
    three_stage_fuse,
)
from mapfuse.geometry import (
    IDENTITY_POSE,
    ObjectState,
    Pose,
    angle_diff,
    transform_to_global,
)
from oracles import cluster_brute_force_oracle, weighted_ls_objective


def box(x, y, yaw=0.0, l=4.0, w=2.0, h=1.5, z=0.75, cat=0):
    return ObjectState(cat, (x, y, z), (l, w, h), yaw)


def lmap(vid, dets, pose=IDENTITY_POSE, t=0.0):
    return LocalMap(vehicle_id=vid, frame_time=t, detections=tuple(dets),
                    pose=pose)


def test_weights_confidence_is_increasing_in_score():
    w = compute_weights([0.0, math.log(3.0)])
    # sigmoid: 0.5 and 0.75 -> normalized (0.4, 0.6).
    assert w == pytest.approx([0.4, 0.6], abs=1e-12)


def test_weights_uniform_and_validation():
    # Uniform weights are the mean baseline's rule; compute_weights has
    # only the sigmoid rule and needs at least one score.
    with pytest.raises(ValueError):
        compute_weights([])


@given(st.lists(st.floats(-30, 30, allow_nan=False), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_weights_always_normalized(scores):
    w = compute_weights(scores)
    assert abs(w.sum() - 1.0) <= 1e-9
    assert (w > 0).all()


@given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1,
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_weights_finite_normalized_and_top_heavy(scores):
    # Below about -745 every sigmoid underflows to 0; the weights must
    # still be a distribution that trusts the top score most.
    w = compute_weights(scores)
    assert np.isfinite(w).all()
    assert abs(w.sum() - 1.0) <= 1e-9
    assert w[int(np.argmax(scores))] == w.max()


def test_weights_when_every_sigmoid_underflows():
    # The limit of sigmoid(s) / sum as s -> -inf is exp(s - max s) / sum.
    w = compute_weights([-800.0, -800.0 + math.log(3.0)])
    assert w == pytest.approx([0.25, 0.75], abs=1e-12)


def test_single_detection_with_underflowing_score():
    maps = [lmap(0, [ScoredDetection(box(3.0, -1.0), -800.0)])]
    res = three_stage_fuse(maps)
    assert res.global_map.objects == ((box(3.0, -1.0), -800.0),)


def test_fuse_cluster_weighted_mean():
    states = [box(0.0, 0.0), box(2.0, 0.0)]
    scores = [0.0, math.log(3.0)]
    state, score = fuse_cluster(states, scores,
                                compute_weights(scores))
    # Weights (0.4, 0.6) -> x = 1.2; uniform mean would give 1.0.
    assert state.center[0] == pytest.approx(1.2, abs=1e-12)
    assert score == pytest.approx(0.4 * 0.0 + 0.6 * math.log(3.0), abs=1e-12)


def test_fuse_cluster_applies_poses():
    pose = Pose((10.0, 0.0, 0.0), math.pi / 2)
    maps = [lmap(0, [ScoredDetection(box(5.0, 0.0), 1.0)], pose=pose)]
    state, _ = three_stage_fuse(maps).global_map.objects[0]
    assert state.center[0] == pytest.approx(10.0, abs=1e-9)
    assert state.center[1] == pytest.approx(5.0, abs=1e-9)
    assert state.yaw == pytest.approx(math.pi / 2, abs=1e-9)


def test_fused_yaw_wraps_across_pi():
    states = [box(0, 0, math.radians(350)), box(0, 0, math.radians(10))]
    state, _ = fuse_cluster(states, [0.0, 0.0], np.array([0.5, 0.5]))
    assert abs(angle_diff(state.yaw, 0.0)) < 1e-9


def test_fused_yaw_ignores_flipped_member():
    # Two aligned members and one flipped by ~pi: the flipped one is
    # rotated back before averaging instead of dragging the mean.
    states = [box(0, 0, 0.05), box(0, 0, -0.05), box(0, 0, math.pi - 0.02)]
    scores = [2.0, 1.0, 0.0]
    state, _ = fuse_cluster(states, scores,
                            compute_weights(scores))
    assert abs(angle_diff(state.yaw, 0.0)) < 0.1


def test_weighted_ls_optimality_small_perturbations():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        states = [
            box(*rng.normal(0, 0.3, 2), yaw=rng.normal(0.0, 0.03),
                l=4 + rng.normal(0, 0.1), w=2 + rng.normal(0, 0.1))
            for _ in range(n)
        ]
        scores = rng.normal(1.0, 1.0, n)
        w = compute_weights(scores)
        fused, _ = fuse_cluster(states, scores, w)
        base = weighted_ls_objective(fused, states, w)
        vec = fused.to_vector()
        for field in range(1, 8):
            for sign in (-1.0, 1.0):
                pert = vec.copy()
                pert[field] += sign * 1e-3
                other = ObjectState.from_vector(pert)
                assert weighted_ls_objective(other, states, w) > base


def test_prune_overlaps_keeps_highest_score():
    a = (box(0, 0), 3.0)
    b = (box(0.2, 0), 1.0)     # heavy overlap with a
    c = (box(30, 0), 0.5)
    kept = prune_overlaps([b, a, c], delta=0.1)
    assert kept == [a, c]


def test_prune_overlaps_threshold_inclusive():
    a = (box(0, 0), 2.0)
    b = (box(0.5, 0), 1.0)
    # IoU here is (4-0.5)*2 / ((4*2)*2 - 3.5*2) = 7/9 > delta.
    assert prune_overlaps([a, b], delta=0.7) == [a]
    assert len(prune_overlaps([a, b], delta=0.8)) == 2
    with pytest.raises(ValueError):
        prune_overlaps([a], delta=0.0)


def test_three_stage_counts_and_alignment():
    maps = [
        lmap(0, [ScoredDetection(box(0, 0), 1.0),
                 ScoredDetection(box(40, 0), 1.0)]),
        lmap(1, [ScoredDetection(box(0.5, 0), 2.0)]),
    ]
    res = three_stage_fuse(maps, FusionConfig())
    assert all(m.entries.shape[1] == 2 for m in res.matrices)
    assert len(res.fused_all) == 2
    assert len(res.global_map.objects) == 2
    by_vehicle = {m.vehicle_id: m for m in res.matrices}
    assert by_vehicle[0].entries.shape == (2, 2)
    assert by_vehicle[1].column_of(0) == by_vehicle[0].column_of(0)


def test_three_stage_requires_common_frame_time():
    maps = [lmap(0, [], t=0.0), lmap(1, [], t=1.0)]
    with pytest.raises(ValueError):
        three_stage_fuse(maps)


def test_mean_baseline_differs_from_confidence_weighting():
    maps = [
        lmap(0, [ScoredDetection(box(0.0, 0.0), 0.0)]),
        lmap(1, [ScoredDetection(box(2.0, 0.0), math.log(3.0))]),
    ]
    ts = three_stage_fuse(maps).global_map.objects[0][0]
    mn = baseline_mean_fuse(maps).global_map.objects[0][0]
    assert ts.center[0] == pytest.approx(1.2)
    assert mn.center[0] == pytest.approx(1.0)


def test_max_score_baseline_keeps_best_member_verbatim():
    maps = [
        lmap(0, [ScoredDetection(box(0.0, 0.0, 0.3), 0.0)]),
        lmap(1, [ScoredDetection(box(1.0, 0.0, 0.1), 5.0)]),
    ]
    state, score = baseline_max_score_fuse(maps).global_map.objects[0]
    assert state == box(1.0, 0.0, 0.1)
    assert score == 5.0


@pytest.mark.parametrize("fuse", [three_stage_fuse, baseline_mean_fuse,
                                  baseline_max_score_fuse])
def test_duplicate_vehicle_ids_are_rejected(fuse):
    # Keyed by (vehicle_id, index), the second map would overwrite the
    # first: the fused map would hold only the x=50 box.
    maps = [lmap(0, [ScoredDetection(box(0.0, 0.0), 1.0)]),
            lmap(0, [ScoredDetection(box(50.0, 0.0), 1.0)])]
    with pytest.raises(ValueError, match="duplicate vehicle ids"):
        fuse(maps)


boxes = st.builds(
    ObjectState,
    category=st.integers(0, 2),
    center=st.tuples(st.floats(-20, 20), st.floats(-20, 20),
                     st.floats(0, 2)),
    extents=st.tuples(st.floats(0.5, 5), st.floats(0.5, 3),
                      st.floats(0.5, 2)),
    yaw=st.floats(-math.pi, math.pi),
)
poses = st.builds(
    Pose,
    position=st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.just(0.0)),
    heading=st.floats(-math.pi, math.pi),
)
frames = st.lists(
    st.tuples(
        poses,
        st.lists(st.builds(ScoredDetection, boxes, st.floats(-1e3, 1e3)),
                 max_size=5),
    ),
    min_size=1, max_size=4,
)


@pytest.mark.parametrize("fuse", [three_stage_fuse, baseline_mean_fuse,
                                  baseline_max_score_fuse])
@given(frame=frames)
@settings(max_examples=60, deadline=None)
def test_fusion_path_properties(fuse, frame):
    maps = [lmap(k, dets, pose=pose) for k, (pose, dets) in enumerate(frame)]
    res = fuse(maps)
    for state, score in res.fused_all:
        assert np.isfinite(state.to_vector()).all()
        assert math.isfinite(score)
    entries = [(lm.vehicle_id, n, transform_to_global(d.state, lm.pose))
               for lm in maps for n, d in enumerate(lm.detections)]
    components, _ = cluster_brute_force_oracle(entries, ClusterConfig())
    assert len(res.fused_all) == components
    assert all(obj in res.fused_all for obj in res.global_map.objects)


def test_empty_input():
    res = three_stage_fuse([])
    assert res.fused_all == []
    assert res.global_map.objects == ()


def test_global_map_json_round_trip():
    gmap = GlobalMap(1.5, ((box(1, 2, 0.3), 2.0), (box(-4, 0, -1.0, cat=1), -0.5)))
    line = global_map_to_json(gmap)
    back = global_map_from_json(line)
    assert back.frame_time == gmap.frame_time
    for (sa, ca), (sb, cb) in zip(back.objects, gmap.objects):
        assert ca == cb
        assert np.allclose(sa.to_vector(), sb.to_vector())
    # deterministic serialization
    assert global_map_to_json(back) == line


def test_local_map_json_round_trip():
    lm = lmap(3, [ScoredDetection(box(1, 2, 0.3), 1.25)],
              pose=Pose((5, 6, 0), 0.7), t=2.5)
    back = local_map_from_json(local_map_to_json(lm))
    assert back.vehicle_id == 3
    assert back.pose.heading == pytest.approx(0.7)
    assert back.detections[0].score == 1.25


def test_kitti_line_format():
    line = kitti_label_line(box(1.0, 2.0, 0.5), 0.9)
    parts = line.split()
    assert parts[0] == "Car"
    assert parts[8:11] == ["1.5000", "2.0000", "4.0000"]  # h w l
    assert parts[11:14] == ["1.0000", "2.0000", "0.7500"]  # x y z
    assert parts[14] == "0.5000"
    assert parts[15] == "0.9000"
    ped = kitti_label_line(box(0, 0, cat=1), 0.0)
    assert ped.split()[0] == "Pedestrian"
    other = kitti_label_line(box(0, 0, cat=7), 0.0)
    assert other.split()[0] == "Class7"


def test_global_map_to_kitti_lines():
    gmap = GlobalMap(0.0, ((box(0, 0), 1.0), (box(9, 9), 2.0)))
    lines = global_map_to_kitti(gmap)
    assert len(lines) == 2
    assert all(line.startswith("Car ") for line in lines)
