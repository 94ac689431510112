import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mapfuse.association import ClusterConfig
from mapfuse.fusion import (
    Boxes,
    FusionConfig,
    RowError,
    _fuse_block,
    _max_score_rule,
    _mean_rule,
    _sigmoid,
    _size_groups,
    _weighted_rule,
    _weights,
    GlobalMap,
    LocalMap,
    ScoredDetection,
    baseline_max_score_fuse,
    baseline_mean_fuse,
    compute_weights,
    frame_boxes,
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
    InputError,
    ObjectState,
    Pose,
    angle_diff,
    transform_to_global,
    wrap_angle,
)
from oracles import (
    POW_BOUNDARY_PAIR,
    cluster_brute_force_oracle,
    compute_weights_reference,
    fuse_cluster_reference,
    fuse_frame_reference,
    max_score_reference,
    prune_overlaps_reference,
    weighted_ls_objective,
)


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


@pytest.mark.parametrize("scores, gap", [
    ([-744.0, -744.3], 0.3),
    ([-740.0, -742.0], 2.0),
])
def test_weights_when_every_sigmoid_is_subnormal(scores, gap):
    # Below about -708 every sigmoid is subnormal and keeps few significant
    # bits; the weights must still be the normalized sigmoids, whose top
    # entry is 1 / (1 + exp(-gap)) to far below 1e-12.
    top = 1.0 / (1.0 + math.exp(-gap))
    w = compute_weights(scores)
    assert w == pytest.approx([top, 1.0 - top], abs=1e-12)


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


def bits(fused):
    """A fused (state, score) pair as hex floats, so that equal means
    bit-identical (and -0.0 differs from 0.0)."""
    state, score = fused
    return (state.category, [v.hex() for v in
                             (*state.center, *state.extents, state.yaw)],
            float(score).hex())


def fused_pairs(rows):
    """A rule's (G, 9) fused rows as (state, score) pairs, each yaw kept
    as its row holds it."""
    return [(ObjectState.from_row(r[:8]), r[8]) for r in rows.tolist()]


# Yaws at and next to the +-pi seam, where wrapping and flipping meet.
seam_yaws = st.one_of(
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), math.pi / 2, 0.0]),
    st.floats(-math.pi, math.pi),
)
# Raw scores: ordinary, huge, and below -708 where every sigmoid is
# subnormal or 0.
raw_scores = st.one_of(st.floats(-30.0, 30.0), st.floats(-1e4, 1e4),
                       st.floats(-800.0, -708.0))


@st.composite
def cluster_frames(draw):
    """A frame of clusters of 1 to 12 members each, mixed sizes, nine or
    more (where numpy's pairwise summation starts) drawn often: each
    cluster's member list and scores, and the frame's (N,) cluster labels,
    which interleave the clusters' members (see frame_kernel_args)."""
    sizes = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(9, 12)),
                          min_size=1, max_size=6))
    states, scores = [], []
    for n in sizes:
        base = draw(seam_yaws)
        members = []
        for _ in range(n):
            # About a third of the members are seen flipped by pi.
            yaw = base + draw(st.floats(-0.2, 0.2))
            if draw(st.integers(0, 2)) == 0:
                yaw += math.pi
            members.append(ObjectState(
                draw(st.integers(0, 2)),
                (draw(st.floats(-50, 50)), draw(st.floats(-50, 50)),
                 draw(st.floats(0, 2))),
                (draw(st.floats(0.5, 5)), draw(st.floats(0.5, 3)),
                 draw(st.floats(0.5, 2))),
                yaw,
            ))
        states.append(members)
        kind = draw(st.sampled_from(["mixed", "subnormal", "tied"]))
        if kind == "mixed":
            row = [draw(raw_scores) for _ in range(n)]
        elif kind == "subnormal":
            row = [draw(st.floats(-800.0, -708.0)) for _ in range(n)]
        else:
            # One score for all and alternating categories: the vote ties.
            row = [draw(st.floats(-5.0, 5.0))] * n
            members[:] = [ObjectState(k % 2, m.center, m.extents, m.yaw)
                          for k, m in enumerate(members)]
        scores.append(row)
    # Frame slot -> cluster; a cluster's k-th slot holds its k-th member.
    label = draw(st.permutations(
        [c for c, n in enumerate(sizes) for _ in range(n)]))
    return states, [np.array(row) for row in scores], np.array(label)


def frame_kernel_args(states, scores, label):
    """A rule's arguments for a frame whose slots hold the clusters'
    members as labelled: rows, scores, labels and size groups; each
    group's rows are its clusters' members in frame order."""
    members = [iter(zip(m, row)) for m, row in zip(states, scores)]
    slots = [next(members[c]) for c in label]
    vecs = np.array([m.to_vector() for m, _ in slots])
    scores = np.array([score for _, score in slots])
    groups = _size_groups(label)
    for clusters, idx in groups:
        for c, members in zip(clusters, idx):
            assert members.tolist() == np.flatnonzero(label == c).tolist()
    assert sorted(c for clusters, _ in groups for c in clusters) == list(
        range(label.max() + 1))
    return vecs, scores, label, groups


def scored_frame(cluster_scores, label):
    """A cluster_frames frame of clusters with the given scores, their
    members side by side (every third one flipped), in the slots label
    gives them."""
    states = [[ObjectState(k % 3, (2.0 * c + 0.3 * k, -1.0 * k, 0.5),
                           (4.0, 2.0, 1.5),
                           0.3 * k - 1.0 + (math.pi if k == 2 else 0.0))
               for k in range(len(row))]
              for c, row in enumerate(cluster_scores)]
    return (states, [np.array(row, dtype=float) for row in cluster_scores],
            np.array(label))


@given(cluster_frames())
# Every member's sigmoid a normal double: each group is only normalized.
@example(scored_frame([[1.5, -0.5, 3.0], [0.25], [-4.0, 2.0]],
                      [0, 2, 1, 0, 2, 0]))
# One cluster's scores all below -708, next to ordinary clusters: that
# cluster takes the exp(s - max s) limit.
@example(scored_frame([[1.0, -2.0], [-750.0, -720.5, -800.0], [0.5, 4.0]],
                      [1, 0, 2, 1, 0, 2, 1]))
@settings(max_examples=300, deadline=None)
def test_size_group_kernel_is_the_per_cluster_fusion_bit_for_bit(frame):
    states, cluster_scores, label = frame
    args = frame_kernel_args(states, cluster_scores, label)
    _, scores, _, groups = args
    weights = {}
    raw = _sigmoid(scores)
    for clusters, idx in groups:
        weights.update(zip(clusters.tolist(),
                           _weights(raw[idx], scores[idx])))
    for c, (members, row, weighted, mean, best) in enumerate(zip(
            states, cluster_scores, fused_pairs(_weighted_rule(*args)),
            fused_pairs(_mean_rule(*args)),
            fused_pairs(_max_score_rule(*args)))):
        n = len(members)
        want_w = compute_weights_reference(row)
        assert weights[c].tobytes() == want_w.tobytes()
        assert compute_weights(row).tobytes() == want_w.tobytes()
        assert bits(weighted) == bits(
            fuse_cluster_reference(members, row, want_w))
        assert bits(fuse_cluster(members, row, want_w)) == bits(weighted)
        assert bits(mean) == bits(
            fuse_cluster_reference(members, row, np.full(n, 1.0 / n)))
        # The winner is rebuilt from its row, bit for bit.
        want = max_score_reference(members, row.tolist())
        assert best[0] == want[0]
        assert bits(best) == bits(want)


@given(cluster_frames(), st.data())
@settings(max_examples=100, deadline=None)
def test_size_group_kernel_when_sin_and_cos_sums_cancel(frame, data):
    # Each member is followed by its half-size copy, the pair weighted +w
    # and -w: the sin and cos sums cancel, so the fused yaw falls back to
    # the dominant member's, while the extents stay positive.
    states, scores, label = frame
    states = [[m for s in members for m in
               (s, ObjectState(s.category, s.center,
                               tuple(0.5 * e for e in s.extents), s.yaw))]
              for members in states]
    scores = [np.repeat(row, 2) for row in scores]
    label = np.repeat(label, 2)
    half = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(label) // 2,
                              max_size=len(label) // 2))
    member_w = np.repeat(half, 2)
    member_w[1::2] *= -1.0
    args = frame_kernel_args(states, scores, label)
    fused = _fuse_block(*args, [member_w[idx] for _, idx in args[3]])
    for c, (members, row, got) in enumerate(zip(states, scores,
                                                fused_pairs(fused))):
        want = fuse_cluster_reference(members, row, member_w[label == c])
        assert bits(got) == bits(want)


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


def crowded_frame(rng, n):
    """n fused-looking boxes packed into a 30 m square, with tied scores."""
    return [
        (box(*rng.uniform(-15, 15, 2), yaw=rng.uniform(-math.pi, math.pi),
             l=rng.uniform(0.5, 5), w=rng.uniform(0.5, 2.5),
             cat=int(rng.integers(0, 3))),
         float(rng.integers(-3, 4)) if rng.random() < 0.3
         else float(rng.normal(0, 2)))
        for _ in range(n)
    ]


def test_prune_overlaps_matches_the_scalar_loop_on_crowded_frames():
    rng = np.random.default_rng(11)
    for _ in range(200):
        objects = crowded_frame(rng, int(rng.integers(0, 60)))
        objects += [(s, float(rng.normal())) for s in POW_BOUNDARY_PAIR]
        objects = [objects[i] for i in rng.permutation(len(objects))]
        delta = float(rng.uniform(0.01, 0.9))
        assert prune_overlaps(objects, delta) == prune_overlaps_reference(
            objects, delta)


def test_three_stage_counts_and_alignment():
    maps = [
        lmap(0, [ScoredDetection(box(0, 0), 1.0),
                 ScoredDetection(box(40, 0), 1.0)]),
        lmap(1, [ScoredDetection(box(0.5, 0), 2.0)]),
    ]
    res = three_stage_fuse(maps, FusionConfig())
    assert len(res.fused_all) == 2
    assert len(res.global_map.objects) == 2
    assert res.labels == {0: [0, 1], 1: [0]}


def test_three_stage_requires_common_frame_time():
    maps = [lmap(0, [], t=0.0), lmap(1, [], t=1.0)]
    with pytest.raises(InputError, match="share a frame time"):
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
    with pytest.raises(InputError, match="duplicate vehicle ids"):
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


@pytest.mark.parametrize("fuse", [three_stage_fuse, baseline_mean_fuse,
                                  baseline_max_score_fuse])
@given(frame=frames, data=st.data())
@settings(max_examples=60, deadline=None)
def test_fusion_ignores_map_order(fuse, frame, data):
    maps = [lmap(k, dets, pose=pose) for k, (pose, dets) in enumerate(frame)]
    shuffled = data.draw(st.permutations(maps))
    # repr tells apart every float bit pattern that == would merge (-0.0).
    assert repr(fuse(shuffled)) == repr(fuse(maps))


@pytest.mark.parametrize("fuse", [three_stage_fuse, baseline_mean_fuse,
                                  baseline_max_score_fuse])
@given(frame=frames, empty=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_fusion_matches_the_scalar_reference(fuse, frame, empty):
    # Vehicle-frame maps with real poses, one of them possibly empty: rows
    # moved by one transform and fused in size groups against every
    # detection transformed, clustered and fused on its own.
    maps = [lmap(k, dets if k != empty else (), pose=pose)
            for k, (pose, dets) in enumerate(frame)]
    assert repr(fuse(maps)) == repr(fuse_frame_reference(maps, fuse.__name__))


def test_boxes_is_a_sequence_of_scored_detections():
    dets = (ScoredDetection(box(1, 2, 0.5), 0.25),
            ScoredDetection(box(-0.0, 3, cat=2), -1.0))
    block = Boxes(dets)
    # The block keeps its rows only: its items are rebuilt from them.
    assert len(block) == 2 and tuple(block) == dets and block[1] == dets[1]
    assert repr(tuple(block)) == repr(dets)
    assert block == dets and block == [tuple(d) for d in dets]
    assert block != dets[:1] and block != 5
    assert block.vecs.tolist() == [list(d.state.to_vector()) for d in dets]
    assert block.scores.tolist() == [0.25, -1.0]
    assert block.rows.tolist() == [[*v, c] for v, c in zip(
        block.vecs.tolist(), block.scores.tolist())]
    state, score = block[0]
    assert (state, score) == (dets[0].state, 0.25)
    part = block[1:]
    assert isinstance(part, Boxes) and part == dets[1:]
    # -0.0 == 0.0, so the blocks are equal and must hash alike.
    zero = Boxes([(box(0.0, 3, cat=2), -1.0)])
    assert part == zero and hash(part) == hash(zero)
    with pytest.raises(ValueError):
        block.vecs[0, 1] = 5.0
    with pytest.raises(AttributeError):
        block.scores = None
    assert Boxes() == () and len(Boxes()) == 0
    for copied in (copy.deepcopy(part), pickle.loads(pickle.dumps(part))):
        assert repr(copied) == repr(part) and copied == part
    assert lmap(0, dets).detections == block


def test_boxes_indexes_as_a_tuple_does():
    dets = (ScoredDetection(box(1, 2, 0.5), 0.25),
            ScoredDetection(box(-0.0, 3, cat=2), -1.0))
    block = Boxes(dets)
    for i in (0, 1, -1, -2, np.int64(1), True):
        assert block[i] == dets[i]
    for i in (2, -3):
        with pytest.raises(IndexError):
            block[i]
    for i in (1.0, np.float64(0.0), "0", (0, 1)):
        with pytest.raises(TypeError):
            block[i]


def test_scored_detection_is_a_typed_pair():
    det = ScoredDetection(box(1, 2, 0.5), 0.25)
    state, score = det
    assert (state, score) == (det.state, det.score) == (box(1, 2, 0.5), 0.25)
    assert det == (box(1, 2, 0.5), 0.25) and tuple(det) == (state, score)
    assert repr(det) == (
        "ScoredDetection(state=ObjectState(category=0, center=(1.0, 2.0, "
        "0.75), extents=(4.0, 2.0, 1.5), yaw=0.5), score=0.25)")


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_every_block_rejects_a_non_finite_score(score):
    # A pair does not check its score; each block it can enter does.
    pairs = [ScoredDetection(box(0, 0), 1.0),
             ScoredDetection(box(9, 0), score)]
    for make in (Boxes, lambda p: lmap(0, p), lambda p: GlobalMap(0.0, p)):
        with pytest.raises(RowError, match="finite") as info:
            make(pairs)
        assert info.value.row == 1


def test_boxes_from_rows_checks_once_and_wraps_the_yaw():
    # Just below -pi, the bare remainder formula rounds up to +pi
    # exactly; wrap_angle, which the block uses, gives -pi.
    below = math.nextafter(-math.pi, -math.inf)
    assert wrap(below) == math.pi and wrap_angle(below) == -math.pi
    rows = np.array([[1.0, 0, 0, 0, 4, 2, 1.5, 3 * math.pi, 0.5],
                     [0.0, 5, 5, 0, 4, 2, 1.5, below, 1.0]])
    block = Boxes.from_rows(rows)
    assert rows[0, 7] == 3 * math.pi   # the caller's rows are not touched
    assert block.vecs[:, 7].tolist() == [wrap(3 * math.pi), -math.pi]
    # Items are made from the rows without a second wrap.
    assert [d.state.yaw for d in block] == [wrap(3 * math.pi), -math.pi]
    assert block[0].state.category == 1 and block[1].score == 1.0
    for row, col, bad, reason in [
        (1, 3, math.nan, "finite"), (0, 8, math.inf, "finite"),
        (1, 5, 0.0, "extents"), (0, 4, -1.0, "extents"),
        (1, 0, 1.5, "category"), (0, 0, -1.0, "category"),
        (1, 0, 65536.0, "category"),
    ]:
        bad_rows = rows.copy()
        bad_rows[row, col] = bad
        with pytest.raises(RowError, match=reason) as info:
            Boxes.from_rows(bad_rows)
        assert info.value.row == row
    with pytest.raises(ValueError, match="expected"):
        Boxes.from_rows(rows[:, :8])
    # Items are checked when the block is made: a category must fit the
    # wire.
    with pytest.raises(RowError, match="category") as info:
        Boxes([(box(0, 0), 1.0), (box(0, 0, cat=70000), 1.0)])
    assert info.value.row == 1
    record = json.loads(local_map_to_json(lmap(0, [(box(0, 0), 1.0)])))
    record["detections"][0]["category"] = 70000
    with pytest.raises(InputError, match=r"detections\[0\].*category"):
        local_map_from_json(json.dumps(record))


def test_frame_boxes_names_the_row_that_overflows():
    far = Pose(position=(1.7e308, 0.0, 0.0), heading=0.0)
    maps = [lmap(0, [(box(0, 0), 1.0)]),
            lmap(1, [(box(1, 0), 1.0), (box(1.7e308, 0), 1.0)], pose=far)]
    with pytest.raises(RowError, match="finite range") as info:
        frame_boxes(maps)
    assert info.value.row == 2
    record = json.loads(local_map_to_json(maps[1]))
    with pytest.raises(InputError, match=r"detections\[1\].*finite range"):
        local_map_from_json(json.dumps(record))


def wrap(theta):
    return (theta + math.pi) % (2 * math.pi) - math.pi


def test_empty_input():
    res = three_stage_fuse([])
    assert res.fused_all == []
    assert res.labels == {}
    assert res.global_map.objects == ()


def test_global_map_repr_lists_its_boxes_as_pairs():
    # The edge_fusion benchmark's output digest hashes this repr.
    gmap = GlobalMap(0.5, [(box(1.0, 2.0, 0.25), 1.5),
                           (box(-0.0, 30.0, cat=2), -1.0)])
    assert repr(gmap) == (
        "GlobalMap(frame_time=0.5, objects=("
        "(ObjectState(category=0, center=(1.0, 2.0, 0.75), "
        "extents=(4.0, 2.0, 1.5), yaw=0.25), 1.5), "
        "(ObjectState(category=2, center=(-0.0, 30.0, 0.75), "
        "extents=(4.0, 2.0, 1.5), yaw=0.0), -1.0)))")
    # A fused map made from rows reads the same.
    fused = baseline_max_score_fuse(
        [lmap(0, [(box(-0.0, 30.0, cat=2), -1.0), (box(1.0, 2.0, 0.25), 1.5)],
              t=0.5)]).global_map
    assert repr(fused) == repr(gmap).replace("-0.0", "0.0")


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


@pytest.mark.parametrize("record, field", [
    ([1, 2], "JSON object"),
    (None, "JSON object"),
    ({"objects": 5, "frame_time": 0}, "'objects'"),
    ({"objects": [], "frame_time": "x"}, "'frame_time'"),
    ({"objects": []}, "missing field 'frame_time'"),
    ({"frame_time": 0.5}, "missing field 'objects'"),
    ({"objects": [5], "frame_time": 0.5}, "'objects'"),
    ({"objects": [{"score": 1.0}], "frame_time": 0.5},
     "'objects\\[0\\].category'"),
    ({"objects": [{"category": 0, "center": [1.0, 2.0]}], "frame_time": 0.5},
     "'objects\\[0\\].center'"),
    ({"objects": [{"category": 0, "center": [1.0, 2.0, 0.5],
                   "extents": [4.0, 2.0, 1.5, 1.0]}], "frame_time": 0.5},
     "'objects\\[0\\].extents'"),
    ({"objects": [{"category": 0, "center": [1.0, 2.0, 0.5],
                   "extents": [4.0, 0.0, 1.5], "yaw": 0.0, "score": 1.0}],
      "frame_time": 0.5}, "'objects\\[0\\]'"),
], ids=["root-list", "root-null", "objects-number", "frame-time-string",
        "frame-time-missing", "objects-missing", "object-number",
        "category-missing", "center-short", "extents-long", "extent-zero"])
def test_global_map_from_json_names_the_bad_field(record, field):
    with pytest.raises(ValueError, match=field):
        global_map_from_json(json.dumps(record))


@pytest.mark.parametrize("category", [-1, 70000, 10 ** 400],
                         ids=["negative", "wide", "huge"])
def test_map_records_reject_a_category_off_the_wire(category):
    # Each is an InputError naming the field, in either kind of map: a
    # huge integer must not overflow on its way to a float row.
    lm = lmap(0, [(box(0, 0), 1.0)])
    for to_json, from_json, entry in [
            (local_map_to_json, local_map_from_json, "detections"),
            (global_map_to_json, global_map_from_json, "objects")]:
        record = json.loads(to_json(
            lm if entry == "detections" else GlobalMap(0.0, lm.detections)))
        record[entry][0]["category"] = category
        with pytest.raises(InputError, match=rf"'{entry}\[0\]\.category'"):
            from_json(json.dumps(record))


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
