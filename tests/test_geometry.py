import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mapfuse import geometry
from mapfuse.geometry import (
    IDENTITY_POSE,
    ObjectState,
    Pose,
    _polygon_area,
    _footprint_overlap,
    angle_diff,
    circle_prefilter,
    clip_areas,
    convex_clip,
    footprint_corners,
    iou_bev,
    iou_bev_matrix,
    rows_to_global,
    rows_to_local,
    stacked_footprint_corners,
    transform_to_global,
    transform_to_local,
    wrap_angle,
)
from mapfuse.orchestrator import default_benchmark_config
from mapfuse.orchestrator import testing_frames as eval_window_frames
from mapfuse.simworld import generate_scenario, sense

from oracles import (
    OUTSIDE_BOUNDARY_PAIR,
    POW_BOUNDARY_PAIR,
    iou_3d,
    transform_to_global_reference,
    transform_to_local_reference,
)

finite = st.floats(-100.0, 100.0, allow_nan=False)
angles = st.floats(-10.0, 10.0, allow_nan=False)
sizes = st.floats(0.2, 8.0, allow_nan=False)


def make_state(x, y, z, l, w, h, yaw, category=0):
    return ObjectState(category, (x, y, z), (l, w, h), yaw)


boxes = st.builds(make_state, finite, finite, finite, sizes, sizes, sizes,
                  angles)
poses = st.builds(lambda x, y, z, h: Pose((x, y, z), h), finite, finite,
                  finite, angles)


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
    for a in np.linspace(-50, 50, 1001):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


def test_angle_diff_shortest_arc():
    assert angle_diff(0.1, -0.1) == pytest.approx(0.2)
    assert abs(angle_diff(math.radians(350), math.radians(10))) == (
        pytest.approx(math.radians(20))
    )


def test_object_state_validation():
    with pytest.raises(ValueError):
        make_state(0, 0, 0, -1.0, 1, 1, 0)
    for bad in (math.nan, math.inf, -math.inf):
        for fields in ((bad, 0, 0, 1, 1, 1, 0), (0, 0, 0, bad, 1, 1, 0),
                       (0, 0, 0, 1, 1, 1, bad)):
            with pytest.raises(ValueError, match="finite"):
                make_state(*fields)
    s = make_state(0, 0, 0, 1, 1, 1, 4 * math.pi + 0.3)
    assert s.yaw == pytest.approx(0.3)
    with pytest.raises(ValueError, match="three components"):
        ObjectState(0, (0.0, 0.0), (1.0, 1.0, 1.0), 0.0)


def test_pose_validation():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Pose((bad, 0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="finite"):
            Pose((0.0, 0.0, 0.0), bad)
    with pytest.raises(ValueError, match="three components"):
        Pose((0.0, 0.0), 0.0)


def test_vector_round_trip():
    s = make_state(1, 2, 3, 4, 2, 1.5, 0.7, category=1)
    assert ObjectState.from_vector(s.to_vector()) == s


@given(boxes, poses)
@settings(max_examples=200, deadline=None)
def test_transform_round_trip(state, pose):
    back = transform_to_local(transform_to_global(state, pose), pose)
    assert np.allclose(back.center, state.center, atol=1e-9)
    assert np.allclose(back.extents, state.extents, atol=1e-9)
    assert abs(angle_diff(back.yaw, state.yaw)) < 1e-9


def test_identity_pose_is_identity():
    s = make_state(3, -2, 0.5, 4, 2, 1.5, 1.1)
    assert transform_to_global(s, IDENTITY_POSE) == s


@given(boxes, boxes, poses)
@settings(max_examples=100, deadline=None)
def test_iou_invariant_under_joint_rigid_motion(a, b, pose):
    before = iou_bev(a, b)
    after = iou_bev(transform_to_global(a, pose),
                    transform_to_global(b, pose))
    assert abs(before - after) < 1e-7


@given(boxes, boxes)
@settings(max_examples=200, deadline=None)
def test_iou_symmetric_and_bounded(a, b):
    ab = iou_bev(a, b)
    ba = iou_bev(b, a)
    assert abs(ab - ba) < 1e-9
    assert 0.0 <= ab <= 1.0 + 1e-12


def test_iou_known_values():
    a = make_state(0, 0, 0, 1, 1, 1, 0)
    assert iou_bev(a, a) == pytest.approx(1.0)
    b = make_state(0.5, 0, 0, 1, 1, 1, 0)
    # Intersection 0.5, union 1.5.
    assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    far = make_state(10, 0, 0, 1, 1, 1, 0)
    assert iou_bev(a, far) == 0.0
    rot = make_state(0, 0, 0, 1, 1, 1, math.pi / 2)
    assert iou_bev(a, rot) == pytest.approx(1.0, abs=1e-9)


def test_iou_rotated_diamond():
    # A unit square vs the same square rotated 45 degrees: intersection
    # is a regular octagon with area 8*(sqrt(2)-1)/2... known closed
    # form: 2*(sqrt(2)-1) for unit squares.
    a = make_state(0, 0, 0, 1, 1, 1, 0)
    b = make_state(0, 0, 0, 1, 1, 1, math.pi / 4)
    inter = 2 * (math.sqrt(2) - 1)
    expected = inter / (2 - inter)
    assert iou_bev(a, b) == pytest.approx(expected, abs=1e-12)


def test_iou_3d_vertical_overlap():
    a = make_state(0, 0, 0.0, 2, 2, 2, 0)
    b = make_state(0, 0, 1.0, 2, 2, 2, 0)
    # Full footprint overlap, half the height in common.
    assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    c = make_state(0, 0, 5.0, 2, 2, 2, 0)
    assert iou_3d(a, c) == 0.0


def test_monte_carlo_iou_agreement():
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = make_state(*rng.uniform(-1, 1, 2), 0.0,
                       *rng.uniform(1.0, 4.0, 2), 1.0,
                       rng.uniform(-math.pi, math.pi))
        b = make_state(*rng.uniform(-1, 1, 2), 0.0,
                       *rng.uniform(1.0, 4.0, 2), 1.0,
                       rng.uniform(-math.pi, math.pi))
        exact = iou_bev(a, b)

        pa = footprint_corners(a)
        pb = footprint_corners(b)
        lo = np.minimum(pa.min(axis=0), pb.min(axis=0))
        hi = np.maximum(pa.max(axis=0), pb.max(axis=0))
        pts = rng.uniform(lo, hi, size=(1_000_000, 2))

        def inside(corners, p):
            res = np.ones(len(p), dtype=bool)
            for i in range(4):
                e = corners[(i + 1) % 4] - corners[i]
                v = p - corners[i]
                res &= e[0] * v[:, 1] - e[1] * v[:, 0] >= 0
            return res

        in_a = inside(pa, pts)
        in_b = inside(pb, pts)
        area = np.prod(hi - lo)
        inter = in_a.mean() * area if (in_a & in_b).any() else 0.0
        inter = (in_a & in_b).mean() * area
        union = (in_a | in_b).mean() * area
        mc = inter / union if union > 0 else 0.0
        assert abs(mc - exact) < 2e-3


def test_footprint_corners_ccw():
    s = make_state(1, 2, 0, 4, 2, 1.5, 0.3)
    c = footprint_corners(s)
    area2 = 0.0
    for i in range(4):
        x0, y0 = c[i]
        x1, y1 = c[(i + 1) % 4]
        area2 += x0 * y1 - x1 * y0
    assert area2 > 0  # counter-clockwise
    assert area2 / 2 == pytest.approx(8.0, abs=1e-9)


def pair_of_kind(kind, x, y, l, w, yaw, f):
    """Two boxes in one of the configurations that stress the clip: f in
    (0, 1] scales or shifts the second box."""
    a = make_state(x, y, 0, l, w, 1, yaw)
    c, s = math.cos(yaw), math.sin(yaw)
    if kind == "identical":
        return a, a
    if kind == "shared_edge":
        return a, make_state(x + l * c, y + l * s, 0, l, w, 1, yaw)
    if kind == "inside":
        return a, make_state(x, y, 0, f * l, f * w, 1, yaw)
    if kind == "touching_corner":
        return a, make_state(x + l * c - w * s, y + l * s + w * c, 0, l, w,
                             1, yaw)
    if kind == "parallel":
        # Same edge directions, once as a shifted copy and once as the
        # quarter-turned box with length and width swapped.
        if f < 0.5:
            return a, make_state(x + f * l * c, y + f * l * s, 0, l, w, 1,
                                 yaw)
        return a, make_state(x, y + f, 0, w, l, 1, yaw + math.pi / 2)
    if kind == "near_degenerate":
        # Areas on both sides of the 1e-12 cut-off.
        side = 1e-6 * (0.5 + f)
        return (make_state(x, y, 0, side, side, 1, yaw),
                make_state(x, y, 0, side, l, 1, yaw + f))
    return a, make_state(x + f, y - f, 0, w, l, 1, -yaw * f)


pairs = st.builds(
    pair_of_kind,
    st.sampled_from(["identical", "shared_edge", "inside", "touching_corner",
                     "parallel", "near_degenerate", "random"]),
    st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), sizes, sizes,
    st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi / 4, -math.pi]),
              angles),
    st.floats(0.01, 1.0),
)


# Finite boxes whose reach squares past the float range, or whose areas
# overflow to inf: scalar and matrix IoU must agree on them too.
HUGE_PAIRS = [
    (make_state(10, 2, 0.75, 1e200, 2, 1.5, 0.0),
     make_state(12, 40, 0.75, 4, 2, 1.5, 0.0)),
    (make_state(0, 0, 0, 1e200, 2, 1.5, 0.1),
     make_state(5, 0, 0, 4, 2, 1.5, 0.0)),
    (make_state(0, 0, 0, 1e160, 1e160, 1.5, 0.0),
     make_state(5, 0, 0, 4, 2, 1.5, 0.0)),
    (make_state(0, 0, 0, 1e160, 1e160, 1.5, 0.0),
     make_state(0, 0, 0, 1e160, 1e160, 1.5, 0.3)),
    (make_state(0, 0, 0, 1e160, 1e160, 1.5, 0.0),
     make_state(0, 0, 0, 1e160, 1e160, 1.5, 0.0)),
]


@given(st.lists(pairs, max_size=6))
@example(HUGE_PAIRS)
@example([POW_BOUNDARY_PAIR])
@example([OUTSIDE_BOUNDARY_PAIR])
@settings(max_examples=300, deadline=None)
def test_iou_bev_matrix_is_iou_bev_bit_for_bit(box_pairs):
    # Every first box against every second one: besides each stressed
    # pair, the cross pairs are independent boxes.
    a = [p for p, _ in box_pairs]
    b = [q for _, q in box_pairs]
    scalar = np.array([[iou_bev(p, q) for q in b] for p in a]).reshape(
        len(a), len(b))
    assert iou_bev_matrix(a, b).tobytes() == scalar.tobytes()


def regular_polygon(n, radius, phase, cx, cy):
    t = phase + 2.0 * math.pi * np.arange(n) / n
    return np.stack([cx + radius * np.cos(t), cy + radius * np.sin(t)], -1)


def test_clip_areas_matches_convex_clip_beyond_eight_vertices():
    # Two heptagons clip to up to 14 vertices: the batch widens its rows
    # past a rectangle pair's 8.
    rng = np.random.default_rng(5)
    subject = np.array([
        regular_polygon(7, 1.0, rng.uniform(0, 7), *rng.uniform(-0.5, 0.5, 2))
        for _ in range(200)
    ])
    clip = np.array([regular_polygon(7, 1.0, rng.uniform(0, 7), 0.0, 0.0)
                     for _ in range(200)])
    clipped = [convex_clip([tuple(p) for p in s], [tuple(p) for p in c])
               for s, c in zip(subject.tolist(), clip.tolist())]
    assert max(map(len, clipped)) > 8
    assert clip_areas(subject, clip).tolist() == [
        _polygon_area(poly) for poly in clipped]


def test_circle_prefilter_squares_the_reach_as_iou_bev_does(monkeypatch):
    calls = []  # one entry per pair that iou_bev clips

    def counting_clip(subject, clip):
        calls.append(None)
        return convex_clip(subject, clip)

    monkeypatch.setattr(geometry, "convex_clip", counting_clip)
    a, b = POW_BOUNDARY_PAIR
    reach = 0.5 * math.hypot(1.46, 2.74) * 2.0
    dist2 = b.center[0] * b.center[0]
    # The pair lies between the two roundings of reach squared.
    assert reach ** 2 < dist2 <= reach * reach
    # iou_bev lets it through to the clip, and so does the prefilter; the
    # footprints do not meet.
    assert _footprint_overlap(a, b)[0] == 0.0
    assert len(calls) == 1
    assert circle_prefilter([a, b], [a, b]).tolist() == [[True, True],
                                                          [True, True]]
    assert iou_bev_matrix([a], [b]).tolist() == [[iou_bev(a, b)]]
    # One ulp farther out, both reject the pair before clipping.
    a, b = OUTSIDE_BOUNDARY_PAIR
    assert reach * reach < b.center[0] * b.center[0]
    calls.clear()
    assert _footprint_overlap(a, b)[0] == 0.0
    assert calls == []
    assert circle_prefilter([a, b], [a, b]).tolist() == [[True, False],
                                                          [False, True]]
    assert iou_bev_matrix([a], [b]).tolist() == [[iou_bev(a, b)]]


def test_batched_iou_of_empty_sets():
    one = [make_state(0, 0, 0, 1, 1, 1, 0)]
    assert iou_bev_matrix([], one).shape == (0, 1)
    assert iou_bev_matrix(one, []).shape == (1, 0)
    assert circle_prefilter([], one).shape == (0, 1)
    assert stacked_footprint_corners([]).shape == (0, 4, 2)
    assert clip_areas(np.zeros((0, 4, 2)), np.zeros((0, 4, 2))).shape == (0,)


def test_stacked_corners_equal_footprint_corners_on_seed0_test_frames():
    cfg = default_benchmark_config(0)
    scenario = generate_scenario(cfg.scenario, cfg.seed)
    states = []
    for f in eval_window_frames(cfg.scenario, cfg.train)[:10]:
        states += [scenario.object_state(f, i)
                   for i in range(cfg.scenario.num_objects)]
        for k in range(scenario.num_vehicles):
            lm = sense(scenario, k, f, cfg.noise, cfg.sensor_seed)[0]
            states += [transform_to_global(d.state, lm.pose)
                       for d in lm.detections]
    corners = stacked_footprint_corners(states)
    assert corners.shape == (len(states), 4, 2)
    for got, state in zip(corners, states):
        assert np.array_equal(got, footprint_corners(state))


# Coordinates that are -0.0 (the added position turns them +0.0), yaws
# within 1e-12 of either seam, and headings beyond +-pi.
signed_coords = st.one_of(st.sampled_from([-0.0, 0.0]), finite)
seam_yaws = st.one_of(st.floats(math.pi - 1e-12, math.pi),
                      st.floats(-math.pi, -math.pi + 1e-12),
                      st.floats(-math.pi, math.pi))
row_poses = st.one_of(
    st.just(IDENTITY_POSE),
    st.builds(Pose, st.tuples(signed_coords, signed_coords, signed_coords),
              st.one_of(angles, st.sampled_from([math.pi, -math.pi]))),
)
row_boxes = st.builds(make_state, signed_coords, signed_coords,
                      signed_coords, sizes, sizes, sizes, seam_yaws,
                      st.integers(0, 2))


# Each row transform with its one-row form and the scalar reference.
row_transforms = st.sampled_from([
    (rows_to_global, transform_to_global, transform_to_global_reference),
    (rows_to_local, transform_to_local, transform_to_local_reference),
])


@given(row_transforms,
       st.lists(st.tuples(row_poses, st.lists(row_boxes, max_size=5)),
                max_size=5))
@settings(max_examples=200, deadline=None)
def test_row_transform_is_transform_to_global_bit_for_bit(transforms, frame):
    rows_fn, one_row, reference = transforms
    poses = [pose for pose, _ in frame]
    counts = [len(states) for _, states in frame]
    vecs = np.array([s.to_vector() for _, states in frame for s in states])
    got = rows_fn(vecs.reshape(-1, 8), poses, counts)
    want = [reference(s, pose) for pose, states in frame for s in states]
    ones = [one_row(s, pose) for pose, states in frame for s in states]
    assert got.shape == (len(want), 8)
    for row, one, state in zip(got.tolist(), ones, want, strict=True):
        hexes = [float(v).hex() for v in state.to_vector()]
        assert [v.hex() for v in row] == hexes
        assert [float(v).hex() for v in one.to_vector()] == hexes
        assert type(one.category) is int and one.category == state.category


def test_scalar_transforms_reject_a_box_beyond_the_finite_range():
    # The global x overflows and the local offset from a pose at -1.7e308
    # does too; either way the box fails as the scalar reference does,
    # and with no numpy warning (warnings are errors here).
    huge = make_state(1.7e308, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0, category=2)
    pose = Pose((1.7e308, 0.0, 0.0), 0.0)
    far = Pose((-1.7e308, 0.0, 0.0), 0.0)
    for fn, ref, p in ((transform_to_global, transform_to_global_reference,
                        pose),
                       (transform_to_local, transform_to_local_reference,
                        far)):
        with pytest.raises(ValueError, match="finite"):
            ref(huge, p)
        with pytest.raises(ValueError, match="finite"):
            fn(huge, p)
