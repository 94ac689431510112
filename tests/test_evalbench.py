import pytest
from hypothesis import given, strategies as st

from mapfuse.evalbench import (
    IOU_THRESHOLD,
    Accumulator,
    BenchmarkTag,
    EvalReport,
    MethodResult,
    SLICE_BITS,
    SLICE_NAMES,
    average_precision,
    distance_slice,
    greedy_assign,
    match_detections,
    occlusion_slice,
    overlap_rows,
    overlap_sets,
    slice_bits,
    tag_objects,
)
from mapfuse.fusion import three_stage_fuse
from mapfuse.geometry import ObjectState, iou_bev
from mapfuse.simworld import (
    DetectorNoiseSpec,
    ScenarioConfig,
    generate_scenario,
    sense,
)

from oracles import (
    SliceAccumulator,
    average_precision_reference,
    slice_membership,
)


def box(x, y, yaw=0.0, l=4.0, w=2.0):
    return ObjectState(0, (x, y, 0.75), (l, w, 1.5), yaw)


def test_slice_thresholds():
    assert distance_slice(5.0) == "SR"
    assert distance_slice(20.0) == "MR"
    assert distance_slice(50.0) == "LR"
    assert occlusion_slice(0.0) == "NO"
    assert occlusion_slice(0.1) == "PO"
    assert occlusion_slice(0.5) == "LO"


def test_match_greedy_score_order():
    truth = box(0, 0)
    # the higher-scoring prediction claims the only truth
    assigned = match_detections([(box(0.1, 0), 1.0), (box(0, 0), 5.0)],
                                [truth])
    assert assigned == [None, 0]
    # equal scores: earlier index wins
    assigned = match_detections([(box(0.1, 0), 1.0), (box(0, 0), 1.0)],
                                [truth])
    assert assigned == [0, None]


def test_match_requires_iou_threshold():
    assert match_detections([(box(3.0, 0), 1.0)], [box(0, 0)]) == [None]
    assert match_detections([(box(0, 0), 1.0)], [box(0, 0)]) == [0]
    # Shifted along a 4 m box, IoU is (4 - d) / (4 + d): d = 0.7 gives
    # 0.702 (a match) and d = 0.71 gives 0.698 (none) at IOU_THRESHOLD.
    assert IOU_THRESHOLD == 0.7
    assert match_detections([(box(0.7, 0), 1.0)], [box(0, 0)]) == [0]
    assert match_detections([(box(0.71, 0), 1.0)], [box(0, 0)]) == [None]


def test_match_one_to_one():
    t = [box(0, 0), box(0.4, 0)]
    preds = [(box(0.0, 0), 2.0), (box(0.4, 0), 1.0)]
    assigned = match_detections(preds, t)
    assert assigned == [0, 1]


def test_average_precision_known_cases():
    assert average_precision([], 0) is None
    assert average_precision([], 3) == 0.0
    assert average_precision([(1.0, True)], 1) == 1.0
    assert average_precision([(1.0, False)], 1) == 0.0
    # TP, FP, TP over two truths: AP = 0.5*1 + 0.5*(2/3) = 5/6.
    ap = average_precision([(3.0, True), (2.0, False), (1.0, True)], 2)
    assert ap == pytest.approx(5 / 6, abs=1e-12)
    # score order matters, input order does not
    ap2 = average_precision([(1.0, True), (3.0, True), (2.0, False)], 2)
    assert ap2 == pytest.approx(5 / 6, abs=1e-12)


def test_accumulator_ignores_out_of_slice_matches():
    acc = Accumulator()
    truths = [box(0, 0), box(100, 0)]
    tags = [
        BenchmarkTag(0, 5.0, 0.0, 1, "SR", "NO"),
        BenchmarkTag(1, 60.0, 0.6, 1, "LR", "LO"),
    ]
    preds = [(box(0, 0), 2.0), (box(100, 0), 1.0)]
    acc.add_frame(preds, truths, tags, "LD")
    res = acc.results()
    assert res["overall"] == 1.0
    # In the SR slice the LR match is ignored, not a false positive.
    assert res["SR"] == 1.0
    assert res["LR"] == 1.0
    assert res["HD"] is None  # no HD frames seen


def test_accumulator_density_slices_are_frame_level():
    acc = Accumulator()
    t = [box(0, 0)]
    tag_ld = [BenchmarkTag(0, 5.0, 0.0, 1, "SR", "NO")]
    tag_hd = [BenchmarkTag(0, 5.0, 0.0, 3, "SR", "NO")]
    acc.add_frame([(box(0, 0), 1.0)], t, tag_ld, "LD")
    acc.add_frame([(box(5, 5), 1.0)], t, tag_hd, "HD")  # miss in HD frame
    res = acc.results()
    assert res["LD"] == 1.0
    assert res["HD"] == 0.0


def test_accumulator_masks_foreign_matches():
    acc = Accumulator()
    truths = [box(0, 0), box(50, 0)]
    preds = [(box(0, 0), 2.0), (box(50, 0), 1.0)]
    scores = [score for _, score in preds]
    acc.add(scores, match_detections(preds, truths),
            [SLICE_BITS["overall"], 0], "LD")
    assert sum(bool(b & SLICE_BITS["overall"]) for b in acc.truth_bits) == 1
    assert acc.results()["overall"] == 1.0


def test_accumulator_rejects_an_unaligned_frame():
    # Records are parallel lists, so one short frame would shift every
    # later record's score against its match.
    acc = Accumulator()
    with pytest.raises(ValueError, match="one assignment per score"):
        acc.add([1.0, 0.5], [None], [SLICE_BITS["overall"]], "LD")
    with pytest.raises(ValueError, match="one tag per ground-truth object"):
        acc.add_frame([(box(0, 0), 1.0)], [box(0, 0), box(50, 0)],
                      [BenchmarkTag(0, 5.0, 0.0, 1, "SR", "NO")], "LD")
    assert acc.results()["overall"] is None


def test_slice_bits_none_tag_is_in_no_slice():
    tags = [BenchmarkTag(0, 5.0, 0.0, 1, "SR", "NO"), None,
            BenchmarkTag(2, 60.0, 0.6, 1, "LR", "LO")]
    bits = slice_bits(tags, "HD")

    def flags(name):
        return [bool(b & SLICE_BITS[name]) for b in bits]

    assert flags("LD") == [False, False, False]
    assert flags("overall") == [True, False, True]
    assert flags("HD") == [True, False, True]
    assert flags("SR") == [True, False, False]
    assert flags("LO") == [False, False, True]
    assert bits[1] == 0


@given(records=st.lists(
    st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), st.booleans()),
    max_size=30), num_truths=st.integers(0, 12))
def test_average_precision_equals_the_loop_reference(records, num_truths):
    assert (average_precision(records, num_truths)
            == average_precision_reference(records, num_truths))


def random_frame(draw):
    """One frame for the scoring oracle: tags (some None), a density,
    scores drawn from a small set so that ties occur, and a one-to-one
    assignment with misses and matches on truths in no slice."""
    tag = st.one_of(st.none(), st.builds(
        BenchmarkTag, st.just(0), st.just(0.0), st.just(0.0), st.just(1),
        st.sampled_from(["SR", "MR", "LR"]),
        st.sampled_from(["NO", "PO", "LO"])))
    tags = draw(st.lists(tag, max_size=6))
    density = draw(st.sampled_from(["LD", "HD"]))
    scores = draw(st.lists(st.sampled_from([0.1, 0.5, 0.9, 2.0]),
                           max_size=8))
    claims = draw(st.permutations(range(len(scores))))
    assigned = [None] * len(scores)
    for j, i in enumerate(claims[:len(tags)]):
        if draw(st.booleans()):
            assigned[i] = j
    return tags, density, scores, assigned


@given(data=st.data())
def test_accumulator_equals_the_per_slice_oracle(data):
    acc, oracle = Accumulator(), SliceAccumulator()
    for _ in range(data.draw(st.integers(0, 8))):
        tags, density, scores, assigned = random_frame(data.draw)
        acc.add(scores, assigned, slice_bits(tags, density), density)
        oracle.add(scores, assigned, slice_membership(tags, density))
    assert acc.results() == oracle.results()


def _bits(ap):
    return None if ap is None else ap.hex()


@given(data=st.data(),
       scores=st.lists(st.floats(allow_nan=False), unique=True, max_size=30),
       num_truths=st.integers(0, 40))
def test_average_precision_ignores_the_order_of_distinct_scores(
        data, scores, num_truths):
    # run_experiment adds a local method's records frame by frame, not
    # vehicle by vehicle: with distinct scores that order cannot show.
    records = [(s, data.draw(st.booleans())) for s in scores]
    shuffled = data.draw(st.permutations(records))
    assert (_bits(average_precision(shuffled, num_truths))
            == _bits(average_precision(records, num_truths)))


def test_average_precision_keeps_record_order_between_equal_scores():
    # A hit and a miss at one score: taken hit first, the hit comes at
    # full precision; taken miss first, at half.
    assert average_precision([(1.0, True), (1.0, False)], 1) == 1.0
    assert average_precision([(1.0, False), (1.0, True)], 1) == 0.5
    # So the order in which an accumulator is fed matters between ties.
    hit = ([1.0], [0], [SLICE_BITS["overall"]], "LD")
    miss = ([1.0], [None], [], "LD")
    hit_first, miss_first = Accumulator(), Accumulator()
    for frame in (hit, miss):
        hit_first.add(*frame)
    for frame in (miss, hit):
        miss_first.add(*frame)
    assert hit_first.results()["overall"] == 1.0
    assert miss_first.results()["overall"] == 0.5


def reference_match(predictions, truths):
    """Greedy matching as one scalar loop, skipping claimed truths."""
    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i][1], i))
    assigned = [None] * len(predictions)
    taken = [False] * len(truths)
    for i in order:
        best_j, best_iou = None, IOU_THRESHOLD
        for j, truth in enumerate(truths):
            if taken[j]:
                continue
            iou = iou_bev(predictions[i][0], truth)
            if iou >= best_iou and (best_j is None or iou > best_iou):
                best_j, best_iou = j, iou
        if best_j is not None:
            assigned[i] = best_j
            taken[best_j] = True
    return assigned


# Boxes near one of two anchors 10 m apart: about a quarter of the pairs
# at one anchor reach IOU_THRESHOLD, and pairs across anchors never touch.
small_box_st = st.builds(
    lambda anchor, x, y, yaw, l, w: box(anchor + x, y, yaw, l, w),
    st.sampled_from([0.0, 10.0]), st.floats(-0.5, 0.5),
    st.floats(-0.5, 0.5), st.floats(-0.2, 0.2),
    st.floats(3.5, 4.5), st.floats(1.8, 2.2),
)


@given(
    preds=st.lists(
        st.tuples(small_box_st, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        max_size=6,
    ),
    truths_masks=st.lists(st.tuples(small_box_st, st.booleans()),
                          max_size=6),
)
def test_masked_greedy_equals_matching_the_subset(preds, truths_masks):
    truths = [t for t, _ in truths_masks]
    mask = [m for _, m in truths_masks]
    subset = [j for j, m in enumerate(mask) if m]
    scores = [score for _, score in preds]
    rows = overlap_rows(preds, truths)
    direct = match_detections(preds, [truths[j] for j in subset])
    assert greedy_assign(scores, rows, mask) == [
        None if i is None else subset[i] for i in direct
    ]
    assert direct == reference_match(preds, [truths[j] for j in subset])
    assert greedy_assign(scores, rows) == reference_match(preds, truths)


@given(
    sets=st.lists(st.lists(st.tuples(small_box_st, st.just(1.0)),
                           max_size=4), max_size=4),
    truths=st.lists(small_box_st, max_size=5),
    frames=st.lists(st.tuples(
        st.lists(st.tuples(small_box_st, st.just(1.0)), max_size=4),
        st.lists(small_box_st, max_size=5)), min_size=1, max_size=4),
)
def test_overlap_rows_of_a_concatenation_are_the_per_set_rows(sets, truths,
                                                              frames):
    joined = overlap_rows([p for preds in sets for p in preds], truths)
    per_set = [row for preds in sets for row in overlap_rows(preds, truths)]
    assert joined == per_set
    assert joined == [
        [(j, iou_bev(state, t)) for j, t in enumerate(truths)
         if iou_bev(state, t) >= IOU_THRESHOLD]
        for preds in sets for state, _ in preds
    ]
    # A chunk of frames, each with its own truths, in one pass: each
    # frame's rows, bit for bit.
    def hexed(rows):
        return [[(j, v.hex()) for j, v in row] for row in rows]
    assert ([hexed(rows) for rows in overlap_sets(frames)]
            == [hexed(overlap_rows(p, t)) for p, t in frames])


def test_overlap_rows_with_nothing_to_pair():
    assert overlap_rows([], [box(0, 0)]) == []
    assert overlap_rows([(box(0, 0), 1.0), (box(5, 0), 0.5)], []) == [[], []]
    assert match_detections([], []) == []


def test_tag_objects_counts_witnesses():
    sc = generate_scenario(ScenarioConfig(duration=5.0), seed=0)
    tags, density = tag_objects(sc, 0)
    seen = {}
    for k in range(sc.num_vehicles):
        for o, d, occ in sc.visibility(k, 0):
            cur = seen.get(o)
            seen[o] = (min(cur[0], d) if cur else d,
                       min(cur[1], occ) if cur else occ,
                       (cur[2] + 1) if cur else 1)
    assert {t.object_id for t in tags} == set(seen)
    for t in tags:
        d, occ, w = seen[t.object_id]
        assert t.distance == pytest.approx(d)
        assert t.witnesses == w
        assert t.distance_slice == distance_slice(d)
    want = ("HD" if any(w >= 3 for _, _, w in seen.values()) else "LD")
    assert density == want


@pytest.mark.parametrize("vehicles", [[-1], [0, 5]])
def test_tag_objects_rejects_non_vehicle_witnesses(vehicles):
    # -1 would count the last object's view, 5 the first non-vehicle's.
    sc = generate_scenario(ScenarioConfig(duration=1.0), seed=0)
    with pytest.raises(ValueError, match="no such vehicle"):
        tag_objects(sc, 0, vehicles=vehicles)


def evaluate_global_maps(scenario, maps):
    """AP of per-frame fused maps against the fleet's visible objects."""
    acc = Accumulator()
    for frame, gmap in sorted(maps.items()):
        tags, density = tag_objects(scenario, frame)
        truths = [scenario.object_state(frame, t.object_id) for t in tags]
        acc.add_frame(list(gmap.objects), truths, tags, density)
    return acc.results()


def test_evaluate_noiseless_maps_is_perfect():
    sc = generate_scenario(ScenarioConfig(duration=5.0, num_objects=20),
                           seed=2)
    quiet = DetectorNoiseSpec()
    maps = {}
    for f in range(0, 100, 20):
        lms = [sense(sc, k, f, quiet, 0)[0] for k in range(sc.num_vehicles)]
        maps[f] = three_stage_fuse(lms).global_map
    res = evaluate_global_maps(sc, maps)
    assert res["overall"] == 1.0


def test_report_serialization_round_trips():
    rep = EvalReport(
        scenario_seed=7,
        frames=(10, 11),
        methods={
            "fusion_three_stage": MethodResult(
                "fusion_three_stage",
                {s: 0.5 for s in SLICE_NAMES},
                {0: 0.25, 1: None},
                12345,
            ),
            "local_no_fl": MethodResult(
                "local_no_fl",
                dict.fromkeys(SLICE_NAMES, None),
                {},
                0,
            ),
        },
    )
    text = rep.to_json()
    back = EvalReport.from_json(text)
    assert back.to_json() == text
    assert back.methods["fusion_three_stage"].per_vehicle_ap[1] is None

    csv_text = rep.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "method," + ",".join(SLICE_NAMES) + ",bytes_sent"
    assert len(lines) == 3
    radar = rep.to_radar_csv()
    assert radar.splitlines()[0] == "slice,fusion_three_stage,local_no_fl"
    assert len(radar.splitlines()) == 1 + len(SLICE_NAMES)
