"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible even under pytest capture).  The noisy five-seed benchmark
reports are computed once per session and shared.
"""

import math
import time

import numpy as np
import pytest

from mapfuse.association import ClusterConfig, cluster_detections
from mapfuse.cli import main as cli_main
from mapfuse.evalbench import average_precision, match_detections
from mapfuse.fedlearn import (
    FEATURE_DIM,
    F_CONST,
    F_COS_YAW,
    F_SIN_YAW,
    F_X,
    LabelSet,
    ModelParams,
    ModelSpec,
    SensorFrame,
    TrainConfig,
    default_init_params,
    fedavg,
    local_train,
    loss,
    loss_gradient,
)
from mapfuse.distill import full_coverage_registry, run_edfl, run_perfect_fl
from mapfuse.fusion import (
    compute_weights,
    fuse_cluster,
    three_stage_fuse,
)
from mapfuse.geometry import (
    ObjectState,
    angle_diff,
    transform_to_global,
)
from mapfuse.orchestrator import (
    BROADCAST_ID,
    MessageKind,
    SERVER_ID,
    V2xMessage,
    decode_message,
    default_benchmark_config,
    encode_message,
    run_experiment,
)
from mapfuse.simworld import (
    DetectorNoiseSpec,
    ScenarioConfig,
    generate_scenario,
    sense,
)
from oracles import cluster_brute_force_oracle, iou_3d, weighted_ls_objective

BENCH_SEEDS = (0, 1, 2, 3, 4)


def announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {number}] {name}: {status} ({detail})")


@pytest.fixture(scope="session")
def benchmark_reports():
    """Full eight-method noisy benchmark, five seeds, with wall times."""
    reports = {}
    times = {}
    for seed in BENCH_SEEDS:
        t0 = time.perf_counter()
        reports[seed] = run_experiment(default_benchmark_config(seed))
        times[seed] = time.perf_counter() - t0
    return reports, times


def box(x, y, yaw=0.0):
    return ObjectState(0, (x, y, 0.75), (4.0, 2.0, 1.5), yaw)


# --- criterion 1: exact-algorithm oracle suites -------------------------------


def _random_cluster_instance(rng, n_max=50):
    dets = []
    counters = {}
    for _ in range(int(rng.integers(1, n_max + 1))):
        veh = int(rng.integers(0, 5))
        idx = counters.get(veh, 0)
        counters[veh] = idx + 1
        x, y = rng.uniform(-20, 20, 2)
        dets.append((veh, idx, box(x, y)))
    return dets


def _partition_signature(dets, result):
    num_objects, labels = result
    return num_objects, {
        (veh, idx): label for (veh, idx, _), label in zip(dets, labels)
    }


def _random_feature_frame(rng, n):
    feats = np.zeros((n, FEATURE_DIM))
    feats[:, F_X] = rng.uniform(-50, 50, n)
    feats[:, F_X + 1] = rng.uniform(-50, 50, n)
    feats[:, F_X + 2] = rng.uniform(0.5, 1.0, n)
    feats[:, F_X + 3] = rng.uniform(3.8, 5.0, n)
    feats[:, F_X + 4] = rng.uniform(1.6, 2.2, n)
    feats[:, F_X + 5] = rng.uniform(1.3, 1.8, n)
    yaw = rng.uniform(-math.pi, math.pi, n)
    feats[:, F_COS_YAW] = np.cos(yaw)
    feats[:, F_SIN_YAW] = np.sin(yaw)
    feats[:, 9] = rng.uniform(0, 1, n)
    feats[:, 10] = rng.uniform(0, 1, n)
    feats[:, 11] = rng.normal(1.5, 1.0, n)
    feats[:, F_CONST] = 1.0
    return SensorFrame(frame_time=0.0, candidates=feats)


def _random_label_set(rng, frame):
    labels = []
    for f in frame.candidates:
        if rng.random() > 0.8:
            labels.append(None)
            continue
        labels.append(
            ObjectState(
                int(rng.integers(0, 2)),
                tuple(f[F_X:F_X + 3] + rng.normal(0, 0.3, 3)),
                tuple(np.maximum(f[F_X + 3:F_X + 6]
                                 + rng.normal(0, 0.15, 3), 0.3)),
                math.atan2(f[F_SIN_YAW], f[F_COS_YAW]) + rng.normal(0, 0.2),
            )
        )
    return LabelSet(frame_time=0.0, labels=tuple(labels))


def test_criterion_1_oracle_suites(capsys):
    t0 = time.perf_counter()

    # Association vs brute-force reachability closure.
    rng = np.random.default_rng(101)
    cfg = ClusterConfig(eps=2.0)
    cluster_ok = True
    for _ in range(500):
        dets = _random_cluster_instance(rng)
        got = _partition_signature(dets, cluster_detections(dets, cfg))
        want = _partition_signature(dets, cluster_brute_force_oracle(dets, cfg))
        cluster_ok = cluster_ok and got == want

    # Weighted least-squares optimality of the fused box.
    rng = np.random.default_rng(102)
    ls_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        states = [
            ObjectState(0,
                        (rng.normal(0, 0.3), rng.normal(0, 0.3),
                         0.75 + rng.normal(0, 0.05)),
                        (4 + rng.normal(0, 0.1), 2 + rng.normal(0, 0.1),
                         1.5 + rng.normal(0, 0.05)),
                        rng.normal(0.0, 0.03))
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
                ls_ok = ls_ok and (
                    weighted_ls_objective(
                        ObjectState.from_vector(pert), states, w
                    ) > base
                )

    # Aggregation is the elementwise mean and every vehicle ends the
    # round holding bitwise identical parameters.
    rng = np.random.default_rng(103)
    spec = ModelSpec()
    frame = _random_feature_frame(rng, 5)
    dataset = [(frame, _random_label_set(rng, frame))]
    locals_ = [
        local_train(ModelParams(rng.normal(0, 0.3, spec.num_params)),
                    dataset, TrainConfig(), seed=k)
        for k in range(5)
    ]
    avg = fedavg(locals_)
    stacked = np.stack([p.values for p in locals_])
    fedavg_ok = np.max(np.abs(avg.values - stacked.mean(axis=0))) <= 1e-12
    received = []
    for k in range(5):
        wire = encode_message(
            V2xMessage(MessageKind.PARAMS_BROADCAST, SERVER_ID, k,
                       tuple(float(v) for v in avg.values))
        )
        received.append(np.array(decode_message(wire).payload))
    fedavg_ok = fedavg_ok and all(
        np.array_equal(r, received[0]) and np.array_equal(r, avg.values)
        for r in received
    )

    # Analytic loss gradients vs central finite differences.
    rng = np.random.default_rng(104)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        frame = _random_feature_frame(rng, int(rng.integers(1, 6)))
        labels = _random_label_set(rng, frame)
        w = rng.normal(0.0, 0.3, spec.num_params)
        params = ModelParams(w)
        _, g = loss_gradient(params, frame, labels, spec)
        for j in rng.choice(spec.num_params, size=12, replace=False):
            wp = w.copy(); wp[j] += eps
            wm = w.copy(); wm[j] -= eps
            fd = (loss(ModelParams(wp), frame, labels, spec).total
                  - loss(ModelParams(wm), frame, labels, spec).total) / (2 * eps)
            worst = max(worst, abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-8))
    grad_ok = worst < 1e-4

    # Codec round trip and closed-form message sizes.
    rng = np.random.default_rng(105)
    codec_ok = True
    for n in (0, 1, 7):
        dets = tuple(
            (box(*rng.uniform(-50, 50, 2), yaw=rng.uniform(-3, 3)),
             float(rng.normal()))
            for _ in range(n)
        )
        msg = V2xMessage(MessageKind.LOCAL_MAP_UPLOAD, 2, SERVER_ID, dets)
        wire = encode_message(msg)
        codec_ok = codec_ok and len(wire) == 20 + 66 * n
        codec_ok = codec_ok and decode_message(wire) == msg
        bmsg = V2xMessage(MessageKind.GLOBAL_MAP_BROADCAST, SERVER_ID,
                          BROADCAST_ID, dets)
        bwire = encode_message(bmsg)
        codec_ok = codec_ok and len(bwire) == 20 + 66 * n
        codec_ok = codec_ok and decode_message(bwire) == bmsg
    pmsg = V2xMessage(MessageKind.PARAMS_UPLOAD, 1, SERVER_ID,
                      tuple(rng.normal(size=143)))
    codec_ok = codec_ok and len(encode_message(pmsg)) == 20 + 8 * 143

    elapsed = time.perf_counter() - t0
    ok = (cluster_ok and ls_ok and fedavg_ok and grad_ok and codec_ok
          and elapsed < 60.0)
    announce(capsys, 1, "exact-algorithm oracles", ok,
             f"cluster={cluster_ok} ls={ls_ok} fedavg={fedavg_ok} "
             f"grad={grad_ok} codec={codec_ok} {elapsed:.1f}s")
    assert ok


# --- criterion 2: noiseless end-to-end identity -------------------------------


def test_criterion_2_noiseless_identity(capsys):
    t0 = time.perf_counter()
    scenario = generate_scenario(ScenarioConfig(duration=5.0), seed=0)
    quiet = DetectorNoiseSpec()
    min_iou = 1.0
    records = []
    num_truths = 0
    for f in range(100):
        maps = [sense(scenario, k, f, quiet, 0)[0]
                for k in range(scenario.num_vehicles)]
        gmap = three_stage_fuse(maps).global_map
        union = set()
        for k in range(scenario.num_vehicles):
            union |= {o for o, _, _ in scenario.visibility(k, f)}
        truths = [scenario.object_state(f, o) for o in sorted(union)]
        assigned = match_detections(list(gmap.objects), truths)
        num_truths += len(truths)
        for (state, score), j in zip(gmap.objects, assigned):
            records.append((score, j is not None))
            if j is not None:
                min_iou = min(min_iou, iou_3d(state, truths[j]))
    ap = average_precision(records, num_truths)
    elapsed = time.perf_counter() - t0
    ok = min_iou > 1.0 - 1e-9 and ap == 1.0 and elapsed < 30.0
    announce(capsys, 2, "noiseless end-to-end identity", ok,
             f"min IoU={min_iou:.12f} AP={ap:.6f} {elapsed:.1f}s/100 frames")
    assert ok


# --- criterion 3: fusion ordering on the noisy benchmark ----------------------


def test_criterion_3_fusion_ordering(capsys, benchmark_reports):
    reports, _ = benchmark_reports
    ok = True
    worst_margin = math.inf
    worst_gap = math.inf
    for seed, rep in reports.items():
        ts = rep.methods["fusion_three_stage"].ap["overall"]
        mean = rep.methods["fusion_mean"].ap["overall"]
        mx = rep.methods["fusion_max_score"].ap["overall"]
        worst_margin = min(worst_margin, ts - mean, ts - mx)
        ok = ok and ts >= mean and ts >= mx
        best_single = max(
            v for v in rep.methods["local_no_fl"].per_vehicle_ap.values()
            if v is not None
        )
        for m in ("fusion_mean", "fusion_max_score", "fusion_three_stage",
                  "fusion_perfect_fl", "fusion_edfl"):
            fused_ap = rep.methods[m].ap["overall"]
            worst_gap = min(worst_gap, fused_ap - best_single)
            ok = ok and fused_ap >= best_single
    announce(capsys, 3, "three-stage fusion ordering", ok,
             f"min margin over baselines={worst_margin:+.6f}, "
             f"min fused-vs-best-single gap={worst_gap:+.4f}, 5 seeds")
    assert ok


# --- criterion 4: missing-object recovery -------------------------------------


def test_criterion_4_missing_object_recovery(capsys):
    noise = DetectorNoiseSpec(miss_prob=0.2, center_sigma=0.05,
                              extent_sigma=0.03, yaw_sigma=0.02,
                              score_sigma=0.3)
    recall_ok = True
    gaps = []
    for seed in BENCH_SEEDS:
        sc = generate_scenario(ScenarioConfig(duration=10.0), seed=seed)
        g_match = g_truth = l_match = l_truth = 0
        for f in range(0, sc.num_frames, 10):
            maps = [sense(sc, k, f, noise, seed=seed)[0]
                    for k in range(sc.num_vehicles)]
            union = set()
            for k in range(sc.num_vehicles):
                own = [o for o, _, _ in sc.visibility(k, f)]
                union |= set(own)
                truths = [sc.object_state(f, o) for o in own]
                preds = [(transform_to_global(d.state, maps[k].pose), d.score)
                         for d in maps[k].detections]
                assigned = match_detections(preds, truths)
                l_match += sum(1 for j in assigned if j is not None)
                l_truth += len(truths)
            gmap = three_stage_fuse(maps).global_map
            truths = [sc.object_state(f, o) for o in sorted(union)]
            assigned = match_detections(list(gmap.objects), truths)
            g_match += sum(1 for j in assigned if j is not None)
            g_truth += len(truths)
        global_recall = g_match / g_truth
        local_recall = l_match / l_truth
        gaps.append(global_recall - local_recall)
        recall_ok = recall_ok and global_recall > local_recall

    # Empirical all-miss rate for five-witness objects: every object in
    # the visibility list gets an independent miss draw per vehicle, so
    # one frame of 100 objects yields 100 trials.
    sc = generate_scenario(ScenarioConfig(duration=0.5, num_objects=100),
                           seed=0)
    miss_only = DetectorNoiseSpec(miss_prob=0.2)
    vis = [(o, 0.0, 0.0) for o in range(100)]
    all_missed = 0
    trials = 0
    for s in range(1000):
        missed = np.ones(100, dtype=bool)
        for k in range(5):
            _, frame = sense(sc, k, 0, miss_only, seed=s, visibility=vis)
            for o in frame.source_ids:
                missed[o] = False
        all_missed += int(missed.sum())
        trials += 100
    rate = all_missed / trials
    target = 0.2 ** 5
    sigma = math.sqrt(target * (1 - target) / trials)
    rate_ok = abs(rate - target) <= 3 * sigma

    ok = recall_ok and rate_ok
    announce(capsys, 4, "missing-object recovery", ok,
             f"min recall gap={min(gaps):+.4f} over 5 seeds; "
             f"all-miss rate={rate:.2e} vs 0.2^5={target:.2e} "
             f"(3 sigma={3 * sigma:.2e}, n={trials})")
    assert ok


# --- criterion 5: orientation correction --------------------------------------


def test_criterion_5_orientation_correction(capsys):
    base = dict(center_sigma=0.05, extent_sigma=0.03, yaw_sigma=0.02,
                score_sigma=0.3)
    clean = DetectorNoiseSpec(**base)
    flipped = DetectorNoiseSpec(flip_prob=0.5, **base)
    sc = generate_scenario(ScenarioConfig(duration=10.0), seed=0)
    local_err = []
    fused_err = []
    for f in range(0, sc.num_frames, 5):
        maps = []
        frames = []
        for k in range(sc.num_vehicles):
            lm, fr = sense(sc, k, f, flipped if k == 0 else clean, seed=0)
            maps.append(lm)
            frames.append(fr)
        for d, src in zip(maps[0].detections, frames[0].source_ids):
            if src is None:
                continue
            g = transform_to_global(d.state, maps[0].pose)
            local_err.append(
                abs(angle_diff(g.yaw, sc.object_state(f, src).yaw))
            )
        gmap = three_stage_fuse(maps).global_map
        union = set()
        for k in range(sc.num_vehicles):
            union |= {o for o, _, _ in sc.visibility(k, f)}
        truths = [sc.object_state(f, o) for o in sorted(union)]
        assigned = match_detections(list(gmap.objects), truths)
        for (state, _), j in zip(gmap.objects, assigned):
            if j is not None:
                fused_err.append(abs(angle_diff(state.yaw, truths[j].yaw)))
    local_med = math.degrees(float(np.median(local_err)))
    fused_med = math.degrees(float(np.median(fused_err)))
    ok = local_med > 80.0 and fused_med < 10.0
    announce(capsys, 5, "orientation correction", ok,
             f"corrupted local median={local_med:.1f} deg, "
             f"fused median={fused_med:.2f} deg")
    assert ok


# --- criterion 6: federated training ordering ---------------------------------


def test_criterion_6_fl_ordering(capsys, benchmark_reports):
    reports, times = benchmark_reports
    ok = True
    worst_edfl_gain = math.inf
    worst_pf_slack = math.inf
    for seed, rep in reports.items():
        no_fl = rep.methods["fusion_three_stage"].ap["overall"]
        edfl = rep.methods["fusion_edfl"].ap["overall"]
        perfect = rep.methods["fusion_perfect_fl"].ap["overall"]
        worst_edfl_gain = min(worst_edfl_gain, edfl - no_fl)
        worst_pf_slack = min(worst_pf_slack, perfect + 0.02 - edfl)
        ok = ok and no_fl <= edfl <= perfect + 0.02
    slowest = max(times.values())
    ok = ok and slowest < 300.0
    announce(capsys, 6, "FL/EDFL ordering", ok,
             f"min EDFL-vs-no-FL gain={worst_edfl_gain:+.4f}, "
             f"min perfect+0.02 slack={worst_pf_slack:+.4f}, "
             f"slowest seed {slowest:.0f}s")
    assert ok


# --- criterion 7: teacher collapse --------------------------------------------


def test_criterion_7_teacher_collapse(capsys):
    noise = DetectorNoiseSpec(center_sigma=0.1, extent_sigma=0.05,
                              yaw_sigma=0.03, miss_prob=0.05,
                              bias=(0.2, 0.1, 0.0, -0.2, 0.0, 0.0, 0.03),
                              score_sigma=0.5)
    sc = generate_scenario(ScenarioConfig(duration=8.0, num_objects=20),
                           seed=1)
    frames = list(range(0, sc.num_frames, 8))
    init = default_init_params()
    cfg = TrainConfig()
    perfect = run_perfect_fl(sc, frames, noise, init, cfg, sensor_seed=3)
    edfl = run_edfl(sc, frames, noise, init, cfg, sensor_seed=3,
                    registry=full_coverage_registry(sc))
    gap = float(np.max(np.abs(perfect.values - edfl.values)))
    moved = not np.array_equal(perfect.values, init.values)
    ok = gap <= 1e-6 and moved
    announce(capsys, 7, "full-coverage teacher collapse", ok,
             f"max-norm gap={gap:.2e}, params moved={moved}")
    assert ok


# --- criterion 8: bit-identical benchmark reruns ------------------------------


def test_criterion_8_determinism(capsys, tmp_path):
    import json

    config = {
        "scenario": {"duration": 6.0, "num_objects": 20},
        "noise": {"miss_prob": 0.1, "center_sigma": 0.08,
                  "extent_sigma": 0.04, "yaw_sigma": 0.03,
                  "false_positive_rate": 0.1, "score_sigma": 0.5,
                  "bias": [0.1, 0.1, 0.0, -0.2, 0.0, 0.0, 0.02]},
        "train": {"max_rounds": 2, "train_window": [0.0, 3.0],
                  "sampling_ratio": 6},
        "teachers": [{"x": 0.0, "y": 0.0, "radius": 1e9}],
        "seed": 1,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = cli_main(["bench", "--config", str(cfg_path),
                       "--out", str(out_a)])
    code_b = cli_main(["bench", "--config", str(cfg_path),
                       "--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    announce(capsys, 8, "bit-identical benchmark reruns", ok,
             f"exit codes ({code_a}, {code_b}), "
             f"{out_a.stat().st_size} bytes, identical={identical}")
    assert ok
