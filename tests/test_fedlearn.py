import math

import numpy as np
import pytest

from mapfuse.fedlearn import (
    FEATURE_DIM,
    FEATURE_SCALES,
    F_CONST,
    F_COS_YAW,
    F_HEIGHT,
    F_SIN_YAW,
    F_X,
    LabelSet,
    ModelParams,
    ModelSpec,
    SensorFrame,
    TrainConfig,
    default_init_params,
    direction_bin,
    fedavg,
    load_checkpoint,
    local_train,
    loss,
    loss_gradient,
    predict,
    run_federated,
    save_checkpoint,
    training_curve_csv,
)
from mapfuse.geometry import ObjectState, angle_diff

from oracles import (
    local_train_per_frame,
    loss_gradient_per_frame,
    loss_per_frame,
    run_federated_per_frame,
)


def random_frame(rng, n=4):
    feats = np.zeros((n, FEATURE_DIM))
    feats[:, 0] = 0.0
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


def random_labels(rng, frame, p_labeled=1.0):
    labels = []
    for i in range(frame.candidates.shape[0]):
        if rng.random() > p_labeled:
            labels.append(None)
            continue
        f = frame.candidates[i]
        labels.append(
            ObjectState(
                int(rng.integers(0, 2)),
                (f[F_X] + rng.normal(0, 0.3),
                 f[F_X + 1] + rng.normal(0, 0.3),
                 f[F_X + 2] + rng.normal(0, 0.1)),
                (f[F_X + 3] + rng.normal(0, 0.2),
                 f[F_X + 4] + rng.normal(0, 0.1),
                 f[F_X + 5] + rng.normal(0, 0.1)),
                math.atan2(f[F_SIN_YAW], f[F_COS_YAW]) + rng.normal(0, 0.2),
            )
        )
    return LabelSet(frame_time=0.0, labels=tuple(labels))


def test_model_spec_sizes():
    spec = ModelSpec()
    assert spec.head_rows == 11
    assert spec.num_params == 11 * 13


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(np.array([[1.0]]))
    with pytest.raises(ValueError):
        ModelParams(np.array([np.inf]))
    p = ModelParams(np.zeros(3))
    with pytest.raises(ValueError):
        p.values[0] = 1.0


def test_default_init_is_identity_refinement():
    rng = np.random.default_rng(0)
    frame = random_frame(rng, n=6)
    dets = predict(default_init_params(), frame)
    for i, det in enumerate(dets):
        f = frame.candidates[i]
        assert np.allclose(det.state.center, f[F_X:F_X + 3], atol=1e-12)
        assert np.allclose(det.state.extents, f[F_X + 3:F_HEIGHT + 1],
                           atol=1e-12)
        obs_yaw = math.atan2(f[F_SIN_YAW], f[F_COS_YAW])
        assert abs(angle_diff(det.state.yaw, obs_yaw)) < 1e-9
        # Score passes through the observed score channel.
        assert det.score == pytest.approx(f[11], abs=1e-12)
        assert det.state.category == 0


def test_predict_direction_flip():
    # Force the direction head to contradict the raw yaw: the predicted
    # yaw must be rotated by pi to match the winning direction bin.
    spec = ModelSpec()
    w = np.zeros((spec.head_rows, spec.feature_dim))
    w[8, F_CONST] = 5.0   # always vote the "back" bin
    params = ModelParams(w.reshape(-1))
    rng = np.random.default_rng(1)
    frame = random_frame(rng, n=5)
    for i, det in enumerate(predict(params, frame)):
        assert direction_bin(det.state.yaw) == 1


def test_loss_zero_label_frame():
    rng = np.random.default_rng(2)
    frame = random_frame(rng)
    labels = LabelSet(0.0, (None,) * frame.candidates.shape[0])
    b = loss(default_init_params(), frame, labels)
    assert b.total == 0.0 and b.num_labeled == 0
    _, g = loss_gradient(default_init_params(), frame, labels)
    assert not g.any()


def test_loss_coefficients_weighting():
    rng = np.random.default_rng(3)
    frame = random_frame(rng)
    labels = random_labels(rng, frame)
    params = default_init_params()
    b = loss(params, frame, labels, coefficients=(1.0, 2.0, 0.2))
    assert b.total == pytest.approx(
        b.class_loss + 2.0 * (b.angle_loss + b.box_loss) + 0.2 * b.dir_loss
    )
    assert b.num_labeled == frame.candidates.shape[0]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    spec = ModelSpec()
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        frame = random_frame(rng, n=int(rng.integers(1, 6)))
        labels = random_labels(rng, frame, p_labeled=0.8)
        w = rng.normal(0.0, 0.3, spec.num_params)
        params = ModelParams(w)
        _, g = loss_gradient(params, frame, labels, spec)
        # probe a random subset of coordinates per instance
        for j in rng.choice(spec.num_params, size=12, replace=False):
            wp = w.copy(); wp[j] += eps
            wm = w.copy(); wm[j] -= eps
            fd = (
                loss(ModelParams(wp), frame, labels, spec).total
                - loss(ModelParams(wm), frame, labels, spec).total
            ) / (2 * eps)
            denom = max(abs(fd), abs(g[j]), 1e-8)
            worst = max(worst, abs(fd - g[j]) / denom)
    assert worst < 1e-4


def test_local_train_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(5)
    dataset = []
    for _ in range(12):
        frame = random_frame(rng)
        dataset.append((frame, random_labels(rng, frame)))
    cfg = TrainConfig(learning_rate=1e-2, local_epochs=3)
    init = default_init_params()
    before = np.mean([loss(init, f, l).total for f, l in dataset])
    out1 = local_train(init, dataset, cfg, seed=7)
    out2 = local_train(init, dataset, cfg, seed=7)
    assert np.array_equal(out1.values, out2.values)
    after = np.mean([loss(out1, f, l).total for f, l in dataset])
    assert after < before


def test_local_train_empty_dataset_is_identity():
    init = default_init_params()
    out = local_train(init, [], TrainConfig())
    assert np.array_equal(out.values, init.values)


def test_fedavg_is_elementwise_mean():
    rng = np.random.default_rng(6)
    vecs = [rng.normal(size=20) for _ in range(5)]
    avg = fedavg([ModelParams(v) for v in vecs])
    assert np.max(np.abs(avg.values - np.mean(vecs, axis=0))) <= 1e-12
    with pytest.raises(ValueError):
        fedavg([])
    with pytest.raises(ValueError):
        fedavg([ModelParams(np.zeros(3)), ModelParams(np.zeros(4))])


def test_run_federated_shares_one_vector():
    rng = np.random.default_rng(7)
    datasets = []
    for _ in range(3):
        ds = []
        for _ in range(4):
            frame = random_frame(rng)
            ds.append((frame, random_labels(rng, frame)))
        datasets.append(ds)
    cfg = TrainConfig(learning_rate=1e-3, max_rounds=2)
    curve = []
    out = run_federated(datasets, default_init_params(), cfg, curve=curve)
    assert isinstance(out, ModelParams)
    assert len(curve) == 2 * 3
    csv_text = training_curve_csv(curve)
    assert csv_text.splitlines()[0] == (
        "round,vehicle,total,class,angle,box,dir"
    )
    assert len(csv_text.splitlines()) == 7


def test_checkpoint_round_trip(tmp_path):
    p = tmp_path / "model.ckpt"
    rng = np.random.default_rng(8)
    params = ModelParams(rng.normal(size=143))
    save_checkpoint(params, p)
    assert p.stat().st_size == 16 + 143 * 8
    back = load_checkpoint(p)
    assert np.array_equal(back.values, params.values)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError):
        load_checkpoint(p)
    p.write_bytes(b"\x00")
    with pytest.raises(ValueError):
        load_checkpoint(p)
    # Well-formed files whose size no model takes fail here, not later
    # inside predict.
    for n in (0, 2, 144):
        save_checkpoint(ModelParams(np.arange(n, dtype=float)), p)
        with pytest.raises(ValueError, match=f"holds {n} parameters.*143"):
            load_checkpoint(p)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(local_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(loss_coefficients=(1.0, -2.0, 0.2))
    cfg = TrainConfig()
    assert cfg.local_epochs == 2
    assert cfg.max_rounds == 5
    assert cfg.loss_coefficients == (1.0, 2.0, 0.2)


# --- equality with the per-frame reference loop (tests/oracles.py) -----------

TOL = 1e-12


def mixed_dataset(rng, sizes, p_labeled):
    """One frame per entry of sizes, each labelled with p_labeled."""
    out = []
    for n in sizes:
        frame = random_frame(rng, n=n)
        out.append((frame, random_labels(rng, frame, p_labeled)))
    return out


def assert_breakdowns_close(a, b):
    assert a.num_labeled == b.num_labeled
    for name in ("total", "class_loss", "angle_loss", "box_loss", "dir_loss"):
        assert abs(getattr(a, name) - getattr(b, name)) <= TOL, name


def test_loss_and_gradient_match_per_frame_oracle():
    rng = np.random.default_rng(11)
    spec = ModelSpec()
    for _ in range(60):
        frame = random_frame(rng, n=int(rng.integers(0, 7)))
        labels = random_labels(rng, frame, p_labeled=rng.uniform(0.0, 1.0))
        params = ModelParams(rng.normal(0.0, 0.3, spec.num_params))
        coeffs = tuple(rng.uniform(0.0, 3.0, 3))
        assert_breakdowns_close(
            loss(params, frame, labels, spec, coeffs),
            loss_per_frame(params, frame, labels, spec, coeffs),
        )
        b, g = loss_gradient(params, frame, labels, spec, coeffs)
        b_ref, g_ref = loss_gradient_per_frame(params, frame, labels, spec,
                                               coeffs)
        assert_breakdowns_close(b, b_ref)
        assert np.max(np.abs(g - g_ref)) <= TOL


@pytest.mark.parametrize("sizes, p_labeled, batch_size, epochs", [
    ([4, 0, 3, 6, 1, 5, 2, 4, 3, 5, 0, 6], 0.6, 4, 3),   # mixed, empty frames
    ([3, 4, 2, 5, 3, 4], 0.0, 2, 2),                      # nothing labelled
    ([1] * 10, 0.5, 3, 2),                                # one-row frames
    ([2, 5, 3, 4, 1, 6, 3], 0.7, 1, 2),                   # batch_size=1
    ([4, 3, 5, 2, 6, 4], 0.8, 50, 3),                     # batch > dataset
    ([5, 4, 3, 6], 1.0, 2, 1),
])
def test_local_train_matches_per_frame_oracle(sizes, p_labeled, batch_size,
                                              epochs):
    rng = np.random.default_rng(len(sizes) * 100 + batch_size)
    dataset = mixed_dataset(rng, sizes, p_labeled)
    cfg = TrainConfig(learning_rate=2e-2, local_epochs=epochs,
                      batch_size=batch_size)
    init = ModelParams(default_init_params().values
                       + rng.normal(0.0, 0.05, ModelSpec().num_params))
    for seed in (0, [3, 1, 2]):
        out = local_train(init, dataset, cfg, seed=seed)
        ref = local_train_per_frame(init, dataset, cfg, seed=seed)
        assert np.max(np.abs(out.values - ref.values)) <= TOL
        # Only a dataset without labels leaves the parameters unchanged.
        assert np.array_equal(out.values, init.values) == (p_labeled == 0.0)


def test_run_federated_matches_per_frame_oracle():
    rng = np.random.default_rng(12)
    datasets = [
        mixed_dataset(rng, rng.integers(0, 7, 9), 0.7),
        mixed_dataset(rng, [3, 2, 4], 0.0),          # no labels at all
        mixed_dataset(rng, [1] * 5, 1.0),            # one-row frames
        mixed_dataset(rng, rng.integers(1, 7, 14), 0.4),
    ]
    cfg = TrainConfig(learning_rate=1e-2, max_rounds=4, batch_size=3)
    init = default_init_params()
    curve, curve_ref = [], []
    out = run_federated(datasets, init, cfg, base_seed=5, curve=curve)
    ref = run_federated_per_frame(datasets, init, cfg, base_seed=5,
                                  curve=curve_ref)
    assert np.max(np.abs(out.values - ref.values)) <= TOL
    assert len(curve) == len(curve_ref) == 4 * 4
    for (rnd, k, b), (rnd_ref, k_ref, b_ref) in zip(curve, curve_ref):
        assert (rnd, k) == (rnd_ref, k_ref)
        assert_breakdowns_close(b, b_ref)
    assert curve[1][2].num_labeled == 0 and curve[1][2].total == 0.0


def test_training_rejects_malformed_input():
    rng = np.random.default_rng(13)
    good = mixed_dataset(rng, [3, 2], 1.0)
    frame, labels = good[0]
    misaligned = [(frame, LabelSet(0.0, labels.labels[:-1]))]
    wide = SensorFrame(0.0, np.zeros((2, FEATURE_DIM + 1)))
    wrong_dim = [(wide, LabelSet(0.0, (None, None)))]
    init = default_init_params()
    short = ModelParams(np.zeros(ModelSpec().num_params - 1))
    cfg = TrainConfig(max_rounds=1)
    for params, dataset in ((init, misaligned), (init, wrong_dim),
                            (short, good)):
        with pytest.raises(ValueError):
            local_train(params, dataset, cfg)
        with pytest.raises(ValueError):
            run_federated([good, dataset], params, cfg)
