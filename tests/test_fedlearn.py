import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    PreparedDataset,
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
    predict_fleet,
    run_federated,
    save_checkpoint,
    training_curve_csv,
)
from mapfuse.geometry import InputError, ObjectState, angle_diff

from oracles import (
    local_train_per_frame,
    loss_gradient_per_frame,
    loss_per_frame,
    predict_reference,
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


# Observed (cos, sin) pairs on the +-pi seam: atan2 gives +pi and -pi
# exactly for sin = +0.0 and -0.0, and lands one side or the other of
# it for the tiny sines.
SEAM = [(-1.0, 0.0), (-1.0, -0.0), (-1.0, 5e-324), (-1.0, -5e-324),
        (math.cos(math.pi), math.sin(math.pi)),
        (math.cos(-math.pi), math.sin(-math.pi))]
observed_yaws = st.one_of(
    st.sampled_from(SEAM),
    st.floats(-4.0, 4.0).map(lambda t: (math.cos(t), math.sin(t))),
)


@st.composite
def predict_cases(draw):
    """A frame of up to 12 candidates, empty frames included, and params
    whose angle head moves yaws across the seam and whose direction head
    may vote one bin for every row, flipping each yaw that points the
    other way."""
    n = draw(st.integers(0, 12))
    pairs = draw(st.lists(observed_yaws, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    feats = random_frame(rng, n).candidates.copy()
    feats[:, F_COS_YAW] = [c for c, _ in pairs]
    feats[:, F_SIN_YAW] = [s for _, s in pairs]
    spec = ModelSpec()
    w = default_init_params(spec).values.reshape(spec.head_rows, -1).copy()
    w += rng.normal(0.0, draw(st.sampled_from([0.0, 0.1, 1.0])), w.shape)
    vote = draw(st.sampled_from([None, 0, 1]))
    if vote is not None:
        w[7 + vote, F_CONST] += 50.0
    return ModelParams(w.reshape(-1)), SensorFrame(0.0, feats)


def detection_hexes(detections):
    return [[float(v).hex() for v in (d.state.category, *d.state.center,
                                       *d.state.extents, d.state.yaw, d.score)]
            for d in detections]


def seam_case():
    """Every SEAM pair once, under params that vote the back bin."""
    feats = random_frame(np.random.default_rng(0), len(SEAM)).candidates
    feats[:, [F_COS_YAW, F_SIN_YAW]] = SEAM
    w = default_init_params().values.copy()
    w[8 * FEATURE_DIM + F_CONST] = 50.0
    return ModelParams(w), SensorFrame(0.0, feats)


@given(predict_cases())
@example((default_init_params(), SensorFrame(0.0, np.zeros((0, FEATURE_DIM)))))
@example(seam_case())
@settings(max_examples=300, deadline=None)
def test_predict_rows_are_the_per_row_reference_bit_for_bit(case):
    params, frame = case
    rows = predict(params, frame).rows
    assert rows.shape == (frame.candidates.shape[0], 9)
    assert [[v.hex() for v in row] for row in rows.tolist()] == (
        detection_hexes(predict_reference(params, frame)))


@st.composite
def fleet_cases(draw):
    """Params and one to six frames refined under them, some cut to no
    candidate or to one."""
    cases = draw(st.lists(predict_cases(), min_size=1, max_size=6))
    frames = []
    for _, frame in cases:
        n = draw(st.sampled_from([None, 0, 1]))
        frames.append(frame if n is None else
                      SensorFrame(0.0, frame.candidates[:n].copy()))
    return cases[0][0], frames


def block_hexes(block):
    return [[v.hex() for v in row] for row in block.rows.tolist()]


@given(fleet_cases())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_predict_fleet_is_the_per_row_reference_bit_for_bit(case):
    # Through float.hex: whether a row slice's products round as a
    # frame's own rests on the BLAS build.
    params, frames = case
    blocks = predict_fleet(params, frames)
    assert len(blocks) == len(frames)
    for block, frame in zip(blocks, frames):
        assert block.rows.shape == (frame.candidates.shape[0], 9)
        assert block_hexes(block) == detection_hexes(
            predict_reference(params, frame))
        assert block_hexes(block) == block_hexes(predict(params, frame))


def test_predict_fleet_of_no_frames_is_empty():
    assert predict_fleet(default_init_params(), []) == []


def overflowing_frame(rows, bad):
    """A frame of ``rows`` candidates whose rows in ``bad`` refine past
    the float range under ``x_doubling_params``."""
    feats = random_frame(np.random.default_rng(rows), rows).candidates.copy()
    feats[bad, F_X] = 1.5e308
    return SensorFrame(0.0, feats)


def x_doubling_params():
    """Params whose box head adds 100 times the scaled x to x: doubles it."""
    w = default_init_params().values.copy()
    w[F_X] = 100.0
    return ModelParams(w)


def test_predict_fleet_raises_the_first_failing_frames_error():
    params = x_doubling_params()
    good = overflowing_frame(3, [])
    frames = [good, overflowing_frame(4, [2, 3]), overflowing_frame(2, [0])]
    with pytest.raises(InputError) as first:
        predict(params, frames[1])
    assert str(first.value).startswith("refined box 2: fields must be finite")
    with pytest.raises(InputError) as info:
        predict_fleet(params, frames)
    assert str(info.value) == str(first.value)
    with pytest.raises(InputError, match="^refined box 0: "):
        predict_fleet(params, [good, frames[2], frames[1]])
    assert block_hexes(predict_fleet(params, [good])[0]) == block_hexes(
        predict(params, good))


def test_training_reads_a_candidate_as_predict_does():
    # On numpy 2.4, np.arctan2 decodes the first yaw's cos and sin an ulp
    # away from math.atan2; the others lie on the quadrant and direction
    # boundaries.
    edges = (math.pi, -math.pi, math.pi / 2, -math.pi / 2)
    yaws = [-0.4379459833171597, *edges,
            *(math.nextafter(e, d) for e in edges for d in (-4.0, 4.0))]
    feats = np.zeros((len(yaws), FEATURE_DIM))
    feats[:, F_X + 3 : F_HEIGHT + 1] = (4.0, 2.0, 1.5)
    feats[:, F_COS_YAW] = [math.cos(y) for y in yaws]
    feats[:, F_SIN_YAW] = [math.sin(y) for y in yaws]
    feats[:, F_CONST] = 1.0
    labels = tuple(ObjectState(0, (0.0, 0.0, 0.0), (4.0, 2.0, 1.5), y)
                   for y in yaws)
    rows = PreparedDataset([(SensorFrame(0.0, feats), LabelSet(0.0, labels))],
                           ModelSpec()).rows
    decoded = [math.atan2(s, c) for s, c in
               zip(feats[:, F_SIN_YAW].tolist(), feats[:, F_COS_YAW].tolist())]
    assert ([y.hex() for y in rows.observed_yaw.tolist()]
            == [y.hex() for y in decoded])
    assert rows.bins.tolist() == [direction_bin(lbl.yaw) for lbl in labels]


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


def test_local_train_that_diverges_is_invalid_input():
    # Finite settings whose steps overflow leave no finite parameters:
    # that is a configuration to reject, not a fault of the program.
    rng = np.random.default_rng(5)
    dataset = []
    for _ in range(4):
        frame = random_frame(rng)
        dataset.append((frame, random_labels(rng, frame)))
    cfg = TrainConfig(loss_coefficients=(1e308, 1e308, 1e308))
    with pytest.raises(InputError, match="train.learning_rate") as info:
        local_train(default_init_params(), dataset, cfg)
    assert "train.loss_coefficients" in str(info.value)


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
    save_checkpoint(default_init_params(), p)
    good = p.read_bytes()
    # A header of another version, and a NaN parameter.
    p.write_bytes(good[:4] + (2).to_bytes(2, "little") + good[6:])
    with pytest.raises(InputError, match="version 2"):
        load_checkpoint(p)
    p.write_bytes(good[:-8] + np.array([math.nan], "<f8").tobytes())
    with pytest.raises(InputError, match="checkpoint: "):
        load_checkpoint(p)


def test_sensor_frame_validation():
    with pytest.raises(ValueError, match="source_ids must align"):
        SensorFrame(0.0, np.zeros((2, FEATURE_DIM)), (0,))
    assert SensorFrame(0.0, []).candidates.shape == (0, FEATURE_DIM)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_with_flipped_or_cut_bytes_loads_or_raises_input_error(
        data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "model.ckpt")
        save_checkpoint(ModelParams(np.random.default_rng(8).normal(size=143)),
                        path)
        blob = bytearray(path.read_bytes())
        for at, mask in data.draw(st.lists(st.tuples(
                st.integers(0, len(blob) - 1), st.integers(1, 255)),
                max_size=4)):
            blob[at] ^= mask
        cut = data.draw(st.none() | st.integers(0, len(blob) - 1))
        path.write_bytes(blob if cut is None else blob[:cut])
        try:
            params = load_checkpoint(path)
        except InputError:
            return
        assert len(params) == 143 and np.isfinite(params.values).all()


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
