"""Imitation learner: features, demo handling, network, training loop."""
import struct

import numpy as np
import pytest

from dyntarget import (
    Action,
    DPTable,
    EnergyModel,
    EnvStrip,
    MLPModel,
    RewardClass,
    RewardModel,
    SensorGeometry,
    TrainParams,
    balance_dataset,
    bc_policy,
    build_dp_table,
    collect_demonstrations,
    expert_agreement,
    featurize_bc,
    init_mlp,
    load_model,
    merge_demos,
    mlp_forward,
    mlp_grad,
    observe,
    save_model,
    take_demos,
    train_bc,
)
from dyntarget.cloning import (
    _EPS,
    DemoSet,
    LAYER_SIZES,
    MODEL_MAGIC,
    N_FEATURES,
    _sigmoid,
    dominant_radar_class,
)
from dyntarget.sim import SatState
from dyntarget.errors import ConsistencyError, FormatError, ParameterError

ENERGY = EnergyModel()
REWARDS = RewardModel()


def uniform(height, length, cls):
    return EnvStrip(np.full((height, length), int(cls), dtype=np.uint8))


def synth_demos(features, actions):
    """Wrap handcrafted feature rows as a demo set at full charge."""
    n = len(actions)
    return DemoSet(
        features=np.asarray(features, dtype=np.float64),
        actions=np.asarray(actions, dtype=np.uint8),
        t=np.ones(n, dtype=np.int32),
        soc=np.full(n, 100, dtype=np.int32),
        source=np.zeros(n, dtype=np.int32),
        source_digests=["synthetic"],
    )


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_features_on_a_low_strip(geom_small):
    strip = uniform(31, 30, RewardClass.LOW)
    row = featurize_bc(observe(strip, geom_small, SatState(t=10, soc=50)))
    expected = [0.5, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1]
    assert row.tolist() == expected


def test_features_at_the_last_column(geom_small):
    strip = uniform(31, 30, RewardClass.MID)
    row = featurize_bc(observe(strip, geom_small, SatState(t=30, soc=0)))
    # the window is empty, so its fractions are zero and its first-hit
    # distances saturate
    assert row.tolist() == [0.0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1]


def test_features_on_a_high_strip(geom_small):
    strip = uniform(31, 30, RewardClass.HIGH)
    row = featurize_bc(observe(strip, geom_small, SatState(t=10, soc=30)))
    assert row.tolist() == [0.3, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0]


def test_nearest_distance_uses_the_footprint_metric():
    geom = SensorGeometry()
    cells = np.full((31, 40), int(RewardClass.LOW), dtype=np.uint8)
    cells[18, 23] = int(RewardClass.HIGH)  # 3 down, 4 ahead of (15, 19)
    strip = EnvStrip(cells)
    row = featurize_bc(observe(strip, geom, SatState(t=20, soc=80)))
    assert row[9] == pytest.approx(5.0 / geom.radar_radius_px)


def test_feature_ranges(geom_small):
    rng = np.random.default_rng(62)
    strip = EnvStrip(rng.integers(0, 3, size=(9, 40), dtype=np.uint8))
    for t in (1, 7, 38, 40):
        row = featurize_bc(observe(strip, geom_small, SatState(t=t, soc=77)))
        assert row.shape == (N_FEATURES,)
        assert np.all(row >= 0) and np.all(row <= 1)
        assert row[1:4].sum() == pytest.approx(1.0)
        assert row[4:7].sum() == pytest.approx(0.0 if t == 40 else 1.0)


# ---------------------------------------------------------------------------
# demonstrations
# ---------------------------------------------------------------------------

def test_collect_full_grid(geom_small):
    strip = uniform(5, 2, RewardClass.MID)
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    demos = collect_demonstrations(table, strip, keep_prob=1.0, geom=geom_small)
    assert len(demos) == 2 * 101
    assert set(zip(demos.t.tolist(), demos.soc.tolist())) == {
        (t, soc) for t in (1, 2) for soc in range(101)
    }
    assert demos.source_digests == [strip.digest()]
    assert np.all(demos.actions[demos.soc < ENERGY.sample_discharge] == 0)
    # labels are the planner's argmax with ties to Off
    vals = table.values[demos.t - 1, demos.soc]
    assert np.array_equal(demos.actions, (vals[:, 1] > vals[:, 0]).astype(np.uint8))


def test_collect_is_seeded_and_binomial(geom_small):
    rng = np.random.default_rng(3)
    strip = EnvStrip(rng.integers(0, 3, size=(5, 50), dtype=np.uint8))
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    a = collect_demonstrations(table, strip, keep_prob=0.2, seed=11, geom=geom_small)
    b = collect_demonstrations(table, strip, keep_prob=0.2, seed=11, geom=geom_small)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.actions, b.actions)
    # N ~ Binomial(5050, 0.2): mean 1010, sd ~ 28.4
    assert abs(len(a) - 1010) < 5 * 28.5
    c = collect_demonstrations(table, strip, keep_prob=0.2, seed=12, geom=geom_small)
    assert len(c) != len(a) or not np.array_equal(a.features, c.features)


def test_collect_validation(geom_small):
    strip = uniform(5, 2, RewardClass.LOW)
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    with pytest.raises(ParameterError):
        collect_demonstrations(table, strip, keep_prob=1.5, geom=geom_small)
    with pytest.raises(ConsistencyError):
        collect_demonstrations(table, uniform(5, 2, RewardClass.MID), geom=geom_small)
    stretched = DPTable(values=np.zeros((4, 101, 2), dtype=np.float32),
                        strip_digest=strip.digest())
    with pytest.raises(ConsistencyError):
        collect_demonstrations(stretched, strip, geom=geom_small)


def test_merge_rebases_sources(geom_small):
    strips = [uniform(5, 2, RewardClass.LOW), uniform(5, 3, RewardClass.HIGH)]
    parts = []
    for strip in strips:
        table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
        parts.append(collect_demonstrations(table, strip, keep_prob=1.0, geom=geom_small))
    merged = merge_demos(parts)
    assert len(merged) == len(parts[0]) + len(parts[1])
    assert merged.source_digests == [strips[0].digest(), strips[1].digest()]
    assert set(merged.source.tolist()) == {0, 1}
    assert np.all(merged.source[: len(parts[0])] == 0)
    assert np.all(merged.source[len(parts[0]):] == 1)
    with pytest.raises(ParameterError):
        merge_demos([])


def test_take_demos_picks_rows(geom_small):
    strip = uniform(5, 2, RewardClass.LOW)
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    demos = collect_demonstrations(table, strip, keep_prob=1.0, geom=geom_small)
    order = np.array([5, 0, 140])
    sub = take_demos(demos, order)
    assert len(sub) == 3
    assert np.array_equal(sub.soc, demos.soc[order])
    assert np.array_equal(sub.features, demos.features[order])


def test_dominant_class_prefers_the_best_visible():
    rows = np.zeros((4, N_FEATURES))
    rows[0, 1:4] = (1.0, 0.0, 0.0)
    rows[1, 1:4] = (0.5, 0.5, 0.0)
    rows[2, 1:4] = (0.2, 0.3, 0.5)
    rows[3, 1:4] = (0.0, 0.9, 0.1)  # a sliver of High still wins
    demos = synth_demos(rows, [0, 0, 0, 0])
    assert dominant_radar_class(demos).tolist() == [0, 1, 2, 2]


def test_balance_downsamples_to_the_smallest_group():
    rng = np.random.default_rng(0)
    rows = np.zeros((1500, N_FEATURES))
    rows[:900, 1] = 1.0
    rows[900:1200, 2] = 1.0
    rows[1200:, 3] = 1.0
    rows[:, 0] = rng.random(1500)
    demos = synth_demos(rows, rng.integers(0, 2, 1500))
    balanced = balance_dataset(demos, seed=4)
    dom = dominant_radar_class(balanced)
    assert len(balanced) == 900
    assert [int((dom == c).sum()) for c in range(3)] == [300, 300, 300]
    again = balance_dataset(demos, seed=4)
    assert np.array_equal(balanced.features, again.features)


def test_balance_warns_on_an_empty_group():
    rows = np.zeros((10, N_FEATURES))
    rows[:6, 1] = 1.0
    rows[6:, 2] = 1.0  # no dominant-High examples at all
    demos = synth_demos(rows, np.zeros(10))
    with pytest.warns(UserWarning, match="dominant class 2"):
        balanced = balance_dataset(demos)
    assert len(balanced) == 8


def test_balance_rejects_an_empty_set():
    empty = DemoSet(
        features=np.zeros((0, N_FEATURES)),
        actions=np.zeros(0, dtype=np.uint8),
        t=np.zeros(0, dtype=np.int32),
        soc=np.zeros(0, dtype=np.int32),
        source=np.zeros(0, dtype=np.int32),
    )
    with pytest.raises(ParameterError):
        balance_dataset(empty)


def test_demo_set_rejects_ragged_arrays():
    with pytest.raises(ParameterError):
        DemoSet(
            features=np.zeros((3, N_FEATURES)),
            actions=np.zeros(2, dtype=np.uint8),
            t=np.zeros(3, dtype=np.int32),
            soc=np.zeros(3, dtype=np.int32),
            source=np.zeros(3, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def test_default_network_shape():
    model = init_mlp(seed=0)
    assert model.layer_sizes == LAYER_SIZES
    assert model.n_params == 1153
    assert all(not b.any() for b in model.biases)


def test_zero_network_is_maximally_unsure():
    model = MLPModel(
        weights=[np.zeros((a, b)) for a, b in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])],
        biases=[np.zeros(b) for b in LAYER_SIZES[1:]],
    )
    x = np.random.default_rng(1).random((6, N_FEATURES))
    assert np.all(mlp_forward(model, x) == 0.5)
    assert mlp_forward(model, x[0]) == 0.5


def test_forward_row_matches_batch():
    model = init_mlp(seed=7)
    x = np.random.default_rng(2).random((5, N_FEATURES))
    batch = mlp_forward(model, x)
    assert batch.shape == (5,)
    for i in range(5):
        assert mlp_forward(model, x[i]) == pytest.approx(batch[i], abs=0, rel=1e-12)


def test_forward_rejects_wrong_width():
    model = init_mlp(seed=0)
    with pytest.raises(ParameterError):
        mlp_forward(model, np.zeros((3, N_FEATURES + 1)))


def numeric_grads(model, x, y, loss, h=1e-6):
    def value():
        return mlp_grad(model, x, y, loss=loss)[0]

    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]
    for grads, params in ((gw, model.weights), (gb, model.biases)):
        for g, p in zip(grads, params):
            flat_g, flat_p = g.ravel(), p.ravel()
            for j in range(flat_p.size):
                keep = flat_p[j]
                flat_p[j] = keep + h
                hi = value()
                flat_p[j] = keep - h
                lo = value()
                flat_p[j] = keep
                flat_g[j] = (hi - lo) / (2 * h)
    return gw, gb


@pytest.mark.parametrize("seed, loss", [(0, "bce"), (1, "bce"), (2, "mse")])
def test_gradients_match_central_differences(seed, loss):
    rng = np.random.default_rng(seed)
    model = init_mlp(seed=seed)
    x = rng.random((8, N_FEATURES))
    y = rng.integers(0, 2, 8).astype(np.float64)
    _, gw, gb = mlp_grad(model, x, y, loss=loss)
    nw, nb = numeric_grads(model, x, y, loss)
    worst = 0.0
    for analytic, numeric in zip(gw + gb, nw + nb):
        # floor the denominator so near-zero coordinates are judged by
        # absolute error instead of a ratio of rounding noise
        err = np.abs(analytic - numeric) / np.maximum(
            np.abs(analytic) + np.abs(numeric), 1e-4
        )
        worst = max(worst, float(err.max()))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_params_validation():
    for bad in (
        dict(keep_prob=0.0),
        dict(loss="hinge"),
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(max_epochs=0),
        dict(patience=0),
        dict(val_fraction=1.0),
    ):
        with pytest.raises(ParameterError):
            TrainParams(**bad)


def test_training_fits_constant_labels():
    rng = np.random.default_rng(5)
    demos = synth_demos(rng.random((300, N_FEATURES)), np.zeros(300))
    model = train_bc(demos, TrainParams(learning_rate=3e-3, max_epochs=120, patience=20))
    assert np.all(mlp_forward(model, demos.features) < 0.1)


def test_training_memorizes_a_crisp_rule():
    rng = np.random.default_rng(6)
    x = rng.random((500, N_FEATURES))
    demos = synth_demos(x, (x[:, 3] > 0.5).astype(np.uint8))
    params = TrainParams(learning_rate=3e-3, max_epochs=400, patience=60)
    model = train_bc(demos, params)
    assert expert_agreement(model, demos) >= 0.98


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    x = rng.random((200, N_FEATURES))
    demos = synth_demos(x, (x[:, 1] > 0.6).astype(np.uint8))
    params = TrainParams(max_epochs=30, patience=5)
    a = train_bc(demos, params)
    b = train_bc(demos, params)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_training_ignores_rows_below_the_charge_floor():
    rng = np.random.default_rng(8)
    x = rng.random((200, N_FEATURES))
    y = (x[:, 2] > 0.5).astype(np.uint8)
    clean = synth_demos(x, y)
    padded = synth_demos(np.vstack([x, rng.random((50, N_FEATURES))]),
                         np.concatenate([y, np.ones(50, dtype=np.uint8)]))
    padded.soc[200:] = ENERGY.sample_discharge - 1
    params = TrainParams(max_epochs=10, patience=3)
    a = train_bc(clean, params)
    b = train_bc(padded, params)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_training_needs_a_full_feasible_batch():
    rng = np.random.default_rng(9)
    demos = synth_demos(rng.random((100, N_FEATURES)), np.zeros(100))
    demos.soc[:] = 0
    with pytest.raises(ParameterError, match="feasible"):
        train_bc(demos)
    small = synth_demos(rng.random((10, N_FEATURES)), np.zeros(10))
    with pytest.raises(ParameterError):
        train_bc(small, TrainParams(batch_size=64))


def test_training_history():
    rng = np.random.default_rng(10)
    demos = synth_demos(rng.random((150, N_FEATURES)), np.zeros(150))
    model, history = train_bc(
        demos, TrainParams(max_epochs=15, patience=3), return_history=True
    )
    assert 1 <= len(history) <= 15
    assert all(np.isfinite(t) and np.isfinite(v) for t, v in history)


def reference_grad(model, x, y, loss):
    """Backpropagation with one fresh array per layer and gradient."""
    last = len(model.weights) - 1
    acts = [x]
    z = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = z @ w + b
        if i < last:
            z = np.maximum(z, 0.0)
        acts.append(z)
    p = _sigmoid(acts[-1][:, 0])
    if loss == "bce":
        clipped = np.clip(p, _EPS, 1.0 - _EPS)
        value = float(-np.mean(y * np.log(clipped) + (1.0 - y) * np.log(1.0 - clipped)))
        delta = ((p - y) / len(x))[:, None]
    else:
        value = float(np.mean((p - y) ** 2))
        delta = ((2.0 * (p - y) * p * (1.0 - p)) / len(x))[:, None]
    gw, gb = [None] * (last + 1), [None] * (last + 1)
    for i in range(last, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return value, gw, gb


def reference_train(demos, params):
    """The trainer written out per array: one Adam update per weight and
    bias, each a fresh expression; the oracle for train_bc."""
    demos = take_demos(demos, np.nonzero(demos.soc >= ENERGY.sample_discharge)[0])
    n = len(demos)
    rng = np.random.default_rng(params.seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * params.val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = demos.features[train_idx], demos.actions[train_idx].astype(np.float64)
    x_val, y_val = demos.features[val_idx], demos.actions[val_idx].astype(np.float64)
    model = init_mlp(seed=params.seed)
    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, params.learning_rate
    step = 0
    history = []
    def snapshot():
        return MLPModel([w.copy() for w in model.weights], [b.copy() for b in model.biases])

    best_val, best_model, stale = np.inf, snapshot(), 0
    for _ in range(params.max_epochs):
        perm = rng.permutation(len(x_train))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(x_train), params.batch_size):
            batch = perm[start: start + params.batch_size]
            value, gw, gb = reference_grad(model, x_train[batch], y_train[batch], params.loss)
            epoch_loss += value
            n_batches += 1
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            for i in range(len(model.weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw[i] ** 2
                model.weights[i] -= lr * (m_w[i] / bc1) / (np.sqrt(v_w[i] / bc2) + eps)
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb[i] ** 2
                model.biases[i] -= lr * (m_b[i] / bc1) / (np.sqrt(v_b[i] / bc2) + eps)
        val_loss = reference_grad(model, x_val, y_val, params.loss)[0]
        history.append((epoch_loss / n_batches, val_loss))
        if val_loss < best_val:
            best_val, best_model, stale = val_loss, snapshot(), 0
        else:
            stale += 1
            if stale >= params.patience:
                break
    return best_model, history


def noisy_demos(seed):
    # 284 rows leave 256 for training: 4 full batches of 64, or 6 of 37
    # and a short one of 34; a few drained rows are dropped first
    rng = np.random.default_rng(seed)
    x = rng.random((290, N_FEATURES))
    demos = synth_demos(x, (x[:, 4] + 0.4 * rng.random(290) > 0.7).astype(np.uint8))
    demos.soc[::50] = ENERGY.sample_discharge - 1
    return demos


@pytest.mark.parametrize(
    "loss, batch_size, max_epochs, patience",
    [
        ("bce", 64, 200, 3),  # stops early on patience
        ("mse", 37, 200, 3),
        ("bce", 37, 12, 50),  # runs to max_epochs
        ("mse", 64, 12, 50),
    ],
)
def test_training_matches_the_per_array_reference(loss, batch_size, max_epochs, patience):
    demos = noisy_demos(11)
    params = TrainParams(loss=loss, batch_size=batch_size, learning_rate=3e-3,
                         max_epochs=max_epochs, patience=patience, seed=4)
    model, history = train_bc(demos, params, return_history=True)
    expected, expected_history = reference_train(demos, params)
    if max_epochs == 12:
        assert len(history) == max_epochs
    else:
        assert len(history) < max_epochs
    assert history == expected_history
    for got, want in zip(model.weights + model.biases, expected.weights + expected.biases):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_trained_models_share_no_memory():
    demos = noisy_demos(12)
    params = TrainParams(max_epochs=6, patience=2)
    a = train_bc(demos, params)
    b = train_bc(demos, params)
    arrays_a, arrays_b = a.weights + a.biases, b.weights + b.biases
    for x in arrays_a:
        assert not np.shares_memory(x, demos.features)
        for y in arrays_b:
            assert not np.shares_memory(x, y)
    # scribbling over a returned model leaves later training untouched
    for x in arrays_a:
        x[...] = np.nan
    c = train_bc(demos, params)
    for y, z in zip(arrays_b, c.weights + c.biases):
        assert np.array_equal(y, z)


def test_non_finite_training_loss_raises():
    rng = np.random.default_rng(13)
    x = rng.random((200, N_FEATURES))
    x[7, 5] = np.nan
    demos = synth_demos(x, (x[:, 1] > 0.5).astype(np.uint8))
    with pytest.raises(FloatingPointError, match="training loss"):
        train_bc(demos, TrainParams(max_epochs=3))


# ---------------------------------------------------------------------------
# agreement and policy
# ---------------------------------------------------------------------------

def test_agreement_applies_the_feasibility_mask():
    model = MLPModel(
        weights=[np.zeros((a, b)) for a, b in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])],
        biases=[np.zeros(b) for b in LAYER_SIZES[1:]],
    )
    demos = synth_demos(np.zeros((4, N_FEATURES)), [1, 0, 1, 0])
    demos.soc[:] = [100, 100, 0, 0]
    # p = 0.5 crosses the threshold, so the two charged rows decide
    # Sample and the two drained rows are forced Off
    assert expert_agreement(model, demos) == 0.5
    empty = take_demos(demos, np.array([], dtype=int))
    with pytest.raises(ParameterError):
        expert_agreement(model, empty)


def biased_model(shift):
    model = init_mlp(seed=0)
    model.biases[-1][:] = shift
    return model


def test_policy_obeys_saturated_heads(geom_small):
    strip = uniform(5, 10, RewardClass.HIGH)
    never = bc_policy(biased_model(-40.0), mode="threshold")
    always = bc_policy(biased_model(40.0), mode="threshold")
    rich = observe(strip, geom_small, SatState(t=3, soc=60))
    poor = observe(strip, geom_small, SatState(t=3, soc=4))
    assert never.decide(rich) == Action.OFF
    assert always.decide(rich) == Action.SAMPLE
    assert always.decide(poor) == Action.OFF  # floor wins over the head
    stochastic = bc_policy(biased_model(40.0), mode="stochastic", seed=1)
    assert stochastic.decide(rich) == Action.SAMPLE


def test_policy_stochastic_mode_is_seeded(geom_small):
    strip = uniform(5, 40, RewardClass.MID)
    model = init_mlp(seed=3)

    def trace(policy):
        policy.reset()
        return [
            policy.decide(observe(strip, geom_small, SatState(t=t, soc=50)))
            for t in range(1, 41)
        ]

    a = bc_policy(model, mode="stochastic", seed=9)
    first = trace(a)
    assert first == trace(a)  # reset rewinds the stream
    assert first == trace(bc_policy(model, mode="stochastic", seed=9))
    assert Action.SAMPLE in first and Action.OFF in first
    assert first != trace(bc_policy(model, mode="stochastic", seed=10))


def test_policy_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        bc_policy(init_mlp(), mode="argmax")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    model = init_mlp(seed=13)
    path = tmp_path / "m.dtm"
    save_model(model, path, manifest={"seed": 13})
    back = load_model(path)
    assert back.layer_sizes == model.layer_sizes
    for w, orig in zip(back.weights, model.weights):
        assert np.array_equal(w, orig.astype(np.float32).astype(np.float64))
    assert (tmp_path / "m.dtm.manifest").read_text() == "seed=13\n"
    save_model(back, tmp_path / "m2.dtm")
    assert (tmp_path / "m2.dtm").read_bytes() == path.read_bytes()


def test_model_format_errors(tmp_path):
    path = tmp_path / "m.dtm"
    save_model(init_mlp(seed=0), path)
    good = path.read_bytes()
    bad = tmp_path / "bad.dtm"

    bad.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 0

    bad.write_bytes(good[:6])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 6

    bad.write_bytes(MODEL_MAGIC + struct.pack("<I", 0))
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 4

    bad.write_bytes(good[:10])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 10

    bad.write_bytes(MODEL_MAGIC + struct.pack("<I", 1) + struct.pack("<II", 0, 4))
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 8

    bad.write_bytes(good[:-2])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == len(good) - 2

    bad.write_bytes(good + b"\x00")
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == len(good)


def test_model_layers_must_chain(tmp_path):
    blob = MODEL_MAGIC + struct.pack("<I", 2)
    blob += struct.pack("<II", 3, 4)
    blob += np.zeros(12, dtype="<f4").tobytes() + np.zeros(4, dtype="<f4").tobytes()
    blob += struct.pack("<II", 5, 2)
    blob += np.zeros(10, dtype="<f4").tobytes() + np.zeros(2, dtype="<f4").tobytes()
    path = tmp_path / "chain.dtm"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.offset == 8
