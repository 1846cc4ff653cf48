"""Imitation learner: features, demo handling, network, training loop."""
import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from dyntarget import (
    Action,
    EnergyModel,
    EnvStrip,
    GenParams,
    MLPModel,
    RewardClass,
    RewardModel,
    SensorGeometry,
    TrainParams,
    balance_dataset,
    bc_policy,
    build_dp_table,
    collect_demonstrations,
    expert_action,
    expert_agreement,
    featurize_bc,
    generate_synthetic,
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
    MODEL_HEADER,
    MODEL_MAGIC,
    N_FEATURES,
    _forward_row,
    _sigmoid,
    dominant_radar_class,
)
from dyntarget.sim import SOC_MAX, SatState
from dyntarget.errors import ConsistencyError, FormatError, ParameterError
from dyntarget.world import UNKEYED

ENERGY = EnergyModel()
REWARDS = RewardModel()


def uniform(height, length, cls):
    return EnvStrip(np.full((height, length), int(cls), dtype=np.uint8))


def synth_demos(features, actions):
    """Wrap handcrafted feature rows as a demo set at full charge."""
    return DemoSet(
        features=np.asarray(features, dtype=np.float64),
        actions=np.asarray(actions, dtype=np.uint8),
        soc=np.full(len(actions), 100, dtype=np.int32),
    )


def grid_cells(length, keep_prob=1.0, seed=0):
    """0-based timesteps and charges of the cells collect_demonstrations
    keeps, in its order: timestep-major over the (length, 101) grid, every
    cell for keep_prob 1, else those whose seeded draw is <= keep_prob."""
    if keep_prob >= 1.0:
        return np.divmod(np.arange(length * (SOC_MAX + 1)), SOC_MAX + 1)
    draws = np.random.default_rng(seed).random((length, SOC_MAX + 1))
    return np.nonzero(draws <= keep_prob)


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
    t0s, socs = grid_cells(2)
    assert np.array_equal(demos.soc, socs)
    assert np.all(demos.actions[demos.soc < ENERGY.sample_discharge] == 0)
    # labels are the planner's own readout, ties to Off
    for t0, soc, action in zip(t0s.tolist(), socs.tolist(), demos.actions.tolist()):
        assert action == expert_action(table, t0 + 1, soc)
    assert demos.actions.sum() > 0


def test_collect_is_seeded_and_binomial(geom_small):
    rng = np.random.default_rng(3)
    strip = EnvStrip(rng.integers(0, 3, size=(5, 50), dtype=np.uint8))
    table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
    a = collect_demonstrations(table, strip, keep_prob=0.2, seed=11, geom=geom_small)
    b = collect_demonstrations(table, strip, keep_prob=0.2, seed=11, geom=geom_small)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.actions, b.actions)
    t0s, socs = grid_cells(50, keep_prob=0.2, seed=11)
    assert np.array_equal(a.soc, socs)
    for t0, soc, action in zip(t0s.tolist(), socs.tolist(), a.actions.tolist()):
        assert action == expert_action(table, t0 + 1, soc)
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
    stretched = dataclasses.replace(table, values=np.zeros((5, 101)))
    with pytest.raises(ConsistencyError):
        collect_demonstrations(stretched, strip, geom=geom_small)


def test_merge_lists_the_parts_in_order(geom_small):
    strips = [uniform(5, 2, RewardClass.LOW), uniform(5, 3, RewardClass.HIGH)]
    parts = []
    for strip in strips:
        table = build_dp_table(strip, geom_small, ENERGY, REWARDS)
        parts.append(collect_demonstrations(table, strip, keep_prob=1.0, geom=geom_small))
    merged = merge_demos(parts)
    assert len(merged) == len(parts[0]) + len(parts[1])
    for name in ("features", "actions", "soc"):
        head, tail = np.split(getattr(merged, name), [len(parts[0])])
        assert np.array_equal(head, getattr(parts[0], name))
        assert np.array_equal(tail, getattr(parts[1], name))
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
        soc=np.zeros(0, dtype=np.int32),
    )
    with pytest.raises(ParameterError):
        balance_dataset(empty)


def test_demo_set_rejects_ragged_arrays():
    with pytest.raises(ParameterError):
        DemoSet(
            features=np.zeros((3, N_FEATURES)),
            actions=np.zeros(2, dtype=np.uint8),
            soc=np.zeros(3, dtype=np.int32),
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


def test_single_row_forward_matches_matmul_and_the_batch_form():
    """``_forward_row``'s ``ndarray.dot`` layers against the ``np.matmul`` form
    with a Python-float ReLU, and its probability against a one-row
    batch, bit for bit: seeded models whose negative biases leave dead
    units, on random rows, zero rows and rows of -0.0 entries."""
    rng = np.random.default_rng(61)
    rows = np.vstack([
        rng.random((30, N_FEATURES)),
        rng.normal(0.0, 2.0, (5, N_FEATURES)),
        np.zeros((2, N_FEATURES)),
        np.full((2, N_FEATURES), -0.0),
        np.where(rng.random((3, N_FEATURES)) < 0.5, -0.0, rng.random((3, N_FEATURES))),
    ])
    compared = dead = 0
    for seed in range(20):
        model = init_mlp(seed=seed)
        for b in model.biases:
            b[:] = rng.normal(-0.3, 0.5, size=b.shape)
        sizes = model.layer_sizes
        layers = list(zip(model.weights, model.biases, [np.empty(k) for k in sizes[1:]]))
        for x in rows:
            p = _forward_row(layers, x)
            z = x
            for i, (w, b, out) in enumerate(layers):
                z = np.matmul(z, w) + b
                if i < len(layers) - 1:
                    z = np.maximum(z, 0.0)
                    dead += int(np.count_nonzero(z == 0.0))
                assert np.array_equal(bits(out), bits(z)), (seed, i)
                compared += len(z)
            assert bits(p) == bits(mlp_forward(model, x[None])[0]), seed
            assert bits(p) == bits(mlp_forward(model, x)), seed
    assert compared > 50_000 and dead > 0


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
        ("bce", 51, 12, 50),  # 5 full batches and a short one of 1 row
        ("mse", 51, 12, 50),
        ("bce", 1, 12, 50),   # batches of one row
        ("mse", 1, 12, 50),
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


def labelled_rows(seed, n):
    """``n`` feasible rows with noisy labels."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, N_FEATURES))
    return synth_demos(x, (x[:, 4] + 0.4 * rng.random(n) > 0.7).astype(np.uint8))


@pytest.mark.parametrize("loss", ["bce", "mse"])
def test_training_matches_the_reference_across_loss_blocks(loss):
    # 4230 training rows: 66 full batches of 64, more than one block of
    # batch losses, and a short batch of 6 rows
    demos = labelled_rows(21, 4700)
    params = TrainParams(loss=loss, learning_rate=3e-3, max_epochs=3, patience=50, seed=5)
    model, history = train_bc(demos, params, return_history=True)
    expected, expected_history = reference_train(demos, params)
    assert len(history) == 3
    assert history == expected_history
    for got, want in zip(model.weights + model.biases, expected.weights + expected.biases):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("loss", ["bce", "mse"])
@pytest.mark.parametrize("rows", [1, 8, 37, 64])
def test_gradients_match_the_per_array_reference(loss, rows):
    rng = np.random.default_rng(rows)
    model = init_mlp(seed=rows)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.5, size=b.shape)
    x = rng.random((rows, N_FEATURES))
    y = rng.integers(0, 2, rows).astype(np.float64)
    value, gw, gb = mlp_grad(model, x, y, loss=loss)
    want_value, want_w, want_b = reference_grad(model, x, y, loss)
    assert bits(value) == bits(want_value)
    for got, want in zip(gw + gb, want_w + want_b):
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))


def test_training_gathers_the_feasible_rows_once():
    # the charge filter, the shuffle and the split make one index array,
    # so the feasible rows are copied once, into the two splits
    demos = labelled_rows(31, 40_000)
    demos.soc[::20] = ENERGY.sample_discharge - 1
    tracemalloc.start()
    try:
        train_bc(demos, TrainParams(max_epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * demos.features.nbytes


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


def test_non_finite_loss_in_the_short_last_batch_raises():
    demos = labelled_rows(17, 200)
    params = TrainParams(max_epochs=3)
    # train_bc's own draws: the validation split, then the first epoch's order
    rng = np.random.default_rng(params.seed)
    order = rng.permutation(200)
    train_idx = order[20:]
    perm = rng.permutation(len(train_idx))
    assert len(train_idx) % params.batch_size == 52
    demos.features[train_idx[perm[-1]], 5] = np.nan
    with pytest.raises(FloatingPointError, match="training loss"):
        train_bc(demos, params)


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
# inference oracles: the indexed and masked forms the direct paths replace
# ---------------------------------------------------------------------------

def reference_features(index, t0s, socs):
    """Feature rows built with index arrays, one fancy read per block; the
    class fractions are the footprint and lookahead counts over their
    cell counts (an empty window counts 0 of 1 cell)."""
    near, earliest = index.bc_extras()
    win_cells = np.maximum(index.win_cols * index._cells.shape[0], 1)
    out = np.empty((len(t0s), N_FEATURES))
    out[:, 0] = socs / SOC_MAX
    out[:, 1:4] = (index.radar_count[:, t0s] / index.footprint_size[t0s]).T
    out[:, 4:7] = (index.look_count[:, t0s] / win_cells[t0s]).T
    out[:, 7:10] = near[:, t0s].T
    out[:, 10:13] = earliest[:, t0s].T
    return out


def masked_sigmoid(z):
    """The logistic by boolean-mask scatter, one exp call per sign."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(model, x):
    """One fresh array per layer, then the masked sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    z = x[None, :] if single else x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = z @ w + b
        if i < last:
            np.maximum(z, 0.0, out=z)
    p = masked_sigmoid(z[:, 0])
    return float(p[0]) if single else p


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_features_match_the_indexed_reference():
    strip = generate_synthetic(GenParams(length=300, seed=41))
    geom = SensorGeometry()
    index = observe(strip, geom, SatState(t=1, soc=0)).index
    for soc in (0, 5, 37, 100):
        for t in range(1, strip.length + 1):
            row = featurize_bc(observe(strip, geom, SatState(t=t, soc=soc)))
            want = reference_features(index, np.array([t - 1]), np.array([soc]))[0]
            assert np.array_equal(bits(row), bits(want)), (t, soc)
    table = build_dp_table(strip, geom, ENERGY, REWARDS)
    demos = collect_demonstrations(table, strip, keep_prob=1.0, geom=geom)
    t0s, socs = grid_cells(strip.length)
    assert np.array_equal(demos.soc, socs)
    want = reference_features(index, t0s, socs)
    assert np.array_equal(bits(demos.features), bits(want))


def oracle_models():
    """Four networks: three with every bias drawn non-zero, and one
    trained network pushed to both sides of one half."""
    models = []
    for seed in (1, 2, 3):
        model = init_mlp(seed=seed)
        rng = np.random.default_rng(seed + 50)
        for b in model.biases:
            b[:] = rng.normal(0.0, 0.5, size=b.shape)
        models.append(model)
    trained = train_bc(noisy_demos(16), TrainParams(max_epochs=5, patience=50))
    trained.biases[-1] += 0.3
    return models + [trained]


@pytest.mark.parametrize("which", range(4))
def test_policy_probability_matches_the_reference_formula(which):
    """Every (t, soc) cell: the policy's buffered probability equals the
    indexed features run through fresh (1, n) layers bit for bit, both
    modes decide from it, and a full-grid demo row is featurize_bc's."""
    model = oracle_models()[which]
    strip = generate_synthetic(GenParams(length=90, seed=43 + which))
    geom = SensorGeometry()
    index = observe(strip, geom, SatState(t=1, soc=0)).index
    t0s, socs = grid_cells(strip.length)
    rows = reference_features(index, t0s, socs)
    demos = collect_demonstrations(build_dp_table(strip, geom, ENERGY, REWARDS), strip,
                                   keep_prob=1.0, geom=geom)
    assert np.array_equal(demos.soc, socs)
    threshold = bc_policy(model, mode="threshold", energy=ENERGY)
    stochastic = bc_policy(model, mode="stochastic", seed=7, energy=ENERGY)
    draws = np.random.default_rng(7)
    decided = set()
    for k, (t0, soc) in enumerate(zip(t0s.tolist(), socs.tolist())):
        obs = observe(strip, geom, SatState(t=t0 + 1, soc=soc))
        row = featurize_bc(obs)
        assert np.array_equal(bits(row), bits(demos.features[k])), (t0, soc)
        want = reference_forward(model, rows[k])
        assert bits(threshold._probability(obs)) == bits(want), (t0, soc)
        assert bits(mlp_forward(model, row)) == bits(want), (t0, soc)
        feasible = soc >= ENERGY.sample_discharge
        expect = Action.SAMPLE if feasible and want >= 0.5 else Action.OFF
        assert threshold.decide(obs) is expect
        expect = Action.SAMPLE if feasible and draws.random() < want else Action.OFF
        assert stochastic.decide(obs) is expect
        decided.add(expect)
    assert decided == {Action.OFF, Action.SAMPLE}


def test_sigmoid_matches_the_masked_reference():
    edges = [0.0, 1e-300, 709.0, 745.0, 1e308, np.inf]
    z = np.concatenate([
        np.random.default_rng(42).standard_normal(1_000_000),
        edges,
        np.negative(edges),
    ])
    want = bits(masked_sigmoid(z))
    assert np.array_equal(bits(_sigmoid(z)), want)
    out, den, nonneg = np.empty_like(z), np.empty_like(z), np.empty(len(z), dtype=bool)
    assert _sigmoid(z, out, den, nonneg) is out
    assert np.array_equal(bits(out), want)


def test_forward_matches_the_reference_on_a_trained_model():
    demos = noisy_demos(14)
    model = train_bc(demos, TrainParams(learning_rate=3e-3, max_epochs=20, patience=50))
    x = np.vstack([demos.features, np.random.default_rng(15).random((200, N_FEATURES))])
    batch = mlp_forward(model, x)
    assert np.array_equal(bits(batch), bits(reference_forward(model, x)))
    assert (batch > 0.5).any() and (batch < 0.5).any()  # both sigmoid branches
    for row in x:
        assert mlp_forward(model, row) == reference_forward(model, row)
    for shift in (-800.0, -40.0, 40.0, 800.0):  # saturated and underflowing heads
        head = biased_model(shift)
        for row in x[:20]:
            got, want = mlp_forward(head, row), reference_forward(head, row)
            assert bits(got) == bits(want)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    model = init_mlp(seed=13)
    path = tmp_path / "m.dtm"
    save_model(model, path, manifest={"seed": 13})
    back = load_model(path)
    assert back.layer_sizes == model.layer_sizes
    for got, orig in zip(back.weights + back.biases, model.weights + model.biases):
        assert got.dtype == np.float64
        assert np.array_equal(got, orig)
    assert (tmp_path / "m.dtm.manifest").read_text() == "seed=13\n"
    save_model(back, tmp_path / "m2.dtm")
    assert (tmp_path / "m2.dtm").read_bytes() == path.read_bytes()


def test_model_header_round_trips_its_key(tmp_path):
    model = init_mlp(seed=1)
    assert model.key == UNKEYED
    model.key = tuple(hashlib.sha256(part).hexdigest() for part in (b"strips", b"models", b"bc"))
    path = tmp_path / "m.dtm"
    save_model(model, path)
    assert load_model(path).key == model.key
    assert path.read_bytes()[8:MODEL_HEADER.size] == b"".join(map(bytes.fromhex, model.key))


def test_loaded_model_is_one_flat_parameter_vector(tmp_path):
    # the form train_bc returns: layer views into one fresh float64 vector
    save_model(init_mlp(seed=2), tmp_path / "m.dtm")
    back = load_model(tmp_path / "m.dtm")
    flat = back.weights[0].base
    assert flat is not None and flat.ndim == 1 and flat.size == back.n_params
    assert flat.flags.owndata and flat.flags.writeable
    assert all(a.base is flat for a in back.weights + back.biases)


def test_model_format_errors(tmp_path):
    path = tmp_path / "m.dtm"
    save_model(init_mlp(seed=0), path)
    good = path.read_bytes()
    bad = tmp_path / "bad.dtm"
    key = bytes(96)

    bad.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 0

    bad.write_bytes(good[:6])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 6

    bad.write_bytes(MODEL_MAGIC + struct.pack("<I", 0) + key)
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == 4

    bad.write_bytes(good[:MODEL_HEADER.size + 2])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == MODEL_HEADER.size + 2

    bad.write_bytes(MODEL_MAGIC + struct.pack("<I", 1) + key + struct.pack("<II", 0, 4))
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == MODEL_HEADER.size

    bad.write_bytes(good[:-2])
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == len(good) - 2

    bad.write_bytes(good + b"\x00")
    with pytest.raises(FormatError) as err:
        load_model(bad)
    assert err.value.offset == len(good)


def test_model_layers_must_chain(tmp_path):
    blob = MODEL_MAGIC + struct.pack("<I", 2) + bytes(96)
    blob += struct.pack("<II", 3, 4)
    blob += np.zeros(12, dtype="<f8").tobytes() + np.zeros(4, dtype="<f8").tobytes()
    blob += struct.pack("<II", 5, 2)
    blob += np.zeros(10, dtype="<f8").tobytes() + np.zeros(2, dtype="<f8").tobytes()
    path = tmp_path / "chain.dtm"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.offset == MODEL_HEADER.size
