"""Behavioral cloning of the exact planner.

Demonstrations pair a 13-value observation summary with the planner's
action at that (timestep, charge) cell.  A small fully-connected network
maps the summary to a sample probability.  The network, its training
loop, and its gradients are written out longhand on purpose: the whole
point of this model is to be small enough to audit and to run within a
microsecond-scale budget, and the gradient check in the test suite needs
direct access to every parameter.

Feature layout, all in [0, 1]:

    0      charge / 100
    1..3   footprint fraction of Low / Mid / High
    4..6   lookahead fraction of Low / Mid / High (0 when the window is empty)
    7..9   distance from nadir to the nearest footprint pixel of each
           class, over the footprint radius; 1 when absent
    10..12 offset of the first lookahead column holding each class, over
           the lookahead length; 1 when absent
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConsistencyError, FormatError, ParameterError
from .dp import DPTable
from .sim import (
    Action,
    EnergyModel,
    N_SOC,
    Observation,
    Placement,
    Policy,
    SensorGeometry,
    SOC_MAX,
    StripIndex,
    strip_index,
)
from .world import EnvStrip

N_FEATURES = 13
LAYER_SIZES = (13, 32, 16, 8, 4, 1)

MODEL_MAGIC = b"DTM1"

_EPS = 1e-12


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def _features_at(index: StripIndex, t0s: np.ndarray, socs: np.ndarray) -> np.ndarray:
    """Feature rows for 0-based columns ``t0s`` at charges ``socs``."""
    near, earliest = index.bc_extras()
    out = np.empty((len(t0s), N_FEATURES))
    out[:, 0] = socs / SOC_MAX
    out[:, 1:4] = index.radar_fraction[:, t0s].T
    out[:, 4:7] = index.look_fraction[:, t0s].T
    out[:, 7:10] = near[:, t0s].T
    out[:, 10:13] = earliest[:, t0s].T
    return out


def featurize_bc(obs: Observation) -> np.ndarray:
    """13-value summary of one observation; see the module docstring."""
    row = _features_at(obs.index, np.array([obs.t - 1]), np.array([obs.soc]))
    return row[0]


# ---------------------------------------------------------------------------
# demonstrations
# ---------------------------------------------------------------------------

@dataclass
class DemoSet:
    """Feature rows, expert actions, and where each example came from."""

    features: np.ndarray          # (N, 13) float64
    actions: np.ndarray           # (N,) uint8, Action values
    t: np.ndarray                 # (N,) int32, 1-based timestep
    soc: np.ndarray               # (N,) int32
    source: np.ndarray            # (N,) int32 index into source_digests
    source_digests: List[str] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.actions)
        if not (len(self.features) == len(self.t) == len(self.soc) == len(self.source) == n):
            raise ParameterError("demo arrays must share one length")

    def __len__(self) -> int:
        return len(self.actions)


def collect_demonstrations(
    dp_table: DPTable,
    strip: EnvStrip,
    keep_prob: float = 0.01,
    seed: int = 0,
    geom: SensorGeometry = SensorGeometry(),
) -> DemoSet:
    """Sample the (timestep, charge) grid and label with expert actions.

    Each of the horizon * 101 cells is kept independently with
    probability ``keep_prob`` (draws run timestep-major, charge-minor).
    The table must have been built for exactly this strip.
    """
    if not (0.0 <= keep_prob <= 1.0):
        raise ParameterError(f"keep_prob out of [0, 1]: {keep_prob}")
    digest = strip.digest()
    if dp_table.strip_digest != digest:
        raise ConsistencyError("planner table was built for a different strip")
    if dp_table.horizon != strip.length:
        raise ConsistencyError(
            f"table horizon {dp_table.horizon} != strip length {strip.length}"
        )
    index = strip_index(strip, geom)
    rng = np.random.default_rng(seed)
    if keep_prob >= 1.0:
        mask = np.ones((strip.length, N_SOC), dtype=bool)
    else:
        mask = rng.random((strip.length, N_SOC)) <= keep_prob
    t0s, socs = np.nonzero(mask)
    feats = _features_at(index, t0s, socs)
    vals = dp_table.values[t0s, socs]  # (N, 2)
    actions = (vals[:, 1] > vals[:, 0]).astype(np.uint8)
    return DemoSet(
        features=feats,
        actions=actions,
        t=(t0s + 1).astype(np.int32),
        soc=socs.astype(np.int32),
        source=np.zeros(len(actions), dtype=np.int32),
        source_digests=[digest],
    )


def merge_demos(parts: Sequence[DemoSet]) -> DemoSet:
    """Concatenate sets, re-basing per-example source indices."""
    parts = list(parts)
    if not parts:
        raise ParameterError("nothing to merge")
    digests: List[str] = []
    sources = []
    for part in parts:
        base = len(digests)
        digests.extend(part.source_digests)
        sources.append(part.source + base)
    return DemoSet(
        features=np.concatenate([p.features for p in parts]),
        actions=np.concatenate([p.actions for p in parts]),
        t=np.concatenate([p.t for p in parts]),
        soc=np.concatenate([p.soc for p in parts]),
        source=np.concatenate(sources),
        source_digests=digests,
    )


def take_demos(demos: DemoSet, order: np.ndarray) -> DemoSet:
    """Select examples by index, in the given order."""
    return DemoSet(
        features=demos.features[order],
        actions=demos.actions[order],
        t=demos.t[order],
        soc=demos.soc[order],
        source=demos.source[order],
        source_digests=list(demos.source_digests),
    )


def dominant_radar_class(demos: DemoSet) -> np.ndarray:
    """Best class visible in the footprint per example, from features."""
    rf = demos.features[:, 1:4]
    return np.where(rf[:, 2] > 0, 2, np.where(rf[:, 1] > 0, 1, 0))


def balance_dataset(demos: DemoSet, seed: int = 0) -> DemoSet:
    """Equalize group sizes across dominant footprint class.

    Each non-empty group is downsampled without replacement to the
    smallest non-empty group's size; empty groups are skipped with a
    warning.  The result is shuffled, deterministically in ``seed``.
    """
    dom = dominant_radar_class(demos)
    groups = [np.nonzero(dom == c)[0] for c in range(3)]
    sizes = [len(g) for g in groups]
    nonempty = [g for g in groups if len(g)]
    if not nonempty:
        raise ParameterError("cannot balance an empty demo set")
    for c, size in enumerate(sizes):
        if size == 0:
            warnings.warn(f"no examples with dominant class {c}; skipping that group")
    rng = np.random.default_rng(seed)
    target = min(len(g) for g in nonempty)
    kept = [rng.choice(g, size=target, replace=False) for g in nonempty]
    order = np.concatenate(kept)
    rng.shuffle(order)
    return take_demos(demos, order)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class MLPModel:
    """Fully-connected ReLU stack with a sigmoid head, float64 params."""

    weights: List[np.ndarray]  # weights[i] has shape (fan_in, fan_out)
    biases: List[np.ndarray]

    @property
    def layer_sizes(self) -> Tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights) + (self.weights[-1].shape[1],)

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def init_mlp(seed: int = 0, layer_sizes: Sequence[int] = LAYER_SIZES) -> MLPModel:
    """Uniform init scaled by fan-in + fan-out, zero biases."""
    if len(layer_sizes) < 2:
        raise ParameterError("need at least an input and an output layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(weights=weights, biases=biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mlp_forward(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Sample probability for one feature row or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    z = x[None, :] if single else x
    if z.shape[1] != model.weights[0].shape[0]:
        raise ParameterError(
            f"expected {model.weights[0].shape[0]} features, got {z.shape[1]}"
        )
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = z @ w + b
        if i < last:
            np.maximum(z, 0.0, out=z)
    p = _sigmoid(z[:, 0])
    return float(p[0]) if single else p


def _loss(p: np.ndarray, y: np.ndarray, loss: str) -> float:
    """Mean loss of sample probabilities ``p`` against labels ``y``."""
    if loss == "bce":
        clipped = np.clip(p, _EPS, 1.0 - _EPS)
        return float(-np.mean(y * np.log(clipped) + (1.0 - y) * np.log(1.0 - clipped)))
    return float(np.mean((p - y) ** 2))


def _backprop(
    model: MLPModel,
    x: np.ndarray,
    y: np.ndarray,
    loss: str,
    grads_w: List[np.ndarray],
    grads_b: List[np.ndarray],
) -> float:
    """Mean batch loss; writes its gradients into ``grads_w``/``grads_b``."""
    n = len(x)
    last = len(model.weights) - 1

    acts = [x]
    z = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = z @ w + b
        if i < last:
            z = np.maximum(z, 0.0)
        acts.append(z)
    p = _sigmoid(acts[-1][:, 0])

    value = _loss(p, y, loss)
    if loss == "bce":
        delta = ((p - y) / n)[:, None]  # sigmoid folded into the BCE gradient
    else:
        delta = ((2.0 * (p - y) * p * (1.0 - p)) / n)[:, None]

    for i in range(last, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        np.sum(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return value


def mlp_grad(
    model: MLPModel,
    x: np.ndarray,
    y: np.ndarray,
    loss: str = "bce",
) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
    """Mean loss over the batch and its gradients, by backpropagation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise ParameterError("need a (N, features) batch with matching labels")
    if loss not in ("bce", "mse"):
        raise ParameterError(f"unknown loss {loss!r}")
    grads_w, grads_b = _layer_views(np.empty(model.n_params), model.layer_sizes)
    value = _backprop(model, x, y, loss, grads_w, grads_b)
    return value, grads_w, grads_b


def _layer_views(
    flat: np.ndarray, layer_sizes: Sequence[int]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer weight and bias views into one flat parameter vector."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[pos: pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(flat[pos: pos + fan_out])
        pos += fan_out
    return weights, biases


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainParams:
    keep_prob: float = 0.01
    loss: str = "bce"
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 5
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.keep_prob <= 1.0):
            raise ParameterError(f"keep_prob out of (0, 1]: {self.keep_prob}")
        if self.loss not in ("bce", "mse"):
            raise ParameterError(f"unknown loss {self.loss!r}")
        if not (self.learning_rate > 0):
            raise ParameterError(f"learning rate must be positive: {self.learning_rate}")
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ParameterError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ParameterError(f"val_fraction out of (0, 1): {self.val_fraction}")


def train_bc(
    demos: DemoSet,
    params: TrainParams = TrainParams(),
    return_history: bool = False,
    energy: EnergyModel = EnergyModel(),
):
    """Fit the network to ``demos`` with Adam and early stopping.

    Examples below the sampling charge floor are dropped first: the
    policy's feasibility mask decides those states, and keeping their
    forced Off labels drags the learned boundary above the floor, which
    is exactly where a drained expert concentrates its Sample decisions.
    Splits off a validation share, trains up to ``max_epochs`` epochs,
    and stops once validation loss has not improved for ``patience``
    epochs, returning the best-validation weights.  Raises
    FloatingPointError if the loss ever goes non-finite.
    """
    feasible = np.nonzero(demos.soc >= energy.sample_discharge)[0]
    if len(feasible) < len(demos):
        demos = take_demos(demos, feasible)
    n = len(demos)
    if n < params.batch_size:
        raise ParameterError(
            f"need at least one full batch ({params.batch_size}), "
            f"got {n} feasible examples"
        )
    rng = np.random.default_rng(params.seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * params.val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = demos.features[train_idx], demos.actions[train_idx].astype(np.float64)
    x_val, y_val = demos.features[val_idx], demos.actions[val_idx].astype(np.float64)

    # the model's arrays and backprop's gradients are views into two flat
    # vectors, so one Adam step is a few whole-vector ufuncs
    init = init_mlp(seed=params.seed)
    sizes = init.layer_sizes
    theta = np.concatenate(
        [a.ravel() for layer in zip(init.weights, init.biases) for a in layer]
    )
    model = MLPModel(*_layer_views(theta, sizes))
    grad = np.empty_like(theta)
    grads_w, grads_b = _layer_views(grad, sizes)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    tmp, den = np.empty_like(theta), np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    history: List[Tuple[float, float]] = []
    best_val = np.inf
    best = theta.copy()
    stale = 0
    n_train = len(x_train)
    for _ in range(params.max_epochs):
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_train, params.batch_size):
            batch = perm[start: start + params.batch_size]
            value = _backprop(
                model, x_train[batch], y_train[batch], params.loss, grads_w, grads_b
            )
            if not math.isfinite(value):
                raise FloatingPointError("training loss went non-finite")
            epoch_loss += value
            n_batches += 1
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            # in place, with the per-element operations and their order of
            #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g**2
            #   theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
            # so results match a per-array update bit for bit
            m *= beta1
            np.multiply(grad, 1 - beta1, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(grad, grad, out=tmp)
            tmp *= 1 - beta2
            v += tmp
            np.divide(m, bc1, out=tmp)
            tmp *= params.learning_rate
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += eps
            tmp /= den
            theta -= tmp
        val_loss = _loss(mlp_forward(model, x_val), y_val, params.loss)
        if not math.isfinite(val_loss):
            raise FloatingPointError("validation loss went non-finite")
        history.append((epoch_loss / max(n_batches, 1), val_loss))
        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best, theta)
            stale = 0
        else:
            stale += 1
            if stale >= params.patience:
                break
    best_model = MLPModel(*_layer_views(best, sizes))
    if return_history:
        return best_model, history
    return best_model


def expert_agreement(
    model: MLPModel,
    demos: DemoSet,
    threshold: float = 0.5,
    energy: EnergyModel = EnergyModel(),
) -> float:
    """Fraction of demos where the thresholded policy matches the expert.

    Scores the decision the deployed policy would make, so the charge
    feasibility mask applies before comparison.
    """
    if len(demos) == 0:
        raise ParameterError("empty demo set")
    p = mlp_forward(model, demos.features)
    decided = (p >= threshold) & (demos.soc >= energy.sample_discharge)
    return float(np.mean(decided == (demos.actions == 1)))


# ---------------------------------------------------------------------------
# policy and serialization
# ---------------------------------------------------------------------------

class _BCPolicy(Policy):
    name = "bc"
    placement = Placement.DISC

    def __init__(self, model: MLPModel, mode: str, seed: int, energy: EnergyModel):
        if mode not in ("stochastic", "threshold"):
            raise ParameterError(f"unknown mode {mode!r}")
        self.model = model
        self.mode = mode
        self.seed = seed
        self.energy = energy
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def decide(self, obs: Observation) -> Action:
        if obs.soc < self.energy.sample_discharge:
            return Action.OFF
        p = mlp_forward(self.model, featurize_bc(obs))
        if self.mode == "stochastic":
            return Action.SAMPLE if self._rng.random() < p else Action.OFF
        return Action.SAMPLE if p >= 0.5 else Action.OFF


def bc_policy(
    model: MLPModel,
    mode: str = "stochastic",
    seed: int = 0,
    energy: EnergyModel = EnergyModel(),
) -> Policy:
    """Cloned policy; stochastic mode draws Sample with the model's
    probability, threshold mode samples when it exceeds one half."""
    return _BCPolicy(model, mode, seed, energy)


def save_model(model: MLPModel, path, manifest: Optional[dict] = None) -> None:
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(model.weights)))
        for w, b in zip(model.weights, model.biases):
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
            fh.write(w.astype("<f4").tobytes())
            fh.write(b.astype("<f4").tobytes())
    if manifest is not None:
        lines = [f"{k}={v}\n" for k, v in manifest.items()]
        Path(str(path) + ".manifest").write_text("".join(lines), encoding="utf-8")


def load_model(path) -> MLPModel:
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != MODEL_MAGIC:
        raise FormatError(f"bad magic, expected {MODEL_MAGIC!r}", offset=0)
    if len(data) < 8:
        raise FormatError("truncated header", offset=len(data))
    (n_layers,) = struct.unpack_from("<I", data, 4)
    if n_layers == 0 or n_layers > 64:
        raise FormatError(f"unreasonable layer count {n_layers}", offset=4)
    pos = 8
    weights, biases = [], []
    for _ in range(n_layers):
        if len(data) < pos + 8:
            raise FormatError("truncated layer header", offset=len(data))
        fan_in, fan_out = struct.unpack_from("<II", data, pos)
        pos += 8
        if fan_in == 0 or fan_out == 0 or fan_in * fan_out > (1 << 24):
            raise FormatError(f"unreasonable layer shape {fan_in}x{fan_out}", offset=pos - 8)
        need = (fan_in * fan_out + fan_out) * 4
        if len(data) < pos + need:
            raise FormatError("truncated layer payload", offset=len(data))
        w = np.frombuffer(data, dtype="<f4", count=fan_in * fan_out, offset=pos)
        pos += fan_in * fan_out * 4
        b = np.frombuffer(data, dtype="<f4", count=fan_out, offset=pos)
        pos += fan_out * 4
        weights.append(w.reshape((fan_in, fan_out)).astype(np.float64))
        biases.append(b.astype(np.float64))
    if pos != len(data):
        raise FormatError("trailing bytes after payload", offset=pos)
    for prev, nxt in zip(weights[:-1], weights[1:]):
        if prev.shape[1] != nxt.shape[0]:
            raise FormatError("layer shapes do not chain", offset=8)
    return MLPModel(weights=weights, biases=biases)
