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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, ParameterError
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
from .world import UNKEYED, EnvStrip, check_size, read_checked, write_file

N_FEATURES = 13
LAYER_SIZES = (N_FEATURES, 32, 16, 8, 4, 1)

MODEL_MAGIC = b"DTM2"
# magic, layer count, then the key: training strips, models and params digests
MODEL_HEADER = struct.Struct("<4sI32s32s32s")

_EPS = 1e-12
# 0-d operands: a ufunc takes these more cheaply than a Python float
_ZERO, _ONE = np.zeros(()), np.ones(())
_LOSS_BLOCK_ROWS = 4096  # training rows whose losses are summed in one pass
# Action's members as module globals, for decide: reading one off the
# enum class costs about 0.1 us
_OFF, _SAMPLE = Action.OFF, Action.SAMPLE


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def featurize_bc(obs: Observation) -> np.ndarray:
    """13-value summary of one observation; see the module docstring."""
    row = obs.index.bc_features()[obs.t - 1].copy()
    row[0] = obs.soc / SOC_MAX
    return row


# ---------------------------------------------------------------------------
# demonstrations
# ---------------------------------------------------------------------------

@dataclass
class DemoSet:
    """Feature rows, expert actions and the charge of each example."""

    features: np.ndarray          # (N, 13) float64
    actions: np.ndarray           # (N,) uint8, Action values
    soc: np.ndarray               # (N,) int32

    def __post_init__(self):
        if not (len(self.features) == len(self.soc) == len(self.actions)):
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
    probability ``keep_prob`` (draws run timestep-major, charge-minor),
    and the kept cells are listed in that order.  The table must have
    been built for exactly this strip.
    """
    if not (0.0 <= keep_prob <= 1.0):
        raise ParameterError(f"keep_prob out of [0, 1]: {keep_prob}")
    dp_table.check_strip(strip)
    index = strip_index(strip, geom)
    # draws lie in [0, 1), so keep_prob = 1.0 keeps every cell
    mask = np.random.default_rng(seed).random((strip.length, N_SOC)) <= keep_prob
    t0s, socs = np.nonzero(mask)
    feats = index.bc_features()[t0s]
    feats[:, 0] = socs / SOC_MAX
    actions = dp_table.samples(t0s, socs).astype(np.uint8)
    return DemoSet(features=feats, actions=actions, soc=socs.astype(np.int32))


def merge_demos(parts: Sequence[DemoSet]) -> DemoSet:
    """Concatenate sets, in order."""
    parts = list(parts)
    if not parts:
        raise ParameterError("nothing to merge")
    return DemoSet(
        features=np.concatenate([p.features for p in parts]),
        actions=np.concatenate([p.actions for p in parts]),
        soc=np.concatenate([p.soc for p in parts]),
    )


def take_demos(demos: DemoSet, order: np.ndarray) -> DemoSet:
    """Select examples by index, in the given order."""
    return DemoSet(
        features=demos.features[order], actions=demos.actions[order], soc=demos.soc[order]
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
    """Fully-connected ReLU stack with a sigmoid head, float64 params.

    ``key`` names what the model was trained on (see ``world.UNKEYED``);
    the trainer leaves it unkeyed and whoever knows the inputs sets it.
    """

    weights: List[np.ndarray]  # weights[i] has shape (fan_in, fan_out)
    biases: List[np.ndarray]
    key: Tuple[str, str, str] = UNKEYED

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


def _sigmoid(
    z: np.ndarray,
    out: Optional[np.ndarray] = None,
    den: Optional[np.ndarray] = None,
    nonneg: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Logistic of ``z``, into ``out`` when given; ``den`` (float) and
    ``nonneg`` (bool) are optional scratch shaped like ``z``.

    With t = exp(-|z|) this is 1/(1+t) where z >= 0 and t/(1+t)
    elsewhere, so ``exp`` never overflows.
    """
    t = np.abs(z, out=out)
    np.negative(t, out=t)
    np.exp(t, out=t)
    den = np.add(t, _ONE, out=den)
    np.divide(t, den, out=t)
    np.divide(_ONE, den, out=den)
    np.copyto(t, den, where=np.greater_equal(z, _ZERO, out=nonneg))
    return t


def _forward(layers: Sequence[tuple], x: np.ndarray) -> np.ndarray:
    """The (N, 1) logits of rows ``x``; ``layers`` holds (weights,
    biases, out) per layer, ``out`` a buffer for that layer's output or
    None for a fresh array."""
    last = len(layers) - 1
    z = x
    for i, (w, b, out) in enumerate(layers):
        z = np.dot(z, w, out=out)
        np.add(z, b, out=z)
        if i < last:
            np.maximum(z, _ZERO, out=z)
    return z


def _forward_row(layers: Sequence[tuple], x: np.ndarray) -> float:
    """Sample probability of one 1-D feature row ``x``; ``layers`` holds
    (weights, biases, out) per layer, ``out`` a 1-D buffer for that
    layer's output or None for a fresh array.

    ``np.dot`` of a 1-D row and a matrix runs the same BLAS kernel as
    ``np.matmul`` of the pair and as the batch form's ``np.dot`` on a
    (1, n) row, so each layer's output matches both bit for bit
    (``test_single_row_forward_matches_matmul_and_the_batch_form``);
    ``np.dot`` only dispatches faster.  The bias add then has matching
    shapes.
    """
    last = len(layers) - 1
    z = x
    for i, (w, b, out) in enumerate(layers):
        z = np.dot(z, w, out=out)
        np.add(z, b, out=z)  # the ufunc call: `z += b` dispatches slower
        if i < last:
            np.maximum(z, _ZERO, out=z)
    # _sigmoid's formula on one numpy scalar: np.exp runs the same kernel
    # as on an array, and scalar arithmetic rounds as the array ufuncs do
    logit = z[0]
    t = np.exp(-abs(logit))
    return float(1.0 / (1.0 + t) if logit >= 0 else t / (1.0 + t))


def mlp_forward(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Sample probability for one feature row or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    z = x[None, :] if single else x
    if z.shape[1] != model.weights[0].shape[0]:
        raise ParameterError(
            f"expected {model.weights[0].shape[0]} features, got {z.shape[1]}"
        )
    layers = [(w, b, None) for w, b in zip(model.weights, model.biases)]
    if single:
        return _forward_row(layers, x)
    return _sigmoid(_forward(layers, z)[:, 0])


def _loss(p: np.ndarray, y: np.ndarray, loss: str, scratch: Optional[np.ndarray] = None):
    """Mean loss of sample probabilities ``p`` against labels ``y`` along
    the last axis: a float64 scalar for 1-D input, one mean per row for
    a (batches, n) block.  ``scratch`` is an optional (3,) + p.shape
    work array.

    The per-element operations and their order are those of
    -mean(y*log(clip(p)) + (1-y)*log(1-clip(p))) and mean((p-y)**2).
    Each row of a C-contiguous block is reduced on its own by the same
    pairwise sum as a 1-D array of that length, so a row's mean equals
    the mean of that row alone bit for bit
    (``test_training_matches_the_reference_across_loss_blocks``).
    """
    a, b, c = np.empty((3,) + p.shape) if scratch is None else scratch
    n = p.shape[-1]
    if loss == "bce":
        np.maximum(p, _EPS, out=a)
        np.minimum(a, 1.0 - _EPS, out=a)
        np.log(a, out=b)
        b *= y
        np.subtract(1.0, a, out=a)
        np.log(a, out=a)
        a *= np.subtract(1.0, y, out=c)
        b += a
        return -(np.add.reduce(b, axis=-1) / n)
    np.subtract(p, y, out=a)
    np.square(a, out=a)
    return np.add.reduce(a, axis=-1) / n


@dataclass
class _Workspace:
    """Every array one forward and backward pass needs, for up to
    ``rows`` rows, and the per-layer plans that run through them; the
    gradients land in ``grads_w``/``grads_b``.  ``head(n)`` cuts each
    array to its first n rows."""

    model: MLPModel
    grads_w: List[np.ndarray]
    grads_b: List[np.ndarray]
    x: np.ndarray              # (rows, fan_in) batch input
    den: np.ndarray            # (rows,) sigmoid and MSE scratch
    nonneg: np.ndarray         # (rows,) bool, the sigmoid's branch
    acts: List[np.ndarray]     # each layer's output
    deltas: List[np.ndarray]   # loss gradient at each layer's output
    positive: List[np.ndarray]  # bool, where a hidden layer's output is > 0
    masks: List[np.ndarray]    # the same as 1.0 and 0.0
    forward: List[tuple] = field(init=False)
    backward: List[tuple] = field(init=False)

    def __post_init__(self):
        # every array here is a stable view (training updates the model
        # and the gradients in place), so the plans are built once
        model, last = self.model, len(self.acts) - 1
        self.forward = list(zip(model.weights, model.biases, self.acts))
        self.backward = []
        for i in range(last, -1, -1):
            below = self.acts[i - 1] if i > 0 else self.x
            plan = (below.T, self.deltas[i], self.grads_w[i], self.grads_b[i])
            if i > 0:  # and what carries delta to the layer below
                plan += (model.weights[i].T, self.deltas[i - 1], below,
                         self.positive[i - 1], self.masks[i - 1])
            else:
                plan += (None,) * 5
            self.backward.append(plan)

    @classmethod
    def allocate(
        cls,
        model: MLPModel,
        grads_w: List[np.ndarray],
        grads_b: List[np.ndarray],
        rows: int,
    ) -> "_Workspace":
        sizes = model.layer_sizes
        outs = sizes[1:]
        return cls(
            model, grads_w, grads_b,
            x=np.empty((rows, sizes[0])),
            den=np.empty(rows),
            nonneg=np.empty(rows, dtype=bool),
            acts=[np.empty((rows, k)) for k in outs],
            deltas=[np.empty((rows, k)) for k in outs],
            positive=[np.empty((rows, k), dtype=bool) for k in outs[:-1]],
            masks=[np.empty((rows, k)) for k in outs[:-1]],
        )

    def head(self, n: int) -> "_Workspace":
        def cut(arrays):
            return [a[:n] for a in arrays]

        return _Workspace(self.model, self.grads_w, self.grads_b, self.x[:n], self.den[:n],
                          self.nonneg[:n], cut(self.acts), cut(self.deltas),
                          cut(self.positive), cut(self.masks))


def _backprop(ws: _Workspace, y: np.ndarray, p: np.ndarray, loss: str) -> None:
    """Gradients of the mean loss of the batch in ``ws.x`` against labels
    ``y``, into the workspace's ``grads_w``/``grads_b``; the sample
    probabilities go to ``p`` and every intermediate to ``ws``.  The loss
    itself is left to the caller, ``_loss(p, y, loss)``.

    In order: the forward pass (per layer z = x . w, z += b, a ReLU
    below the top), the sigmoid into ``p``, the top delta (p - y) / n
    (for MSE 2 (p - y) p (1 - p) / n), then per layer, last first:
    grad_w = below.T . delta, grad_b = the column sums of delta, and,
    above the input layer, delta_below = (delta . w.T) times the 0.0/1.0
    float mask of below > 0.

    These are the per-element operations and order of one fresh array
    per step (z @ w + b, (p - y) / n, (delta @ w.T) * (act > 0)), so the
    results match that form bit for bit.  A 0.0/1.0 float factor gives
    the bits the bool mask's cast does, signed zeros and NaN included.
    ``np.dot`` hands these contiguous float64 operands to the same BLAS
    routines as ``@`` (gemm, or gemv and dot where a side is a single
    row or column); where one product is all there is to a sum, as in
    an outer product, each way rounds it once.  So it gives ``@``'s bits
    with less dispatch.  In tests/test_cloning.py,
    ``test_gradients_match_the_per_array_reference`` pins this against
    ``@`` at 1, 8, 37 and 64 rows, and
    ``test_training_matches_the_per_array_reference`` pins whole runs
    with batches of 64, 51, 37 and 1 row, the 51 leaving a short last
    batch of 1 row.
    """
    n = len(ws.x)
    p = _sigmoid(_forward(ws.forward, ws.x)[:, 0], p, ws.den, ws.nonneg)
    d = np.subtract(p, y, out=ws.deltas[-1][:, 0])
    if loss == "mse":  # 2 (p - y) p (1 - p); for BCE the sigmoid folds away
        d *= 2.0
        d *= p
        d *= np.subtract(1.0, p, out=ws.den)
    d /= n
    for below_t, delta, grad_w, grad_b, w_t, delta_below, below, positive, mask in ws.backward:
        np.dot(below_t, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if w_t is not None:
            np.dot(delta, w_t, out=delta_below)
            # compare into bool, copy into the float mask, multiply float by
            # float: unlike a bool-by-float multiply or a compare straight
            # into a float array, none of these needs a cast buffer
            np.greater(below, _ZERO, out=positive)
            np.copyto(mask, positive)
            np.multiply(delta_below, mask, out=delta_below)


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
    ws = _Workspace.allocate(model, grads_w, grads_b, len(x))
    np.copyto(ws.x, x)
    p = np.empty(len(x))
    _backprop(ws, y, p, loss)
    return float(_loss(p, y, loss)), grads_w, grads_b


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


def _add_losses(total: float, losses) -> float:
    """``total`` plus each batch's loss in ``losses``, one at a time in
    batch order; raises FloatingPointError at the first that is not
    finite."""
    for value in np.ravel(losses).tolist():
        if not math.isfinite(value):
            raise FloatingPointError("training loss went non-finite")
        total += value
    return total


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
    epochs, returning the best-validation weights.

    Each step gathers one batch of the epoch's permutation, runs
    ``_backprop`` and then one in-place Adam update.  The step keeps the
    batch's probabilities and labels in a block of up to
    ``_LOSS_BLOCK_ROWS // batch_size`` full batches; the block's
    per-batch mean losses are computed in one pass when it fills, and at
    the end of the epoch, followed by the short last batch's.  They are
    added to the epoch's total one at a time in batch order, so the
    history is the running per-batch sum as before, and the block's
    memory does not grow with the number of demos.  Raises
    FloatingPointError("training loss went non-finite") when a block or
    the short batch holds a non-finite loss; that is at most a block of
    steps after the batch itself, and always before that epoch's
    validation loss.  Raises it for the validation loss too.
    """
    feasible = np.nonzero(demos.soc >= energy.sample_discharge)[0]
    n = len(feasible)
    if n < params.batch_size:
        raise ParameterError(
            f"need at least one full batch ({params.batch_size}), "
            f"got {n} feasible examples"
        )
    rng = np.random.default_rng(params.seed)
    # the feasible rows in a seeded order, so each split gathers once
    order = feasible[rng.permutation(n)]
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
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, params.learning_rate
    step = 0

    history: List[Tuple[float, float]] = []
    best_val = np.inf
    best = theta.copy()
    stale = 0
    n_train, batch_size = len(x_train), params.batch_size
    full = _Workspace.allocate(model, grads_w, grads_b, batch_size)
    n_short = n_train % batch_size
    short = full.head(n_short)  # the last batch, if it falls short
    # each full batch's probabilities and labels stay in row k of a block
    # until the block fills; the short batch uses the extra last row.  One
    # allocation: as two smaller ones, they raised the peak RSS of a later
    # 10,000-step rollout by about 0.25 MB
    block = max(1, _LOSS_BLOCK_ROWS // batch_size)
    buf = np.empty((5, block + 1, batch_size))
    probs, labels, scratch = buf[0], buf[1], buf[2:, :block]
    n_batches = -(-n_train // batch_size)
    for _ in range(params.max_epochs):
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        k = 0
        for start in range(0, n_train, batch_size):
            batch = perm[start: start + batch_size]
            if len(batch) == batch_size:
                ws, p, y = full, probs[k], labels[k]
                k += 1
            else:
                ws, p, y = short, probs[block, :n_short], labels[block, :n_short]
            # every index is in range, so "clip" changes none; unlike the
            # default "raise" it writes straight into out, with no temporary
            x_train.take(batch, axis=0, out=ws.x, mode="clip")
            y_train.take(batch, out=y, mode="clip")
            _backprop(ws, y, p, params.loss)
            if k == block:
                epoch_loss = _add_losses(
                    epoch_loss, _loss(probs[:k], labels[:k], params.loss, scratch)
                )
                k = 0
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            # in place, with the per-element operations and their order of
            #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g**2
            #   theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
            # so results match a per-array update bit for bit; each is a
            # direct ufunc call, a little cheaper than `m *= beta1`
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1 - beta1, out=tmp)
            np.add(m, tmp, out=m)
            np.multiply(v, beta2, out=v)
            np.multiply(grad, grad, out=tmp)
            np.multiply(tmp, 1 - beta2, out=tmp)
            np.add(v, tmp, out=v)
            np.divide(m, bc1, out=tmp)
            np.multiply(tmp, lr, out=tmp)
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            np.add(den, eps, out=den)
            np.divide(tmp, den, out=tmp)
            np.subtract(theta, tmp, out=theta)
        if k:
            epoch_loss = _add_losses(
                epoch_loss, _loss(probs[:k], labels[:k], params.loss, scratch[:, :k])
            )
        if n_short:
            epoch_loss = _add_losses(
                epoch_loss, _loss(probs[block, :n_short], labels[block, :n_short], params.loss)
            )
        val_loss = float(_loss(mlp_forward(model, x_val), y_val, params.loss))
        if not math.isfinite(val_loss):
            raise FloatingPointError("validation loss went non-finite")
        history.append((epoch_loss / n_batches, val_loss))
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
        self._floor = energy.sample_discharge
        # one input row and one output buffer per layer, reused by every
        # decision: featurize_bc and mlp_forward's single-row path, in place
        sizes = model.layer_sizes
        self._x = np.empty(sizes[0])
        self._layers = list(zip(model.weights, model.biases, [np.empty(k) for k in sizes[1:]]))
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def prepare(self, index: StripIndex) -> None:
        index.bc_features()

    def _probability(self, obs: Observation) -> float:
        """``mlp_forward(model, featurize_bc(obs))``, in the policy's buffers."""
        x = self._x
        x[:] = obs.index.bc_features()[obs.t - 1]
        x[0] = obs.soc / SOC_MAX
        return _forward_row(self._layers, x)

    def decide(self, obs: Observation) -> Action:
        if obs.soc < self._floor:
            return _OFF
        p = self._probability(obs)
        if self.mode == "stochastic":
            return _SAMPLE if self._rng.random() < p else _OFF
        return _SAMPLE if p >= 0.5 else _OFF


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
    """Write every weight and bias exactly, as float64, and the model's
    key."""
    layers = b"".join(
        struct.pack("<II", *w.shape) + w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        for w, b in zip(model.weights, model.biases)
    )
    header = MODEL_HEADER.pack(MODEL_MAGIC, len(model.weights), *map(bytes.fromhex, model.key))
    write_file(path, header, layers, manifest)


def load_model(path) -> MLPModel:
    """Read a model written by ``save_model``, its parameters as layer views
    into one fresh flat vector: the form ``train_bc`` returns."""
    data, (n_layers, *key) = read_checked(path, MODEL_MAGIC, MODEL_HEADER)
    if n_layers == 0 or n_layers > 64:
        raise FormatError(f"unreasonable layer count {n_layers}", offset=4)
    pos = MODEL_HEADER.size
    chunks, shapes = [], []
    for _ in range(n_layers):
        if len(data) < pos + 8:
            raise FormatError("truncated layer header", offset=len(data))
        fan_in, fan_out = struct.unpack_from("<II", data, pos)
        pos += 8
        if fan_in == 0 or fan_out == 0 or fan_in * fan_out > (1 << 24):
            raise FormatError(f"unreasonable layer shape {fan_in}x{fan_out}", offset=pos - 8)
        count = fan_in * fan_out + fan_out
        if len(data) < pos + count * 8:
            raise FormatError("truncated layer payload", offset=len(data))
        # a layer's weights and then its biases: train_bc's parameter order
        chunks.append(np.frombuffer(data, dtype="<f8", count=count, offset=pos))
        pos += count * 8
        shapes.append((fan_in, fan_out))
    check_size(data, pos)
    for (_, fan_out), (fan_in, _) in zip(shapes[:-1], shapes[1:]):
        if fan_out != fan_in:
            raise FormatError("layer shapes do not chain", offset=MODEL_HEADER.size)
    sizes = [fan_in for fan_in, _ in shapes] + [shapes[-1][1]]
    weights, biases = _layer_views(np.concatenate(chunks, dtype=np.float64), sizes)
    return MLPModel(weights, biases, tuple(digest.hex() for digest in key))
