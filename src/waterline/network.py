"""The waterline predictor network: a fixed 6 -> 128 -> 128 -> 128 -> 2 MLP.

Each hidden layer is linear (no bias: BatchNorm's shift takes its place) ->
BatchNorm -> ReLU; the last hidden layer is followed by Dropout(p), and the
output layer is affine -> sigmoid, so both outputs live in (0, 1) and can be
read directly as normalized image coordinates. Forward, backward, and the
SmoothL1 training loss are implemented here in plain numpy, in float64.

Dropout sits only where no BatchNorm layer follows it. Dropout in front of
a BatchNorm layer inflates the batch variance that layer normalizes by and
stores in its running variance; at eval time dropout is off, so the layer
divides by a variance that is too large and the eval network drifts from the
one training fit (the "variance shift" of Li et al., "Understanding the
Disharmony between Dropout and Batch Normalization by Variance Shift",
arXiv 1801.05134). The output head is affine, so dropout there shifts no
statistics.

Pinned numerical conventions:
  - BatchNorm: eps = 1e-5, momentum = 0.1
    (running <- 0.9 * running + 0.1 * batch), biased variance inside the
    normalization, unbiased variance in the running-variance update.
  - Dropout: on the last hidden layer's output only; inverted scaling at
    train time (kept units scaled by 1/(1-p)), identity at eval time.
  - SmoothL1 transition point beta = 1.0, mean reduction over all elements.

Train-mode forwards update the running statistics in place and work in
place on each layer's buffers: z = a @ W becomes z - mean, then xhat, which
the cache keeps; the layer output is gain * xhat + shift with ReLU (and, on
the last layer, the dropout mask) applied in place. Backward reads the ReLU
mask as output > 0 (a dropped unit reads 0 too, and its gradient is already
zero) and uses BatchNorm's closed-form backward, with dy the gradient at the
BatchNorm output and m the batch size:
  d shift = sum(dy),  d gain = sum(dy * xhat),
  dz = gain * inv_std * (dy - d shift / m - xhat * d gain / m),
all in place on the incoming gradient buffer; backward writes nothing in the
cache.

Eval-mode forwards are pure functions of (params, input). Eval mode runs
each hidden layer as one affine map with BatchNorm folded in (Jacob et al.,
arXiv 1712.05877, section 3.2): with s = gain / sqrt(var + eps),
W' = W * s and b' = shift - mean * s. load_checkpoint builds the folded
maps once and marks every loaded tensor read-only, so an in-place write
raises instead of leaving the folded maps stale; other params fold on each
eval call.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, NumericError, load_json

LAYER_SIZES = (6, 128, 128, 128, 2)
N_HIDDEN = 3
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
DROPOUT_P = 0.2
SMOOTH_L1_BETA = 1.0

CHECKPOINT_VERSION = 2


def _per_bn(*kinds: str) -> tuple:
    return tuple(
        (f"bn{i + 1}_{kind}", (LAYER_SIZES[i + 1],)) for i in range(N_HIDDEN) for kind in kinds
    )


# The layout of MlpParams.flat, in buffer order: the one place it is stated.
# The hidden layers have no bias: each feeds a BatchNorm whose mean subtraction
# would cancel it (Ioffe & Szegedy, arXiv 1502.03167, section 3.2). Weights come
# first so that weight decay acts on a prefix, and the learnables fill the
# prefix in front of the running statistics.
WEIGHTS = tuple((f"w{i + 1}", shape) for i, shape in enumerate(zip(LAYER_SIZES, LAYER_SIZES[1:])))
LEARNED = WEIGHTS + (("b4", (LAYER_SIZES[-1],)),) + _per_bn("gain", "bias")
TENSORS = LEARNED + _per_bn("mean", "var")
N_DECAYED = sum(math.prod(shape) for _, shape in WEIGHTS)
N_LEARNED = sum(math.prod(shape) for _, shape in LEARNED)
N_PARAMS = sum(math.prod(shape) for _, shape in TENSORS)


@dataclass(eq=False)
class MlpParams:
    """Every tensor of the network, learnables plus BatchNorm running stats, as
    named views of one float64 vector laid out by TENSORS."""

    flat: np.ndarray
    init_seed: int
    train_seed: int | None = None
    # Folded eval maps (weights, biases) of read-only tensors; see load_checkpoint.
    _plan: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape != (N_PARAMS,):
            raise ValueError(f"parameter vector has shape {self.flat.shape}, want ({N_PARAMS},)")
        views, start = {}, 0
        for name, shape in TENSORS:
            end = start + math.prod(shape)
            views[name] = self.flat[start:end].reshape(shape)
            start = end
        self._views = views
        self.w = [views[name] for name, _ in WEIGHTS]  # 4 weight matrices
        self.b = [views["b4"]]  # the output bias
        self.bn_gain = [views[f"bn{i + 1}_gain"] for i in range(N_HIDDEN)]  # gamma
        self.bn_bias = [views[f"bn{i + 1}_bias"] for i in range(N_HIDDEN)]  # shift
        self.bn_mean = [views[f"bn{i + 1}_mean"] for i in range(N_HIDDEN)]  # not learned
        self.bn_var = [views[f"bn{i + 1}_var"] for i in range(N_HIDDEN)]  # not learned

    def learnables(self) -> dict[str, np.ndarray]:
        """Live views of every trainable tensor, in buffer order."""
        return {name: self._views[name] for name, _ in LEARNED}

    def copy(self) -> "MlpParams":
        """A writable copy of the vector, with no folded eval maps."""
        return MlpParams(self.flat.copy(), self.init_seed, self.train_seed)


def init_params(seed: int) -> MlpParams:
    """Fan-in scaled normal init (variance 2 / fan_in) for weights, zeros for
    the output bias; BatchNorm starts as the identity (gain 1, shift 0, mean 0,
    var 1)."""
    params = MlpParams(np.zeros(N_PARAMS), init_seed=seed)
    rng = np.random.default_rng(seed)
    for w in params.w:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
    for gain, var in zip(params.bn_gain, params.bn_var):
        gain[...] = 1.0
        var[...] = 1.0
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-log(1 + exp(-x))): no overflow at either tail, and exp underflows to
    # the exact sigmoid's subnormal values down to x = -745.
    return np.exp(-np.logaddexp(0.0, -x))


def _fold(params: MlpParams) -> tuple[list, list]:
    """The eval-mode affine maps with each BatchNorm folded into its layer."""
    weights, biases = [], []
    for i in range(N_HIDDEN):
        s = params.bn_gain[i] / np.sqrt(params.bn_var[i] + BN_EPS)
        weights.append(params.w[i] * s)
        biases.append(params.bn_bias[i] - params.bn_mean[i] * s)
    weights.append(params.w[-1])
    biases.append(params.b[-1])
    return weights, biases


@dataclass
class _LayerCache:
    x_in: np.ndarray  # input to the affine map
    xhat: np.ndarray  # normalized pre-activation
    inv_std: np.ndarray  # 1 / sqrt(batch_var + eps)
    out: np.ndarray  # the layer's output; out > 0 is the ReLU mask (dropped units too)
    drop_mask: np.ndarray | None  # includes the 1/(1-p) scaling; None if p == 0 or a BN follows


@dataclass
class ForwardCache:
    """Intermediates of a train-mode forward, consumed once by backward."""

    layers: list = field(default_factory=list)
    out_in: np.ndarray | None = None
    pred: np.ndarray | None = None
    params_ref: MlpParams | None = None


def _check_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"batch must have shape (n, {LAYER_SIZES[0]}), got {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if not np.all(np.isfinite(x)):
        raise NumericError("batch contains non-finite values")
    return x


def forward(
    params: MlpParams,
    x: np.ndarray,
    training: bool = False,
    dropout_p: float = DROPOUT_P,
    dropout_seed=0,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network on a batch of feature vectors.

    Training mode uses batch statistics (updating the running stats in place)
    and applies dropout to the last hidden layer with the given seed; it
    returns the cache required by backward. Eval mode uses running
    statistics, applies no dropout, touches nothing, and returns (pred, None).
    """
    x = _check_batch(x)
    if training and x.shape[0] < 2:
        raise ValueError("train-mode batch needs >= 2 samples for batch statistics")
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {dropout_p}")

    if not training:
        weights, biases = params._plan if params._plan is not None else _fold(params)
        a = x
        for i in range(N_HIDDEN):
            a = a @ weights[i]
            a += biases[i]
            np.maximum(a, 0.0, out=a)
        return _sigmoid(a @ weights[-1] + biases[-1]), None

    cache = ForwardCache(params_ref=params)
    rng = np.random.default_rng(dropout_seed) if dropout_p > 0 else None

    a = x
    m = x.shape[0]
    for i in range(N_HIDDEN):
        z = a @ params.w[i]
        mu = z.mean(axis=0)
        z -= mu
        var = np.einsum("ij,ij->j", z, z) / m  # biased, used in the normalization
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        z *= inv_std  # z is now xhat
        params.bn_mean[i] *= 1.0 - BN_MOMENTUM
        params.bn_mean[i] += BN_MOMENTUM * mu
        params.bn_var[i] *= 1.0 - BN_MOMENTUM
        params.bn_var[i] += BN_MOMENTUM * var * m / (m - 1)  # unbiased in the running update
        y = z * params.bn_gain[i]
        y += params.bn_bias[i]
        np.maximum(y, 0.0, out=y)
        drop_mask = None
        if rng is not None and i == N_HIDDEN - 1:  # the only layer no BatchNorm follows
            drop_mask = (rng.random(y.shape) >= dropout_p) / (1.0 - dropout_p)
            y *= drop_mask
        cache.layers.append(
            _LayerCache(x_in=a, xhat=z, inv_std=inv_std, out=y, drop_mask=drop_mask)
        )
        a = y

    cache.out_in = a
    cache.pred = _sigmoid(a @ params.w[-1] + params.b[-1])
    return cache.pred, cache


def smooth_l1(pred: np.ndarray, target: np.ndarray, beta: float = SMOOTH_L1_BETA) -> float:
    """Huber-style loss: 0.5 x^2 / beta inside |x| < beta, |x| - beta/2 outside.

    Reduced by the mean over all elements.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    x = pred - target
    absx = np.abs(x)
    per_elem = np.where(absx < beta, 0.5 * x * x / beta, absx - 0.5 * beta)
    return float(per_elem.mean())


def smooth_l1_grad(
    pred: np.ndarray, target: np.ndarray, beta: float = SMOOTH_L1_BETA
) -> np.ndarray:
    """d(smooth_l1)/d(pred), including the 1/N mean-reduction factor."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    x = pred - target
    g = np.where(np.abs(x) < beta, x / beta, np.sign(x))
    return g / x.size


def backward(params: MlpParams, cache: ForwardCache, target: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the SmoothL1 loss w.r.t. every learnable tensor.

    Requires the cache of a train-mode forward on the same params and batch.
    Running statistics receive no gradient.
    """
    if cache is None or cache.pred is None:
        raise ValueError("backward needs the cache of a train-mode forward")
    if cache.params_ref is not params:
        raise ValueError("cache does not belong to these parameters (stale cache)")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != cache.pred.shape:
        raise ValueError(f"target shape {target.shape} does not match batch {cache.pred.shape}")

    grads: dict[str, np.ndarray] = {}

    dpred = smooth_l1_grad(cache.pred, target)
    # sigmoid: d pred / d z = pred * (1 - pred)
    dz = dpred * cache.pred * (1.0 - cache.pred)
    grads["w4"] = cache.out_in.T @ dz
    grads["b4"] = dz.sum(axis=0)
    da = dz @ params.w[-1].T

    m = dz.shape[0]
    for i in reversed(range(N_HIDDEN)):
        layer = cache.layers[i]
        # da is backward's own buffer, so every update below is in place on it
        if layer.drop_mask is not None:
            da *= layer.drop_mask
        da *= layer.out > 0  # now dy; on the last layer, dropped units read 0 as well
        dbias = da.sum(axis=0)
        dgain = np.einsum("ij,ij->j", da, layer.xhat)
        grads[f"bn{i + 1}_gain"] = dgain
        grads[f"bn{i + 1}_bias"] = dbias
        # BatchNorm backward through the batch statistics, closed form:
        #   dz = gain * inv_std * (dy - dbias / m - xhat * dgain / m)
        da -= dbias / m
        da -= layer.xhat * (dgain / m)
        da *= params.bn_gain[i] * layer.inv_std
        grads[f"w{i + 1}"] = layer.x_in.T @ da
        if i > 0:
            da = da @ params.w[i].T

    return grads


def save_checkpoint(params: MlpParams, path) -> None:
    """Write the parameter vector as one base64 blob of little-endian float64
    in a versioned JSON container; lossless."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "init_seed": params.init_seed,
        "train_seed": params.train_seed,
        "params": base64.b64encode(params.flat.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")


def load_checkpoint(path) -> MlpParams:
    """Read a checkpoint into read-only tensors with their folded eval maps.

    Use params.copy() for writable tensors, e.g. to train further.
    """
    payload = load_json(path, "checkpoint", CheckpointError)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('format_version')}")
    if payload.get("layer_sizes") != list(LAYER_SIZES):
        raise CheckpointError(f"checkpoint architecture {payload.get('layer_sizes')} unsupported")
    blob = payload.get("params")
    if not isinstance(blob, str):
        raise CheckpointError("checkpoint has no params blob")
    try:
        raw = base64.b64decode(blob, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise CheckpointError(f"checkpoint params are not valid base64: {exc}") from exc
    if len(raw) != 8 * N_PARAMS:
        raise CheckpointError(f"checkpoint params hold {len(raw)} bytes, want {8 * N_PARAMS}")
    flat = np.frombuffer(raw, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise CheckpointError("checkpoint params have non-finite values")
    # Read-only before MlpParams takes its views, so that every view inherits it.
    flat.flags.writeable = False
    params = MlpParams(flat, payload.get("init_seed", 0), payload.get("train_seed"))
    params._plan = _fold(params)
    return params
