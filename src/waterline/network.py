"""The waterline predictor network: a fixed 6 -> 128 -> 128 -> 128 -> 2 MLP.

Each hidden layer is affine -> BatchNorm -> ReLU; the last hidden layer is
followed by Dropout(p), and the output layer is affine -> sigmoid, so both
outputs live in (0, 1) and can be read directly as normalized image
coordinates. Forward, backward, and the SmoothL1 training loss are
implemented here in plain numpy, in float64.

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

Train-mode forwards update the running statistics in place; eval-mode
forwards are pure functions of (params, input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, NumericError, load_json

LAYER_SIZES = (6, 128, 128, 128, 2)
N_HIDDEN = 3
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
DROPOUT_P = 0.2
SMOOTH_L1_BETA = 1.0

CHECKPOINT_VERSION = 1


@dataclass
class MlpParams:
    """All tensors of the network: learnables plus BatchNorm running stats."""

    w: list  # 4 weight matrices
    b: list  # 4 bias vectors
    bn_gain: list  # 3 gains (gamma)
    bn_bias: list  # 3 shifts
    bn_mean: list  # 3 running means (not learned)
    bn_var: list  # 3 running variances (not learned)
    init_seed: int
    train_seed: int | None = None

    def learnables(self) -> dict[str, np.ndarray]:
        """Live views of every trainable tensor, in a fixed order."""
        out: dict[str, np.ndarray] = {}
        for i in range(len(self.w)):
            out[f"w{i + 1}"] = self.w[i]
            out[f"b{i + 1}"] = self.b[i]
        for i in range(N_HIDDEN):
            out[f"bn{i + 1}_gain"] = self.bn_gain[i]
            out[f"bn{i + 1}_bias"] = self.bn_bias[i]
        return out

    def copy(self) -> "MlpParams":
        return MlpParams(
            w=[a.copy() for a in self.w],
            b=[a.copy() for a in self.b],
            bn_gain=[a.copy() for a in self.bn_gain],
            bn_bias=[a.copy() for a in self.bn_bias],
            bn_mean=[a.copy() for a in self.bn_mean],
            bn_var=[a.copy() for a in self.bn_var],
            init_seed=self.init_seed,
            train_seed=self.train_seed,
        )

    def check_shapes(self) -> None:
        expected_w = [(LAYER_SIZES[i], LAYER_SIZES[i + 1]) for i in range(len(LAYER_SIZES) - 1)]
        got_w = [a.shape for a in self.w]
        if got_w != expected_w:
            raise CheckpointError(f"weight shapes {got_w} do not match {expected_w}")
        for i in range(N_HIDDEN):
            width = LAYER_SIZES[i + 1]
            for name, group in (
                ("bias", self.b),
                ("bn_gain", self.bn_gain),
                ("bn_bias", self.bn_bias),
                ("bn_mean", self.bn_mean),
                ("bn_var", self.bn_var),
            ):
                if group[i].shape != (width,):
                    raise CheckpointError(f"{name}[{i}] has shape {group[i].shape}, want ({width},)")
        if self.b[-1].shape != (LAYER_SIZES[-1],):
            raise CheckpointError(f"output bias has shape {self.b[-1].shape}")


def init_params(seed: int) -> MlpParams:
    """Fan-in scaled normal init (variance 2 / fan_in) for weights, zeros for
    biases; BatchNorm starts as the identity (gain 1, shift 0, mean 0, var 1)."""
    rng = np.random.default_rng(seed)
    w = []
    b = []
    for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        w.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        b.append(np.zeros(fan_out))
    return MlpParams(
        w=w,
        b=b,
        bn_gain=[np.ones(LAYER_SIZES[i + 1]) for i in range(N_HIDDEN)],
        bn_bias=[np.zeros(LAYER_SIZES[i + 1]) for i in range(N_HIDDEN)],
        bn_mean=[np.zeros(LAYER_SIZES[i + 1]) for i in range(N_HIDDEN)],
        bn_var=[np.ones(LAYER_SIZES[i + 1]) for i in range(N_HIDDEN)],
        init_seed=seed,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[neg])
    out[neg] = ex / (1.0 + ex)
    return out


@dataclass
class _LayerCache:
    x_in: np.ndarray  # input to the affine map
    xhat: np.ndarray  # normalized pre-activation
    inv_std: np.ndarray  # 1 / sqrt(batch_var + eps)
    relu_mask: np.ndarray
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

    cache = ForwardCache(params_ref=params) if training else None
    rng = np.random.default_rng(dropout_seed) if training and dropout_p > 0 else None

    a = x
    for i in range(N_HIDDEN):
        z = a @ params.w[i] + params.b[i]
        if training:
            m = z.shape[0]
            mu = z.mean(axis=0)
            var = z.var(axis=0)  # biased, used in the normalization
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mu) * inv_std
            params.bn_mean[i] *= 1.0 - BN_MOMENTUM
            params.bn_mean[i] += BN_MOMENTUM * mu
            params.bn_var[i] *= 1.0 - BN_MOMENTUM
            params.bn_var[i] += BN_MOMENTUM * var * m / (m - 1)  # unbiased in the running update
        else:
            inv_std = 1.0 / np.sqrt(params.bn_var[i] + BN_EPS)
            xhat = (z - params.bn_mean[i]) * inv_std
        y = params.bn_gain[i] * xhat + params.bn_bias[i]
        relu_mask = y > 0
        a_next = y * relu_mask
        drop_mask = None
        if rng is not None and i == N_HIDDEN - 1:  # the only layer no BatchNorm follows
            drop_mask = (rng.random(a_next.shape) >= dropout_p) / (1.0 - dropout_p)
            a_next = a_next * drop_mask
        if training:
            cache.layers.append(
                _LayerCache(
                    x_in=a, xhat=xhat, inv_std=inv_std, relu_mask=relu_mask, drop_mask=drop_mask
                )
            )
        a = a_next

    z_out = a @ params.w[-1] + params.b[-1]
    pred = _sigmoid(z_out)
    if training:
        cache.out_in = a
        cache.pred = pred
    return pred, cache


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

    for i in reversed(range(N_HIDDEN)):
        layer = cache.layers[i]
        if layer.drop_mask is not None:
            da = da * layer.drop_mask
        dy = da * layer.relu_mask
        grads[f"bn{i + 1}_gain"] = (dy * layer.xhat).sum(axis=0)
        grads[f"bn{i + 1}_bias"] = dy.sum(axis=0)
        # BatchNorm backward through the batch statistics:
        #   dz_j = inv_std / m * (m * dxhat_j - sum(dxhat) - xhat_j * sum(dxhat * xhat))
        dxhat = dy * params.bn_gain[i]
        m = dxhat.shape[0]
        dz = (
            layer.inv_std
            / m
            * (m * dxhat - dxhat.sum(axis=0) - layer.xhat * (dxhat * layer.xhat).sum(axis=0))
        )
        grads[f"w{i + 1}"] = layer.x_in.T @ dz
        grads[f"b{i + 1}"] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params.w[i].T

    return grads


def save_checkpoint(params: MlpParams, path) -> None:
    """Write all tensors to a versioned JSON container, lossless at float64."""
    params.check_shapes()
    tensors = {}
    for name, arr in _all_tensors(params).items():
        tensors[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "init_seed": params.init_seed,
        "train_seed": params.train_seed,
        "tensors": tensors,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")


def load_checkpoint(path) -> MlpParams:
    payload = load_json(path, "checkpoint", CheckpointError)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('format_version')}")
    if payload.get("layer_sizes") != list(LAYER_SIZES):
        raise CheckpointError(f"checkpoint architecture {payload.get('layer_sizes')} unsupported")
    tensors = payload.get("tensors", {})

    def take(name):
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        entry = tensors[name]
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if not np.all(np.isfinite(arr)):  # 1e999 parses to inf without a JSON constant
            raise CheckpointError(f"checkpoint tensor {name!r} has non-finite values")
        return arr

    params = MlpParams(
        w=[take(f"w{i + 1}") for i in range(4)],
        b=[take(f"b{i + 1}") for i in range(4)],
        bn_gain=[take(f"bn{i + 1}_gain") for i in range(N_HIDDEN)],
        bn_bias=[take(f"bn{i + 1}_bias") for i in range(N_HIDDEN)],
        bn_mean=[take(f"bn{i + 1}_mean") for i in range(N_HIDDEN)],
        bn_var=[take(f"bn{i + 1}_var") for i in range(N_HIDDEN)],
        init_seed=payload.get("init_seed", 0),
        train_seed=payload.get("train_seed"),
    )
    params.check_shapes()
    return params


def _all_tensors(params: MlpParams) -> dict[str, np.ndarray]:
    out = dict(params.learnables())
    for i in range(N_HIDDEN):
        out[f"bn{i + 1}_mean"] = params.bn_mean[i]
        out[f"bn{i + 1}_var"] = params.bn_var[i]
    return out
