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
place in a TrainWorkspace, which training reuses from step to step and which
holds all the state backward reads: z = a @ W becomes z - mean, then xhat;
the layer output is gain * xhat + shift with ReLU in place; after the hidden
layers, the dropout mask multiplies the last output in place. Backward
applies that mask once, reads each ReLU mask as output > 0 (a dropped unit
reads 0 too, and its gradient is already zero) and uses BatchNorm's
closed-form backward, with dy the gradient at the BatchNorm output and m the
batch size:
  d shift = sum(dy),  d gain = sum(dy * xhat),
  dz = gain * inv_std * (dy - d shift / m - xhat * d gain / m),
all in place on the workspace's gradient buffer; backward writes nothing the
forward left, and its results are views of the workspace's one gradient
vector.

Eval-mode forwards are pure functions of (params, input). Eval mode runs
each hidden layer as one affine map with BatchNorm folded in (Jacob et al.,
arXiv 1712.05877, section 3.2): with s = gain / sqrt(var + eps),
W' = W * s and b' = shift - mean * s. The folded maps are augmented so that
every bias but layer 1's rides inside its product: layer 1 is [W1' | 0]
(6 x 129) with bias [b1', 1], whose one add writes a ones column; layers 2
and 3 are [[W', 0], [b', 1]] (129 x 129), whose last column carries the ones
column through ReLU exactly; the head is [W4; b4] (129 x 2). A block then
takes four products, one add and three ReLUs, and its predictions lie within
1e-15 of the separate-bias pass a @ W' + b'. _fold zero-pads each map to
PLAN_WIDTH = 136 columns (and rows, after layer 1); the pad stays exactly zero
through every ReLU. A block of up to DOT_MAX_ROWS rows, as serve's are, takes
np.dot through the padded maps and so skips OpenBLAS's slower 129-column edge
kernel; a larger block takes np.matmul through 129-column views of the same
buffers, where the pad would cost more than it saves. Both give the unpadded
maps' bits. load_checkpoint builds the plan once and marks it and every loaded
tensor read-only, so an in-place write raises instead of leaving the folded
maps stale; other params fold on each eval call. An eval forward runs its rows
in blocks of EVAL_BLOCK_ROWS, so a call holds the (n, 2) result plus one block's
activations, not (n, 129) ones; no buffer outlives the call. Each block runs
the statements of one pass over every row, and a row's result does not depend
on the rows beside it while BLAS keeps one kernel, so the predictions equal
the single pass's bit for bit up to 3,875 rows (where the single pass's head
switches OpenBLAS kernel) and to within 1e-15 beyond.
"""

from __future__ import annotations

import base64
import binascii
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, NumericError, load_json, write_json

LAYER_SIZES = (6, 128, 128, 128, 2)
N_HIDDEN = 3
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
DROPOUT_P = 0.2
MIN_BATCH = 2  # the fewest rows of a train-mode batch: one row has no batch variance
# Rows per block of an eval forward. 256 and 512 ran whole-set forwards of
# 962-20,000 rows equally fast, 1.15-1.55x faster than one pass over every row
# (median of 40 calls, one BLAS thread, 2-vCPU x86-64 VM); 256 holds half the
# activations.
EVAL_BLOCK_ROWS = 256
# Blocks of up to this many rows run through the padded maps with np.dot,
# larger ones through their 129-column views with np.matmul (see _eval_logits).
# us per block, best of 15 interleaved, one BLAS thread, 2-vCPU x86-64 VM:
#   rows                  1      2      4      8     16     32      64     256
#   padded, np.dot     9.17   9.69  11.47  16.07  25.65  44.73  118.81  415.80
#   views, np.matmul  10.58  11.02  12.73  17.05  25.87  42.58  111.42  379.00
DOT_MAX_ROWS = 16
# Columns of the folded maps' buffers. us per block, padded at every size, as above:
#   width                 129              132              136              144
#   2 / 256 rows  11.53 / 371.42   10.82 / 378.85    9.74 / 384.74   10.00 / 423.64
PLAN_WIDTH = 136
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


def _views(flat: np.ndarray, layout: tuple) -> dict[str, np.ndarray]:
    """Named views of consecutive slices of flat, shaped as layout says."""
    views, start = {}, 0
    for name, shape in layout:
        end = start + math.prod(shape)
        views[name] = flat[start:end].reshape(shape)
        start = end
    return views


def _aligned(shape: tuple, values: np.ndarray | None = None) -> np.ndarray:
    """A float64 array whose data starts on a 64-byte (cache line) boundary,
    holding a copy of values if given, else uninitialized. Product speed then
    does not follow the heap layout: a serve-sized np.dot of (2, 128) by
    (128, 128) takes 1.9 us aligned and 2.8-3.0 us at offsets 16, 32 or 48,
    and the same product by @ 2.2 against 3.2 us (timeit, best of 5, one
    BLAS thread, 2-vCPU x86-64 VM)."""
    n = math.prod(shape)
    raw = np.empty(n + 7)  # numpy aligns its data to at least 8 bytes
    start = (-raw.ctypes.data % 64) // 8
    out = raw[start : start + n].reshape(shape)
    if values is not None:
        out[...] = values
    return out


@dataclass(eq=False)
class MlpParams:
    """Every tensor of the network, learnables plus BatchNorm running stats, as
    named views of one float64 vector laid out by TENSORS."""

    flat: np.ndarray
    init_seed: int
    train_seed: int | None = None
    # Folded eval maps of read-only tensors, padded and as 129-column views; see _fold.
    _plan: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape != (N_PARAMS,):
            raise ValueError(f"parameter vector has shape {self.flat.shape}, want ({N_PARAMS},)")
        self._views = views = _views(self.flat, TENSORS)
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


class Gradients(Mapping):
    """The gradient of every learnable tensor, as named views of one float64
    vector laid out by LEARNED, as MlpParams.flat is laid out by TENSORS;
    zero until written."""

    def __init__(self):
        self.flat = np.zeros(N_LEARNED)
        self._views = _views(self.flat, LEARNED)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def init_params(seed: int) -> MlpParams:
    """Fan-in scaled normal init (variance 2 / fan_in) for weights, zeros for
    the output bias; BatchNorm starts as the identity (gain 1, shift 0, mean 0,
    var 1)."""
    seed = operator.index(seed)  # a Python int, as a checkpoint's JSON needs
    params = MlpParams(np.zeros(N_PARAMS), init_seed=seed)
    rng = np.random.default_rng(seed)
    for w in params.w:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
    for gain, var in zip(params.bn_gain, params.bn_var):
        gain[...] = 1.0
        var[...] = 1.0
    return params


def sigmoid(x: np.ndarray) -> np.ndarray:
    """exp(-log(1 + exp(-x))): no overflow at either tail, and exp underflows
    to the exact sigmoid's subnormal values down to x = -745."""
    return np.exp(-np.logaddexp(0.0, -x))


def _eval_logits(x: np.ndarray, plan: tuple) -> np.ndarray:
    """The eval-mode logits of one block of rows through _fold's plan, padded
    or as views by the block's size (module docstring). np.matmul hands BLAS
    a view's row stride, where np.dot would copy the view."""
    small = x.shape[0] <= DOT_MAX_ROWS
    product, (weights, bias) = (np.dot, plan[0]) if small else (np.matmul, plan[1])
    a = product(x, weights[0])
    a += bias  # b1' and the ones column
    np.maximum(a, 0.0, out=a)
    for w in weights[1:-1]:
        a = product(a, w)
        np.maximum(a, 0.0, out=a)
    return product(a, weights[-1])


def _fold(params: MlpParams) -> tuple[tuple, tuple]:
    """The eval-mode affine maps with each BatchNorm folded into its layer,
    augmented and padded as the module docstring says: each hidden layer's map
    is [[W', 0], [b', 1]], and layer 1's input has no ones column, so its last
    row becomes the separate bias [b1', 1]. Returns the padded (weights, bias),
    in 64-byte-aligned arrays, and their 129-column views."""
    units = LAYER_SIZES[1]  # then the ones column, then the pad
    maps = []
    for i in range(N_HIDDEN):
        s = params.bn_gain[i] / np.sqrt(params.bn_var[i] + BN_EPS)
        fan_in = params.w[i].shape[0]
        m = _aligned((PLAN_WIDTH if i else fan_in + 1, PLAN_WIDTH), 0.0)
        np.multiply(params.w[i], s, out=m[:fan_in, :units])
        m[fan_in, :units] = params.bn_bias[i] - params.bn_mean[i] * s
        m[fan_in, units] = 1.0
        maps.append(m)
    head = _aligned((PLAN_WIDTH, LAYER_SIZES[-1]), 0.0)
    head[:units], head[units] = params.w[-1], params.b[-1]
    weights, bias = (maps[0][:-1], *maps[1:], head), _aligned((PLAN_WIDTH,), maps[0][-1])
    k = units + 1
    views = (weights[0][:, :k], *(w[:k, :k] for w in maps[1:]), head[:k])
    return (weights, bias), (views, bias[:k])


class TrainWorkspace:
    """The buffers and state of train-mode forwards and backwards of up to
    `rows` samples, reused from step to step. A batch of m rows uses the
    leading m rows of each buffer, which are contiguous, so one workspace
    serves every batch size up to rows. The latest train forward's state
    stays here, for backward, until the next train forward overwrites it.
    It serves one caller at a time."""

    def __init__(self, rows: int):
        hidden = LAYER_SIZES[1:-1]
        self.rows = rows
        self.z = [_aligned((rows, h)) for h in hidden]  # a @ W, then xhat in place
        self.out = [_aligned((rows, h)) for h in hidden]  # the layer output, the last after dropout
        self.da = [_aligned((rows, h)) for h in hidden]  # backward's gradient at the output
        self.drop = _aligned((rows, hidden[-1]))  # the last layer's dropout mask, drawn in place
        self.scratch = _aligned((rows, max(hidden)))
        self.logits = _aligned((rows, LAYER_SIZES[-1]))
        self.grads = Gradients()
        self.forwards = 0  # train forwards run on it; the last one's state is live
        self.x = None  # the forward's (m, 6) input
        self.inv_std = [None] * N_HIDDEN  # 1 / sqrt(batch_var + eps) per hidden layer
        self.dropped = False  # whether drop[:m] holds a mask (with its 1/(1-p) scaling)
        self.pred = None  # the forward's (m, 2) prediction


@dataclass(frozen=True)
class ForwardCache:
    """A handle on the train forward whose state its workspace holds; it
    goes stale when a later forward on the workspace overwrites that state."""

    workspace: TrainWorkspace
    forward_index: int  # workspace.forwards when this forward ran
    params: MlpParams


def _check_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0]:
        raise ValueError(f"batch must have shape (n, {LAYER_SIZES[0]}), got {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NumericError("batch contains non-finite values")
    return x


def _dropout_mask(out: np.ndarray, p: float, seed) -> np.ndarray:
    """The dropout mask of seed's draw, written in place into out: 1 / (1 - p)
    where a uniform draw is >= p, else 0."""
    np.random.default_rng(seed).random(out=out)
    np.greater_equal(out, p, out=out)
    out /= 1.0 - p
    return out


def forward(
    params: MlpParams,
    x: np.ndarray,
    training: bool = False,
    dropout_p: float = DROPOUT_P,
    dropout_seed=0,
    *,
    workspace: TrainWorkspace | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network on a batch of feature vectors.

    Training mode uses batch statistics (updating the running stats in place)
    and applies dropout to the last hidden layer with the given seed; it
    returns the cache that backward takes. It works in, and leaves its state
    in, `workspace`, or a fresh one sized to the batch if none is given. That
    state lives until the next train forward on the same workspace, which
    overwrites it; backward then refuses the old cache. Eval mode uses
    running statistics, ignores the dropout arguments, touches nothing, and
    returns (pred, None). It runs the rows in blocks of EVAL_BLOCK_ROWS, so it
    holds the (n, 2) result plus one block's activations; the module
    docstring says where its predictions equal one pass over every row.
    """
    x = _check_batch(x)
    if not training:
        plan = params._plan if params._plan is not None else _fold(params)
        n = x.shape[0]
        if n <= EVAL_BLOCK_ROWS + 1:  # serve's 1-3 rows: one block, no bookkeeping
            return sigmoid(_eval_logits(x, plan)), None
        logits = np.empty((n, LAYER_SIZES[-1]))
        # A lone trailing row joins the block before it: a 1-row matmul takes
        # BLAS's vector path, which rounds differently from the block's.
        starts = range(0, n - 1, EVAL_BLOCK_ROWS)
        for start, end in zip(starts, [*starts[1:], n]):
            logits[start:end] = _eval_logits(x[start:end], plan)
        return sigmoid(logits), None

    m = x.shape[0]
    if m < MIN_BATCH:
        raise ValueError(f"train-mode batch needs >= {MIN_BATCH} samples for batch statistics")
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {dropout_p}")
    ws = TrainWorkspace(m) if workspace is None else workspace
    if m > ws.rows:
        raise ValueError(f"batch of {m} rows does not fit a workspace of {ws.rows}")
    ws.forwards += 1
    ws.x = a = x
    ws.dropped = dropout_p > 0
    for i in range(N_HIDDEN):
        z = np.matmul(a, params.w[i], out=ws.z[i][:m])
        mu = z.mean(axis=0)
        z -= mu
        var = np.einsum("ij,ij->j", z, z) / m  # biased, used in the normalization
        ws.inv_std[i] = 1.0 / np.sqrt(var + BN_EPS)
        z *= ws.inv_std[i]  # z is now xhat
        params.bn_mean[i] *= 1.0 - BN_MOMENTUM
        params.bn_mean[i] += BN_MOMENTUM * mu
        params.bn_var[i] *= 1.0 - BN_MOMENTUM
        params.bn_var[i] += BN_MOMENTUM * var * m / (m - 1)  # unbiased in the running update
        a = np.multiply(z, params.bn_gain[i], out=ws.out[i][:m])
        a += params.bn_bias[i]
        np.maximum(a, 0.0, out=a)
    if ws.dropped:  # on the last hidden layer only, the one no BatchNorm follows
        a *= _dropout_mask(ws.drop[:m], dropout_p, dropout_seed)
    logits = np.matmul(a, params.w[-1], out=ws.logits[:m])
    logits += params.b[-1]
    ws.pred = sigmoid(logits)
    return ws.pred, ForwardCache(ws, ws.forwards, params)


def smooth_l1(pred: np.ndarray, target: np.ndarray) -> float:
    """Huber-style loss with beta = SMOOTH_L1_BETA: 0.5 x^2 / beta inside
    |x| < beta, |x| - beta/2 outside.

    Reduced by the mean over all elements.
    """
    x = _residual(pred, target)
    absx = np.abs(x)
    beta = SMOOTH_L1_BETA
    per_elem = np.where(absx < beta, 0.5 * x * x / beta, absx - 0.5 * beta)
    return float(per_elem.mean())


def smooth_l1_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(smooth_l1)/d(pred), including the 1/N mean-reduction factor."""
    x = _residual(pred, target)
    beta = SMOOTH_L1_BETA
    g = np.where(np.abs(x) < beta, x / beta, np.sign(x))
    return g / x.size


def _residual(pred, target) -> np.ndarray:
    """pred - target, both as float64 arrays of one shape."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    return pred - target


def backward(params: MlpParams, cache: ForwardCache, target: np.ndarray) -> Gradients:
    """Exact gradients of the SmoothL1 loss w.r.t. every learnable tensor.

    Requires the cache of the latest train-mode forward on its workspace, on
    the same params and batch; it reads that forward's state from the
    workspace. Running statistics receive no gradient. The gradients are the
    workspace's Gradients, which live until the next backward on that
    workspace overwrites them.
    """
    if cache is None:
        raise ValueError("backward needs the cache of a train-mode forward")
    if cache.params is not params:
        raise ValueError("cache does not belong to these parameters (stale cache)")
    ws = cache.workspace
    if cache.forward_index != ws.forwards:
        raise ValueError("a later forward on the workspace superseded this cache (stale cache)")
    pred = ws.pred
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError(f"target shape {target.shape} does not match batch {pred.shape}")

    grads = ws.grads
    m = target.shape[0]
    scratch = ws.scratch[:m]

    dpred = smooth_l1_grad(pred, target)
    # sigmoid: d pred / d z = pred * (1 - pred)
    dz = dpred * pred * (1.0 - pred)
    np.matmul(ws.out[-1][:m].T, dz, out=grads["w4"])
    np.sum(dz, axis=0, out=grads["b4"])
    # da is the workspace's buffer, so every update below is in place on it
    da = np.matmul(dz, params.w[-1].T, out=ws.da[-1][:m])
    if ws.dropped:
        da *= ws.drop[:m]

    for i in reversed(range(N_HIDDEN)):
        xhat = ws.z[i][:m]
        da *= np.greater(ws.out[i][:m], 0.0, out=scratch)  # now dy; dropped units read 0 too
        dbias = np.sum(da, axis=0, out=grads[f"bn{i + 1}_bias"])
        dgain = np.einsum("ij,ij->j", da, xhat, out=grads[f"bn{i + 1}_gain"])
        # BatchNorm backward through the batch statistics, closed form:
        #   dz = gain * inv_std * (dy - dbias / m - xhat * dgain / m)
        da -= dbias / m
        da -= np.multiply(xhat, dgain / m, out=scratch)
        da *= params.bn_gain[i] * ws.inv_std[i]
        if i == 0:
            np.matmul(ws.x.T, da, out=grads["w1"])
        else:
            np.matmul(ws.out[i - 1][:m].T, da, out=grads[f"w{i + 1}"])
            da = np.matmul(da, params.w[i].T, out=ws.da[i - 1][:m])

    return grads


def save_checkpoint(params: MlpParams, path) -> None:
    """Write the parameter vector as one base64 blob of little-endian float64
    in a versioned JSON container; lossless. Params with a NaN or inf, which
    load_checkpoint would refuse, raise NumericError before the file opens."""
    if not np.isfinite(params.flat).all():
        name = next(name for name, view in params._views.items() if not np.isfinite(view).all())
        raise NumericError(f"cannot save checkpoint: {name} has non-finite values")
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "init_seed": params.init_seed,
        "train_seed": params.train_seed,
        "params": base64.b64encode(params.flat.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    write_json(path, payload)


def load_checkpoint(path) -> MlpParams:
    """Read a checkpoint into read-only tensors with their folded eval maps:
    _fold's padded plan and its 129-column views, built once and read-only.

    Use params.copy() for writable tensors, e.g. to train further.
    """
    payload = load_json(path, "checkpoint", CheckpointError)
    # Integers by type: in Python, 2.0 and true compare equal to 2 and 1.
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    sizes = payload.get("layer_sizes")
    if sizes != list(LAYER_SIZES) or set(map(type, sizes)) != {int}:
        raise CheckpointError(f"checkpoint architecture {sizes} unsupported")
    init_seed, train_seed = payload.get("init_seed"), payload.get("train_seed")
    if type(init_seed) is not int:
        raise CheckpointError(f"checkpoint init_seed must be an integer, got {init_seed!r}")
    if train_seed is not None and type(train_seed) is not int:
        raise CheckpointError(
            f"checkpoint train_seed must be an integer or null, got {train_seed!r}"
        )
    blob = payload.get("params")
    if not isinstance(blob, str):
        raise CheckpointError("checkpoint has no params blob")
    try:
        raw = binascii.a2b_base64(blob, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise CheckpointError(f"checkpoint params are not valid base64: {exc}") from exc
    if len(raw) != 8 * N_PARAMS:
        raise CheckpointError(f"checkpoint params hold {len(raw)} bytes, want {8 * N_PARAMS}")
    flat = np.frombuffer(raw, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise CheckpointError("checkpoint params have non-finite values")
    # Read-only before MlpParams takes its views, so that every view inherits it.
    flat.flags.writeable = False
    params = MlpParams(flat, init_seed, train_seed)
    params._plan = _fold(params)
    for weights, bias in params._plan:
        for a in (*weights, bias):
            a.flags.writeable = False
    return params
