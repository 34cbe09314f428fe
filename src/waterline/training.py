"""Training loop for the waterline predictor: AdamW with per-epoch cosine
annealing, early stopping on validation loss, best-checkpoint return.

Reproducibility contract: given the same data, config, and seed, training
produces bit-identical parameters and loss traces. Epoch shuffles are seeded
by (seed, epoch) and dropout masks by (seed, epoch, batch_index), so results
do not depend on wall time or platform entropy.

Epochs are numbered from 1 in the history; epoch e uses the learning rate
cosine_lr(e - 1, max_epochs, lr, eta_min), so the first epoch runs at the
base rate and the schedule would reach eta_min after max_epochs epochs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import Bounds, Config, ConfigError, NumericError, TrainingAborted
from .network import DROPOUT_P, MIN_BATCH, N_DECAYED, N_LEARNED, Gradients, MlpParams
from .network import TrainWorkspace, backward, forward, init_params, smooth_l1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Train fraction mirroring a 4285/904 style split.
DEFAULT_VAL_RATIO = 4285 / 5189


@dataclass(frozen=True)
class TrainConfig(Config):
    label = "training config"

    lr: Annotated[float, Bounds(0, lo_open=True)] = 1e-3
    weight_decay: Annotated[float, Bounds(0)] = 1e-4
    batch_size: Annotated[int, Bounds(MIN_BATCH)] = 256
    max_epochs: Annotated[int, Bounds(1)] = 1000
    patience: Annotated[int, Bounds(1)] = 60
    dropout_p: Annotated[float, Bounds(0, 1, hi_open=True)] = DROPOUT_P
    seed: Annotated[int, Bounds(0)] = 0
    eta_min: Annotated[float, Bounds(0)] = 0.0
    # train fraction of the train/val split of `waterline train`
    val_ratio: Annotated[float, Bounds(0, 1, lo_open=True, hi_open=True)] = DEFAULT_VAL_RATIO

    def __post_init__(self):
        super().__post_init__()
        if self.eta_min > self.lr:
            raise ConfigError(f"eta_min must be <= lr, got {self.eta_min!r} > {self.lr!r}")


@dataclass
class OptState:
    """AdamW moments of the learnable prefix of MlpParams.flat, and two
    scratch vectors of the same length for the update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, N_LEARNED)), repr=False)

    @classmethod
    def init(cls) -> "OptState":
        return cls(m=np.zeros(N_LEARNED), v=np.zeros(N_LEARNED))


@dataclass(frozen=True)
class EpochStats:
    epoch: int  # 1-based
    train_loss: float
    val_loss: float
    lr: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stop_reason: str = ""

    def summary(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "stop_reason": self.stop_reason,
        }


def cosine_lr(epoch: int, max_epochs: int, base_lr: float, eta_min: float = 0.0) -> float:
    """Cosine-annealed learning rate, from base_lr at epoch 0 down to eta_min."""
    if not 0 <= epoch <= max_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {max_epochs}]")
    return eta_min + 0.5 * (base_lr - eta_min) * (1.0 + np.cos(np.pi * epoch / max_epochs))


def adamw_step(
    params: MlpParams,
    grads: Gradients,
    state: OptState,
    lr: float,
    weight_decay: float,
) -> None:
    """One AdamW update of the learnable prefix of params.flat, in place.
    Weight decay is decoupled and applies only to the weight matrices, which
    lead the vector. grads is read, not written."""
    if not isinstance(grads, Gradients):
        raise TypeError(f"adamw_step takes network.Gradients, got {type(grads).__name__}")
    g = grads.flat
    if not np.isfinite(g).all():  # one pass; the scan below only names the tensor
        for name, arr in grads.items():
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite gradient in {name}")
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    # m_hat / (sqrt(v_hat) + eps) + decay * theta, operation for operation, in
    # the two scratch vectors: a temporary per operation would cost twice the time.
    m, v = state.m, state.v
    tmp, denom = state.scratch
    np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    m *= ADAM_BETA1
    m += tmp
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += ADAM_EPS
    update = np.divide(m, bc1, out=tmp)
    update /= denom
    update[:N_DECAYED] += np.multiply(
        params.flat[:N_DECAYED], weight_decay, out=denom[:N_DECAYED]
    )
    update *= lr
    params.flat[:N_LEARNED] -= update


def _check_set(name: str, data, min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        x, y = data
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} set must be an (inputs, targets) pair: {exc}") from exc
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ConfigError(f"{name} set shapes {x.shape} / {y.shape} are inconsistent")
    if x.shape[0] < min_rows:
        raise ConfigError(f"{name} set has {x.shape[0]} sample(s), needs >= {min_rows}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError(f"{name} set contains non-finite values")
    return x, y


def train(train_set, val_set, config: TrainConfig) -> tuple[MlpParams, TrainHistory]:
    """Fit the network and return the best-validation checkpoint (never the last).

    Each epoch shuffles the training set, iterates batches of
    config.batch_size (a final short batch is kept if it has >= MIN_BATCH
    samples, else dropped), and evaluates the mean validation loss in eval
    mode. Stops after `patience` consecutive epochs without strict
    improvement. A train set of fewer than MIN_BATCH samples is refused.
    """
    train_x, train_y = _check_set("train", train_set, MIN_BATCH)
    val_x, val_y = _check_set("validation", val_set, 1)

    params = init_params(config.seed)
    params.train_seed = int(config.seed)  # the config admits numpy integers; JSON does not
    state = OptState.init()
    history = TrainHistory()

    best_params = params.copy()
    epochs_since_best = 0
    n = train_x.shape[0]
    # One set of buffers for the whole run; a short batch uses their leading rows.
    rows = min(config.batch_size, n)
    workspace = TrainWorkspace(rows)
    batch_x = np.empty((rows, train_x.shape[1]))
    batch_y = np.empty((rows, train_y.shape[1]))

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        lr = cosine_lr(epoch - 1, config.max_epochs, config.lr, config.eta_min)
        perm = np.random.default_rng((config.seed, epoch)).permutation(n)

        loss_sum = 0.0
        sample_count = 0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            if idx.size < MIN_BATCH:
                break  # a trailing singleton has no batch statistics
            bx = np.take(train_x, idx, axis=0, out=batch_x[: idx.size])
            by = np.take(train_y, idx, axis=0, out=batch_y[: idx.size])
            pred, cache = forward(
                params,
                bx,
                training=True,
                dropout_p=config.dropout_p,
                dropout_seed=(config.seed, epoch, batch_index),
                workspace=workspace,
            )
            batch_loss = smooth_l1(pred, by)
            loss_sum += batch_loss * idx.size
            sample_count += idx.size
            grads = backward(params, cache, by)
            try:
                adamw_step(params, grads, state, lr, config.weight_decay)
            except NumericError as exc:
                history.stop_reason = "aborted"
                raise TrainingAborted(f"epoch {epoch}: {exc}", history=history) from exc
        train_loss = loss_sum / sample_count

        val_pred, _ = forward(params, val_x, training=False)
        val_loss = smooth_l1(val_pred, val_y)
        seconds = time.perf_counter() - started
        history.epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                lr=float(lr),
                seconds=seconds,
            )
        )
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            history.stop_reason = "aborted"
            raise TrainingAborted(
                f"epoch {epoch}: non-finite loss (train={train_loss}, val={val_loss})",
                history=history,
            )

        if val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            np.copyto(best_params.flat, params.flat)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                history.stop_reason = "early-stop"
                break
    else:
        history.stop_reason = "max-epochs"

    return best_params, history
