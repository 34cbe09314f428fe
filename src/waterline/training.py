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

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, TrainingAborted, reject_non_finite
from .network import DROPOUT_P, MlpParams, backward, forward, init_params, smooth_l1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Decoupled weight decay applies to weight matrices only, never to biases or
# BatchNorm gain/shift.
DECAYED_PREFIX = "w"


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 256
    max_epochs: int = 1000
    patience: int = 60
    dropout_p: float = DROPOUT_P
    seed: int = 0
    eta_min: float = 0.0

    def __post_init__(self):
        reject_non_finite(self)
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown training config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class OptState:
    """AdamW moments, keyed like MlpParams.learnables()."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params: MlpParams) -> "OptState":
        learn = params.learnables()
        return cls(
            m={k: np.zeros_like(a) for k, a in learn.items()},
            v={k: np.zeros_like(a) for k, a in learn.items()},
        )


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

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "train_loss", "val_loss", "lr", "seconds"])
            for e in self.epochs:
                writer.writerow(
                    [e.epoch, repr(e.train_loss), repr(e.val_loss), repr(e.lr), repr(e.seconds)]
                )

    def summary(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "stop_reason": self.stop_reason,
        }

    def write_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.summary(), f, indent=2)
            f.write("\n")


def cosine_lr(epoch: int, max_epochs: int, base_lr: float, eta_min: float = 0.0) -> float:
    """Cosine-annealed learning rate, from base_lr at epoch 0 down to eta_min."""
    if not 0 <= epoch <= max_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {max_epochs}]")
    return eta_min + 0.5 * (base_lr - eta_min) * (1.0 + np.cos(np.pi * epoch / max_epochs))


def adamw_step(
    params: MlpParams,
    grads: dict,
    state: OptState,
    lr: float,
    weight_decay: float,
) -> tuple[MlpParams, OptState]:
    """One AdamW update, in place. Weight decay is decoupled and applies only
    to the weight matrices (names starting with 'w')."""
    learn = params.learnables()
    if set(grads) != set(learn):
        raise ValueError("gradient keys do not match learnable parameters")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, theta in learn.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if name.startswith(DECAYED_PREFIX):
            update = update + weight_decay * theta
        theta -= lr * update
    return params, state


def _check_set(name: str, data) -> tuple[np.ndarray, np.ndarray]:
    try:
        x, y = data
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} set must be an (inputs, targets) pair: {exc}") from exc
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ConfigError(f"{name} set shapes {x.shape} / {y.shape} are inconsistent")
    if x.shape[0] == 0:
        raise ConfigError(f"{name} set is empty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError(f"{name} set contains non-finite values")
    return x, y


def train(train_set, val_set, config: TrainConfig) -> tuple[MlpParams, TrainHistory]:
    """Fit the network and return the best-validation checkpoint (never the last).

    Each epoch shuffles the training set, iterates batches of
    config.batch_size (a final short batch is kept if it has >= 2 samples,
    else dropped), and evaluates the mean validation loss in eval mode.
    Stops after `patience` consecutive epochs without strict improvement.
    """
    train_x, train_y = _check_set("train", train_set)
    val_x, val_y = _check_set("validation", val_set)

    params = init_params(config.seed)
    params.train_seed = config.seed
    state = OptState.init(params)
    history = TrainHistory()

    best_params = params.copy()
    epochs_since_best = 0
    n = train_x.shape[0]

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        lr = cosine_lr(epoch - 1, config.max_epochs, config.lr, config.eta_min)
        perm = np.random.default_rng((config.seed, epoch)).permutation(n)

        loss_sum = 0.0
        sample_count = 0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            if idx.size < 2:
                break  # a trailing singleton has no batch statistics
            bx = train_x[idx]
            by = train_y[idx]
            pred, cache = forward(
                params,
                bx,
                training=True,
                dropout_p=config.dropout_p,
                dropout_seed=(config.seed, epoch, batch_index),
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
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                history.stop_reason = "early-stop"
                break
    else:
        history.stop_reason = "max-epochs"

    return best_params, history
