import csv
import dataclasses
import json
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from oracles import adamw_reference, constant_predictor_loss, pack_grads
from waterline import network
from waterline.data import GenConfig, generate, split, visible_examples
from waterline.errors import ConfigError, TrainingAborted, write_csv, write_json
from waterline.geometry import CameraModel
from waterline.network import BN_EPS, N_LEARNED, Gradients, forward, init_params, smooth_l1
from waterline.training import (
    DEFAULT_VAL_RATIO,
    EpochStats,
    OptState,
    TrainConfig,
    adamw_step,
    cosine_lr,
    train,
)


def _toy_sets(seed=0, n_train=64, n_val=32):
    """A learnable linear-ish mapping from features to targets."""
    rng = np.random.default_rng(seed)

    def make(n):
        x = rng.uniform(-1, 1, size=(n, 6))
        y = 0.5 + 0.2 * x[:, :2] + 0.1 * x[:, 2:4]
        return x, np.clip(y, 0.01, 0.99)

    return make(n_train), make(n_val)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        p = init_params(0)
        snapshot = {k: v.copy() for k, v in p.learnables().items()}
        state = OptState.init()
        adamw_step(p, Gradients(), state, lr=1e-3, weight_decay=0.0)
        for k, v in p.learnables().items():
            assert np.array_equal(v, snapshot[k])

    def test_scalar_quadratic_converges(self):
        # drive one weight entry through f(theta) = theta^2 / 2, grad = theta
        p = init_params(0)
        state = OptState.init()
        p.w[3][0, 0] = 1.0
        for _ in range(500):
            grads = Gradients()
            grads["w4"][0, 0] = p.w[3][0, 0]
            adamw_step(p, grads, state, lr=0.1, weight_decay=0.0)
        assert abs(p.w[3][0, 0]) < 1e-3

    @pytest.mark.parametrize("c", [7.3, 1e-4, -42.0])
    def test_first_step_is_signed_lr(self, c):
        p = init_params(0)
        state = OptState.init()
        before = p.w[0][0, 0]
        grads = Gradients()
        grads["w1"][0, 0] = c
        adamw_step(p, grads, state, lr=1e-3, weight_decay=0.0)
        delta = p.w[0][0, 0] - before
        assert delta == pytest.approx(-np.sign(c) * 1e-3, rel=1e-3)

    def test_decay_excludes_biases_and_norm_params(self):
        p = init_params(0)
        p.b[0][:] = 0.5  # a nonzero output bias, so that decay would move it
        state = OptState.init()
        weights_before = [w.copy() for w in p.w]
        bias_before = p.b[0].copy()
        gain_before = [g.copy() for g in p.bn_gain]
        shift_before = [s.copy() for s in p.bn_bias]
        lr, wd = 0.01, 0.1
        steps = 10
        for _ in range(steps):
            adamw_step(p, Gradients(), state, lr=lr, weight_decay=wd)
        for i in range(4):
            expected = weights_before[i] * (1 - lr * wd) ** steps
            assert np.allclose(p.w[i], expected, rtol=1e-12)
        assert np.array_equal(p.b[0], bias_before)
        for i in range(3):
            assert np.array_equal(p.bn_gain[i], gain_before[i])
            assert np.array_equal(p.bn_bias[i], shift_before[i])

    def test_matches_per_tensor_reference_bitwise(self):
        p = init_params(0)
        ref = {k: v.copy() for k, v in p.learnables().items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        stats_before = p.flat[N_LEARNED:].copy()
        state = OptState.init()
        rng = np.random.default_rng(3)
        for t in range(1, 7):
            grads = {k: rng.normal(0.0, 1e-3, size=a.shape) for k, a in ref.items()}
            packed = pack_grads(grads)
            adamw_step(p, packed, state, lr=1e-2, weight_decay=0.1)
            adamw_reference(ref, grads, m, v, t, lr=1e-2, weight_decay=0.1)
            for k, g in packed.items():  # the step reads the gradients only
                assert np.array_equal(g, grads[k]), (t, k)
            for k, a in p.learnables().items():
                assert np.array_equal(a, ref[k]), (t, k)
        assert np.array_equal(p.flat[N_LEARNED:], stats_before)  # running stats untouched

    def test_rejects_nonfinite_gradient(self):
        # the first non-finite tensor in buffer order is named, and nothing moves
        p = init_params(0)
        before = p.flat.copy()
        state = OptState.init()
        for name, index, value in [
            ("w2", (0, 0), np.nan),
            ("bn3_bias", (127,), np.inf),
            ("w4", (5, 1), -np.inf),
        ]:
            grads = Gradients()
            grads["bn3_bias"][127] = np.inf  # the last value of the vector
            grads[name][index] = value
            with pytest.raises(ArithmeticError, match=f"in {name}$"):
                adamw_step(p, grads, state, lr=1e-3, weight_decay=0.0)
        assert np.array_equal(p.flat, before) and state.t == 0

    def test_rejects_per_tensor_dict(self):
        p = init_params(0)
        grads = {k: np.zeros_like(v) for k, v in p.learnables().items()}
        with pytest.raises(TypeError, match="Gradients"):
            adamw_step(p, grads, OptState.init(), lr=1e-3, weight_decay=0.0)

    def test_step_counter_advances(self):
        p = init_params(0)
        state = OptState.init()
        adamw_step(p, Gradients(), state, lr=1e-3, weight_decay=0.0)
        adamw_step(p, Gradients(), state, lr=1e-3, weight_decay=0.0)
        assert state.t == 2


class TestCosineLr:
    def test_starts_at_base(self):
        assert cosine_lr(0, 1000, 1e-3) == 1e-3

    def test_ends_at_eta_min(self):
        assert cosine_lr(1000, 1000, 1e-3, eta_min=1e-5) == pytest.approx(1e-5, abs=1e-18)

    def test_halfway(self):
        assert cosine_lr(500, 1000, 1e-3) == pytest.approx(5e-4, rel=1e-12)

    def test_monotone_decreasing(self):
        lrs = [cosine_lr(e, 100, 1e-3) for e in range(101)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_rejects_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1e-3)


class TestTrainConfig:
    def test_defaults_match_recipe(self):
        config = TrainConfig()
        assert config.lr == 1e-3
        assert config.weight_decay == 1e-4
        assert config.batch_size == 256
        assert config.max_epochs == 1000
        assert config.patience == 60
        assert config.dropout_p == 0.2

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 1e-3})

    def test_accepts_numpy_scalars(self):
        config = TrainConfig(lr=np.float32(1e-3), batch_size=np.int64(32))
        assert config.batch_size == 32

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)


class TestTrainLoop:
    def test_deterministic(self):
        train_set, val_set = _toy_sets()
        config = TrainConfig(max_epochs=5, patience=5, batch_size=16, seed=3)
        p1, h1 = train(train_set, val_set, config)
        p2, h2 = train(train_set, val_set, config)
        assert [e.val_loss for e in h1.epochs] == [e.val_loss for e in h2.epochs]
        assert [e.train_loss for e in h1.epochs] == [e.train_loss for e in h2.epochs]
        for a, b in zip(p1.learnables().values(), p2.learnables().values()):
            assert np.array_equal(a, b)

    def test_returns_best_not_last(self):
        train_set, val_set = _toy_sets()
        config = TrainConfig(max_epochs=30, patience=30, batch_size=16, seed=0)
        params, history = train(train_set, val_set, config)
        val_pred, _ = forward(params, val_set[0], training=False)
        assert smooth_l1(val_pred, val_set[1]) == history.best_val_loss
        assert history.best_val_loss == min(e.val_loss for e in history.epochs)

    def test_early_stop_when_validation_worsens(self):
        # validation targets anti-correlated with the training mapping, so
        # fitting the train set drives validation loss up from the start
        train_set, _ = _toy_sets(seed=1, n_train=256)
        val_x = train_set[0][:64]
        val_y = np.clip(1.0 - train_set[1][:64], 0.01, 0.99)
        config = TrainConfig(max_epochs=50, patience=1, batch_size=32, seed=0)
        params, history = train(train_set, (val_x, val_y), config)
        assert history.stop_reason == "early-stop"
        assert len(history.epochs) == history.best_epoch + 1
        assert history.best_epoch == 1
        assert len(history.epochs) == 2

    def test_epoch_bound(self):
        train_set, val_set = _toy_sets(seed=2)
        config = TrainConfig(max_epochs=40, patience=3, batch_size=16, seed=1)
        _, history = train(train_set, val_set, config)
        assert len(history.epochs) <= history.best_epoch + config.patience + 1
        assert len(history.epochs) <= config.max_epochs

    def test_lr_trace_matches_cosine(self):
        train_set, val_set = _toy_sets(seed=3)
        config = TrainConfig(max_epochs=12, patience=12, batch_size=16, seed=1)
        _, history = train(train_set, val_set, config)
        for stats in history.epochs:
            assert stats.lr == cosine_lr(stats.epoch - 1, config.max_epochs, config.lr)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train((np.zeros((0, 6)), np.zeros((0, 2))), _toy_sets()[1], TrainConfig())

    def test_one_sample_train_set_rejected(self):
        # its only batch has no batch statistics, so no step would run
        train_set, val_set = _toy_sets(n_train=1)
        with pytest.raises(ConfigError, match="train set has 1 sample"):
            train(train_set, val_set, TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_history(self):
        train_set, val_set = _toy_sets(seed=4)
        config = TrainConfig(
            lr=1e18, weight_decay=1.0, max_epochs=20, patience=20, batch_size=16, seed=0
        )
        with pytest.raises(TrainingAborted) as excinfo:
            train(train_set, val_set, config)
        assert excinfo.value.history is not None
        assert excinfo.value.history.stop_reason == "aborted"

    def test_short_final_batch_kept(self):
        # 66 samples at batch 32 leaves a final batch of 2: it must train
        train_set, val_set = _toy_sets(n_train=66, n_val=8)
        config = TrainConfig(max_epochs=2, patience=2, batch_size=32, seed=0)
        _, history = train(train_set, val_set, config)
        assert len(history.epochs) == 2

    def test_history_exports(self, tmp_path):
        train_set, val_set = _toy_sets(seed=5)
        config = TrainConfig(max_epochs=4, patience=4, batch_size=16, seed=2)
        _, history = train(train_set, val_set, config)
        csv_path = tmp_path / "history.csv"
        json_path = tmp_path / "history.json"
        write_csv(csv_path, [f.name for f in dataclasses.fields(EpochStats)],
                  map(dataclasses.astuple, history.epochs))
        write_json(json_path, history.summary())
        with open(csv_path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "lr", "seconds"]
        assert len(rows) == 1 + 4
        assert float(rows[1][3]) == config.lr
        summary = json.loads(json_path.read_text())
        assert set(summary) == {"best_epoch", "best_val_loss", "stop_reason"}
        assert summary["best_val_loss"] == history.best_val_loss


class _InlineExecutor:
    """Runs each task as it is submitted, on the submitting thread."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class TestScheduling:
    def test_worker_and_inline_runs_are_bitwise_equal(self, monkeypatch):
        records = generate(CameraModel.default(), GenConfig(n_samples=600, seed=24))
        parts = split(records, DEFAULT_VAL_RATIO, seed=0)
        sets = visible_examples(parts.train), visible_examples(parts.val)
        config = TrainConfig(max_epochs=3, patience=3, dropout_p=0.2, seed=2)
        threaded, threaded_history = train(*sets, config)
        assert any(t.name.startswith("waterline") for t in threading.enumerate())
        monkeypatch.setattr(network, "_executor", _InlineExecutor)
        inline, inline_history = train(*sets, config)
        assert threaded.flat.tobytes() == inline.flat.tobytes()
        traces = [[(e.train_loss, e.val_loss) for e in h.epochs]
                  for h in (threaded_history, inline_history)]
        assert traces[0] == traces[1]


class TestLearnsGeometry:
    def test_beats_constant_predictor_tenfold(self):
        # near-linear regime: small attitude, narrow bearing fan, mid-range
        # distances; the network must cut validation loss by >= 10x vs the
        # constant-mean baseline
        camera = CameraModel.default()
        config = GenConfig(
            n_samples=5000,
            queries_per_sample=(1, 1),
            distance_range_m=(50.0, 800.0),
            bearing_range_deg=(-12.0, 12.0),
            pitch_range_deg=(-2.0, 2.0),
            roll_range_deg=(-2.0, 2.0),
            seed=11,
        )
        records = generate(camera, config)
        parts = split(records, 0.8, seed=0)
        train_xy = visible_examples(parts.train)
        val_xy = visible_examples(parts.val)
        assert train_xy[0].shape[0] > 3000

        baseline = constant_predictor_loss(val_xy[1])
        train_config = TrainConfig(max_epochs=80, patience=80, batch_size=256, seed=0)
        _, history = train(train_xy, val_xy, train_config)
        assert history.best_val_loss * 10.0 <= baseline


class TestDropoutBatchNormHarmony:
    def test_running_variance_matches_eval_preactivations(self):
        # Dropout in front of a BatchNorm inflates the batch variance it
        # normalizes by, so its running variance overstates what the layer
        # sees at eval time, when dropout is off (Li et al., arXiv
        # 1801.05134). With dropout only after the last hidden layer every
        # running variance tracks the eval-time pre-activation variance.
        camera = CameraModel.default()
        train_xy = visible_examples(generate(camera, GenConfig(n_samples=2000, seed=0)))
        val_xy = visible_examples(generate(camera, GenConfig(n_samples=200, seed=1)))
        params, _ = train(train_xy, val_xy, TrainConfig(max_epochs=3, dropout_p=0.2, seed=0))

        a = train_xy[0]
        ratios = []
        for i in range(len(params.bn_var)):
            z = a @ params.w[i]
            ratios.append(float(np.median(params.bn_var[i] / z.var(axis=0))))
            xhat = (z - params.bn_mean[i]) / np.sqrt(params.bn_var[i] + BN_EPS)
            a = np.maximum(params.bn_gain[i] * xhat + params.bn_bias[i], 0.0)
        assert all(0.9 <= r <= 1.1 for r in ratios), ratios
