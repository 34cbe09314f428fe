import base64
import json
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fd_gradients,
    math_sigmoid,
    pack_grads,
    single_pass_eval_forward,
    unfolded_eval_forward,
    unfused_backward,
    unfused_train_forward,
)
from waterline.data import GenConfig, generate, visible_examples
from waterline.errors import CheckpointError, NumericError
from waterline.geometry import CameraModel
from waterline.network import (
    BN_EPS,
    BN_MOMENTUM,
    EVAL_BLOCK_ROWS,
    LAYER_SIZES,
    N_PARAMS,
    TrainWorkspace,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    smooth_l1,
    smooth_l1_grad,
)
from waterline.training import OptState, TrainConfig, adamw_step, train


def _random_batch(seed, n=16, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 6)) * scale
    y = rng.uniform(0.05, 0.95, size=(n, 2))
    return x, y


# (init_seed, batch_seed) pairs whose BatchNorm outputs keep a wide margin
# around the ReLU kink, so central differences with step 1e-5 are valid.
# Finite differences straddling the kink misreport the true one-sided
# derivative; that is an artifact of the checker, not of backprop.
GRADCHECK_SEEDS = [(4, 200), (5, 201), (6, 202), (1, 204), (3, 206)]


class TestInit:
    def test_deterministic(self):
        a = init_params(123)
        b = init_params(123)
        for ta, tb in zip(a.learnables().values(), b.learnables().values()):
            assert np.array_equal(ta, tb)

    def test_seed_changes_weights(self):
        assert not np.array_equal(init_params(0).w[0], init_params(1).w[0])

    def test_shapes(self):
        # the hidden layers have no bias; every tensor is a view of one vector
        p = init_params(0)
        assert p.flat.shape == (35_330,)
        assert [w.shape for w in p.w] == [(6, 128), (128, 128), (128, 128), (128, 2)]
        assert [b.shape for b in p.b] == [(2,)]
        for group in (p.bn_gain, p.bn_bias, p.bn_mean, p.bn_var):
            assert [a.shape for a in group] == [(128,)] * 3
            assert all(a.base is p.flat for a in group)
        assert all(a.base is p.flat for a in p.w + p.b)

    def test_weights_match_per_layer_draw(self):
        # the same rng.normal draws, in the same order, as one array per layer
        rng = np.random.default_rng(42)
        for w, (fan_in, fan_out) in zip(init_params(42).w, zip(LAYER_SIZES, LAYER_SIZES[1:])):
            assert np.array_equal(w, rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))

    def test_fan_in_variance(self):
        # weight variance targets 2 / fan_in; the sample variance of n draws
        # has std ~ sigma^2 sqrt(2 / (n - 1))
        p = init_params(0)
        for w, fan_in in ((p.w[0], 6), (p.w[1], 128)):
            target = 2.0 / fan_in
            sample = w.var()
            spread = 3.0 * target * np.sqrt(2.0 / (w.size - 1))
            assert abs(sample - target) < spread

    def test_batchnorm_identity_start(self):
        p = init_params(7)
        for i in range(3):
            assert np.all(p.bn_gain[i] == 1.0)
            assert np.all(p.bn_bias[i] == 0.0)
            assert np.all(p.bn_mean[i] == 0.0)
            assert np.all(p.bn_var[i] == 1.0)

    def test_biases_zero(self):
        p = init_params(3)
        assert all(np.all(b == 0.0) for b in p.b)


class TestForwardEval:
    def test_outputs_in_open_unit_interval(self):
        p = init_params(0)
        x, _ = _random_batch(1, n=64)
        pred, cache = forward(p, x, training=False)
        assert cache is None
        assert pred.shape == (64, 2)
        assert np.all(pred > 0.0) and np.all(pred < 1.0)

    def test_deterministic(self):
        p = init_params(0)
        x, _ = _random_batch(2)
        a, _ = forward(p, x, training=False)
        b, _ = forward(p, x, training=False)
        assert np.array_equal(a, b)

    def test_mutates_nothing(self):
        p = init_params(0)
        x, _ = _random_batch(3)
        before = {k: v.copy() for k, v in p.learnables().items()}
        mean_before = [m.copy() for m in p.bn_mean]
        var_before = [v.copy() for v in p.bn_var]
        forward(p, x, training=False)
        for k, v in p.learnables().items():
            assert np.array_equal(v, before[k])
        for i in range(3):
            assert np.array_equal(p.bn_mean[i], mean_before[i])
            assert np.array_equal(p.bn_var[i], var_before[i])

    def test_single_sample_allowed_in_eval(self):
        p = init_params(0)
        pred, _ = forward(p, np.zeros((1, 6)), training=False)
        assert pred.shape == (1, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_output_range_property(self, row):
        # bounds mirror the feature envelope (inv_dist caps at 10, the rest
        # are unit-ish); far outside it float64 sigmoid saturates to 0 or 1
        p = init_params(11)
        pred, _ = forward(p, np.array([row]), training=False)
        assert np.all(pred > 0.0) and np.all(pred < 1.0)


def _loaded_checkpoint(tmp_path, seed=21):
    """A saved and reloaded network whose BatchNorm layers are far from the identity."""
    p = init_params(seed)
    for k in range(4):
        x, _ = _random_batch(300 + k, n=64, scale=3.0)
        forward(p, x, training=True, dropout_p=0.0)
    rng = np.random.default_rng(seed)
    for i in range(3):
        p.bn_gain[i] *= rng.uniform(0.5, 1.5, size=LAYER_SIZES[i + 1])
        p.bn_bias[i] += rng.normal(0.0, 0.1, size=LAYER_SIZES[i + 1])
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    return load_checkpoint(path)


class TestFoldedEval:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_unfolded_reference(self, tmp_path, n):
        loaded = _loaded_checkpoint(tmp_path)
        x, _ = _random_batch(40 + n, n=n, scale=2.0)
        pred, _ = forward(loaded, x, training=False)
        assert np.abs(pred - unfolded_eval_forward(loaded, x)).max() <= 1e-12

    def test_matches_unfolded_reference_on_generated_set(self, tmp_path):
        loaded = _loaded_checkpoint(tmp_path)
        records = generate(CameraModel.default(), GenConfig(n_samples=400, seed=8))
        x, _ = visible_examples(records)
        pred, _ = forward(loaded, x, training=False)
        assert np.abs(pred - unfolded_eval_forward(loaded, x)).max() <= 1e-12

    def test_loaded_tensors_are_read_only(self, tmp_path):
        loaded = _loaded_checkpoint(tmp_path)
        for group in ([loaded.flat], loaded.w, loaded.b, loaded.bn_gain, loaded.bn_bias,
                      loaded.bn_mean, loaded.bn_var):
            for arr in group:
                with pytest.raises(ValueError, match="read-only"):
                    arr += 1.0
        x, _ = _random_batch(50, n=8)
        with pytest.raises(ValueError, match="read-only"):  # the running-stat update
            forward(loaded, x, training=True, dropout_p=0.0)

    def test_copy_is_writable_and_unfolded(self, tmp_path):
        loaded = _loaded_checkpoint(tmp_path)
        copy = loaded.copy()
        assert copy._plan is None
        assert copy.flat.flags.writeable
        assert all(arr.flags.writeable for arr in copy.learnables().values())
        assert all(arr.flags.writeable for arr in copy.bn_mean + copy.bn_var)
        x, _ = _random_batch(51, n=5, scale=2.0)
        assert np.array_equal(forward(copy, x)[0], forward(loaded, x)[0])


# Up to this many rows, the single pass's (n, 128) @ (128, 2) head stays on
# the BLAS kernel that each block's head takes; above it (M * N * K > 1e6),
# OpenBLAS switches kernels and the single pass rounds differently.
SAME_HEAD_KERNEL_ROWS = 3906


class TestBlockedEval:
    """The eval forward runs in blocks of EVAL_BLOCK_ROWS rows; its predictions
    equal those of one pass over every row."""

    @pytest.fixture(params=["loaded", "unfolded"])
    def params(self, request, tmp_path):
        loaded = _loaded_checkpoint(tmp_path)
        return loaded if request.param == "loaded" else loaded.copy()

    @staticmethod
    def _x(n):
        return _random_batch(60, n=n, scale=2.0)[0]

    def test_equals_single_pass_up_to_its_kernel_switch(self, params):
        # Every n up to two blocks, then the four sizes around each block edge.
        x = self._x(SAME_HEAD_KERNEL_ROWS)
        edges = range(3 * EVAL_BLOCK_ROWS, SAME_HEAD_KERNEL_ROWS + 2, EVAL_BLOCK_ROWS)
        sizes = [*range(1, 2 * EVAL_BLOCK_ROWS + 3)]
        sizes += [n for k in edges for n in (k - 1, k, k + 1, k + 2) if n <= SAME_HEAD_KERNEL_ROWS]
        for n in sizes:
            pred, _ = forward(params, x[:n], training=False)
            assert np.array_equal(pred, single_pass_eval_forward(params, x[:n])), n

    @pytest.mark.parametrize("n", [4000, 20000])
    def test_agrees_with_single_pass_above_its_kernel_switch(self, params, n):
        x = self._x(n)
        pred, _ = forward(params, x, training=False)
        assert np.abs(pred - single_pass_eval_forward(params, x)).max() <= 1e-15

    def test_eval_forward_holds_its_result_and_a_few_blocks(self, tmp_path):
        # At its peak the eval forward holds the (n, 2) logits and sigmoid's
        # temporaries of that size, or the logits and one block's activations:
        # under the result plus three blocks (~1.1 MB at 20,000 rows), where
        # (n, 128) activations would take 41 MB.
        loaded = _loaded_checkpoint(tmp_path)
        x = _random_batch(19, n=20000)[0]
        forward(loaded, x, training=False)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            forward(loaded, x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = x.shape[0] * 2 * 8 + 3 * EVAL_BLOCK_ROWS * 128 * 8
        assert peak - start < bound, f"{peak - start} bytes"


class TestSigmoid:
    @pytest.mark.parametrize("x", [40.0, -40.0, 700.0, -745.0])
    def test_matches_math(self, x):
        want = math_sigmoid(x)
        assert abs(sigmoid(np.array([x]))[0] - want) <= 1e-14 * want

    def test_positive_wherever_exact_is(self):
        xs = np.linspace(-760.0, 40.0, 8001)
        want = np.array([math_sigmoid(x) for x in xs])
        assert np.all(sigmoid(xs)[want > 0] > 0)


class TestForwardTrain:
    def test_rejects_singleton_batch(self):
        p = init_params(0)
        with pytest.raises(ValueError, match=">= 2"):
            forward(p, np.zeros((1, 6)), training=True)

    def test_rejects_nonfinite(self):
        p = init_params(0)
        x = np.zeros((4, 6))
        x[0, 0] = np.nan
        with pytest.raises(NumericError):
            forward(p, x, training=True)

    def test_rejects_wrong_width(self):
        p = init_params(0)
        with pytest.raises(ValueError):
            forward(p, np.zeros((4, 5)), training=False)

    @pytest.mark.parametrize("dropout_p", [1.0, -0.1, float("nan")])
    def test_rejects_dropout_outside_unit_interval(self, dropout_p):
        p = init_params(0)
        workspace = TrainWorkspace(4)
        x, _ = _random_batch(19, n=4)
        with pytest.raises(ValueError, match=r"dropout probability must lie in \[0, 1\)"):
            forward(p, x, training=True, dropout_p=dropout_p, workspace=workspace)
        assert workspace.forwards == 0
        # eval mode applies no dropout, so it ignores the argument
        assert np.array_equal(forward(p, x, dropout_p=dropout_p)[0], forward(p, x)[0])

    def test_rejects_batch_larger_than_workspace(self):
        p = init_params(0)
        x, _ = _random_batch(17, n=9)
        with pytest.raises(ValueError, match="workspace"):
            forward(p, x, training=True, workspace=TrainWorkspace(8))

    def test_batch_statistics_normalized(self):
        # inflate the gains so every layer's pre-activation variance dwarfs
        # BN_EPS; the normalized values then carry mean 0 / variance 1 to 1e-6
        p = init_params(0)
        for i in range(3):
            p.bn_gain[i] *= 100.0
        x, _ = _random_batch(4, n=256, scale=30.0)
        _, cache = forward(p, x, training=True, dropout_p=0.0)
        for z in cache.workspace.z:  # xhat of each layer
            assert np.abs(z.mean(axis=0)).max() < 1e-6
            assert np.abs(z.var(axis=0) - 1.0).max() < 1e-6

    def test_running_stats_updated_with_momentum(self):
        p = init_params(0)
        x, _ = _random_batch(5, n=64)
        z = x @ p.w[0]
        expected_mean = BN_MOMENTUM * z.mean(axis=0)  # running mean starts at 0
        forward(p, x, training=True, dropout_p=0.0)
        assert np.allclose(p.bn_mean[0], expected_mean, rtol=1e-12, atol=1e-15)
        m = x.shape[0]
        expected_var = (1 - BN_MOMENTUM) * 1.0 + BN_MOMENTUM * z.var(axis=0) * m / (m - 1)
        assert np.allclose(p.bn_var[0], expected_var, rtol=1e-12, atol=1e-15)

    def test_running_stats_converge_geometrically(self):
        p = init_params(0)
        x, _ = _random_batch(6, n=32)
        z = x @ p.w[0]
        batch_mean = z.mean(axis=0)
        gaps = []
        for _ in range(40):
            forward(p, x, training=True, dropout_p=0.0)
            gaps.append(np.abs(p.bn_mean[0] - batch_mean).max())
        ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-13]
        assert all(abs(r - (1 - BN_MOMENTUM)) < 1e-6 for r in ratios)
        m = x.shape[0]
        unbiased = z.var(axis=0) * m / (m - 1)
        assert np.allclose(p.bn_var[0], unbiased, atol=1e-2 * np.abs(unbiased).max())

    def test_dropout_mask_values(self):
        # only the last hidden layer drops: it feeds the affine output head,
        # while the other two feed a BatchNorm, whose statistics dropout
        # would skew (Li et al., arXiv 1801.05134)
        p = init_params(0)
        x, _ = _random_batch(7, n=64)
        _, cache = forward(p, x, training=True, dropout_p=0.2, dropout_seed=9)
        ws = cache.workspace  # sized to the batch, so its buffers hold 64 rows
        assert ws.dropped
        assert set(np.unique(ws.drop)) == {0.0, 1.0 / 0.8}
        # the one mask multiplies only the last hidden layer's output
        *feeds_bn, last = ws.out
        for z, out, gain, shift in zip(ws.z, feeds_bn, p.bn_gain, p.bn_bias):
            assert np.array_equal(out, np.maximum(z * gain + shift, 0.0))
        assert np.array_equal(last, np.maximum(ws.z[-1] * p.bn_gain[-1] + p.bn_bias[-1], 0.0)
                              * ws.drop)

    def test_dropout_seed_reproducible(self):
        p = init_params(0)
        x, _ = _random_batch(8)
        a, _ = forward(p, x, training=True, dropout_p=0.2, dropout_seed=5)
        b, _ = forward(p, x, training=True, dropout_p=0.2, dropout_seed=5)
        c, _ = forward(p, x, training=True, dropout_p=0.2, dropout_seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_preserves_expectation(self):
        # post-dropout activations of the last hidden layer, averaged over
        # many mask draws, recover the pre-dropout activations within 3 sigma
        p = init_params(0)
        x, _ = _random_batch(9, n=4)
        n_draws = 10_000
        _, cache0 = forward(p, x, training=True, dropout_p=0.0)
        pre_dropout = cache0.workspace.out[-1].copy()
        total = np.zeros_like(pre_dropout)
        for seed in range(n_draws):
            _, cache = forward(p, x, training=True, dropout_p=0.2, dropout_seed=seed)
            total += cache.workspace.out[-1]  # input of the output head = post-dropout
        mean = total / n_draws
        # kept values are scaled by 1/(1-p): per entry the mask mean has
        # std a * sqrt(p/(1-p)/N). The aggregate gets the 3-sigma bound; each
        # of the ~512 entries gets 5 sigma (3 sigma per entry would flag ~1.4
        # entries by chance alone).
        per_entry_sigma = np.abs(pre_dropout) * np.sqrt(0.2 / 0.8 / n_draws)
        assert np.all(np.abs(mean - pre_dropout) <= 5.0 * per_entry_sigma + 1e-12)
        aggregate_sigma = np.sqrt(np.sum(per_entry_sigma**2))
        assert abs(mean.sum() - pre_dropout.sum()) <= 3.0 * aggregate_sigma


class TestSmoothL1:
    def test_zero_at_match(self):
        x = np.array([[0.3, 0.7]])
        assert smooth_l1(x, x) == 0.0

    def test_linear_branch(self):
        assert smooth_l1(np.array([2.0]), np.array([0.0])) == 1.5

    def test_quadratic_branch(self):
        assert smooth_l1(np.array([0.5]), np.array([0.0])) == 0.125

    def test_mean_reduction(self):
        pred = np.array([[2.0, 0.5]])
        target = np.zeros((1, 2))
        assert smooth_l1(pred, target) == pytest.approx((1.5 + 0.125) / 2, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            smooth_l1(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(-2, 2, size=(4, 2))
        target = rng.uniform(-1, 1, size=(4, 2))
        g = smooth_l1_grad(pred, target)
        h = 1e-7
        for i in range(4):
            for j in range(2):
                p_plus = pred.copy()
                p_plus[i, j] += h
                p_minus = pred.copy()
                p_minus[i, j] -= h
                fd = (smooth_l1(p_plus, target) - smooth_l1(p_minus, target)) / (2 * h)
                assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestBackward:
    def test_zero_residual_gives_zero_gradients(self):
        p = init_params(0)
        x, _ = _random_batch(10, n=8)
        pred, cache = forward(p, x, training=True, dropout_p=0.0)
        grads = backward(p, cache, pred.copy())
        for g in grads.values():
            assert np.abs(g).max() < 1e-12

    def test_matches_finite_differences(self):
        for init_seed, batch_seed in GRADCHECK_SEEDS[:2]:
            p = init_params(init_seed)
            x, y = _random_batch(batch_seed, n=8)
            _, cache = forward(p, x, training=True, dropout_p=0.0)
            analytic = backward(p, cache, y)
            numeric = fd_gradients(p, x, y, step=1e-5)
            for name in analytic:
                a, f = analytic[name], numeric[name]
                rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-7)
                assert rel.max() < 1e-4, f"{name}: {rel.max():.3e}"

    def test_gradients_flow_with_dropout_mask(self):
        p = init_params(0)
        x, y = _random_batch(12, n=16)
        _, cache = forward(p, x, training=True, dropout_p=0.5, dropout_seed=1)
        grads = backward(p, cache, y)
        # dropped units contribute no gradient through their outgoing weights
        mask = cache.workspace.drop
        dropped_cols = np.where(mask.sum(axis=0) == 0)[0]
        if dropped_cols.size:
            assert np.abs(grads["w4"][dropped_cols, :]).max() == 0.0

    def test_rejects_stale_cache(self):
        p1 = init_params(0)
        p2 = init_params(1)
        x, y = _random_batch(13, n=4)
        _, cache = forward(p1, x, training=True, dropout_p=0.0)
        with pytest.raises(ValueError, match="stale"):
            backward(p2, cache, y)

    def test_rejects_superseded_cache(self):
        # a later forward on the same workspace overwrites the buffers the
        # earlier cache views
        p = init_params(0)
        workspace = TrainWorkspace(8)
        x, y = _random_batch(16, n=8)
        _, cache = forward(p, x, training=True, dropout_p=0.0, workspace=workspace)
        forward(p, x, training=True, dropout_p=0.0, workspace=workspace)
        with pytest.raises(ValueError, match="superseded"):
            backward(p, cache, y)

    def test_rejects_eval_cache(self):
        p = init_params(0)
        _, cache = forward(p, np.zeros((4, 6)), training=False)
        with pytest.raises(ValueError):
            backward(p, cache, np.zeros((4, 2)))

    def test_rejects_mismatched_target(self):
        p = init_params(0)
        x, _ = _random_batch(14, n=4)
        _, cache = forward(p, x, training=True, dropout_p=0.0)
        with pytest.raises(ValueError):
            backward(p, cache, np.zeros((5, 2)))


class TestFusedTrainStep:
    """The in-place train forward and closed-form BatchNorm backward against
    the unfused reference. The finite-difference oracles run the very forward
    under test, so they alone would not catch one that is wrong in a
    self-consistent way."""

    @pytest.mark.parametrize("dropout_p, n", [(0.0, 256), (0.2, 256), (0.2, 37)])
    def test_matches_unfused_reference_over_three_steps(self, dropout_p, n):
        _three_steps_against_unfused(dropout_p, n, workspace=None)

    def test_short_batch_in_larger_workspace(self):
        # the leading 37 rows of each 256-row buffer, as in a trailing short batch
        _three_steps_against_unfused(0.2, 37, workspace=TrainWorkspace(256))

    @pytest.mark.parametrize("dropout_p", [0.0, 0.2])
    def test_backward_leaves_cache_unchanged(self, dropout_p):
        p = init_params(0)
        x, y = _random_batch(15, n=64)
        x_before = x.copy()
        _, cache = forward(p, x, training=True, dropout_p=dropout_p, dropout_seed=3)
        ws = cache.workspace  # sized to the batch: every buffer is the forward's state
        cached = [ws.pred, ws.x, *ws.inv_std, *ws.z, *ws.out] + ([ws.drop] if ws.dropped else [])
        before = [arr.copy() for arr in cached]
        # the gradients are views of the workspace, which the second call rewrites
        first = {name: g.copy() for name, g in backward(p, cache, y).items()}
        second = backward(p, cache, y)
        assert first.keys() == second.keys()
        for name in first:
            assert np.array_equal(first[name], second[name]), name
        for arr, want in zip(cached, before):
            assert np.array_equal(arr, want)
        assert np.array_equal(x, x_before)

    def test_steps_on_a_workspace_allocate_no_batch_buffer(self):
        # After warm-up, a train step at batch 256 allocates only small
        # temporaries: the traced peak stays under one (256, 128) buffer.
        p = init_params(0)
        state = OptState.init()
        workspace = TrainWorkspace(256)
        x, y = _random_batch(18, n=256)

        def step(k):
            _, cache = forward(
                p, x, training=True, dropout_p=0.2, dropout_seed=k, workspace=workspace
            )
            adamw_step(p, backward(p, cache, y), state, 1e-3, 1e-4)

        step(0)
        step(1)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for k in range(2, 5):
                step(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 256 * 128 * 8, f"{peak - start} bytes"


def _three_steps_against_unfused(dropout_p, n, workspace):
    """Three train steps of n rows, on `workspace` or on a fresh one per
    forward, against the unfused reference."""
    fused = init_params(21)
    ref = fused.copy()
    fused_state, ref_state = OptState.init(), OptState.init()
    rng = np.random.default_rng(31)
    for step in range(3):
        x = rng.uniform(-1.0, 1.0, size=(n, 6))
        y = rng.uniform(0.05, 0.95, size=(n, 2))
        seed = (7, 1, step)
        pred, cache = forward(
            fused, x, training=True, dropout_p=dropout_p, dropout_seed=seed, workspace=workspace
        )
        ref_pred, ref_cache = unfused_train_forward(ref, x, dropout_p, seed)
        grads = backward(fused, cache, y)
        ref_grads = unfused_backward(ref, ref_cache, y)
        assert grads.keys() == ref_grads.keys()
        # The first forward is the same arithmetic in the same order. The
        # first gradients are too when the batch size is a power of two:
        # dividing by m is then exact, and with the initial gains of 1
        # both forms of BatchNorm's backward round alike.
        first = step == 0
        pairs = [("pred", pred, ref_pred, first), ("params", fused.flat, ref.flat, first)]
        pairs += [
            (f"xhat{i + 1}", got[:n], want.xhat, first)
            for i, (got, want) in enumerate(zip(cache.workspace.z, ref_cache.layers))
        ]
        pairs += [(name, grads[name], ref_grads[name], first and n == 256) for name in grads]
        for name, got, want, exact in pairs:
            where = f"step {step + 1}, {name}"
            if exact:
                assert np.array_equal(got, want), where
            else:
                err = np.abs(got - want).max()
                assert err <= 1e-12 * np.abs(want).max(), f"{where}: {err:.3e}"
        adamw_step(fused, grads, fused_state, 1e-3, 1e-4)
        adamw_step(ref, pack_grads(ref_grads), ref_state, 1e-3, 1e-4)


def _step(params, workspace, x, y, seed):
    pred, cache = forward(
        params, x, training=True, dropout_p=0.2, dropout_seed=seed, workspace=workspace
    )
    return pred.copy(), backward(params, cache, y).flat.copy()


def _step_in_child(params, x, y, want_pred, want_grads):
    """A forked child's train step; its exit code says whether it matched."""
    pred, grads = _step(params, TrainWorkspace(len(x)), x, y, seed=(1, 2, 3))
    raise SystemExit(0 if np.array_equal(pred, want_pred) and np.array_equal(grads, want_grads)
                     else 1)


class TestWorkerThread:
    """The dropout draw and two weight-gradient matmuls run on a worker
    thread; errors, state and processes must not tell."""

    def test_worker_error_surfaces_and_workspace_recovers(self):
        p = init_params(0)
        x, y = _random_batch(19, n=64)
        workspace = TrainWorkspace(64)
        with pytest.raises(ValueError) as direct:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as raised:
            forward(p, x, training=True, dropout_p=0.2, dropout_seed=-1, workspace=workspace)
        assert str(raised.value) == str(direct.value)
        # the failed forward updated the running statistics, as it did before
        # the draw moved to the worker; compare from the same params onwards
        fresh = p.copy()
        on_used, on_fresh = _step(p, workspace, x, y, 4), _step(fresh, TrainWorkspace(64), x, y, 4)
        for got, want in zip(on_used, on_fresh):
            assert np.array_equal(got, want)
        assert np.array_equal(p.flat, fresh.flat)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_child_forked_after_training_runs_a_step(self):
        x, y = _random_batch(20, n=32)
        params, _ = train((x, y), (x, y), TrainConfig(max_epochs=2, batch_size=16))
        want = _step(params.copy(), TrainWorkspace(32), x, y, seed=(1, 2, 3))
        child = multiprocessing.get_context("fork").Process(
            target=_step_in_child, args=(params.copy(), x, y, *want)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        p = init_params(99)
        p.train_seed = 1234
        # make running stats non-trivial before saving
        x, _ = _random_batch(15, n=32)
        forward(p, x, training=True, dropout_p=0.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(p, path)
        loaded = load_checkpoint(path)
        assert loaded.init_seed == 99 and loaded.train_seed == 1234
        assert np.array_equal(p.flat, loaded.flat)
        pred_a, _ = forward(p, x, training=False)
        pred_b, _ = forward(loaded, x, training=False)
        assert np.array_equal(pred_a, pred_b)

    def test_numpy_integer_seed_round_trips(self, tmp_path):
        x, y = _random_batch(16, n=40)
        params, _ = train((x[:32], y[:32]), (x[32:], y[32:]),
                          TrainConfig(max_epochs=1, seed=np.int64(3)))
        assert type(params.init_seed) is int and type(params.train_seed) is int
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.init_seed == 3 and loaded.train_seed == 3
        assert np.array_equal(loaded.flat, params.flat)

    @pytest.mark.parametrize("key, value, message", [
        ("format_version", 2.0, "unsupported checkpoint version 2.0"),
        ("layer_sizes", [float(n) for n in LAYER_SIZES],
         "checkpoint architecture [6.0, 128.0, 128.0, 128.0, 2.0] unsupported"),
        ("init_seed", 0.0, "checkpoint init_seed must be an integer, got 0.0"),
        ("train_seed", True, "checkpoint train_seed must be an integer or null, got True"),
    ])
    def test_rejects_number_of_the_wrong_type(self, tmp_path, key, value, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_params(0), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("blob, reason", [
        ("QUJD=RA==", "Discontinuous padding not allowed"),
        ("QUJ D", "Only base64 data is allowed"),
        ("QUJDRA", "Incorrect padding"),
        ("QUJDRé", "string argument should contain only ASCII characters"),
        ("QUJDRA===", "Excess data after padding"),
        ("not base64!", "Only base64 data is allowed"),
    ], ids=["discontinuous-padding", "space", "missing-padding", "non-ascii", "excess-padding",
            "not-base64"])
    def test_rejects_invalid_base64_with_its_reason(self, tmp_path, blob, reason):
        """The messages of base64.b64decode(blob, validate=True), word for word."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_params(0), path)
        payload = json.loads(path.read_text())
        payload["params"] = blob
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == f"checkpoint params are not valid base64: {reason}"

    def test_rejects_bad_version(self, tmp_path):
        p = init_params(0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(p, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_blob_is_little_endian_float64(self, tmp_path):
        p = init_params(0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(p, path)
        raw = base64.b64decode(json.loads(path.read_text())["params"])
        assert np.array_equal(np.frombuffer(raw, dtype="<f8"), p.flat)

    def test_rejects_wrong_shape(self, tmp_path):
        # a blob one float64 short of the layout
        path = tmp_path / "ckpt.json"
        _save_tampered(path, lambda raw: raw[:-8])
        with pytest.raises(CheckpointError, match=f"want {8 * N_PARAMS}"):
            load_checkpoint(path)

    def test_rejects_missing_tensor(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_params(0), path)
        payload = json.loads(path.read_text())
        del payload["params"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="no params blob"):
            load_checkpoint(path)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("not json at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, tmp_path, value):
        path = tmp_path / "ckpt.json"
        _save_tampered(path, lambda raw: np.float64(value).astype("<f8").tobytes() + raw[8:])
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)


_BLOB = init_params(0).flat.astype("<f8").tobytes()
_EDGE_DOUBLES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]


@st.composite
def _checkpoint_payload(draw):
    """A checkpoint object with a drawn version and a drawn params blob: the
    real parameter bytes, resized or with an edge double written in, then
    base64 that may be corrupted, or a value of another type."""
    raw = bytearray(_BLOB)
    edit = draw(st.sampled_from(["none", "resize", "double"]))
    if edit == "resize":
        size = len(raw) + draw(st.integers(-17, 17).filter(bool))
        raw = raw[:size] + bytes(max(0, size - len(raw)))
    elif edit == "double":
        at = draw(st.integers(0, len(raw) // 8 - 1)) * 8
        raw[at:at + 8] = np.float64(draw(st.sampled_from(_EDGE_DOUBLES))).astype("<f8").tobytes()
    blob = base64.b64encode(bytes(raw)).decode("ascii")
    kind = draw(st.sampled_from(["valid", "char", "unpadded", "other"]))
    if kind == "char":
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.sampled_from(["!", "=", " ", "\n", "é", "-", "A"])) + blob[at:]
    elif kind == "unpadded":
        blob = blob.rstrip("=")[:-1]
    elif kind == "other":
        blob = draw(st.sampled_from([None, 3, [], {}, True, ""]))
    version = draw(st.sampled_from([2, 2, 2, 1, 3, "2", None, True, 2.0]))
    sizes = draw(st.sampled_from([list(LAYER_SIZES)] * 3 + [[float(n) for n in LAYER_SIZES]]))
    init_seed = draw(st.sampled_from([0, 0, 7, 0.0, True, "0", None]))
    train_seed = draw(st.sampled_from([None, None, 3, 3.0, False]))
    return {"format_version": version, "layer_sizes": sizes,
            "init_seed": init_seed, "train_seed": train_seed, "params": blob}


@settings(max_examples=200, deadline=None)
@given(payload=_checkpoint_payload())
def test_checkpoint_loads_finite_or_raises_checkpoint_error(tmp_path_factory, payload):
    """Every checkpoint either loads to N_PARAMS finite float64 values, the
    bytes its blob encodes, or raises CheckpointError (exit code 2). One that
    loads has the integer version 2, integer layer sizes and integer seeds."""
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    path.write_text(json.dumps(payload))
    try:
        params = load_checkpoint(path)
    except CheckpointError:
        return
    assert type(payload["format_version"]) is int
    assert {type(n) for n in payload["layer_sizes"]} == {int}
    assert type(params.init_seed) is int and type(params.train_seed) in (int, type(None))
    assert params.flat.dtype == np.float64 and params.flat.shape == (N_PARAMS,)
    assert np.isfinite(params.flat).all()
    assert params.flat.astype("<f8").tobytes() == base64.b64decode(payload["params"])


def _save_tampered(path, edit):
    """Save a fresh checkpoint with edit(bytes) applied to its decoded blob."""
    save_checkpoint(init_params(0), path)
    payload = json.loads(path.read_text())
    raw = edit(base64.b64decode(payload["params"]))
    payload["params"] = base64.b64encode(raw).decode("ascii")
    path.write_text(json.dumps(payload))
