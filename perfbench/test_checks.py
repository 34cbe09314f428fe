"""Tests of the benchmark's output checks.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from waterline.data import GenConfig, generate  # noqa: E402
from waterline.geometry import CameraModel  # noqa: E402
from waterline.network import init_params  # noqa: E402
from workloads import Offline, Serve, serve_frame  # noqa: E402


def _served(n_frames=6):
    serve = Serve()
    state = {
        "seed": 3,
        "frames": generate(CameraModel.default(), GenConfig(n_samples=n_frames, seed=3)),
        "params": init_params(0),
        "served": 0,
    }
    outputs = []
    for _ in range(n_frames):
        serve._serve(state, None, outputs)
    return serve, state, outputs


def test_served_frames_pass_their_checks():
    serve, state, outputs = _served()
    assert serve._check(state, outputs, serve._reference(state)) == 0


def test_corrupted_prediction_is_counted_as_failed():
    serve, state, outputs = _served()
    k, pred, decoder_queries = outputs[2]
    corrupted = pred.copy()
    corrupted[0, 1] += 1e-6  # beyond the tolerance, far below a visible pixel
    outputs[2] = (k, corrupted, decoder_queries)
    assert serve._check(state, outputs, serve._reference(state)) == 1


def test_decoder_query_must_carry_the_prediction():
    frames = generate(CameraModel.default(), GenConfig(n_samples=1, seed=5))
    params = init_params(1)
    pred, decoder_queries = serve_frame(params, frames[0])
    assert checks.serve_frame_ok(frames[0].queries, pred, decoder_queries, pred)
    decoder_queries[0] = decoder_queries[0].copy()
    decoder_queries[0][0] += 1e-3
    assert not checks.serve_frame_ok(frames[0].queries, pred, decoder_queries, pred)


def test_frame_that_raised_is_failed():
    frames = generate(CameraModel.default(), GenConfig(n_samples=1, seed=5))
    assert not checks.serve_frame_ok(frames[0].queries, None, [], np.zeros((1, 2)))


def test_calibration_must_undo_the_shift_within_one_step():
    assert checks.calibration_ok(-0.5, Offline.SHIFT, Offline.STEP)
    assert checks.calibration_ok(-0.25, Offline.SHIFT, Offline.STEP)
    assert not checks.calibration_ok(0.0, Offline.SHIFT, Offline.STEP)


def test_predict_row_count_must_match_queries():
    stdout = "queries predicted: 12\n"
    assert checks.predict_ok(stdout, 12, 12)
    assert not checks.predict_ok(stdout, 11, 12)
    assert not checks.predict_ok(stdout, 12, 13)


def test_gen_counts_need_a_passing_verify():
    ok = ("samples: 4\nvisible queries: 5\ninvisible queries: 3\n"
          "verify: max |label - projection| = 1.1e-16 (normalized), OK\n")
    assert checks.gen_counts(ok) == 8
    assert checks.gen_counts("samples: 4\nvisible queries: 5\ninvisible queries: 3\n") is None


def test_train_job_must_run_every_epoch_with_finite_losses():
    from waterline.training import EpochStats, TrainHistory

    def history(losses, reason="max-epochs"):
        epochs = [EpochStats(epoch=i + 1, train_loss=v, val_loss=v, lr=1e-3, seconds=0.1)
                  for i, v in enumerate(losses)]
        return TrainHistory(epochs=epochs, stop_reason=reason)

    assert checks.train_job_ok(history([0.3, 0.2]), 2)
    assert not checks.train_job_ok(history([0.3, 0.2], "early-stop"), 2)
    assert not checks.train_job_ok(history([0.3, float("nan")]), 2)
    assert not checks.train_job_ok(history([0.3]), 2)
