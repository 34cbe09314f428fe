"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The learnability criterion trains the full recipe twice (noise-free and
noisy) and dominates the runtime; everything else finishes in seconds.
"""

import hashlib
import itertools
import json

import numpy as np

from conftest import miscalibrated_instance
from oracles import exact_report_from_queries, exact_sweep, fd_gradients
from test_network import GRADCHECK_SEEDS
from waterline.cli import main
from waterline.data import GenConfig, generate, visible_examples
from waterline.features import ChartQuery, ImuSample, build_features
from waterline.geometry import CameraModel
from waterline.metrics import (
    GtBox,
    QueryPrediction,
    bias_grid,
    calibrate_bias,
    detection_report,
    error_stats,
    f1_from_pr,
    overall_score,
    pixel_error,
)
from waterline.network import backward, forward, init_params
from waterline.training import TrainConfig, train


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences (step 1e-5,
    dropout disabled) within relative error 1e-4 on 5 random batches of 8."""
    worst = 0.0
    worst_name = ""
    for init_seed, batch_seed in GRADCHECK_SEEDS:
        params = init_params(init_seed)
        rng = np.random.default_rng(batch_seed)
        x = rng.uniform(-1.0, 1.0, size=(8, 6))
        y = rng.uniform(0.05, 0.95, size=(8, 2))
        _, cache = forward(params, x, training=True, dropout_p=0.0)
        analytic = backward(params, cache, y)
        numeric = fd_gradients(params, x, y, step=1e-5)
        for name in analytic:
            a, f = analytic[name], numeric[name]
            rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-7)
            if rel.max() > worst:
                worst = float(rel.max())
                worst_name = f"{name} (batch seed {batch_seed})"
    _criterion(
        1,
        "gradient correctness",
        worst < 1e-4,
        f"worst relative error {worst:.3e} at {worst_name}",
    )


def test_criterion_2_feature_formula_fidelity():
    """The normalization constants are reproduced exactly."""
    level = ImuSample(0.0, 0.0, 0.0)
    checks = [
        (build_features(ChartQuery(1000.0, 0.0), level)[0], 1.0),
        (build_features(ChartQuery(100.0, 0.0), level)[1], 10.0),
        (build_features(ChartQuery(1.0, 0.0), level)[1], 10.0),
        (build_features(ChartQuery(500.0, 0.0), ImuSample(10.0, 0.0, 0.0))[3], 1.0),
        (build_features(ChartQuery(500.0, 180.0), level)[2], 1.0),
    ]
    ok = all(got == expected for got, expected in checks)
    _criterion(2, "feature-formula fidelity", ok, f"values {[g for g, _ in checks]}")


def test_criterion_3_leaderboard_arithmetic():
    """F1 and Overall reproduce the reported scores to 4 decimal places."""
    tol = 5.0001e-5  # half of the last reported decimal place
    checks = [
        (f1_from_pr(0.7970, 0.7912), 0.7941),
        (f1_from_pr(0.8627, 0.7761), 0.8171),
        (overall_score(0.8055, 0.6718), 0.7386),
        (overall_score(0.8171, 0.6753), 0.7462),
        (overall_score(0.7941, 0.6445), 0.7193),
    ]
    worst = max(abs(got - expected) for got, expected in checks)
    _criterion(3, "leaderboard arithmetic", worst <= tol, f"worst gap {worst:.2e}")


def _learnability_run(gen_seed, **noise):
    camera = CameraModel.default()
    config = GenConfig(
        n_samples=28000,
        queries_per_sample=(1, 1),
        distance_range_m=(5.0, 1000.0),
        seed=gen_seed,
        **noise,
    )
    x, y = visible_examples(generate(camera, config))
    assert x.shape[0] >= 24000, f"only {x.shape[0]} visible queries generated"
    train_xy = (x[:20000], y[:20000])
    val_xy = (x[20000:24000], y[20000:24000])
    params, history = train(train_xy, val_xy, TrainConfig(seed=0))
    pred, _ = forward(params, val_xy[0], training=False)
    errors = [
        pixel_error(p, t, camera.image_w, camera.image_h) for p, t in zip(pred, val_xy[1])
    ]
    return error_stats(errors), history


def test_criterion_4_synthetic_learnability():
    """The full training recipe learns the projection on synthetic data:
    noise-free validation median < 10 px, noisy (bearing 0.5 deg, pitch/roll
    0.3 deg, distance 2%) median < 40 px, at 960x540."""
    clean_stats, clean_hist = _learnability_run(101)
    noisy_stats, noisy_hist = _learnability_run(
        202,
        bearing_noise_deg=0.5,
        pitch_noise_deg=0.3,
        roll_noise_deg=0.3,
        distance_noise_rel=0.02,
    )
    ok = clean_stats.median_px < 10.0 and noisy_stats.median_px < 40.0
    _criterion(
        4,
        "synthetic learnability",
        ok,
        f"noise-free median {clean_stats.median_px:.2f} px "
        f"(best epoch {clean_hist.best_epoch}), "
        f"noisy median {noisy_stats.median_px:.2f} px "
        f"(best epoch {noisy_hist.best_epoch})",
    )


def test_criterion_5_calibration_sweep():
    """With logits shifted +0.5 from a calibrated reference the sweep finds a
    negative bias within one coarse step of the 10x-finer brute-force optimum."""
    preds, gts = miscalibrated_instance(np.random.default_rng(515))
    best, curve = calibrate_bias(preds, gts)
    coarse_overall = dict(curve)[best].overall
    fine_best, fine_overall, _ = exact_sweep(preds, gts, bias_grid(-3.0, 3.0, 0.025), 0.90)
    ok = (
        best < 0.0
        and abs(best - fine_best) <= 0.25 + 1e-12
        and float(fine_overall) - coarse_overall <= 0.25
        and float(fine_overall) >= coarse_overall - 1e-12
    )
    _criterion(
        5,
        "calibration sweep",
        ok,
        f"best bias {best} (overall {coarse_overall:.4f}), "
        f"fine-grid best {fine_best} (overall {float(fine_overall):.4f})",
    )


def test_criterion_6_metric_oracle_equivalence():
    """detection_report matches an exact rational brute-force scorer on every
    instance of up to 4 queries spanning all visibility/threshold outcomes
    and a spread of rational IoUs."""
    gt_box = (0.4, 0.4, 0.2, 0.2)
    pred_boxes = {
        "identical": gt_box,  # IoU 1
        "nested": (0.4, 0.4, 0.2, 0.1),  # IoU 1/2
        "offset": (0.5, 0.4, 0.2, 0.2),  # IoU 1/3
        "disjoint": (0.8, 0.8, 0.1, 0.1),  # IoU 0
    }
    # per-query states: (gt visible, predicted visible, predicted box); the
    # box only matters for true positives, so other outcomes use one variant
    states = [(True, True, kind) for kind in pred_boxes] + [
        (True, False, "identical"),
        (False, True, "identical"),
        (False, False, "identical"),
    ]
    n_instances = 0
    worst = 0.0
    for n in range(1, 5):
        for combo in itertools.product(states, repeat=n):
            gts = [GtBox(True, *gt_box) if g else GtBox(False) for g, _, _ in combo]
            preds = [
                QueryPrediction(30.0 if p else -30.0, pred_boxes[kind])
                for _, p, kind in combo
            ]
            report = detection_report(preds, gts)
            oracle = exact_report_from_queries(preds, gts, 0.0, 0.90)
            assert (report.tp, report.fp, report.fn) == (
                oracle["tp"],
                oracle["fp"],
                oracle["fn"],
            ), combo
            for key in ("precision", "recall", "f1", "miou", "overall"):
                gap = abs(getattr(report, key) - float(oracle[key]))
                worst = max(worst, gap)
                assert gap <= 1e-12, (combo, key)
            n_instances += 1
    _criterion(
        6,
        "metric oracle equivalence",
        n_instances == 7 + 49 + 343 + 2401,
        f"{n_instances} instances, worst metric gap {worst:.1e}",
    )


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_7_cli_determinism(tmp_path):
    """gen/train/predict reruns with identical seeds are byte-identical."""
    gen_config = tmp_path / "gen.json"
    gen_config.write_text(
        json.dumps(
            {
                "n_samples": 200,
                "queries_per_sample": [1, 2],
                "distance_range_m": [20.0, 800.0],
                "seed": 5,
            }
        )
    )
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({"max_epochs": 3, "patience": 3, "batch_size": 64}))

    hashes = {"dataset": [], "checkpoint": [], "summary": [], "predictions": []}
    for run in ("r1", "r2"):
        dataset = tmp_path / f"{run}-data.jsonl"
        out_dir = tmp_path / f"{run}-train"
        predictions = tmp_path / f"{run}-pred.jsonl"
        assert main(["gen", "--config", str(gen_config), "--out", str(dataset)]) == 0
        assert (
            main(
                [
                    "train",
                    "--dataset",
                    str(dataset),
                    "--config",
                    str(train_config),
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "predict",
                    "--dataset",
                    str(dataset),
                    "--checkpoint",
                    str(out_dir / "checkpoint.json"),
                    "--out",
                    str(predictions),
                ]
            )
            == 0
        )
        hashes["dataset"].append(_sha256(dataset))
        hashes["checkpoint"].append(_sha256(out_dir / "checkpoint.json"))
        hashes["summary"].append(_sha256(out_dir / "history.json"))
        hashes["predictions"].append(_sha256(predictions))

    mismatched = [k for k, (a, b) in hashes.items() if a != b]
    _criterion(
        7,
        "pipeline determinism",
        not mismatched,
        f"checked {sorted(hashes)}; mismatched: {mismatched or 'none'}",
    )


def test_criterion_8_monotone_positives():
    """Predicted-visible count is non-decreasing in the logit bias across the
    sweep grid, over 100 random prediction sets."""
    grid = bias_grid(-3.0, 3.0, 0.25)
    violations = 0
    for i in range(100):
        rng = np.random.default_rng(900 + i)
        n = int(rng.integers(1, 60))
        gts = [
            GtBox(True, 0.5, 0.5, 0.1, 0.1) if rng.random() < 0.5 else GtBox(False)
            for _ in range(n)
        ]
        preds = [
            QueryPrediction(float(rng.normal(0, 2.5)), (0.5, 0.5, 0.1, 0.1))
            for _ in range(n)
        ]
        counts = []
        for bias in grid:
            report = detection_report(preds, gts, logit_bias=bias)
            counts.append(report.tp + report.fp)
        if any(a > b for a, b in zip(counts, counts[1:])):
            violations += 1
    _criterion(8, "monotone positives", violations == 0, f"{violations} violations in 100 sets")
