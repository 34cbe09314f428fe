"""Command-line pipeline: generate data, train, evaluate, calibrate, predict.

Every run writes a manifest JSON next to its outputs recording the command,
input paths, seeds, and artifact paths, so any artifact can be regenerated.

Exit codes: 0 success, 2 configuration/usage error, 3 malformed data file,
4 numeric failure, 1 unexpected error. Set WATERLINE_LOG=DEBUG|INFO|... to
control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    COMPACT_JSON,
    PREDICT_SCHEMA,
    GenConfig,
    float_rows,
    generate,
    load_dataset,
    load_predictions,
    save_dataset,
    split,
    visible_examples,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DatasetParseError,
    DatasetSchemaError,
    NumericError,
    write_json,
)
from .features import decoder_queries, feature_matrix, waterline_targets
from .geometry import CameraModel, project
from .metrics import calibrate_bias, error_stats, pixel_errors, write_curve_csv
from .network import forward, load_checkpoint, save_checkpoint
# perfbench/workloads.py reads DEFAULT_VAL_RATIO from this module.
from .training import DEFAULT_VAL_RATIO, TrainConfig, train  # noqa: F401

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(path: Path, command: str, inputs: dict, seeds: dict, artifacts: dict,
                    started_at: str) -> None:
    write_json(path, {
        "command": command,
        "tool_version": __version__,
        "inputs": inputs,
        "seeds": seeds,
        "artifacts": artifacts,
        "started_at": started_at,
        "finished_at": _utcnow(),
    })


def _load_camera(path: str | None) -> CameraModel:
    if path is None:
        logger.info("no camera config given; using the built-in default")
        return CameraModel.default()
    return CameraModel.load(path)


def cmd_gen(args) -> int:
    started = _utcnow()
    camera = _load_camera(args.camera)
    config = GenConfig.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    records = generate(camera, config)
    out = Path(args.out)
    save_dataset(records, out)

    n_visible = sum(1 for r in records for lb in r.labels if lb.visible)
    n_invisible = sum(1 for r in records for lb in r.labels if not lb.visible)
    print(f"samples: {len(records)}")
    print(f"visible queries: {n_visible}")
    print(f"invisible queries: {n_invisible}")

    if args.verify:
        if config.noise_free:
            worst = _verify_fidelity(camera, records)
            print(f"verify: max |label - projection| = {worst:.3e} (normalized), OK")
        else:
            logger.warning("--verify skipped: config has non-zero noise, identity does not hold")
            print("verify: skipped (noisy config)")

    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "gen",
        inputs={"camera": args.camera, "config": args.config},
        seeds={"generator": config.seed},
        artifacts={"dataset": str(out)},
        started_at=started,
    )
    return EXIT_OK


def _verify_fidelity(camera: CameraModel, records) -> float:
    """Largest normalized gap between stored labels and fresh projections,
    every visible label projected in one call."""
    sample_ids = []
    rows = []
    for record in records:
        imu = record.imu
        for query, label in zip(record.queries, record.labels):
            if label.visible:
                sample_ids.append(record.sample_id)
                rows.append((imu.pitch_deg, imu.roll_deg, query.distance_m, query.bearing_deg,
                             *label.box))
    columns = float_rows(rows, 8)
    pitch, roll, distance, bearing = columns[:, :4].T
    target_x, target_y = waterline_targets(columns[:, 4:]).T
    u, v = project(camera, pitch, roll, distance, bearing)
    gap = np.maximum(np.abs(target_x - u / camera.image_w), np.abs(target_y - v / camera.image_h))
    bad = np.flatnonzero(np.isnan(gap) | (gap > 1e-9))
    if bad.size:
        first = bad[0]
        sample_id = sample_ids[first]
        if np.isnan(u[first]):
            raise NumericError(f"sample {sample_id}: visible label but no projection")
        raise NumericError(
            f"sample {sample_id}: label/projection gap {gap[first]:.3e} exceeds 1e-9"
        )
    return float(gap.max(initial=0.0))


def cmd_train(args) -> int:
    started = _utcnow()
    config = TrainConfig.load(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    parts = split(load_dataset(args.dataset), config.val_ratio, seed=config.seed)
    train_xy = visible_examples(parts.train)
    val_xy = visible_examples(parts.val)
    if train_xy[0].shape[0] == 0 or val_xy[0].shape[0] == 0:
        raise ConfigError("dataset contains no visible queries in train or val split")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, history = train(train_xy, val_xy, config)

    checkpoint = out_dir / "checkpoint.json"
    save_checkpoint(params, checkpoint)
    history.to_csv(out_dir / "history.csv")
    write_json(out_dir / "history.json", history.summary())
    print(f"epochs run: {len(history.epochs)}")
    print(f"best epoch: {history.best_epoch}")
    print(f"best val loss: {history.best_val_loss:.6g}")
    print(f"stop reason: {history.stop_reason}")

    _write_manifest(
        out_dir / "manifest.json",
        "train",
        inputs={"dataset": args.dataset, "config": args.config},
        seeds={"train": config.seed},
        artifacts={
            "checkpoint": str(checkpoint),
            "history_csv": str(out_dir / "history.csv"),
            "history_json": str(out_dir / "history.json"),
        },
        started_at=started,
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    started = _utcnow()
    camera = _load_camera(args.camera)
    records = load_dataset(args.dataset)
    params = load_checkpoint(args.checkpoint)

    feats, targets = visible_examples(records)
    if len(feats) == 0:
        raise ConfigError("no visible queries to evaluate")
    rows = [  # (sample_id, query_index), aligned with feats
        (r.sample_id, qi) for r in records for qi, lb in enumerate(r.labels) if lb.visible
    ]

    pred, _ = forward(params, feats, training=False)
    errors = pixel_errors(pred, targets, camera.image_w, camera.image_h)
    stats = error_stats(errors)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "error_stats.json", dataclasses.asdict(stats))
    with open(out_dir / "errors.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "query_index", "error_px"])
        writer.writerows((sample_id, qi, repr(err)) for (sample_id, qi), err in zip(rows, errors))

    print(f"n: {stats.n}")
    print(f"median_px: {stats.median_px:.4f}")
    print(f"mean_px: {stats.mean_px:.4f}")
    print(f"p90_px: {stats.p90_px:.4f}")

    _write_manifest(
        out_dir / "manifest.json",
        "eval",
        inputs={"dataset": args.dataset, "checkpoint": args.checkpoint, "camera": args.camera},
        seeds={},
        artifacts={
            "error_stats": str(out_dir / "error_stats.json"),
            "errors_csv": str(out_dir / "errors.csv"),
        },
        started_at=started,
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    started = _utcnow()
    detections = load_predictions(args.dataset)
    lo, hi = args.range
    best_bias, curve = calibrate_bias(
        detections, lo=lo, hi=hi, step=args.step, threshold=args.threshold
    )
    best_report = dict(curve)[best_bias]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "best_bias.json", {
        "best_bias": best_bias,
        "threshold": args.threshold,
        "grid": {"lo": lo, "hi": hi, "step": args.step},
        **dataclasses.asdict(best_report),
    })
    write_curve_csv(curve, out_dir / "curve.csv")

    print(f"grid points: {len(curve)}")
    print(f"best bias: {best_bias}")
    print(f"overall at best bias: {best_report.overall:.4f}")

    _write_manifest(
        out_dir / "manifest.json",
        "calibrate",
        inputs={"predictions": args.dataset},
        seeds={},
        artifacts={
            "best_bias": str(out_dir / "best_bias.json"),
            "curve": str(out_dir / "curve.csv"),
        },
        started_at=started,
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    started = _utcnow()
    records = load_dataset(args.dataset)
    params = load_checkpoint(args.checkpoint)
    out = Path(args.out)

    # One eval forward over every chart query of the file, in record order.
    keys = [(record.sample_id, qi) for record in records for qi in range(len(record.queries))]
    rows = []
    if keys:  # forward rejects an empty batch; a buoy-free file gets no rows
        columns = float_rows((
            (query.distance_m, query.bearing_deg,
             record.imu.pitch_deg, record.imu.roll_deg, record.imu.heading_deg)
            for record in records for query in record.queries
        ), 5)
        feats = feature_matrix(*columns.T)
        pred, _ = forward(params, feats, training=False)
        rows = zip(keys, decoder_queries(feats, pred).tolist(), feats.tolist())
    with open(out, "w", encoding="utf-8") as f:
        for (sample_id, qi), decoder_query, feature_row in rows:
            row = {  # decoder_query ends with the predicted point
                "schema": PREDICT_SCHEMA,
                "sample_id": sample_id,
                "query_index": qi,
                "prediction": {"c_x": decoder_query[2], "c_y_plus_half_h": decoder_query[3]},
                "decoder_query": decoder_query,
            }
            if args.emit_features:
                row["features"] = feature_row
            f.write(COMPACT_JSON.encode(row))
            f.write("\n")
    print(f"queries predicted: {len(keys)}")

    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "predict",
        inputs={"dataset": args.dataset, "checkpoint": args.checkpoint},
        seeds={},
        artifacts={"predictions": str(out)},
        started_at=started,
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="waterline",
        description="Learned world-to-image projection of buoy waterline points.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--camera", help="camera JSON (default: built-in 960x540 camera)")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output dataset JSONL")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--verify", action="store_true",
                   help="re-check labels against the projection (noise-free configs)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the waterline predictor")
    p.add_argument("--dataset", required=True, help="dataset JSONL")
    p.add_argument("--config", help="training config JSON (defaults shown in README)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="pixel-error statistics of a checkpoint")
    p.add_argument("--dataset", required=True, help="dataset JSONL")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--camera", help="camera JSON fixing the image dimensions")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate", help="grid-sweep the objectness logit bias")
    p.add_argument("--dataset", required=True, help="predictions JSONL (see README)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--range", nargs=2, type=float, default=(-3.0, 3.0),
                   metavar=("LO", "HI"), help="bias sweep range (default -3 3)")
    p.add_argument("--step", type=float, default=0.25, help="sweep step (default 0.25)")
    p.add_argument("--threshold", type=float, default=0.90,
                   help="visibility threshold on sigmoid(logit + bias) (default 0.90)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="run the predictor on every chart query")
    p.add_argument("--dataset", required=True, help="dataset JSONL")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
    p.add_argument("--out", required=True, help="output predictions JSONL")
    p.add_argument("--emit-features", action="store_true",
                   help="include the six input features in each output row")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("WATERLINE_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetParseError, DatasetSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
