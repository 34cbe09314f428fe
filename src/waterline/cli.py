"""Command-line pipeline: generate data, train, evaluate, calibrate, predict.

Each `cmd_*` function does its command's work, writing through _make_out, and
returns what goes in its manifest: the input paths, seeds and artifact paths, so
any artifact can be regenerated. `main` alone stamps the start and finish times,
writes the manifest beside or inside --out, and turns an error into its exit
code and one `error:` line on stderr, through the ordered table _EXIT_CODES.

Exit codes: 0 success, 2 configuration/usage error, 3 malformed or missing
data file, 4 numeric failure, 1 unexpected error. Set
WATERLINE_LOG=DEBUG|INFO|... to control log verbosity; a name that is not a
logging level is a usage error.
"""

from __future__ import annotations

import argparse
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
    Frames, GenConfig, generate_frames, load_dataset, load_predictions, predict_lines, save_dataset,
    split, visible_examples, write_jsonl,
)
from .errors import (
    ConfigError, DatasetParseError, DatasetSchemaError, NumericError, write_csv, write_json,
)
from .features import decoder_queries, waterline_targets
from .geometry import CameraModel, project
from .metrics import (
    DEFAULT_BIAS_RANGE, DEFAULT_BIAS_STEP, DEFAULT_THRESHOLD, calibrate_bias, error_stats,
    pixel_errors,
)
from .network import MIN_BATCH, forward, load_checkpoint, save_checkpoint
# perfbench/workloads.py reads DEFAULT_VAL_RATIO from this module.
from .training import DEFAULT_VAL_RATIO, EpochStats, TrainConfig, train  # noqa: F401

# Named, not __name__, so that `python -m waterline.cli` logs as waterline.cli too.
logger = logging.getLogger("waterline.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The exit code of each error kind, in order: the first match wins, so the
# dataset errors, which are ValueErrors too, come before ValueError. Any
# other exception propagates.
_EXIT_CODES = {
    DatasetParseError: EXIT_DATA,
    DatasetSchemaError: EXIT_DATA,
    OSError: EXIT_DATA,
    NumericError: EXIT_NUMERIC,
    ValueError: EXIT_CONFIG,
}

# What a command returns for its manifest: (inputs, seeds, artifacts).
Manifest = tuple[dict, dict, dict]

# The commands whose --out is one file, with the manifest beside it; the
# others write into the directory --out, with manifest.json inside.
_FILE_OUTPUTS = frozenset({"gen", "predict"})


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _make_out(args) -> Path:
    """Create the directory --out, or the missing parent of the file --out; return --out."""
    out = Path(args.out)
    (out.parent if args.command in _FILE_OUTPUTS else out).mkdir(parents=True, exist_ok=True)
    return out


def _manifest_path(args) -> Path:
    out = Path(args.out)
    if args.command in _FILE_OUTPUTS:
        return out.with_suffix(out.suffix + ".manifest.json")
    return out / "manifest.json"


def _load_camera(path: str | None) -> CameraModel:
    if path is None:
        logger.info("no camera config given; using the built-in default")
        return CameraModel.default()
    return CameraModel.load(path)


def cmd_gen(args) -> Manifest:
    camera = _load_camera(args.camera)
    config = GenConfig.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    frames = generate_frames(camera, config)
    out = _make_out(args)
    save_dataset(frames, out)

    n_visible = np.count_nonzero(frames.visible)
    print(f"samples: {len(frames.sample_id)}")
    print(f"visible queries: {n_visible}")
    print(f"invisible queries: {len(frames.visible) - n_visible}")

    if args.verify:
        if config.noise_free:
            worst = _verify_fidelity(camera, frames)
            print(f"verify: max |label - projection| = {worst:.3e} (normalized), OK")
        else:
            logger.warning("--verify skipped: config has non-zero noise, identity does not hold")
            print("verify: skipped (noisy config)")

    return ({"camera": args.camera, "config": args.config}, {"generator": config.seed},
            {"dataset": str(out)})


def _verify_fidelity(camera: CameraModel, frames: Frames) -> float:
    """Largest normalized gap between the stored labels and fresh projections
    of frames' visible queries, every one projected in one call."""
    visible = frames.visible
    pitch, roll = np.repeat(frames.imu[:, :2], np.diff(frames.offsets), axis=0)[visible].T
    target_x, target_y = waterline_targets(frames.boxes).T
    u, v = project(camera, pitch, roll, frames.distance_m[visible], frames.bearing_deg[visible])
    gap = np.maximum(np.abs(target_x - u / camera.image_w), np.abs(target_y - v / camera.image_h))
    bad = np.flatnonzero(np.isnan(gap) | (gap > 1e-9))
    if bad.size:
        first = bad[0]
        sample_id = frames.query_keys()[0][visible][first]
        if np.isnan(u[first]):
            raise NumericError(f"sample {sample_id}: visible label but no projection")
        raise NumericError(f"sample {sample_id}: label/projection gap {gap[first]:.3e} "
                           "exceeds 1e-9")
    return float(gap.max(initial=0.0))


def cmd_train(args) -> Manifest:
    config = TrainConfig.load(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    parts = split(load_dataset(args.dataset).records(), config.val_ratio, seed=config.seed)
    train_xy = visible_examples(parts.train)
    val_xy = visible_examples(parts.val)
    n_train, n_val = train_xy[0].shape[0], val_xy[0].shape[0]
    if n_train < MIN_BATCH or n_val == 0:
        raise ConfigError(f"dataset has {n_train} visible queries in the train split and {n_val} "
                          f"in val; training needs >= {MIN_BATCH} and >= 1")

    out_dir = _make_out(args)
    params, history = train(train_xy, val_xy, config)

    checkpoint = out_dir / "checkpoint.json"
    save_checkpoint(params, checkpoint)
    write_csv(out_dir / "history.csv", [f.name for f in dataclasses.fields(EpochStats)],
              map(dataclasses.astuple, history.epochs))
    write_json(out_dir / "history.json", history.summary())
    print(f"epochs run: {len(history.epochs)}")
    print(f"best epoch: {history.best_epoch}")
    print(f"best val loss: {history.best_val_loss:.6g}")
    print(f"stop reason: {history.stop_reason}")

    return ({"dataset": args.dataset, "config": args.config}, {"train": config.seed},
            {"checkpoint": str(checkpoint), "history_csv": str(out_dir / "history.csv"),
             "history_json": str(out_dir / "history.json")})


def cmd_eval(args) -> Manifest:
    camera = _load_camera(args.camera)
    frames = load_dataset(args.dataset)
    params = load_checkpoint(args.checkpoint)

    visible = frames.visible
    feats = frames.features()[visible]
    targets = waterline_targets(frames.boxes)
    if len(feats) == 0:
        raise ConfigError("no visible queries to evaluate")
    sample_ids, query_index = (keys[visible].tolist() for keys in frames.query_keys())

    pred, _ = forward(params, feats, training=False)
    errors = pixel_errors(pred, targets, camera.image_w, camera.image_h)
    stats = error_stats(errors)

    out_dir = _make_out(args)
    write_json(out_dir / "error_stats.json", dataclasses.asdict(stats))
    write_csv(out_dir / "errors.csv", ["sample_id", "query_index", "error_px"],
              zip(sample_ids, query_index, errors))

    print(f"n: {stats.n}")
    print(f"median_px: {stats.median_px:.4f}")
    print(f"mean_px: {stats.mean_px:.4f}")
    print(f"p90_px: {stats.p90_px:.4f}")

    return ({"dataset": args.dataset, "checkpoint": args.checkpoint, "camera": args.camera}, {},
            {"error_stats": str(out_dir / "error_stats.json"),
             "errors_csv": str(out_dir / "errors.csv")})


def cmd_calibrate(args) -> Manifest:
    detections = load_predictions(args.dataset)
    lo, hi = args.range
    best_bias, curve = calibrate_bias(detections, lo=lo, hi=hi, step=args.step,
                                      threshold=args.threshold)
    best_report = dict(curve)[best_bias]

    out_dir = _make_out(args)
    write_json(out_dir / "best_bias.json", {
        "best_bias": best_bias,
        "threshold": args.threshold,
        "grid": {"lo": lo, "hi": hi, "step": args.step},
        **dataclasses.asdict(best_report),
    })
    write_csv(out_dir / "curve.csv", ["bias", "precision", "recall", "f1", "miou", "overall"],
              ((bias, *dataclasses.astuple(report)[:5]) for bias, report in curve))

    print(f"grid points: {len(curve)}")
    print(f"best bias: {best_bias}")
    print(f"overall at best bias: {best_report.overall:.4f}")

    return ({"predictions": args.dataset}, {},
            {"best_bias": str(out_dir / "best_bias.json"), "curve": str(out_dir / "curve.csv")})


def cmd_predict(args) -> Manifest:
    frames = load_dataset(args.dataset)
    params = load_checkpoint(args.checkpoint)

    # One eval forward over every chart query of the file, in file order.
    n_queries = len(frames.distance_m)
    lines = ()
    if n_queries:  # forward rejects an empty batch; a buoy-free file gets no rows
        feats = frames.features()
        pred, _ = forward(params, feats, training=False)
        lines = predict_lines(*frames.query_keys(), decoder_queries(feats, pred),
                              feats if args.emit_features else None)
    out = _make_out(args)
    write_jsonl(out, lines)
    print(f"queries predicted: {n_queries}")

    return {"dataset": args.dataset, "checkpoint": args.checkpoint}, {}, {"predictions": str(out)}


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
    p.add_argument("--range", nargs=2, type=float, default=DEFAULT_BIAS_RANGE, metavar=("LO", "HI"),
                   help="bias sweep range (default %g %g)" % DEFAULT_BIAS_RANGE)
    p.add_argument("--step", type=float, default=DEFAULT_BIAS_STEP,
                   help="sweep step (default %(default)g)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="visibility threshold on sigmoid(logit + bias) (default %(default).2f)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="run the predictor on every chart query")
    p.add_argument("--dataset", required=True, help="dataset JSONL")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
    p.add_argument("--out", required=True, help="output predictions JSONL")
    p.add_argument("--emit-features", action="store_true",
                   help="include the six input features in each output row")
    p.set_defaults(func=cmd_predict)

    return parser


def _configure_logging() -> None:
    level = os.environ.get("WATERLINE_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):  # a level name maps to a number
        raise ConfigError("WATERLINE_LOG must name a logging level (DEBUG, INFO, WARNING, ERROR "
                          f"or CRITICAL), got {level!r}")
    logging.basicConfig(level=level.upper())


def main(argv=None) -> int:
    """Run one command: write its manifest and return 0, or print one
    `error:` line and return the exit code _EXIT_CODES gives its error."""
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        started_at = _utcnow()
        inputs, seeds, artifacts = args.func(args)
        write_json(_manifest_path(args), {
            "command": args.command,
            "tool_version": __version__,
            "inputs": inputs,
            "seeds": seeds,
            "artifacts": artifacts,
            "started_at": started_at,
            "finished_at": _utcnow(),
        })
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
