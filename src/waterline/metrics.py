"""Evaluation metrics: pixel-error statistics for the waterline predictor and
per-query detection scoring (F1, mIoU, Overall) with logit-bias calibration.

Matching rule: the pipeline emits exactly one prediction per chart query, so
detections are matched to ground truth by query index, with no IoU gate; mIoU
averages over true-positive pairs only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Box = Sequence[float]  # (c_x, c_y, w, h), normalized image coordinates

# calibrate scores one detection report per grid point: 400x the default
# 25-point grid, e.g. the default range at step 6e-4.
MAX_GRID_POINTS = 10_001


@dataclass(frozen=True)
class GtBox:
    """Ground-truth annotation for one chart query.

    Box fields are normalized to [0, 1]; they are meaningful only when
    ``visible`` is true. ``visible=False`` marks a query whose buoy does not
    appear in the image.
    """

    visible: bool
    c_x: float = 0.0
    c_y: float = 0.0
    w: float = 0.0
    h: float = 0.0

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.c_x, self.c_y, self.w, self.h)

    def validate(self, eps: float = 1e-6) -> None:
        """Raise ValueError if a visible box violates its invariants."""
        if not self.visible:
            return
        if not all(math.isfinite(v) for v in self.box):
            raise ValueError(f"visible box has a non-finite field: {self.box}")
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"visible box must have positive size, got w={self.w}, h={self.h}")
        if (
            self.c_x - self.w / 2 < -eps
            or self.c_x + self.w / 2 > 1 + eps
            or self.c_y - self.h / 2 < -eps
            or self.c_y + self.h / 2 > 1 + eps
        ):
            raise ValueError(f"visible box extends outside the unit frame: {self.box}")


@dataclass(frozen=True)
class QueryPrediction:
    """Raw per-query detector output: pre-sigmoid objectness and a box."""

    objectness_logit: float
    box: tuple[float, float, float, float]


@dataclass(frozen=True)
class ErrorStats:
    median_px: float
    mean_px: float
    p90_px: float
    n: int


@dataclass(frozen=True)
class DetectionReport:
    precision: float
    recall: float
    f1: float
    miou: float
    overall: float
    tp: int
    fp: int
    fn: int


def pixel_error(
    pred: Sequence[float], target: Sequence[float], image_w: float, image_h: float
) -> float:
    """Euclidean distance in pixels between two normalized image points."""
    du = (pred[0] - target[0]) * image_w
    dv = (pred[1] - target[1]) * image_h
    return math.hypot(du, dv)


def error_stats(errors: Sequence[float]) -> ErrorStats:
    """Median / mean / 90th-percentile of a list of pixel errors.

    Percentiles use linear interpolation between closest ranks
    (position = q * (n - 1) on the sorted list).
    """
    if len(errors) == 0:
        raise ValueError("error_stats requires a non-empty list")
    arr = np.asarray(errors, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("error_stats requires finite values")
    arr = np.sort(arr)  # makes every statistic permutation-invariant bit-exactly
    return ErrorStats(
        median_px=float(np.percentile(arr, 50.0)),
        mean_px=float(np.mean(arr)),
        p90_px=float(np.percentile(arr, 90.0)),
        n=int(arr.size),
    )


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two center-format boxes.

    Areas are computed from the same corner coordinates as the intersection,
    so identical boxes score exactly 1.0.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    if aw <= 0 or ah <= 0 or bw <= 0 or bh <= 0:
        raise ValueError("iou requires boxes with positive width and height")
    ax1, ax2 = ax - aw / 2, ax + aw / 2
    ay1, ay2 = ay - ah / 2, ay + ah / 2
    bx1, bx2 = bx - bw / 2, bx + bw / 2
    by1, by2 = by - bh / 2, by + bh / 2
    ix = min(ax2, bx2) - max(ax1, bx1)
    iy = min(ay2, by2) - max(ay1, by1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def overall_score(f1: float, miou: float) -> float:
    """The challenge-style summary score: mean of F1 and mIoU."""
    return (f1 + miou) / 2.0


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def detection_report(
    predictions: Sequence[QueryPrediction],
    gts: Sequence[GtBox],
    logit_bias: float = 0.0,
    threshold: float = 0.90,
) -> DetectionReport:
    """Score per-query visibility decisions against ground truth.

    A query counts as predicted-visible when sigmoid(logit + logit_bias)
    exceeds ``threshold`` (strict comparison). Counting per aligned pair:
    TP = predicted and actually visible, FP = predicted but not visible,
    FN = missed visible buoy. Convention at empty denominators: a precision
    (or recall) with no positive decisions is 1.0 when there was nothing to
    find, else 0.0 - this keeps the bias sweep total at extreme biases.
    """
    if len(predictions) != len(gts):
        raise ValueError(
            f"predictions and ground truth must align: {len(predictions)} vs {len(gts)}"
        )
    tp = fp = fn = 0
    ious: list[float] = []
    for pred, gt in zip(predictions, gts):
        visible = _sigmoid(pred.objectness_logit + logit_bias) > threshold
        if visible and gt.visible:
            tp += 1
            ious.append(iou(pred.box, gt.box))
        elif visible:
            fp += 1
        elif gt.visible:
            fn += 1
    if tp + fp == 0:
        precision = 1.0 if fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    f1 = f1_from_pr(precision, recall)
    miou = sum(ious) / len(ious) if ious else 0.0
    return DetectionReport(
        precision=precision,
        recall=recall,
        f1=f1,
        miou=miou,
        overall=overall_score(f1, miou),
        tp=tp,
        fp=fp,
        fn=fn,
    )


def bias_grid(lo: float, hi: float, step: float) -> list[float]:
    """Candidate logit biases lo, lo + step, ... up to hi, all within [lo, hi].
    hi is included when (hi - lo) / step is a whole number, within 1e-9.
    A grid of more than MAX_GRID_POINTS points is refused before it is built."""
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ValueError("step must be positive")
    if lo > hi:
        raise ValueError("grid lower bound exceeds upper bound")
    steps = (hi - lo) / step + 1e-9  # inf when hi - lo or the quotient overflows
    if steps >= MAX_GRID_POINTS:
        raise ValueError(
            f"grid would have {steps + 1:.0f} points, more than the limit of {MAX_GRID_POINTS}"
        )
    count = math.floor(steps) + 1
    # lo + i * step can round one ulp past hi
    return [min(lo + i * step, hi) for i in range(count)]


def calibrate_bias(
    predictions: Sequence[QueryPrediction],
    gts: Sequence[GtBox],
    lo: float = -3.0,
    hi: float = 3.0,
    step: float = 0.25,
    threshold: float = 0.90,
) -> tuple[float, list[tuple[float, DetectionReport]]]:
    """Grid-sweep the logit bias and return the Overall-maximizing value.

    Ties are broken toward the smallest |bias|, then toward the smaller bias.
    Returns (best_bias, curve) where curve lists (bias, report) in grid order.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    curve = [
        (bias, detection_report(predictions, gts, bias, threshold))
        for bias in bias_grid(lo, hi, step)
    ]
    best_bias, _ = min(curve, key=lambda item: (-item[1].overall, abs(item[0]), item[0]))
    return best_bias, curve


def write_curve_csv(curve: Sequence[tuple[float, DetectionReport]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bias", "precision", "recall", "f1", "miou", "overall"])
        for bias, report in curve:
            writer.writerow(
                [
                    repr(bias),
                    repr(report.precision),
                    repr(report.recall),
                    repr(report.f1),
                    repr(report.miou),
                    repr(report.overall),
                ]
            )
