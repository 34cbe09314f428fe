"""Evaluation metrics: pixel-error statistics for the waterline predictor and
per-query detection scoring (F1, mIoU, Overall) with logit-bias calibration.

Matching rule: the pipeline emits exactly one prediction per chart query, so
detections are matched to ground truth by query index, with no IoU gate; mIoU
averages over true-positive pairs only.

Detection scoring reads a detector file as columns (`Detections`). The bias
sweep is one pass over them: each bias is one array comparison
sigmoid(logits + bias) > threshold, tp/fp/fn are sums, and each true
positive's IoU is computed once, in one array call for those at the highest
bias, and reused at every bias where the pair is a true positive.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .network import sigmoid


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


class Detections(NamedTuple):
    """A detector's per-query output and its ground truth, as aligned columns:
    pre-sigmoid objectness logits (n,), predicted boxes (n, 4), ground-truth
    visibility (n,) bool and ground-truth boxes (n, 4), whose rows are zero
    where the buoy is not visible. Boxes are (c_x, c_y, w, h), normalized."""

    logits: np.ndarray
    boxes: np.ndarray
    gt_visible: np.ndarray
    gt_boxes: np.ndarray


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


def pixel_errors(pred: np.ndarray, targets: np.ndarray, image_w: float, image_h: float) -> list:
    """pixel_error of each row of two (m, 2) arrays, bit for bit: the offsets
    are array passes and math.hypot runs per row, since np.hypot can differ
    from it in the last bit."""
    du = (pred[:, 0] - targets[:, 0]) * image_w
    dv = (pred[:, 1] - targets[:, 1]) * image_h
    return list(map(math.hypot, du.tolist(), dv.tolist()))


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


def iou(a, b):
    """Intersection-over-union of center-format boxes: of two boxes as a
    float, or row by row of two (n, 4) arrays.

    Areas are computed from the same corner coordinates as the intersection,
    so identical boxes score exactly 1.0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (a[..., 2:] <= 0).any() or (b[..., 2:] <= 0).any():
        raise ValueError("iou requires boxes with positive width and height")
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    ax1, ax2 = ax - aw / 2, ax + aw / 2
    ay1, ay2 = ay - ah / 2, ay + ah / 2
    bx1, bx2 = bx - bw / 2, bx + bw / 2
    by1, by2 = by - bh / 2, by + bh / 2
    ix = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    iy = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    overlap = (ix > 0) & (iy > 0)
    inter = np.where(overlap, ix * iy, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    out = np.where(overlap, inter / union, 0.0)
    return float(out) if out.ndim == 0 else out


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def overall_score(f1: float, miou: float) -> float:
    """The challenge-style summary score: mean of F1 and mIoU."""
    return (f1 + miou) / 2.0


def detection_report(
    detections: Detections,
    logit_bias: float = 0.0,
    threshold: float = 0.90,
) -> DetectionReport:
    """Score per-query visibility decisions against ground truth.

    A query counts as predicted-visible when sigmoid(logit + logit_bias)
    exceeds ``threshold`` (strict comparison). Counting per aligned row:
    TP = predicted and actually visible, FP = predicted but not visible,
    FN = missed visible buoy. Convention at empty denominators: a precision
    (or recall) with no positive decisions is 1.0 when there was nothing to
    find, else 0.0 - this keeps the bias sweep total at extreme biases.
    """
    return _reports(detections, [logit_bias], threshold)[0]


def _reports(detections: Detections, biases: Sequence[float],
             threshold: float) -> list[DetectionReport]:
    """detection_report at each bias. One (n,) decision vector per bias keeps
    memory O(rows) at any grid size; the kept IoUs are summed in query order,
    by Python's sum like a loop over the rows."""
    logits, boxes, gt_visible, gt_boxes = detections
    sizes = [len(column) for column in detections]
    if len(set(sizes)) != 1:
        raise ValueError(f"detection columns must align, got {sizes} rows")
    n_visible = int(np.count_nonzero(gt_visible))
    ious = np.zeros(len(logits))
    scored = np.zeros(len(logits), dtype=bool)

    def score(hits):
        """Compute the IoUs of the true-positive pairs in `hits` not yet scored."""
        new = hits & ~scored
        if new.any():
            ious[new] = iou(boxes[new], gt_boxes[new])
            scored[new] = True

    # Decisions rise with the bias, so the true positives at the highest bias
    # take one iou call; a pair that is one only at a lower bias is scored there.
    score((sigmoid(logits + max(biases)) > threshold) & gt_visible)
    reports = []
    for bias in biases:
        visible = sigmoid(logits + bias) > threshold
        hits = visible & gt_visible
        score(hits)
        tp = int(np.count_nonzero(hits))
        fp = int(np.count_nonzero(visible)) - tp
        fn = n_visible - tp
        precision = tp / (tp + fp) if tp + fp else float(fn == 0)
        recall = tp / (tp + fn) if tp + fn else float(fp == 0)
        f1 = f1_from_pr(precision, recall)
        miou = sum(ious[hits].tolist()) / tp if tp else 0.0
        reports.append(
            DetectionReport(precision, recall, f1, miou, overall_score(f1, miou), tp, fp, fn)
        )
    return reports


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
    detections: Detections,
    lo: float = -3.0,
    hi: float = 3.0,
    step: float = 0.25,
    threshold: float = 0.90,
) -> tuple[float, list[tuple[float, DetectionReport]]]:
    """Grid-sweep the logit bias and return the Overall-maximizing value.

    Ties are broken toward the smallest |bias|, then toward the smaller bias.
    Returns (best_bias, curve) where curve lists (bias, report) in grid order.
    No predictions is a ValueError: every bias would score the same.
    """
    if len(detections.logits) == 0:
        raise ValueError("no predictions to calibrate on")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    grid = bias_grid(lo, hi, step)
    curve = list(zip(grid, _reports(detections, grid, threshold)))
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
