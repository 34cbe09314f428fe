"""Input construction for the waterline predictor and the downstream decoder.

Six network inputs, in fixed order:

    0  dist_norm     d / 1000            (1000 m = maximum operating range)
    1  inv_dist      1000 / d, clamped to [0, 10] (saturates at 100 m)
    2  bearing_norm  bearing / 180
    3  pitch_norm    pitch / 10
    4  roll_norm     roll / 10
    5  heading_norm  heading / 180

All math is 64-bit. Angles are degrees at this interface. ChartQuery and
ImuSample check their ranges when built, so a function that takes one trusts it.

build_features, waterline_target and build_decoder_query are the per-frame
forms, on Python floats, for the serve path's 1-3 queries. feature_matrix,
waterline_targets and decoder_queries are their whole-set forms, bit-equal
row by row, for a file's worth of queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import GtBox

FEATURE_NAMES = ("dist_norm", "inv_dist", "bearing_norm", "pitch_norm", "roll_norm", "heading_norm")

DIST_SCALE_M = 1000.0
INV_DIST_MAX = 10.0
BEARING_SCALE_DEG = 180.0
PITCH_ROLL_SCALE_DEG = 10.0
HEADING_SCALE_DEG = 180.0

# Tolerance for a box bottom edge marginally below the frame (labels are often
# stored at float32 precision upstream).
BOTTOM_EDGE_EPS = 1e-6

# The errors of the per-frame and whole-set forms, worded once.
_BELOW_FRAME = "box bottom edge {} extends below the frame"
_OUTSIDE_UNIT_SQUARE = "predicted waterline point must lie in [0, 1]^2, got {}"


@dataclass(frozen=True)
class ChartQuery:
    """One nautical-chart buoy entry: range and bearing relative to the vessel."""

    distance_m: float
    bearing_deg: float

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not 0.0 < self.distance_m < math.inf:
            raise ValueError(f"chart distance must be positive and finite, got {self.distance_m}")
        if not -180.0 <= self.bearing_deg <= 180.0:
            raise ValueError(f"bearing must lie in [-180, 180], got {self.bearing_deg}")


@dataclass(frozen=True)
class ImuSample:
    """Vessel orientation at capture time, degrees."""

    pitch_deg: float
    roll_deg: float
    heading_deg: float

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not -90.0 <= self.pitch_deg <= 90.0:
            raise ValueError(f"pitch must lie in [-90, 90], got {self.pitch_deg}")
        if not -90.0 <= self.roll_deg <= 90.0:
            raise ValueError(f"roll must lie in [-90, 90], got {self.roll_deg}")
        if not -180.0 <= self.heading_deg <= 180.0:
            raise ValueError(f"heading must lie in [-180, 180], got {self.heading_deg}")


def wrap_angle_deg(angle):
    """Wrap an angle, or an array of angles, into [-180, 180] (the convention
    used on ingestion)."""
    wrapped = (angle + 180.0) % 360.0 - 180.0
    # keep +180 as +180 rather than -180
    if isinstance(wrapped, np.ndarray):
        wrapped[(wrapped == -180.0) & (angle > 0)] = 180.0
        return wrapped
    if wrapped == -180.0 and angle > 0:
        return 180.0
    return wrapped


def build_features(query: ChartQuery, imu: ImuSample) -> np.ndarray:
    """Return the six normalized inputs as a float64 vector."""
    d = float(query.distance_m)
    inv_dist = min(max(DIST_SCALE_M / d, 0.0), INV_DIST_MAX)
    return np.array(
        [
            d / DIST_SCALE_M,
            inv_dist,
            query.bearing_deg / BEARING_SCALE_DEG,
            imu.pitch_deg / PITCH_ROLL_SCALE_DEG,
            imu.roll_deg / PITCH_ROLL_SCALE_DEG,
            imu.heading_deg / HEADING_SCALE_DEG,
        ],
        dtype=np.float64,
    )


def feature_matrix(distance_m, bearing_deg, pitch_deg, roll_deg, heading_deg) -> np.ndarray:
    """build_features of m queries at once: the (m, 6) inputs from five (m,)
    columns, which the caller took from valid queries and attitudes."""
    feats = np.empty((len(distance_m), 6))
    feats[:, 0] = distance_m / DIST_SCALE_M
    feats[:, 1] = np.minimum(np.maximum(DIST_SCALE_M / distance_m, 0.0), INV_DIST_MAX)
    feats[:, 2] = bearing_deg / BEARING_SCALE_DEG
    feats[:, 3] = pitch_deg / PITCH_ROLL_SCALE_DEG
    feats[:, 4] = roll_deg / PITCH_ROLL_SCALE_DEG
    feats[:, 5] = heading_deg / HEADING_SCALE_DEG
    return feats


def waterline_target(box: GtBox) -> tuple[float, float]:
    """Bottom-center of a ground-truth box: the waterline contact point.

    Returns (c_x, c_y + h/2) in normalized image coordinates. A box whose
    bottom edge falls below the frame by more than a small tolerance is an
    invalid label.
    """
    if not box.visible:
        raise ValueError("waterline target is undefined for an invisible query")
    bottom = box.c_y + box.h / 2.0
    if bottom > 1.0 + BOTTOM_EDGE_EPS:
        raise ValueError(_BELOW_FRAME.format(bottom))
    return (box.c_x, min(bottom, 1.0))


def waterline_targets(boxes: np.ndarray) -> np.ndarray:
    """waterline_target of each row of an (m, 4) array of visible boxes: (m, 2)."""
    bottom = boxes[:, 1] + boxes[:, 3] / 2.0
    below = bottom > 1.0 + BOTTOM_EDGE_EPS
    if below.any():
        raise ValueError(_BELOW_FRAME.format(float(bottom[below.argmax()])))
    return np.column_stack((boxes[:, 0], np.minimum(bottom, 1.0)))


def build_decoder_query(query: ChartQuery, predicted: tuple[float, float]) -> np.ndarray:
    """Concatenate normalized (distance, bearing) with a predicted waterline point.

    The result is the 4-vector consumed by the downstream detection decoder:
    [dist_norm, bearing_norm, c_x, c_y + h/2]. Pure concatenation, no rescaling.
    """
    c_x, c_y_plus_half_h = predicted
    if not (0.0 <= c_x <= 1.0 and 0.0 <= c_y_plus_half_h <= 1.0):
        raise ValueError(_OUTSIDE_UNIT_SQUARE.format(predicted))
    return np.array(
        [
            query.distance_m / DIST_SCALE_M,
            query.bearing_deg / BEARING_SCALE_DEG,
            c_x,
            c_y_plus_half_h,
        ],
        dtype=np.float64,
    )


def decoder_queries(features: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """build_decoder_query of m queries at once: (m, 4) rows from the (m, 6)
    features (columns 0 and 2 are dist_norm and bearing_norm) and the (m, 2)
    predicted waterline points."""
    inside = ((predicted >= 0.0) & (predicted <= 1.0)).all(axis=1)
    if not inside.all():
        raise ValueError(_OUTSIDE_UNIT_SQUARE.format(tuple(predicted[inside.argmin()].tolist())))
    return np.column_stack((features[:, 0], features[:, 2], predicted))
