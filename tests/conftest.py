import math

import numpy as np
import pytest

from waterline.data import SampleRecord
from waterline.features import ChartQuery, ImuSample
from waterline.geometry import CameraModel, project
from waterline.metrics import Detections, GtBox


@pytest.fixture
def camera():
    return CameraModel.default()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def project_point(camera, imu, query):
    """The package's array project on one query: (u, v) as floats, or None
    where it returns NaN (at or behind the image plane)."""
    u, v = project(camera, imu.pitch_deg, imu.roll_deg, query.distance_m, query.bearing_deg)
    return None if math.isnan(u) else (float(u), float(v))


def random_imu(rng, pitch_roll=10.0):
    return ImuSample(
        pitch_deg=rng.uniform(-pitch_roll, pitch_roll),
        roll_deg=rng.uniform(-pitch_roll, pitch_roll),
        heading_deg=rng.uniform(-180.0, 180.0),
    )


def random_query(rng, max_bearing=40.0):
    return ChartQuery(
        distance_m=rng.uniform(5.0, 1000.0),
        bearing_deg=rng.uniform(-max_bearing, max_bearing),
    )


def hand_made_records():
    """Valid records that a JSONL writer must escape and format as json does:
    sample ids with non-ASCII, astral, control, quote, backslash and % characters;
    -0.0, 5e-324 (a distance, whose 1000 / d overflows), 1e16, int and numpy float64
    fields."""
    return [
        SampleRecord('naïve "quoted" back\\slash 100%', ImuSample(np.float64(1.5), 0, -0.0),
                     (ChartQuery(1e16, -0.0), ChartQuery(np.float64(5e-324), 12.25)),
                     (GtBox(False), GtBox(True, 0.5, np.float64(0.25), 0.01, 0.02))),
        SampleRecord("日本 \U0001d518 %s\t", ImuSample(0.5, -90.0, 180), (), ()),
        SampleRecord("%d", ImuSample(-0.0, 3, 45.5), (ChartQuery(5, 180),), (GtBox(False),)),
    ]


def detections(rows):
    """Detections of (logit, box, gt_box) rows; a gt_box of None marks a query
    whose buoy is not visible."""
    return Detections(
        logits=np.array([float(logit) for logit, _, _ in rows]),
        boxes=np.array([box for _, box, _ in rows], dtype=np.float64).reshape(-1, 4),
        gt_visible=np.array([gt is not None for _, _, gt in rows], dtype=bool),
        gt_boxes=np.array([(0.0,) * 4 if gt is None else gt for _, _, gt in rows],
                          dtype=np.float64).reshape(-1, 4),
    )


def miscalibrated_instance(rng, shift=0.5, n=400):
    """Queries scored by a well-calibrated detector, then inflated by +shift.

    The reference scorer concentrates visible logits above and invisible
    logits below the working point logit(0.9) ~ 2.197 symmetrically, so zero
    bias is optimal before the shift and ~ -shift after it.
    """
    center = math.log(0.9 / 0.1)
    rows = []
    for _ in range(n):
        visible = rng.random() < 0.55
        if visible:
            box = (rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75), 0.2, 0.2)
            logit = center + 2.5 + rng.normal(0, 1.2)
            pred_box = (
                box[0] + rng.normal(0, 0.02),
                box[1] + rng.normal(0, 0.02),
                0.2,
                0.2,
            )
        else:
            box = None
            logit = center - 2.5 + rng.normal(0, 1.2)
            pred_box = (rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75), 0.2, 0.2)
        rows.append((logit + shift, pred_box, box))
    return detections(rows)
