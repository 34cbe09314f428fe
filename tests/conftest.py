import math

import numpy as np
import pytest

from waterline.features import ChartQuery, ImuSample
from waterline.geometry import CameraModel, project
from waterline.metrics import GtBox, QueryPrediction


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


def miscalibrated_instance(rng, shift=0.5, n=400):
    """Queries scored by a well-calibrated detector, then inflated by +shift.

    The reference scorer concentrates visible logits above and invisible
    logits below the working point logit(0.9) ~ 2.197 symmetrically, so zero
    bias is optimal before the shift and ~ -shift after it.
    """
    center = math.log(0.9 / 0.1)
    preds = []
    gts = []
    for _ in range(n):
        visible = rng.random() < 0.55
        if visible:
            box = (rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75), 0.2, 0.2)
            gts.append(GtBox(True, *box))
            logit = center + 2.5 + rng.normal(0, 1.2)
            pred_box = (
                box[0] + rng.normal(0, 0.02),
                box[1] + rng.normal(0, 0.02),
                0.2,
                0.2,
            )
        else:
            gts.append(GtBox(False))
            logit = center - 2.5 + rng.normal(0, 1.2)
            pred_box = (rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75), 0.2, 0.2)
        preds.append(QueryPrediction(float(logit + shift), pred_box))
    return preds, gts
