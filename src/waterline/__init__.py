"""Learned world-to-image projection of maritime buoy waterline points.

A small fully specified stack: a pinhole-camera geometric oracle, chart/IMU
feature construction, a from-scratch MLP with exact backprop, an AdamW +
cosine-annealing training loop, detection metrics with logit-bias
calibration, and a synthetic dataset generator tying them together.
"""

__version__ = "0.1.0"

from .data import generate_frames
from .features import ChartQuery, ImuSample, build_decoder_query, build_features, waterline_target
from .geometry import CameraModel, in_frame, project
from .metrics import (
    DetectionReport,
    Detections,
    ErrorStats,
    GtBox,
    calibrate_bias,
    detection_report,
    error_stats,
    iou,
    pixel_error,
)
from .network import (
    MlpParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    smooth_l1,
)
from .training import TrainConfig, TrainHistory, adamw_step, cosine_lr, train

__all__ = [
    "__version__",
    "CameraModel",
    "ChartQuery",
    "DetectionReport",
    "Detections",
    "ErrorStats",
    "GtBox",
    "ImuSample",
    "MlpParams",
    "TrainConfig",
    "TrainHistory",
    "adamw_step",
    "backward",
    "build_decoder_query",
    "build_features",
    "calibrate_bias",
    "cosine_lr",
    "detection_report",
    "error_stats",
    "forward",
    "generate_frames",
    "in_frame",
    "init_params",
    "iou",
    "load_checkpoint",
    "pixel_error",
    "project",
    "save_checkpoint",
    "smooth_l1",
    "train",
    "waterline_target",
]
