"""Pinhole-camera projection of buoy waterline points onto the image.

This is the deterministic geometric reference the learned predictor is
trained against: from chart range/bearing and vessel attitude it computes
where the buoy meets the water in the image.

Coordinate conventions
======================
Reference (water-plane) frame, right-handed:
    x: east, y: north, z: up. Origin at the point on the water plane
    directly beneath the camera. The water plane is z = 0.

Vessel body frame:
    x: starboard, y: forward (bow), z: up. Obtained from the reference frame
    by the intrinsic rotation sequence heading -> pitch -> roll:
      - heading: rotation about the up axis, compass sense (positive turns
        the bow from north toward east),
      - pitch: rotation about the starboard axis, positive bow-up,
      - roll: rotation about the forward axis, positive starboard-down.

Camera:
    Body-fixed, optical axis along body +y (forward), mounted
    ``mount_height_m`` above the water plane. Camera frame follows the
    computer-vision convention: X right (= body x), Y down (= -body z),
    Z forward (= body y). Pixel u grows rightward, v grows downward.

Chart bearing is relative to the vessel heading, so the buoy's absolute
azimuth is heading + bearing; for noise-free inputs the heading cancels out
of the projection, as it must for a body-fixed camera.

``project`` builds no matrix: it turns the offset (d sin(bearing),
d cos(bearing), -mount height) by the transposed pitch, then the transposed
roll rotation, elementwise over whole arrays of queries. Each element takes
the scalar formula's operations in the same order; where numpy's sin and cos
round as the C library's do, the pixels equal a one-query-at-a-time
evaluation in Python floats bit for bit (tests/oracles.py's scalar_project
and scalar_generate are that evaluation).

Angles are degrees at every public interface and radians internally.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Annotated

import numpy as np

from .errors import Bounds, Config, ConfigError, write_json

# Camera-frame depth below which a point counts as behind the image plane.
DEPTH_EPS_M = 1e-6


@dataclass(frozen=True)
class CameraModel(Config):
    """Distortion-free pinhole camera plus its mounting height."""

    label = "camera config"

    focal_px: Annotated[float, Bounds(0, lo_open=True)]
    principal_u: float
    principal_v: float
    image_w: Annotated[int, Bounds(1)]
    image_h: Annotated[int, Bounds(1)]
    mount_height_m: Annotated[float, Bounds(0, lo_open=True)]

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.principal_u <= self.image_w and 0 <= self.principal_v <= self.image_h):
            raise ConfigError("principal point must lie within the image")

    @classmethod
    def default(cls) -> "CameraModel":
        return cls(
            focal_px=600.0,
            principal_u=480.0,
            principal_v=270.0,
            image_w=960,
            image_h=540,
            mount_height_m=3.0,
        )

    def save(self, path) -> None:
        write_json(path, asdict(self))


def project(camera: CameraModel, pitch_deg, roll_deg, distance_m, bearing_deg):
    """Project chart queries' waterline points into the image.

    Takes floats or equal-length arrays (pitch and roll per query) and
    returns the pixel coordinates (u, v) with the same shape. Both are NaN
    where the point falls at or behind the image plane (camera-frame depth
    <= DEPTH_EPS_M). Points in front of the camera but outside the frame are
    still returned; use in_frame to test containment. The inputs are trusted:
    ChartQuery and ImuSample hold the ranges they must satisfy.

    Bearing is vessel-relative and the camera is body-fixed, so the heading
    rotation cancels analytically (rotating the buoy azimuth up by heading and
    the camera frame back down by the same angle). The cancellation is applied
    here in closed form rather than numerically, which keeps on-axis targets
    exactly on the principal column.
    """
    # Buoy position relative to the camera center, in the heading-aligned
    # water-plane frame (x starboard, y forward, z up).
    beta = np.radians(bearing_deg)
    x = distance_m * np.sin(beta)
    y = distance_m * np.cos(beta)
    z = -camera.mount_height_m

    # Into the body frame: the transposed pitch rotation, then the transposed roll.
    theta, phi = np.radians(pitch_deg), np.radians(roll_deg)
    cp, sp = np.cos(theta), np.sin(theta)
    cr, sr = np.cos(phi), np.sin(phi)
    y, z = cp * y + sp * z, cp * z - sp * y
    x, z = cr * x - sr * z, sr * x + cr * z

    # Camera frame: X = body x, Y = -body z, depth Z = body y. A depth at or
    # behind the image plane becomes NaN before the divide, which then warns
    # about nothing.
    depth = np.where(y > DEPTH_EPS_M, y, np.nan)
    u = camera.principal_u + camera.focal_px * x / depth
    v = camera.principal_v - camera.focal_px * z / depth
    return u, v


def in_frame(camera: CameraModel, u, v):
    """True where the pixel lies inside the image (half-open on the far
    edges); floats or arrays, and a NaN coordinate is not in frame."""
    return (0.0 <= u) & (u < camera.image_w) & (0.0 <= v) & (v < camera.image_h)
