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

Angles are degrees at every public interface and radians internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, load_json, reject_non_finite
from .features import ChartQuery, ImuSample

# Camera-frame depth below which a point counts as behind the image plane.
DEPTH_EPS_M = 1e-6

CAMERA_JSON_KEYS = ("focal_px", "principal_u", "principal_v", "image_w", "image_h", "mount_height_m")


@dataclass(frozen=True)
class CameraModel:
    """Distortion-free pinhole camera plus its mounting height."""

    focal_px: float
    principal_u: float
    principal_v: float
    image_w: int
    image_h: int
    mount_height_m: float

    def __post_init__(self):
        reject_non_finite(self)
        if not (self.focal_px > 0 and self.image_w > 0 and self.image_h > 0):
            raise ConfigError("focal length and image dimensions must be positive")
        if not self.mount_height_m > 0:
            raise ConfigError("camera mount height must be positive")
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

    def to_dict(self) -> dict:
        return {
            "focal_px": self.focal_px,
            "principal_u": self.principal_u,
            "principal_v": self.principal_v,
            "image_w": self.image_w,
            "image_h": self.image_h,
            "mount_height_m": self.mount_height_m,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CameraModel":
        missing = [k for k in CAMERA_JSON_KEYS if k not in data]
        if missing:
            raise ConfigError(f"camera config missing keys: {missing}")
        try:
            return cls(
                focal_px=float(data["focal_px"]),
                principal_u=float(data["principal_u"]),
                principal_v=float(data["principal_v"]),
                image_w=int(data["image_w"]),
                image_h=int(data["image_h"]),
                mount_height_m=float(data["mount_height_m"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:  # int() of inf overflows
            raise ConfigError(f"camera config has a non-numeric field: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "CameraModel":
        return cls.from_dict(load_json(path, "camera config", ConfigError))


@dataclass(frozen=True)
class PixelPoint:
    u: float
    v: float


def orientation_matrix(imu: ImuSample) -> np.ndarray:
    """Body-to-reference rotation for the intrinsic sequence heading -> pitch -> roll.

    Columns are the body axes (starboard, forward, up) expressed in the
    reference frame. Orthonormal with determinant +1.
    """
    imu.validate()
    psi = math.radians(imu.heading_deg)
    theta = math.radians(imu.pitch_deg)
    phi = math.radians(imu.roll_deg)

    ch, sh = math.cos(psi), math.sin(psi)
    cp, sp = math.cos(theta), math.sin(theta)
    cr, sr = math.cos(phi), math.sin(phi)

    # Heading about up (z), compass sense (clockwise seen from above).
    r_head = np.array([[ch, sh, 0.0], [-sh, ch, 0.0], [0.0, 0.0, 1.0]])
    # Pitch about starboard (x), positive bow-up.
    r_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    # Roll about forward (y), positive starboard-down.
    r_roll = np.array([[cr, 0.0, sr], [0.0, 1.0, 0.0], [-sr, 0.0, cr]])

    return r_head @ r_pitch @ r_roll


def project(camera: CameraModel, imu: ImuSample, query: ChartQuery) -> PixelPoint | None:
    """Project a chart query's waterline point into the image.

    Returns None when the point falls at or behind the image plane
    (camera-frame depth <= DEPTH_EPS_M). Points in front of the camera but
    outside the frame are still returned; use in_frame to test containment.

    Bearing is vessel-relative and the camera is body-fixed, so the heading
    rotation cancels analytically (rotating the buoy azimuth up by heading and
    the camera frame back down by the same angle). The cancellation is applied
    here in closed form rather than numerically, which keeps on-axis targets
    exactly on the principal column.
    """
    query.validate()
    imu.validate()

    # Buoy position relative to the camera center, in the heading-aligned
    # water-plane frame (x starboard, y forward, z up).
    beta = math.radians(query.bearing_deg)
    p_rel = np.array(
        [
            query.distance_m * math.sin(beta),
            query.distance_m * math.cos(beta),
            -camera.mount_height_m,
        ]
    )

    r = orientation_matrix(
        ImuSample(pitch_deg=imu.pitch_deg, roll_deg=imu.roll_deg, heading_deg=0.0)
    )
    p_body = r.T @ p_rel

    x_cam = p_body[0]
    y_cam = -p_body[2]
    z_cam = p_body[1]
    if z_cam <= DEPTH_EPS_M:
        return None

    u = camera.principal_u + camera.focal_px * x_cam / z_cam
    v = camera.principal_v + camera.focal_px * y_cam / z_cam
    return PixelPoint(u=float(u), v=float(v))


def in_frame(camera: CameraModel, p: PixelPoint) -> bool:
    """True iff the pixel lies inside the image (half-open on the far edges)."""
    return 0.0 <= p.u < camera.image_w and 0.0 <= p.v < camera.image_h
