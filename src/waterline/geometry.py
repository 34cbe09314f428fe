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
roll rotation in scalar arithmetic, the product orientation_matrix gives.

Angles are degrees at every public interface and radians internally.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Annotated

import numpy as np

from .errors import Bounds, Config, ConfigError, write_json
from .features import ChartQuery, ImuSample

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
    x = query.distance_m * math.sin(beta)
    y = query.distance_m * math.cos(beta)
    z = -camera.mount_height_m

    # Into the body frame: the transposed pitch rotation, then the transposed roll.
    theta, phi = math.radians(imu.pitch_deg), math.radians(imu.roll_deg)
    cp, sp = math.cos(theta), math.sin(theta)
    cr, sr = math.cos(phi), math.sin(phi)
    y, z = cp * y + sp * z, cp * z - sp * y
    x, z = cr * x - sr * z, sr * x + cr * z

    # Camera frame: X = body x, Y = -body z, depth Z = body y.
    if y <= DEPTH_EPS_M:
        return None
    u = camera.principal_u + camera.focal_px * x / y
    v = camera.principal_v - camera.focal_px * z / y
    return PixelPoint(u=float(u), v=float(v))


def in_frame(camera: CameraModel, p: PixelPoint) -> bool:
    """True iff the pixel lies inside the image (half-open on the far edges)."""
    return 0.0 <= p.u < camera.image_w and 0.0 <= p.v < camera.image_h
