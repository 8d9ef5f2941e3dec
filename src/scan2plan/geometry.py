"""Planar rigid transforms and the closed-form 2D alignment primitive.

Points are plain float64 ndarrays: shape (2,) / (N, 2) in 2D and (3,) /
(N, 3) in 3D. Yaw angles are radians, always normalized to [-pi, pi).
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateInput

__all__ = [
    "Se2Pose",
    "LineSegment2",
    "normalize_angle",
    "solve_se2_batch",
    "pose_errors",
    "registration_success",
]


def normalize_angle(angle):
    """Wrap an angle (scalar or array, radians) to [-pi, pi)."""
    return np.mod(angle + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class Se2Pose:
    """Rigid transform of the plane: rotation by `yaw` then translation.

    Immutable; composition and inverse satisfy the group axioms up to
    floating point. Yaw is re-wrapped to [-pi, pi) on construction; a
    non-finite x, y or yaw raises ValueError.
    """

    x: float
    y: float
    yaw: float

    def __post_init__(self):
        x, y, yaw = float(self.x), float(self.y), float(self.yaw)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(yaw)):
            raise ValueError("pose must be finite, got Se2Pose(x=%r, y=%r, yaw=%r)" % (x, y, yaw))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "yaw", float(normalize_angle(yaw)))

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def rotation(self) -> np.ndarray:
        """The 2x2 rotation matrix."""
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        return np.array([[c, -s], [s, c]])

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (2,) or a batch (N, 2)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation().T + self.translation

    def compose(self, other: "Se2Pose") -> "Se2Pose":
        """self o other: apply `other` first, then `self`."""
        t = self.apply(other.translation)
        return Se2Pose(t[0], t[1], self.yaw + other.yaw)

    def inverse(self) -> "Se2Pose":
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        return Se2Pose(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.yaw)


@dataclass(frozen=True)
class LineSegment2:
    """2D segment with finite endpoints and positive length."""

    p0: np.ndarray
    p1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=float))
        if not (np.all(np.isfinite(self.p0)) and np.all(np.isfinite(self.p1))):
            raise DegenerateInput("segment endpoints must be finite")
        if self.length <= 0.0:
            raise DegenerateInput("segment has zero length")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))


def solve_se2_batch(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form rigid alignment of M correspondences of shape (M, K, 2).

    Umeyama's least-squares solution (TPAMI 1991) restricted to proper
    rotations in 2D: over the demeaned points, the best yaw is
    atan2(sum(sx*dy - sy*dx), sum(sx*dx + sy*dy)), and the translation
    maps the source centroid onto the destination centroid. Returns
    arrays (x, y, yaw, rms) of length M, rms over the K point residuals.

    Degenerate rows are not rejected here: when all source points
    coincide both sums are zero, so yaw is 0, the centroids still fix the
    translation and the residual (the spread of dst) does the gating
    downstream. A mirrored row gets its best proper rotation and a large
    residual.
    """
    s = np.asarray(src, dtype=float)
    d = np.asarray(dst, dtype=float)
    s_mean = s.mean(axis=1)
    d_mean = d.mean(axis=1)
    sx, sy = (s - s_mean[:, None]).transpose(2, 0, 1)
    dx, dy = (d - d_mean[:, None]).transpose(2, 0, 1)
    yaw = np.arctan2(np.sum(sx * dy - sy * dx, axis=1), np.sum(sx * dx + sy * dy, axis=1))
    c, sn = np.cos(yaw), np.sin(yaw)
    tx = d_mean[:, 0] - (c * s_mean[:, 0] - sn * s_mean[:, 1])
    ty = d_mean[:, 1] - (sn * s_mean[:, 0] + c * s_mean[:, 1])
    rx = c[:, None] * s[..., 0] - sn[:, None] * s[..., 1] + tx[:, None] - d[..., 0]
    ry = sn[:, None] * s[..., 0] + c[:, None] * s[..., 1] + ty[:, None] - d[..., 1]
    rms = np.sqrt(np.mean(rx**2 + ry**2, axis=1))
    return tx, ty, yaw, rms


def _lift_to_3d(pose: Se2Pose) -> Tuple[np.ndarray, np.ndarray]:
    """3D rotation/translation with zero roll, pitch and z."""
    r = np.eye(3)
    r[:2, :2] = pose.rotation()
    t = np.array([pose.x, pose.y, 0.0])
    return r, t


def pose_errors(est: Se2Pose, gt: Se2Pose) -> Tuple[float, float]:
    """(geodesic rotation error in degrees, body-frame translation error in m).

    Poses are lifted to 3D with zero roll/pitch/z; the arccos argument is
    clamped to [-1, 1] so exact matches do not trip on rounding.
    """
    r_est, t_est = _lift_to_3d(est)
    r_gt, t_gt = _lift_to_3d(gt)
    cos_arg = np.clip((np.trace(r_est.T @ r_gt) - 1.0) / 2.0, -1.0, 1.0)
    rot_err = float(np.degrees(np.arccos(cos_arg)))
    trans_err = float(np.linalg.norm(r_est.T @ (t_gt - t_est)))
    return rot_err, trans_err


def registration_success(est: Se2Pose, gt: Se2Pose, rot_tol_deg: float = 5.0, trans_tol_m: float = 3.0) -> bool:
    """Success test: both pose errors under their tolerances."""
    if rot_tol_deg <= 0.0 or trans_tol_m <= 0.0:
        raise ValueError("tolerances must be positive")
    rot_err, trans_err = pose_errors(est, gt)
    return bool(rot_err < rot_tol_deg and trans_err < trans_tol_m)
