"""Planar rigid transforms and the closed-form 2D alignment primitive.

Points are plain float64 ndarrays of shape (2,) or (N, 2). Yaw angles
are radians, always normalized to [-pi, pi).
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
    Raises ValueError unless src and dst share one (M, K, 2) shape with
    K >= 1.

    Degenerate rows are not rejected here: when all source points
    coincide both sums are zero, so yaw is 0, the centroids still fix the
    translation and the residual (the spread of dst) does the gating
    downstream. A mirrored row gets its best proper rotation and a large
    residual.

    The work runs on contiguous component-major copies, (2, K, M), one
    point j at a time: each step is an element-wise pass over M values,
    and each sum over the K points starts at +0.0 and adds them in
    order. numpy's `mean(axis=1)` and `sum(axis=1)` over (M, K, 2) and
    (M, K) arrays add in that order for K < 8, so every result keeps
    their bits (checked at K = 3 against the strided formulation); for
    K >= 8 numpy sums a contiguous axis pairwise, and the last bit may
    differ from that.
    """
    s = np.asarray(src, dtype=float)
    d = np.asarray(dst, dtype=float)
    if s.ndim != 3 or s.shape[2] != 2 or d.shape != s.shape:
        raise ValueError("src and dst must share one (M, K, 2) shape, got %s and %s" % (s.shape, d.shape))
    m, k = s.shape[:2]
    if k == 0:
        raise ValueError("solve_se2_batch needs K >= 1 points per correspondence, got K = 0")
    s, d = (np.ascontiguousarray(a.transpose(2, 1, 0)) for a in (s, d))
    s_mean, d_mean = np.zeros((2, m)), np.zeros((2, m))
    for j in range(k):
        s_mean += s[:, j]
        d_mean += d[:, j]
    s_mean /= k
    d_mean /= k
    cross, dot = np.zeros(m), np.zeros(m)
    for j in range(k):
        sx, sy = s[:, j] - s_mean
        dx, dy = d[:, j] - d_mean
        cross += sx * dy - sy * dx
        dot += sx * dx + sy * dy
    yaw = np.arctan2(cross, dot)
    c, sn = np.cos(yaw), np.sin(yaw)
    tx = d_mean[0] - (c * s_mean[0] - sn * s_mean[1])
    ty = d_mean[1] - (sn * s_mean[0] + c * s_mean[1])
    sq = np.zeros(m)
    for j in range(k):
        rx = c * s[0, j] - sn * s[1, j] + tx - d[0, j]
        ry = sn * s[0, j] + c * s[1, j] + ty - d[1, j]
        sq += rx * rx + ry * ry
    return tx, ty, yaw, np.sqrt(sq / k)


def pose_errors(est: Se2Pose, gt: Se2Pose) -> Tuple[float, float]:
    """(rotation error in degrees, translation error in m).

    The rotation error is the wrapped yaw difference, the geodesic angle
    between the two rotations; the translation error is the distance
    between the translations, which a rotation into either body frame
    keeps. A pose compared with itself reads (0.0, 0.0) exactly.
    """
    rot_err = math.degrees(abs(float(normalize_angle(gt.yaw - est.yaw))))
    return rot_err, math.hypot(gt.x - est.x, gt.y - est.y)


def registration_success(est: Se2Pose, gt: Se2Pose, rot_tol_deg: float = 5.0, trans_tol_m: float = 3.0) -> bool:
    """Success test: both pose errors under their tolerances."""
    if rot_tol_deg <= 0.0 or trans_tol_m <= 0.0:
        raise ValueError("tolerances must be positive")
    rot_err, trans_err = pose_errors(est, gt)
    return bool(rot_err < rot_tol_deg and trans_err < trans_tol_m)
