"""Scan accumulation into submaps, plus wall-model and submap file I/O.

Wall models are plain text: one wall per line as `x1 y1 x2 y2` (meters),
`#` starts a comment, and an optional `floor <id>` header opens a new
floor section. Submaps are little-endian binary: magic ``L2B1``, gravity
as 3 f32, a u32 point count, then f32 x,y,z triples.
"""

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyModel, InsufficientTravel, InvalidSubmap, ParseError, VersionMismatch
from .geometry import LineSegment2, Se2Pose

SUBMAP_MAGIC = b"L2B1"

__all__ = [
    "ScanSequence",
    "Submap",
    "WallModel",
    "voxel_downsample",
    "accumulate_submap",
    "load_wall_model",
    "load_wall_models",
    "save_wall_model",
    "save_wall_models",
    "load_submap",
    "save_submap",
    "load_pose",
    "save_pose",
]


def _unit_gravity(gravity) -> np.ndarray:
    """Normalized gravity; InvalidSubmap when it is zero or not finite."""
    g = np.asarray(gravity, dtype=float)
    norm = np.linalg.norm(g)
    if not (np.isfinite(norm) and norm > 0.0):
        raise InvalidSubmap("gravity must be finite and non-zero, got %s" % (g,))
    return g / norm


@dataclass
class ScanSequence:
    """Consecutive sensor-frame scans with world-frame poses.

    scans: list of (timestamp, (N, 3) point array); poses: matching list
    of 4x4 world-from-body transforms; gravity: world-frame down vector,
    normalized on construction (InvalidSubmap if zero or not finite).
    """

    scans: List[Tuple[float, np.ndarray]]
    poses: List[np.ndarray]
    gravity: np.ndarray

    def __post_init__(self):
        if len(self.scans) != len(self.poses):
            raise ValueError("scans and poses must have the same length")
        stamps = [t for t, _ in self.scans]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("timestamps must be strictly increasing")
        self.gravity = _unit_gravity(self.gravity)


@dataclass
class Submap:
    """World-frame, voxel-downsampled point cloud with its gravity vector."""

    points: np.ndarray
    gravity: np.ndarray
    source_span_m: float = 0.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise InvalidSubmap("submap has non-finite points")
        self.gravity = _unit_gravity(self.gravity)


@dataclass
class WallModel:
    """Per-floor set of 2D wall segments; corners are filled downstream."""

    floor_id: str
    walls: List[LineSegment2]
    corners: list = field(default_factory=list)

    def as_array(self) -> np.ndarray:
        """Walls as an (W, 4) array of x1 y1 x2 y2 rows."""
        if not self.walls:
            return np.zeros((0, 4))
        return np.array([[w.p0[0], w.p0[1], w.p1[0], w.p1[1]] for w in self.walls])


def voxel_downsample(points: np.ndarray, r_v: float) -> np.ndarray:
    """One representative point (the centroid) per occupied r_v voxel.

    Output rows are ordered by voxel index, so the result is independent
    of the input point order up to summation rounding.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        return pts
    keys = np.floor(pts / r_v).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(float)
    out = np.empty((uniq.shape[0], 3))
    for c in range(3):
        out[:, c] = np.bincount(inverse, weights=pts[:, c], minlength=uniq.shape[0])
    return out / counts[:, None]


def _path_lengths(poses: Sequence[np.ndarray]) -> np.ndarray:
    t = np.array([p[:3, 3] for p in poses])
    steps = np.linalg.norm(np.diff(t, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def accumulate_submap(seq: ScanSequence, r_v: float, d_s: float) -> Submap:
    """Union the minimum scan prefix spanning d_s meters, then downsample.

    Each scan is mapped into the world frame through its pose before the
    union; the voxel filter keeps one centroid per r_v cell. d_s <= 0
    accumulates the whole sequence. Raises InsufficientTravel when the
    full odometry path is shorter than d_s.
    """
    if r_v <= 0.0:
        raise ValueError("r_v must be positive")
    if not seq.scans:
        raise ValueError("empty scan sequence")
    path = _path_lengths(seq.poses)
    if d_s > 0.0:
        if path[-1] < d_s:
            raise InsufficientTravel(f"path length {path[-1]:.3f} m < d_s {d_s:.3f} m")
        n = int(np.argmax(path >= d_s)) + 1
    else:
        n = len(seq.scans)

    clouds = []
    for (_, pts), pose in zip(seq.scans[:n], seq.poses[:n]):
        p = np.asarray(pts, dtype=float).reshape(-1, 3)
        clouds.append(p @ pose[:3, :3].T + pose[:3, 3])
    merged = np.vstack(clouds)
    return Submap(voxel_downsample(merged, r_v), seq.gravity, float(path[n - 1]))


# ---------------------------------------------------------------------------
# Wall model text format
# ---------------------------------------------------------------------------

def _format_float(v: float) -> str:
    return repr(float(v))


def load_wall_models(path) -> List[WallModel]:
    """Parse a wall-model file into one WallModel per floor section."""
    models: List[WallModel] = []
    current: Optional[WallModel] = None
    with open(path, "r") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if tokens[0] == "floor":
                if len(tokens) != 2:
                    raise ParseError(f"{path}:{lineno}: malformed floor header")
                current = WallModel(tokens[1], [])
                models.append(current)
                continue
            if len(tokens) != 4:
                raise ParseError(f"{path}:{lineno}: expected 'x1 y1 x2 y2', got {line!r}")
            try:
                x1, y1, x2, y2 = (float(t) for t in tokens)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric coordinate in {line!r}")
            if current is None:
                current = WallModel("0", [])
                models.append(current)
            try:
                current.walls.append(LineSegment2(np.array([x1, y1]), np.array([x2, y2])))
            except Exception:
                raise ParseError(f"{path}:{lineno}: zero-length or invalid wall")
    if not models or all(not m.walls for m in models):
        raise EmptyModel(f"{path}: no walls found")
    return models


def load_wall_model(path, floor_id: Optional[str] = None) -> WallModel:
    """Load a single floor; `floor_id` selects one from a multi-floor file."""
    models = load_wall_models(path)
    if floor_id is not None:
        for m in models:
            if m.floor_id == floor_id:
                return m
        raise ParseError(f"{path}: no floor {floor_id!r}")
    if len(models) != 1:
        raise ParseError(f"{path}: file holds {len(models)} floors; pass floor_id")
    return models[0]


def save_wall_models(models: Sequence[WallModel], path) -> None:
    lines = []
    for m in models:
        lines.append(f"floor {m.floor_id}")
        for w in m.walls:
            lines.append(" ".join(_format_float(v) for v in (w.p0[0], w.p0[1], w.p1[0], w.p1[1])))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def save_wall_model(model: WallModel, path) -> None:
    save_wall_models([model], path)


# ---------------------------------------------------------------------------
# Submap binary format
# ---------------------------------------------------------------------------

def save_submap(submap: Submap, path) -> None:
    pts = np.ascontiguousarray(submap.points, dtype="<f4")
    with open(path, "wb") as f:
        f.write(SUBMAP_MAGIC)
        f.write(np.asarray(submap.gravity, dtype="<f4").tobytes())
        f.write(struct.pack("<I", pts.shape[0]))
        f.write(pts.tobytes())


def load_submap(path) -> Submap:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != SUBMAP_MAGIC:
        raise VersionMismatch(f"{path}: bad magic {data[:4]!r}")
    header = 4 + 12 + 4
    if len(data) < header:
        raise ParseError(f"{path}: truncated header")
    gravity = np.frombuffer(data, dtype="<f4", count=3, offset=4).astype(float)
    (count,) = struct.unpack_from("<I", data, 16)
    if len(data) != header + 12 * count:
        raise ParseError(f"{path}: expected {count} points, file size mismatch")
    pts = np.frombuffer(data, dtype="<f4", count=3 * count, offset=header)
    try:
        return Submap(pts.reshape(-1, 3).astype(float), gravity)
    except InvalidSubmap as exc:
        raise InvalidSubmap(f"{path}: {exc}") from None


def save_pose(pose: Se2Pose, path) -> None:
    """One-line text file: `x y yaw` with exact round-trip floats."""
    with open(path, "w") as f:
        f.write("%s %s %s\n" % (_format_float(pose.x), _format_float(pose.y), _format_float(pose.yaw)))


def load_pose(path) -> Se2Pose:
    with open(path, "r") as f:
        parts = f.read().split()
    if len(parts) != 3:
        raise ParseError(f"{path}: expected `x y yaw`")
    try:
        x, y, yaw = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"{path}: bad pose value")
    return Se2Pose(x, y, yaw)
