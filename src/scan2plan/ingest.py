"""Submaps and wall models, with their file I/O.

Wall models are plain text: one wall per line as `x1 y1 x2 y2` (meters),
`#` starts a comment, and an optional `floor <id>` header opens a new
floor section. Submaps are little-endian binary: magic ``L2B1``, gravity
as 3 f32, a u32 point count, then f32 x,y,z triples.
"""

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import EmptyModel, InvalidSubmap, ParseError
from .geometry import LineSegment2, Se2Pose

SUBMAP_MAGIC = b"L2B1"

__all__ = [
    "Submap",
    "WallModel",
    "load_wall_models",
    "save_wall_models",
    "load_submap",
    "save_submap",
    "load_pose",
    "save_pose",
]


@dataclass
class Submap:
    """World-frame (N, 3) point cloud with its gravity vector, normalized.

    InvalidSubmap when the points are not (N, 3) or a point is not
    finite, or when gravity has not 3 elements or is zero or not finite.
    """

    points: np.ndarray
    gravity: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise InvalidSubmap("submap points must be (N, 3), got shape %s" % (self.points.shape,))
        if not np.all(np.isfinite(self.points)):
            raise InvalidSubmap("submap has non-finite points")
        g = np.asarray(self.gravity, dtype=float)
        if g.shape != (3,):
            raise InvalidSubmap("gravity must have 3 elements, got shape %s" % (g.shape,))
        norm = np.linalg.norm(g)
        if not (np.isfinite(norm) and norm > 0.0):
            raise InvalidSubmap("gravity must be finite and non-zero, got %s" % (g,))
        self.gravity = g / norm


@dataclass
class WallModel:
    """Per-floor set of 2D wall segments."""

    floor_id: str
    walls: List[LineSegment2]

    def endpoints(self) -> np.ndarray:
        """Walls as a (W, 2, 2) array of [p0, p1] rows, the segment array of `lines`."""
        return np.array([(w.p0, w.p1) for w in self.walls]).reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# Wall model text format
# ---------------------------------------------------------------------------

def _format_float(v: float) -> str:
    return repr(float(v))


def load_wall_models(path) -> List[WallModel]:
    """Parse a wall-model file into one WallModel per floor section.

    EmptyModel when the file holds no wall or a floor section holds none;
    ParseError on a malformed line or a floor id that opens a second
    section.
    """
    models: List[WallModel] = []
    opened: List[int] = []  # line of each section's header (its first wall if implicit)
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
                opened.append(lineno)
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
                opened.append(lineno)
            try:
                current.walls.append(LineSegment2(np.array([x1, y1]), np.array([x2, y2])))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: zero-length or invalid wall")
    if not any(m.walls for m in models):
        raise EmptyModel(f"{path}: no walls found")
    first = {}
    for m, lineno in zip(models, opened):
        where = f"{path}:{lineno}: floor {m.floor_id!r}"
        if m.floor_id in first:
            raise ParseError(f"{where} repeats the section opened at line {first[m.floor_id]}")
        if not m.walls:
            raise EmptyModel(f"{where} has no walls")
        first[m.floor_id] = lineno
    return models


def save_wall_models(models: Sequence[WallModel], path) -> None:
    lines = []
    for m in models:
        lines.append(f"floor {m.floor_id}")
        for w in m.walls:
            lines.append(" ".join(_format_float(v) for v in (w.p0[0], w.p0[1], w.p1[0], w.p1[1])))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
    """ParseError for a bad magic, a truncated header or a size that does
    not match the point count; InvalidSubmap for what `Submap` rejects."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != SUBMAP_MAGIC:
        raise ParseError(f"{path}: bad magic {data[:4]!r}")
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
    if not np.all(np.isfinite((x, y, yaw))):
        raise ParseError(f"{path}: non-finite pose value")
    return Se2Pose(x, y, yaw)
