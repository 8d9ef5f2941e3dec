"""Seeded synthetic floorplans and posed LiDAR-like submaps.

The generator builds axis-aligned floorplans (rooms 3-10 m on a side,
optional central corridor, 1 m door gaps) and samples wall/ground/clutter
points so that the ground-truth pose maps the submap exactly onto the
model. Deviations mirror real as-built mismatch: dropped walls
(unconstructed), clutter planes (extra construction) and Gaussian noise.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import EmptyScene, check_positive
from .geometry import LineSegment2, Se2Pose
from .ingest import Submap, WallModel

WALL_HEIGHT_M = 2.5
SURFACE_DENSITY_PT_M2 = 100.0
DOOR_WIDTH_M = 1.0
# ground is never sampled this close to a wall: wall-base returns are
# dominated by the wall itself, and it keeps ground clear of dilated
# wall bands during verification even diagonally across corners, where
# the Chebyshev dilation reach exceeds the Euclidean one by sqrt(2)
GROUND_CLEARANCE_M = 1.75
# slack on the per-wall box cut of the clearance test, far above any
# rounding in the distances
CLEARANCE_CUT_MARGIN_M = 0.5
# a sensor is never placed this close to a wall
SENSOR_CLEARANCE_M = 0.8

__all__ = [
    "FloorLayout",
    "SyntheticScene",
    "generate_layout",
    "synthesize_submap",
    "random_interior_pose",
]


@dataclass
class FloorLayout:
    """A generated floorplan plus the room/corridor rectangles behind it."""

    wall_model: WallModel
    rooms: List[Tuple[float, float, float, float]]  # (x0, y0, x1, y1)
    corridor: Optional[Tuple[float, float, float, float]]


@dataclass
class SyntheticScene:
    """A submap and the ground-truth pose mapping it onto its wall model."""

    gt_pose: Se2Pose
    submap: Submap
    deviation_log: Dict = field(default_factory=dict)


def _box(width: float, height: float) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The outer shell: four walls round [0, width] x [0, height]."""
    c = [np.array(p) for p in ([0.0, 0.0], [width, 0.0], [width, height], [0.0, height])]
    return list(zip(c, c[1:] + c[:1]))


def _strip_width(rng, n: int, extent_m: float, cap: float = np.inf) -> float:
    """Width of a strip of n rooms: 4.5-7.5 m a room, 3.2 m at least, at most `cap` and the extent."""
    return max(min(rng.uniform(4.5, 7.5) * n, cap, max(extent_m, 3.2 * n)), 3.2 * n)


def _room_cuts(rng, n: int, total: float) -> np.ndarray:
    """The n+1 room edges 0..`total` of n widths in [3, 10] (total must allow them)."""
    widths = 3.0 + rng.dirichlet(np.ones(n)) * (total - 3.0 * n)
    for _ in range(16):
        over = widths > 10.0
        if not np.any(over):
            break
        excess = np.sum(widths[over] - 10.0)
        widths[over] = 10.0
        under = ~over
        widths[under] += excess * rng.dirichlet(np.ones(int(np.sum(under))))
    return np.concatenate([[0.0], np.cumsum(widths)])


def _split_at_junctions(walls: List[Tuple[np.ndarray, np.ndarray]]) -> List[LineSegment2]:
    """Split every wall at other walls' endpoints lying on its interior."""
    endpoints = np.array([p for w in walls for p in w])
    out = []
    for p0, p1 in walls:
        d = p1 - p0
        length = float(np.linalg.norm(d))
        u = d / length
        rel = endpoints - p0
        t = rel @ u
        off = np.abs(rel @ np.array([-u[1], u[0]]))
        cuts = t[(off < 1e-9) & (t > 1e-9) & (t < length - 1e-9)]
        ts = np.concatenate([[0.0], np.unique(np.round(cuts, 9)), [length]])
        for a, b in zip(ts[:-1], ts[1:]):
            if b - a > 1e-9:
                out.append(LineSegment2(p0 + a * u, p0 + b * u))
    return out


def _wall_with_doors(x0: float, x1: float, y: float, doors: List[float], vertical=False):
    """Axis-aligned wall from x0..x1 at offset y, with 1 m gaps at `doors`."""
    half = DOOR_WIDTH_M / 2
    edges = [x0, *(e for c in sorted(doors) for e in (c - half, c + half)), x1]
    segs = []
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a > 1e-9:
            p, q = ([y, a], [y, b]) if vertical else ([a, y], [b, y])
            segs.append((np.array(p), np.array(q)))
    return segs


def generate_layout(seed: int, n_rooms: int, corridor: bool, extent_m: float) -> FloorLayout:
    """Deterministic floorplan; same seed and arguments give the same model."""
    if n_rooms < 1:
        raise ValueError("n_rooms must be >= 1")
    check_positive(extent_m=extent_m)
    rng = np.random.default_rng(seed)
    inner: List[Tuple[np.ndarray, np.ndarray]] = []
    rooms: List[Tuple[float, float, float, float]] = []
    corridor_rect = None

    if corridor and n_rooms >= 2:
        n_top = (n_rooms + 1) // 2
        n_bot = n_rooms - n_top  # >= 1, so both strips hold a room
        depth_bot = rng.uniform(4.0, 8.0)
        depth_top = rng.uniform(4.0, 8.0)
        hall = rng.uniform(2.2, 3.0)
        width = _strip_width(rng, n_top, extent_m, cap=9.8 * n_bot)
        y_c0 = depth_bot
        y_c1 = depth_bot + hall
        height = y_c1 + depth_top
        corridor_rect = (0.0, y_c0, width, y_c1)

        for count, y0, y1, door_y in [(n_bot, 0.0, y_c0, y_c0), (n_top, y_c1, height, y_c1)]:
            cuts = _room_cuts(rng, count, width)
            doors = []
            for i in range(count):
                x0, x1 = cuts[i], cuts[i + 1]
                rooms.append((x0, y0, x1, y1))
                doors.append(rng.uniform(x0 + 0.8, x1 - 0.8))
                if 0 < i:
                    inner.append((np.array([x0, y0]), np.array([x0, y1])))
            inner += _wall_with_doors(0.0, width, door_y, doors)
    else:
        height = rng.uniform(4.0, 8.0)
        width = _strip_width(rng, n_rooms, extent_m)
        cuts = _room_cuts(rng, n_rooms, width)
        for i in range(n_rooms):
            rooms.append((cuts[i], 0.0, cuts[i + 1], height))
            if i > 0:
                door = rng.uniform(1.0, height - 1.0)
                inner += _wall_with_doors(0.0, height, cuts[i], [door], vertical=True)

    walls = _split_at_junctions(_box(width, height) + inner)
    return FloorLayout(WallModel(str(seed), walls), rooms, corridor_rect)


def _sample_wall(rng, wall: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """Points on the [p0, p1] row `wall` between fractions t0 and t1, up to the wall height."""
    d = wall[1] - wall[0]
    length = float(np.linalg.norm(d)) * (t1 - t0)
    n = max(1, int(round(length * WALL_HEIGHT_M * SURFACE_DENSITY_PT_M2)))
    t = rng.uniform(t0, t1, size=n)
    z = rng.uniform(0.0, WALL_HEIGHT_M, size=n)
    return np.column_stack([wall[0] + t[:, None] * d, z])


def _clear_of(points_xy: np.ndarray, walls: np.ndarray, clearance: float) -> np.ndarray:
    """True for each 2D point at least `clearance` from every (W, 2, 2) wall row.

    A wall tests only the points inside its box grown by the clearance and
    a margin, so no point outside can come under it. The points are sorted
    by x once; each wall's x range is a slice of that order, and only the
    slice meets the y and `keep` tests. A point's distance is element-wise
    arithmetic on its own row, so it is the same whichever rows a wall tests.
    """
    keep = np.ones(points_xy.shape[0], dtype=bool)
    order = np.argsort(points_xy[:, 0])
    sx, sy = points_xy[order, 0], points_xy[order, 1]
    grow = clearance + CLEARANCE_CUT_MARGIN_M
    lo, hi = walls.min(axis=1) - grow, walls.max(axis=1) + grow
    first = np.searchsorted(sx, lo[:, 0], side="left")
    last = np.searchsorted(sx, hi[:, 0], side="right")
    for (p0, p1), (_, y0), (_, y1), a, b in zip(walls, lo, hi, first, last):
        rows, y = order[a:b], sy[a:b]
        near = rows[keep[rows] & (y >= y0) & (y <= y1)]
        if near.shape[0] == 0:
            continue
        d = p1 - p0
        pts = points_xy[near]
        q = pts - p0
        t = np.clip((q[:, 0] * d[0] + q[:, 1] * d[1]) / float(d @ d), 0.0, 1.0)
        keep[near] = np.linalg.norm(pts - (p0 + t[:, None] * d), axis=1) >= clearance
    return keep


def synthesize_submap(
    model: WallModel,
    pose: Se2Pose,
    radius_m: float,
    noise_sigma_m: float = 0.0,
    drop_wall_frac: float = 0.0,
    clutter_frac: float = 0.0,
    seed: int = 0,
) -> SyntheticScene:
    """Sample a posed synthetic submap from a wall model.

    The sensor sits at the submap-frame origin; `pose` maps submap
    coordinates onto the model, so the sensor's model-frame position is
    pose(0, 0). Visibility is radius-only. Raises EmptyScene when no wall
    lies within the radius, and ValueError naming any parameter out of range.
    """
    check_positive(radius_m=radius_m)
    if not 0.0 <= noise_sigma_m < np.inf:
        raise ValueError("noise_sigma_m must be finite and >= 0, got %r" % (noise_sigma_m,))
    for name, frac in (("drop_wall_frac", drop_wall_frac), ("clutter_frac", clutter_frac)):
        if not 0.0 <= frac <= 1.0:
            raise ValueError("%s must be in [0, 1], got %r" % (name, frac))
    rng = np.random.default_rng(seed)
    sensor = pose.apply(np.zeros(2))

    # each wall's sub-interval [t0, t1] inside the disc: the roots of
    # |p0 + t d - sensor| = radius, clipped to the wall
    walls = model.endpoints()
    d, f = walls[:, 1] - walls[:, 0], walls[:, 0] - sensor
    a = np.vecdot(d, d)
    b = 2.0 * np.vecdot(f, d)
    disc = b * b - 4 * a * (np.vecdot(f, f) - radius_m * radius_m)
    with np.errstate(invalid="ignore"):  # disc < 0: the line misses the disc
        sq = np.sqrt(disc)
    t0 = np.maximum(0.0, (-b - sq) / (2 * a))
    t1 = np.minimum(1.0, (-b + sq) / (2 * a))
    visible = np.flatnonzero((disc > 0) & (t1 - t0 > 1e-9))
    if visible.shape[0] == 0:
        raise EmptyScene("no wall within radius of the sensor")

    n_drop = int(round(drop_wall_frac * visible.shape[0]))
    dropped = np.zeros(visible.shape[0], dtype=bool)
    if n_drop:
        dropped[rng.choice(visible.shape[0], size=n_drop, replace=False)] = True
    wall_pts = [_sample_wall(rng, walls[i], t0[i], t1[i]) for i in visible[~dropped]]
    wall_points = np.vstack(wall_pts) if wall_pts else np.zeros((0, 3))

    # clutter: small vertical panels absent from the model
    panels = []
    clutter_pts = []
    target = int(round(clutter_frac * wall_points.shape[0]))
    while target > 0 and sum(p.shape[0] for p in clutter_pts) < target:
        span = rng.uniform(1.0, 2.5)
        ang = rng.uniform(0.0, np.pi)
        r = rng.uniform(0.0, radius_m - span)
        theta = rng.uniform(0.0, 2 * np.pi)
        mid = sensor + r * np.array([np.cos(theta), np.sin(theta)])
        half = 0.5 * span * np.array([np.cos(ang), np.sin(ang)])
        panels.append(np.array([mid - half, mid + half]))
        clutter_pts.append(_sample_wall(rng, panels[-1], 0.0, 1.0))
    wall_like = np.vstack([wall_points, *clutter_pts])[: wall_points.shape[0] + target]

    # ground disc, kept clear of wall bases
    area = np.pi * radius_m**2
    n_ground = int(round(area * SURFACE_DENSITY_PT_M2))
    rr = radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n_ground))
    th = rng.uniform(0.0, 2 * np.pi, size=n_ground)
    gxy = sensor + np.column_stack([rr * np.cos(th), rr * np.sin(th)])
    keep = _clear_of(gxy, np.concatenate([walls, np.reshape(panels, (-1, 2, 2))]), GROUND_CLEARANCE_M)
    ground = np.column_stack([gxy[keep], np.zeros(int(np.sum(keep)))])

    points_model = np.vstack([wall_like, ground])
    if noise_sigma_m > 0.0:
        points_model = points_model + rng.normal(scale=noise_sigma_m, size=points_model.shape)

    inv = pose.inverse()
    xy = inv.apply(points_model[:, :2])
    points = np.column_stack([xy, points_model[:, 2]])

    log = {
        "radius_m": radius_m,
        "noise_sigma_m": noise_sigma_m,
        "dropped_walls": visible[dropped].tolist(),
        "clutter_segments": [(p0.tolist(), p1.tolist()) for p0, p1 in panels],
        "n_wall_points": int(wall_like.shape[0]),
        "n_ground_points": int(ground.shape[0]),
        "wall_free": wall_points.shape[0] == 0,
    }
    submap = Submap(points, np.array([0.0, 0.0, -1.0]))
    return SyntheticScene(pose, submap, log)


def random_interior_pose(layout: FloorLayout, rng) -> Se2Pose:
    """A pose whose sensor lies in free interior space, SENSOR_CLEARANCE_M clear of every wall."""
    rects = list(layout.rooms)
    if layout.corridor is not None:
        rects.append(layout.corridor)
    walls = layout.wall_model.endpoints()
    for _ in range(1000):
        x0, y0, x1, y1 = rects[int(rng.integers(len(rects)))]
        p = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        if _clear_of(p[None, :], walls, SENSOR_CLEARANCE_M)[0]:
            yaw = rng.uniform(-np.pi, np.pi)
            return Se2Pose(p[0], p[1], yaw)
    raise EmptyScene("could not place a sensor in free space")
