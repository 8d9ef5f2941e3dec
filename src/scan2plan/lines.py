"""BEV rasterization, Hough segment detection and corner extraction.

Wall points are projected to a binary bird's-eye raster. Segments come
from a vote-threshold Hough transform with greedy pixel claiming (after
the progressive probabilistic Hough of Matas, Galambos & Kittler), gap
splitting and total-least-squares refits. The accumulator is filled one
theta row at a time, peaks are visited strongest first, and each claimed
run's votes are taken back out, so a peak its claims exhaust is skipped
without a band test. Near-collinear segments with close endpoints are
chained by connected components and refit. Corners are intersections of
extended non-parallel segments, all pairs tested at once as arrays, then
deduplicated by greedy non-maximum suppression on combined support
length; they match the per-pair loop of `tests/scalar_frontend.py` bit for bit.

Segments are (S, 2, 2) arrays of [p0, p1] rows in meters throughout;
`sqrt(vecdot(d, d))` rounds lengths and directions as `LineSegment2`
does. Both rasterizers check their cell count in floats before allocating.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import EmptyGrid
from .graph import connected_groups

# largest segment raster; the biggest generated floor needs 131,835 cells
MAX_RASTER_CELLS = 2**26
# largest point raster; admits a 200 m x 200 m submap at 60 px/m
MAX_POINT_RASTER_CELLS = 2**28

__all__ = [
    "BevRaster",
    "Corners",
    "rasterize_points",
    "rasterize_segments",
    "detect_segments",
    "merge_refit",
    "extract_corners",
]


@dataclass
class BevRaster:
    """Binary occupancy raster; cell (ix, iy) covers origin + [ix, ix+1) / scale."""

    grid: np.ndarray  # (nx, ny) bool
    origin: np.ndarray  # (2,) meters, lower corner of cell (0, 0)
    scale: float  # px per meter

    def px_of(self, points_m: np.ndarray) -> np.ndarray:
        return (np.asarray(points_m, dtype=np.float64) - self.origin) * self.scale

    def m_of(self, points_px: np.ndarray) -> np.ndarray:
        return np.asarray(points_px, dtype=np.float64) / self.scale + self.origin


@dataclass
class Corners:
    """Wall-intersection landmarks, one row each, strongest first."""

    pos: np.ndarray  # (N, 2)
    dirs: np.ndarray  # (N, 2, 2) unit directions of the two incident walls
    support: np.ndarray  # (N,) combined incident wall length, meters

    def __len__(self) -> int:
        return self.pos.shape[0]


def _bounds(points_m: np.ndarray, pad_px: int, scale: float, max_cells: int):
    """Cell range [lo, hi) covering the points; ValueError past max_cells cells."""
    # checked in floats, before the int cast and the allocation
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.floor(points_m.min(axis=0) * scale)
        hi = np.floor(points_m.max(axis=0) * scale)
        shape = hi - lo + 2 * pad_px + 1
        fits = np.prod(shape) <= max_cells
    if not fits:
        raise ValueError(
            "a %g x %g raster at %g px/m exceeds %d cells" % (shape[0], shape[1], scale, max_cells)
        )
    return lo.astype(np.int64) - pad_px, hi.astype(np.int64) + pad_px + 1


def rasterize_points(points_xy: np.ndarray, scale: float, pad_px: int = 2) -> BevRaster:
    """Raster marking every cell that holds a point; ValueError past MAX_POINT_RASTER_CELLS."""
    pts = np.asarray(points_xy, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise EmptyGrid("no points to rasterize")
    lo, hi = _bounds(pts, pad_px, scale, MAX_POINT_RASTER_CELLS)
    grid = np.zeros((int(hi[0] - lo[0]), int(hi[1] - lo[1])), dtype=bool)
    ij = np.floor(pts * scale).astype(np.int64) - lo
    grid[ij[:, 0], ij[:, 1]] = True
    return BevRaster(grid, lo / scale, scale)


def _traverse_cells(p0: np.ndarray, p1: np.ndarray) -> List[Tuple[int, int]]:
    """All integer cells a segment passes through (grid-walk DDA)."""
    cells = []
    x, y = int(np.floor(p0[0])), int(np.floor(p0[1]))
    xe, ye = int(np.floor(p1[0])), int(np.floor(p1[1]))
    d = p1 - p0
    step_x = 1 if d[0] > 0 else -1
    step_y = 1 if d[1] > 0 else -1
    # t to next vertical / horizontal cell boundary
    tx = np.inf if d[0] == 0 else ((x + (step_x > 0)) - p0[0]) / d[0]
    ty = np.inf if d[1] == 0 else ((y + (step_y > 0)) - p0[1]) / d[1]
    dtx = np.inf if d[0] == 0 else abs(1.0 / d[0])
    dty = np.inf if d[1] == 0 else abs(1.0 / d[1])
    cells.append((x, y))
    guard = 0
    while (x, y) != (xe, ye) and guard < 10_000_000:
        if tx <= ty:
            x += step_x
            tx += dtx
        else:
            y += step_y
            ty += dty
        cells.append((x, y))
        guard += 1
    return cells


def rasterize_segments(segments: np.ndarray, scale: float, pad_px: int = 2) -> BevRaster:
    """Raster marking every cell touched by any (S, 2, 2) segment.

    Raises ValueError when the raster would exceed MAX_RASTER_CELLS.
    """
    ends = np.asarray(segments, dtype=np.float64).reshape(-1, 2, 2)
    if ends.shape[0] == 0:
        raise EmptyGrid("no segments to rasterize")
    lo, hi = _bounds(ends.reshape(-1, 2), pad_px, scale, MAX_RASTER_CELLS)
    grid = np.zeros((int(hi[0] - lo[0]), int(hi[1] - lo[1])), dtype=bool)
    d = ends[:, 1] - ends[:, 0]
    dirs = d / np.sqrt(np.vecdot(d, d))[:, None]
    # cells are closed squares: a segment running exactly along a cell
    # boundary touches both sides, so traverse a hairline off each side
    eps = 1e-7
    for (p0, p1), u in zip(ends, dirs):
        n = np.array([-u[1], u[0]]) * eps
        for off in (n, -n):
            for cx, cy in _traverse_cells(p0 * scale + off, p1 * scale + off):
                grid[cx - lo[0], cy - lo[1]] = True
    return BevRaster(grid, lo / scale, scale)


def detect_segments(
    raster: BevRaster,
    l_min_px: int = 30,
    gap_px: float = 5.0,
    band_px: float = 5.0,
    theta_bins: int = 180,
) -> np.ndarray:
    """Hough peaks -> greedy pixel claiming -> gap-split runs -> TLS refit.

    Returns (S, 2, 2) endpoints in meters. Peaks need l_min_px votes in a
    1 px rho bin and are visited by votes, then theta, then rho. A peak
    claims the unclaimed pixels within band_px of its line, split into
    runs at gaps over gap_px along it; runs shorter than l_min_px are
    dropped. A claimed run's votes leave the accumulator, so a peak it
    drops below l_min_px is skipped.
    """
    occupied = np.flatnonzero(raster.grid)
    if occupied.shape[0] == 0:
        raise EmptyGrid("empty raster")
    px = np.empty((occupied.shape[0], 2))
    px[:, 0], px[:, 1] = divmod(occupied, raster.grid.shape[1])
    px += 0.5  # pixel centers
    x, y = px[:, 0].copy(), px[:, 1].copy()

    thetas = np.arange(theta_bins) * np.pi / theta_bins
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(np.ceil(np.hypot(*raster.grid.shape))) + 2
    n_rho = 2 * diag

    # accumulator rows of rint(x cos + y sin) + diag, theta-major, filled
    # one theta at a time through reused buffers
    acc = np.empty(theta_bins * n_rho, dtype=np.int64)
    rows = acc.reshape(theta_bins, n_rho)
    rho, tmp = np.empty_like(x), np.empty_like(x)
    bins = np.empty(x.shape[0], dtype=np.intp)
    for t in range(theta_bins):
        np.multiply(x, cos_t[t], out=rho)
        np.multiply(y, sin_t[t], out=tmp)
        np.add(rho, tmp, out=rho)
        np.rint(rho, out=rho)
        rho += diag
        bins[:] = rho
        rows[t] = np.bincount(bins, minlength=n_rho)
    cell_base = (np.arange(theta_bins) * n_rho + diag)[:, None]

    def cells(run):
        """Flat accumulator cells of the run's pixels, (theta_bins, len(run))."""
        c = cos_t[:, None] * x[run]
        c += sin_t[:, None] * y[run]
        np.rint(c, out=c)
        c += cell_base
        return c.astype(np.intp)

    # strongest first; flat-ascending peaks break vote ties by (theta, rho)
    peaks = np.flatnonzero(acc >= l_min_px)
    peaks = peaks[np.argsort(-acc[peaks], kind="stable")]

    claimed = np.zeros(x.shape[0], dtype=bool)
    n_unclaimed = x.shape[0]
    ends_px = []
    while peaks.shape[0] and n_unclaimed >= l_min_px:
        t, r = divmod(int(peaks[0]), n_rho)
        peaks = peaks[1:]
        band = np.abs(x * cos_t[t] + y * sin_t[t] - (r - diag)) <= band_px
        idx = np.flatnonzero(band & ~claimed)
        if idx.shape[0] < l_min_px:
            continue
        # split claimed pixels into runs along the line direction
        along = -x[idx] * sin_t[t] + y[idx] * cos_t[t]
        srt = np.argsort(along)
        idx, along = idx[srt], along[srt]
        run_starts = np.concatenate([[0], np.nonzero(np.diff(along) > gap_px)[0] + 1])
        run_ends = np.concatenate([run_starts[1:], [along.shape[0]]])
        for a, b in zip(run_starts, run_ends):
            run = idx[a:b]
            if along[b - 1] - along[a] < l_min_px:
                continue
            claimed[run] = True
            n_unclaimed -= run.shape[0]
            np.subtract.at(acc, cells(run).reshape(-1), 1)
            seg = _tls_segment(px[run])
            if seg is not None:
                ends_px.append(seg)
        # drop the pending peaks that claimed runs took below l_min_px
        peaks = peaks[acc[peaks] >= l_min_px]
    return raster.m_of(np.reshape(ends_px, (-1, 2, 2)))


def _tls_segment(points: np.ndarray):
    """Total-least-squares line fit; endpoints from the projection extent."""
    mean = points.mean(axis=0)
    d = points - mean
    cov = d.T @ d
    w, v = np.linalg.eigh(cov)
    direction = v[:, 1]
    t = d @ direction
    t0, t1 = float(t.min()), float(t.max())
    if t1 - t0 < 1e-9:
        return None
    return mean + t0 * direction, mean + t1 * direction


def merge_refit(
    segments: np.ndarray,
    endpoint_tol_m: float = 0.3,
    angle_tol_deg: float = 5.0,
) -> np.ndarray:
    """Chain near-collinear (S, 2, 2) segments with close endpoints, refit each chain.

    A chain is a connected component of the segment pairs within the
    angle whose nearest endpoints lie within endpoint_tol_m. Singleton
    chains pass through unchanged. Chains come out ordered by their
    endpoints rounded to 1e-9 m.
    """
    ends = np.asarray(segments, dtype=np.float64).reshape(-1, 2, 2)
    n = ends.shape[0]
    if n == 0:
        return ends
    cos_tol = np.cos(np.radians(angle_tol_deg))
    d = ends[:, 1] - ends[:, 0]
    length = np.sqrt(np.vecdot(d, d))
    dirs = d / length[:, None]

    i, j = np.triu_indices(n, 1)
    # every endpoint of i against every endpoint of j: (pairs, 2, 2, 2)
    diff = ends[i][:, :, None, :] - ends[j][:, None, :, :]
    gaps = np.sqrt(np.vecdot(diff, diff)).reshape(-1, 4)
    linked = (np.abs(np.vecdot(dirs[i], dirs[j])) >= cos_tol) & np.any(gaps <= endpoint_tol_m, axis=1)

    out = []
    for members in connected_groups(n, i[linked], j[linked]):
        if members.shape[0] == 1:
            out.append(ends[members[0]])
            continue
        samples = []
        for m in members:
            k = max(2, int(np.ceil(length[m] / 0.05)) + 1)
            t = np.linspace(0.0, 1.0, k)
            samples.append(ends[m, 0] + t[:, None] * d[m])
        out.append(_tls_segment(np.vstack(samples)))
    out = np.array(out)
    r = np.round(out, 9)
    return out[np.lexsort((r[:, 1, 1], r[:, 1, 0], r[:, 0, 1], r[:, 0, 0]))]


def extract_corners(
    segments: np.ndarray,
    extend_m: float = 1.0,
    nms_radius_m: float = 0.5,
    min_angle_deg: float = 10.0,
) -> Corners:
    """Intersect extended non-parallel pairs of (S, 2, 2) segments, then NMS by support, position, pair order."""
    ends = np.asarray(segments, dtype=np.float64).reshape(-1, 2, 2)
    p0, d = ends[:, 0], ends[:, 1] - ends[:, 0]
    length = np.sqrt(np.vecdot(d, d))
    dirs = d / length[:, None]
    i, j = np.triu_indices(ends.shape[0], 1)
    cross = dirs[i, 0] * dirs[j, 1] - dirs[i, 1] * dirs[j, 0]
    steep = np.abs(cross) >= np.sin(np.radians(min_angle_deg))
    i, j, cross = i[steep], j[steep], cross[steep]
    rhs = p0[j] - p0[i]
    t = (rhs[:, 0] * dirs[j, 1] - rhs[:, 1] * dirs[j, 0]) / cross
    u = (rhs[:, 0] * dirs[i, 1] - rhs[:, 1] * dirs[i, 0]) / cross
    hit = (-extend_m <= t) & (t <= length[i] + extend_m) & (-extend_m <= u) & (u <= length[j] + extend_m)
    i, j, t = i[hit], j[hit], t[hit]
    pos = p0[i] + t[:, None] * dirs[i]
    support = length[i] + length[j]
    r = np.round(pos, 9)
    order = np.lexsort((r[:, 1], r[:, 0], -support))
    kept, kept_pos = [], np.empty_like(pos)
    for c in order:
        g = pos[c] - kept_pos[: len(kept)]
        if np.all(np.sqrt(np.vecdot(g, g)) > nms_radius_m):
            kept_pos[len(kept)] = pos[c]
            kept.append(c)
    return Corners(pos[kept], np.stack([dirs[i[kept]], dirs[j[kept]]], axis=1), support[kept])
