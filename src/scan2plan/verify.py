"""Occupancy-aware candidate scoring against the wall model.

The wall model is rasterized at s_r and dilated with a linear falloff:
value 1 on occupied cells down to 1/k_d at Chebyshev distance k_d, zero
beyond. The raster is this module's own: one array pass marks, column
by column, the rows each wall's two hairlines cross, after a float check
of the cell count against MAX_RASTER_CELLS. Non-ground submap points
collect award s_a where they land on wall mass; ground points landing
there collect a penalty s_p, since real ground is free space.
Confidence is the one rule (s_a - lam * s_p) / n_ng, so a pose that
drapes scanned walls over modeled walls while keeping scanned floor off
them scores near 1; lam = 0 is award-only scoring.

Scoring path: `ScoreField` keeps, next to `values`, one flattened copy
bordered by four zero cells on every side, built once per field. A pose
is scored by rotating the points with the same `q @ R.T` matmul as
`Se2Pose.apply`, then taking each coordinate column through add
translation, subtract origin, divide by s_r and floor, clipping the
cell index to [-4, n + 3] and reading the bordered copy with one flat
gather, so a point off the grid reads 0.0. Per element these are the
operations of the plain broadcasts, so every sum is bit-identical to a
masked 2-D lookup. The pipeline thins its scoring sets once per submap,
when it extracts them, to at most a cap of rows by one even stride
(`thin_rows`); `select_best` scores every point it is given. Every
candidate runs through the same two scratch buffers.

Selection is exact branch and bound in three phases.

Coarse, every candidate: the thinned non-ground points are collapsed
into occupied cells of 2 * s_r in their own frame, with point counts as
weights. A point lies within sqrt(2) field cells (of s_r) of its cell's
centre, so under any rigid pose it lands within sqrt(2) cells of the
posed centre C, and in each axis inside [C - 1.5, C + 1.5]: width 3, a
slack of (3 - 2 sqrt(2)) / 2, about 0.086 cell, on each side. Its field
cell is thus one of the four from floor(C - 1.5) on in each axis, a 4x4
window that the posed centre's position within its own cell picks. The
field keeps the max of every such window (the precomputed max grid of
Cartographer's branch-and-bound scan matcher, Hess et al., ICRA 2016,
over windows of 4 cells), for window starts from -4 to n + 3, and a
start clipped to that range reads exactly the max of its window, 0 off
the grid. So the weighted sum of window maxima bounds s_a from above,
and that sum over n_ng bounds the confidence. The argument needs every
magnitude below `COARSE_LIMIT` cells: there a coordinate rounds by less
than 2^-20 cell, far inside the slack. A point row beyond it (or
non-finite) adds the trivial 1 to the award bound, and a pose beyond it
(or non-finite, or every pose when the field's origin is beyond it)
gets the trivial s_a <= n_ng. A relative margin of (n_ng + 8) * 2^-48,
more than ten times what is needed, covers the rounding of the weighted
sums against the exact ones. The pass runs in chunks of rows // cells
candidates through the scratch buffers, about nine candidates per
lookup at the default cap. Against cells of s_r and a 3x3 window, this
halves the lookups (on `building`, 37,000 against 76,000 a call) for a
slightly looser bound.

Candidates arrive as `voting.Candidates` arrays: the coarse pass reads
their (C, 3) poses at once, and an exact phase builds one rotation from
a row's yaw with scalar `np.cos` / `np.sin`, as `Se2Pose.rotation` does.

Phase 1, lazily: the exact award s_a (one lookup, one sum) and the
confidence with no ground penalty, s_a / n_ng. Phase 2: the penalty
s_p. Candidates are visited in descending coarse order; the visit stops
at the first coarse bound strictly below the best confidence so far,
and a candidate whose phase-1 bound is below it skips phase 2. Ties
with it are still scored.

Every step is monotone: field values lie in [0, 1], lam >= 0, and IEEE
rounding is monotone, so coarse bound >= phase-1 bound >= exact
confidence. Every candidate with the top confidence is therefore
scored, and the winner is the tie-break minimum over the scored
candidates taken in input order, which is the exhaustive pass's winner.
On the `building` benchmark (seed 9000, counted) all 4,054 candidates
get the coarse bound, 806 (20%) get phase 1 and 242 (6%) phase 2.
`select_best` returns the winner with its exact `ScoreResult`; pruned
candidates have no exact score.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.ndimage import distance_transform_cdt, maximum_filter

from .errors import EmptyModel, EmptySubmap, NoCandidates
from .voting import Candidates

# largest wall raster; the biggest generated floor needs 131,835 cells
MAX_RASTER_CELLS = 2**26
# cells one chunk of the raster's column pass may walk (see _rasterize)
RASTER_CHUNK_CELLS = 2**16
# coordinates (in cells) up to which the coarse bound's cell argument is
# shown to hold; it also keeps a packed cell key below 2^53
COARSE_LIMIT = 2.0**25
_KEY_BASE = 2.0**26 + 1
# zero cells on each side of the bordered field and the window-max grid:
# a window starting at -4 or below, or at n or above, holds no grid cell
_PAD = 4

__all__ = [
    "ScoreField",
    "ScoreResult",
    "build_score_field",
    "select_best",
    "reliability_curve",
    "thin_rows",
]


@dataclass(frozen=True)
class ScoreField:
    """Dilated wall-occupancy values on a regular grid.

    Construction also stores `values` once more, flattened with four zero
    cells on every side. A lookup clips each cell index to [-4, n + 3]
    and shifts it by four, so any point off the grid reads 0.0 without a
    mask. For the coarse bound of `select_best`, `_window_max` holds at
    cell (i, j) the max of the 4x4 window of cells from (i, j), for i and
    j over the same range, stored flat the same way; a window start
    clipped to that range reads exactly its window.
    """

    values: np.ndarray  # (nx, ny) float64 in [0, 1]
    origin: np.ndarray  # (2,) meters
    s_r: float  # meters per cell

    def __post_init__(self):
        _check_cell_size(self.s_r)
        origin = np.asarray(self.origin, dtype=np.float64)
        if not np.all(np.isfinite(origin)):
            raise ValueError("score field origin must be finite, got %r" % (self.origin,))
        values = np.asarray(self.values, dtype=np.float64)
        if not np.all((values >= 0.0) & (values <= 1.0)):  # also rejects NaN
            raise ValueError("score field values must lie in [0, 1]")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "values", values)
        bordered = np.pad(values, _PAD)
        object.__setattr__(self, "_bordered", bordered.ravel())
        # origin -2 puts each 4-cell window at offsets 0..3; cells past
        # the grid hold 0, below every value
        peaks = maximum_filter(bordered, size=4, origin=-2, mode="constant", cval=0.0)
        object.__setattr__(self, "_window_max", peaks.ravel())

    def value_at(self, points_m: np.ndarray) -> np.ndarray:
        pts = np.asarray(points_m, dtype=np.float64).reshape(-1, 2)
        # a zero shift changes at most the sign of a zero, never a cell
        return self._lookup(pts, (0.0, 0.0), *_scratch(pts.shape[0]))

    def _lookup(self, xy: np.ndarray, shift, buf: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Field values at xy + shift, one per row, as a view of `buf`.

        `buf` and `idx` come from `_scratch` with at least len(xy) rows;
        xy may be `buf` itself. Each column gets the element-wise
        arithmetic of `floor((xy + shift - origin) / s_r)`, so every
        cell matches the plain broadcast.
        """
        n = xy.shape[0]
        for k in (0, 1):
            c = buf[:n, k]
            np.add(xy[:, k], shift[k], out=c)
            np.subtract(c, self.origin[k], out=c)
            np.divide(c, self.s_r, out=c)
        return self._gather(self._bordered, n, buf, idx)

    def _gather(self, table: np.ndarray, n: int, buf: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """`table`, a flat grid with `_PAD` cells on every side, at the
        cells floor(buf[:n]), each index clipped into the padded grid, as
        a view of `buf`."""
        nx, ny = self.values.shape
        for k, hi in ((0, nx), (1, ny)):
            c = buf[:n, k]
            np.floor(c, out=c)
            # clip before the int cast; fmax/fmin send NaN to the border too
            np.fmax(c, -_PAD, out=c)
            np.fmin(c, hi + _PAD - 1, out=c)
        row, col, cells = buf[:n, 0], buf[:n, 1], idx[:n]
        np.multiply(row, ny + 2 * _PAD, out=row)
        np.add(row, col, out=row)
        np.copyto(cells, row, casting="unsafe")
        np.add(cells, (ny + 2 * _PAD + 1) * _PAD, out=cells)
        return np.take(table, cells, out=row)


def _scratch(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Scratch for `ScoreField._lookup`: float (n, 2) and int (n,).

    The float buffer is column-major, so each coordinate column is
    contiguous for the element-wise passes. A matmul into it runs as the
    transposed BLAS product, which rounds each element as `q @ R.T` does
    (`tests/test_backend_oracle.py` checks this bit for bit).
    """
    return np.empty((n, 2), order="F"), np.empty(n, dtype=np.intp)


@dataclass
class ScoreResult:
    s_a: float  # award mass under non-ground points
    s_p: float  # penalty mass under ground points
    n_ng: int
    n_g: int
    confidence: float


def _check_cell_size(s_r: float) -> None:
    if not 0.0 < s_r < np.inf:  # also rejects NaN
        raise ValueError("score field s_r must be finite and positive, got %r" % (s_r,))


def _runs(first: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, value): for each row i, count[i] values counting up from first[i]."""
    owner = np.repeat(np.arange(count.shape[0]), count)
    return owner, first[owner] + (np.arange(owner.shape[0]) - (np.cumsum(count) - count)[owner])


def _rasterize(walls: np.ndarray, scale: float, pad_px: int) -> Tuple[np.ndarray, np.ndarray]:
    """(grid, origin): a bool grid marking every cell touched by a (W, 2, 2)
    wall row, W >= 1; cell (ix, iy) covers origin + [ix, ix+1) / scale.

    Raises ValueError, before any raster work, on a wall row that is not
    finite or has zero length, and when the grid would exceed MAX_RASTER_CELLS.
    """
    # rows and cell count are checked in floats, before the int cast and the allocation
    with np.errstate(over="ignore", invalid="ignore"):
        d = walls[:, 1] - walls[:, 0]
        bad = np.flatnonzero(~(np.all(np.isfinite(walls), axis=(1, 2)) & (np.vecdot(d, d) > 0.0)))
        lo = np.floor(walls.min(axis=(0, 1)) * scale)
        hi = np.floor(walls.max(axis=(0, 1)) * scale)
        shape = hi - lo + 2 * pad_px + 1
        fits = np.prod(shape) <= MAX_RASTER_CELLS
    if bad.size:
        raise ValueError("wall row %d must be finite and of nonzero length, got %s" % (bad[0], walls[bad[0]].tolist()))
    if not fits:
        raise ValueError(
            "a %g x %g raster at %g px/m exceeds %d cells" % (shape[0], shape[1], scale, MAX_RASTER_CELLS)
        )
    lo, hi = lo.astype(np.int64) - pad_px, hi.astype(np.int64) + pad_px + 1
    grid = np.zeros((int(hi[0] - lo[0]), int(hi[1] - lo[1])), dtype=bool)
    # cells are closed squares: a segment running exactly along a cell
    # boundary touches both sides, so mark a hairline off each side
    off = np.stack([-d[:, 1], d[:, 0]], axis=1)[:, None] / np.sqrt(np.vecdot(d, d))[:, None, None] * 1e-7
    ends = np.concatenate([walls * scale + off, walls * scale - off])
    ends = np.where(ends[:, :1, :1] > ends[:, 1:, :1], ends[:, ::-1], ends)  # ordered by x
    # chunks of at most RASTER_CHUNK_CELLS cells, |dx| + |dy| + 3 per hairline, cap the scratch
    reach = np.cumsum(np.append(0.0, np.abs(ends[:, 1] - ends[:, 0]).sum(axis=1) + 3.0))
    a = 0
    while a < ends.shape[0]:
        b = max(int(np.searchsorted(reach, reach[a] + RASTER_CHUNK_CELLS, "right")) - 1, a + 1)
        x0, y0, x1, y1 = ends[a:b].reshape(-1, 4).T
        # columns floor(x0)..floor(x1), each with the rows of the hairline's
        # y span clipped to it; the hairline's own ends keep their y as given
        c0, c1 = np.floor(x0), np.floor(x1)
        h, col = _runs(c0, (c1 - c0).astype(np.int64) + 1)
        slope = np.divide(y1 - y0, x1 - x0, out=np.zeros_like(x0), where=x1 != x0)[h]
        ya = np.where(col == c0[h], y0[h], y0[h] + (col - x0[h]) * slope)
        yb = np.where(col == c1[h], y1[h], y0[h] + (col + 1.0 - x0[h]) * slope)
        r0 = np.floor(np.minimum(ya, yb))
        k, row = _runs(r0, (np.floor(np.maximum(ya, yb)) - r0).astype(np.int64) + 1)
        grid[col[k].astype(np.int64) - lo[0], row.astype(np.int64) - lo[1]] = True
        a = b
    return grid, lo / scale


def build_score_field(walls: np.ndarray, s_r: float = 0.2, k_d: int = 5) -> ScoreField:
    """Rasterize (W, 2, 2) wall endpoints at s_r and dilate with the linear k_d falloff."""
    walls = np.asarray(walls, dtype=np.float64).reshape(-1, 2, 2)
    if walls.shape[0] == 0:
        raise EmptyModel("no walls to build a score field from")
    _check_cell_size(s_r)
    if k_d < 1:
        raise ValueError("k_d must be >= 1")
    grid, origin = _rasterize(walls, 1.0 / s_r, k_d + 2)
    dist = distance_transform_cdt(~grid, metric="chessboard").astype(np.float64)
    values = np.where(dist <= k_d, 1.0 - (dist / k_d) * (1.0 - 1.0 / k_d), 0.0)
    return ScoreField(values, origin, s_r)


def _mass(field: ScoreField, q: np.ndarray, rot_t, shift, buf, idx) -> float:
    """Sum of the field values under the posed q."""
    n = q.shape[0]
    if n == 0:
        return 0.0
    # the matmul of Se2Pose.apply: OpenBLAS rounds it with FMA, which a
    # column-wise x*c - y*s would not reproduce
    xy = np.matmul(q, rot_t, out=buf[:n])
    return float(field._lookup(xy, shift, buf, idx).sum())


def thin_rows(a: np.ndarray, cap: Optional[int]) -> np.ndarray:
    """The rows of `a` at an even stride, `cap` of them when it has more;
    a cap of None or 0 keeps every row."""
    if cap and a.shape[0] > cap:
        return a[np.linspace(0, a.shape[0] - 1, cap).astype(np.int64)]
    return a


def _prepare(q_ng_xy, q_g_xy):
    """(q_ng, q_g, buf, idx): (N, 2) float64 point sets and scratch sized
    to the larger."""
    q_ng, q_g = (np.asarray(q, dtype=np.float64).reshape(-1, 2) for q in (q_ng_xy, q_g_xy))
    if q_ng.shape[0] == 0:
        raise EmptySubmap("no non-ground points to score")
    return (q_ng, q_g) + _scratch(max(q_ng.shape[0], q_g.shape[0]))


def _collapse(q: np.ndarray, s_r: float, buf: np.ndarray):
    """(centres, weights, n_loose): q's occupied 2 * s_r cells, centres
    in s_r units.

    Rows beyond `COARSE_LIMIT` s_r cells or non-finite are not
    collapsed; `n_loose` counts them. The cell keys are packed, exactly,
    into the float scratch `buf` and sorted there.
    """
    n = q.shape[0]
    for k in (0, 1):
        c = buf[:n, k]
        np.divide(q[:, k], 2.0 * s_r, out=c)
        np.floor(c, out=c)
    ix, iy = buf[:n, 0], buf[:n, 1]
    # NaN fails the comparison, so it is loose too
    loose = ~((np.abs(ix) <= COARSE_LIMIT / 2) & (np.abs(iy) <= COARSE_LIMIT / 2))
    ix[loose] = iy[loose] = 0.0
    np.add(ix, COARSE_LIMIT, out=ix)
    np.multiply(ix, _KEY_BASE, out=ix)
    np.add(ix, iy, out=ix)
    np.add(ix, COARSE_LIMIT, out=ix)  # in [0, 2^53)
    ix[loose] = -1.0
    ix.sort()
    n_loose = int(np.searchsorted(ix, 0.0))
    keys = ix[n_loose:]
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    weights = np.diff(np.append(starts, keys.shape[0])).astype(np.float64)
    kx, ky = np.divmod(keys[starts].astype(np.int64), int(_KEY_BASE))
    centres = 2.0 * (np.column_stack([kx, ky]) - COARSE_LIMIT) + 1.0
    return centres, weights, n_loose


def _coarse_bounds(field: ScoreField, xyt: np.ndarray, q_ng: np.ndarray, buf, idx) -> np.ndarray:
    """An upper bound on the confidence of every (x, y, yaw) row of xyt
    from the collapsed cells.

    See the module docstring for why it is never below the exact phase-1
    bound. Poses go through the scratch buffers in chunks of rows // cells,
    so no array grows with the candidate count times the points.
    """
    n_ng = q_ng.shape[0]
    centres, weights, n_loose = _collapse(q_ng, field.s_r, buf)
    m = centres.shape[0]
    xyt = np.array(xyt, dtype=np.float64).reshape(-1, 3)  # a copy, changed below
    lim = COARSE_LIMIT * field.s_r
    ok = np.isfinite(xyt[:, 2]) & np.all(np.abs(xyt[:, :2]) <= lim, axis=1)
    ok &= bool(np.all(np.abs(field.origin) <= lim))
    xyt[~ok] = 0.0  # bounded trivially below, so a harmless stand-in pose
    # [cx, cy, 1] @ [R.T; (t - origin) / s_r - 1.5]: each posed centre in
    # field cells less 1.5, whose floor starts the centre's 4x4 window
    c, s = np.cos(xyt[:, 2]), np.sin(xyt[:, 2])
    offset = (xyt[:, :2] - field.origin) / field.s_r - 1.5
    affine = np.stack([np.column_stack([c, s]), np.column_stack([-s, c]), offset], axis=1)
    centres = np.column_stack([centres, np.ones(m)])
    award = np.zeros(xyt.shape[0])
    step = buf.shape[0] // max(m, 1)
    for a in range(0, xyt.shape[0], step):
        b = min(a + step, xyt.shape[0])
        # a view of buf: rows split into (candidate, cell), columns kept
        np.matmul(centres, affine[a:b], out=buf[: (b - a) * m].reshape(b - a, m, 2))
        peaks = field._gather(field._window_max, (b - a) * m, buf, idx)
        award[a:b] = peaks.reshape(b - a, m) @ weights
    margin = (n_ng + 8) * 2.0**-48
    s_a = (award + n_loose) * (1.0 + margin)
    s_a[~ok] = n_ng
    return s_a / n_ng


def select_best(
    field: ScoreField,
    candidates: Candidates,
    q_ng_xy: np.ndarray,
    q_g_xy: np.ndarray,
    lam: float = 0.5,
) -> Tuple[int, ScoreResult]:
    """Return (best index, its exact ScoreResult) over the `Candidates`.

    Ties on confidence fall back to vote count, then to the
    lexicographically smallest pose. Every candidate reuses the same two
    scratch buffers; a caller caps the scored points with `thin_rows`.

    Branch and bound, exact: every candidate gets a coarse upper bound
    on its confidence (`_coarse_bounds`), and candidates are visited in
    descending coarse order until one falls strictly below the best
    confidence so far. A visited candidate gets its exact award and the
    bound s_a / n_ng, and its ground penalty only while that bound
    reaches the best. The winner is the tie-break minimum over the
    scored candidates in input order, so it is the candidate an
    exhaustive pass picks.
    """
    if len(candidates) == 0:
        raise NoCandidates("no pose candidates to score")
    # the bounds rest on lam * s_p >= 0
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0, got %r" % (lam,))
    q_ng, q_g, buf, idx = _prepare(q_ng_xy, q_g_xy)
    n_ng, n_g = q_ng.shape[0], q_g.shape[0]
    coarse = _coarse_bounds(field, candidates.xyt, q_ng, buf, idx)

    results = {}
    best_conf = -np.inf
    for i in np.argsort(-coarse, kind="stable").tolist():
        if coarse[i] < best_conf:
            break
        x, y, yaw = candidates.xyt[i].tolist()
        # Se2Pose.rotation(): scalar cos and sin of the Python float yaw
        c, s = np.cos(yaw), np.sin(yaw)
        rot_t, shift = np.array([[c, -s], [s, c]]).T, (x, y)
        s_a = _mass(field, q_ng, rot_t, shift, buf, idx)
        if s_a / n_ng < best_conf:
            continue
        s_p = _mass(field, q_g, rot_t, shift, buf, idx)
        conf = float((s_a - lam * s_p) / n_ng)
        results[i] = ScoreResult(s_a, s_p, n_ng, n_g, conf)
        best_conf = max(best_conf, conf)
    best = min(
        sorted(results),
        key=lambda i: (-results[i].confidence, -int(candidates.votes[i]), *candidates.xyt[i].tolist()),
    )
    return best, results[best]


def reliability_curve(labels, scores):
    """Precision-recall over descending score thresholds.

    Returns (precision, recall, thresholds, auc); auc is the step-wise
    average precision. Tied scores collapse into single thresholds.
    """
    y = np.asarray(labels, dtype=bool).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise ValueError("labels and scores must have the same length")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("reliability curve needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    # comparison, not subtraction: ties at +-inf must still collapse
    last = np.nonzero(s[1:] != s[:-1])[0]
    idx = np.concatenate([last, [s.shape[0] - 1]])
    tp = np.cumsum(y)[idx].astype(np.float64)
    fp = np.cumsum(~y)[idx].astype(np.float64)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    auc = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))
    return precision, recall, s[idx], auc
