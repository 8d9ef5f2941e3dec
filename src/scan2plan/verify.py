"""Occupancy-aware candidate scoring against the wall model.

The wall model is rasterized at s_r and dilated with a linear falloff:
value 1 on occupied cells down to 1/k_d at Chebyshev distance k_d, zero
beyond. Non-ground submap points collect award s_a where they land on
wall mass; ground points landing there collect a penalty s_p, since real
ground is free space. Confidence is the one rule
(s_a - lam * s_p) / n_ng, so a pose that drapes scanned walls over
modeled walls while keeping scanned floor off them scores near 1;
lam = 0 is award-only scoring.

Scoring path: `ScoreField` keeps, next to `values`, one flattened copy
bordered by a zero cell on every side, built once per field. A pose is
scored by rotating the points with the same `q @ R.T` matmul as
`Se2Pose.apply`, then taking each coordinate column through add
translation, subtract origin, divide by s_r and floor, clipping the
cell index to [-1, n] and reading the bordered copy with one flat
gather, so a point off the grid reads 0.0. Per element these are the
operations of the plain broadcasts, so every sum is bit-identical to a
masked 2-D lookup. `select_best` thins the points once and runs every
candidate through the same two scratch buffers.

Selection is exact branch and bound in three phases.

Coarse, every candidate: the thinned non-ground points are collapsed
into occupied s_r cells in the submap frame, with point counts as
weights. A point lies within s_r * sqrt(2) / 2 of its cell centre, so
under any rigid pose its field cell is at most one cell from the posed
centre's in each axis, and clipping to [-1, n] keeps that. The field
also keeps the 3x3 max filter of its bordered copy (the precomputed max
grid of Cartographer's branch-and-bound scan matcher, Hess et al., ICRA
2016), so the weighted sum of max-grid values at the posed centres
bounds s_a from above, and that sum over n_ng bounds the confidence. The
argument needs every magnitude below `COARSE_LIMIT` cells: there a
coordinate rounds by less than 2^-20 cell, far inside the 1 - sqrt(2)/2
slack. A point row beyond it (or non-finite) adds the trivial 1 to the
award bound, and a pose beyond it (or non-finite, or every pose when
the field's origin is beyond it) gets the trivial s_a <= n_ng. A
relative margin of (n_ng + 8) * 2^-48, more than ten times what is
needed, covers the rounding of the weighted sums against the exact ones.
The pass runs in chunks of rows // cells candidates through the scratch
buffers, about five candidates per lookup at the default cap.

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
On the `building` benchmark every candidate gets the coarse bound,
about 16% get phase 1 and about 5% phase 2. `select_best` returns the
winner with its exact `ScoreResult`; pruned candidates have no exact
score.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.ndimage import distance_transform_cdt, maximum_filter

from .errors import EmptyModel, EmptySubmap, NoCandidates
from .geometry import Se2Pose
from .lines import rasterize_segments
from .voting import Candidate

# coordinates (in cells) up to which the coarse bound's cell argument is
# shown to hold; it also keeps a packed cell key below 2^53
COARSE_LIMIT = 2.0**25
_KEY_BASE = 2.0**26 + 1

__all__ = [
    "ScoreField",
    "ScoreResult",
    "build_score_field",
    "score_candidate",
    "select_best",
    "reliability_curve",
]


@dataclass(frozen=True)
class ScoreField:
    """Dilated wall-occupancy values on a regular grid.

    Construction also stores `values` once more, flattened with one zero
    cell on every side. A lookup clips each cell index to [-1, n] and
    shifts it by one, so any point off the grid reads 0.0 without a mask.
    `_max_bordered` is the 3x3 max filter of that copy, for the coarse
    bound of `select_best`.
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
        bordered = np.pad(values, 1)
        object.__setattr__(self, "_bordered", bordered.ravel())
        # values are >= 0, so padding past the edge with 0 changes no max
        peaks = maximum_filter(bordered, size=3, mode="constant", cval=0.0)
        object.__setattr__(self, "_max_bordered", peaks.ravel())

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
        """`table` (a bordered copy) at the cells floor(buf[:n]), as a view of `buf`."""
        nx, ny = self.values.shape
        for k, hi in ((0, nx), (1, ny)):
            c = buf[:n, k]
            np.floor(c, out=c)
            # clip before the int cast; fmax/fmin send NaN to the border too
            np.fmax(c, -1.0, out=c)
            np.fmin(c, hi, out=c)
        row, col, cells = buf[:n, 0], buf[:n, 1], idx[:n]
        np.multiply(row, ny + 2, out=row)
        np.add(row, col, out=row)
        np.copyto(cells, row, casting="unsafe")
        np.add(cells, ny + 3, out=cells)
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


def build_score_field(walls: np.ndarray, s_r: float = 0.2, k_d: int = 5) -> ScoreField:
    """Rasterize (W, 2, 2) wall endpoints at s_r and dilate with the linear k_d falloff."""
    walls = np.asarray(walls, dtype=np.float64).reshape(-1, 2, 2)
    if walls.shape[0] == 0:
        raise EmptyModel("no walls to build a score field from")
    _check_cell_size(s_r)
    if k_d < 1:
        raise ValueError("k_d must be >= 1")
    raster = rasterize_segments(walls, scale=1.0 / s_r, pad_px=k_d + 2)
    dist = distance_transform_cdt(~raster.grid, metric="chessboard").astype(np.float64)
    values = np.where(dist <= k_d, 1.0 - (dist / k_d) * (1.0 - 1.0 / k_d), 0.0)
    return ScoreField(values, raster.origin, s_r)


def _mass(field: ScoreField, q: np.ndarray, rot_t, shift, buf, idx) -> float:
    """Sum of the field values under the posed q."""
    n = q.shape[0]
    if n == 0:
        return 0.0
    # the matmul of Se2Pose.apply: OpenBLAS rounds it with FMA, which a
    # column-wise x*c - y*s would not reproduce
    xy = np.matmul(q, rot_t, out=buf[:n])
    return float(field._lookup(xy, shift, buf, idx).sum())


def _prepare(q_ng_xy, q_g_xy, cap: Optional[int]):
    """(q_ng, q_g, buf, idx): (N, 2) float64 point sets, each thinned to
    `cap` rows by an even stride, and scratch sized to the larger."""
    sets = []
    for q_xy in (q_ng_xy, q_g_xy):
        q = np.asarray(q_xy, dtype=np.float64).reshape(-1, 2)
        if cap is not None and q.shape[0] > cap:
            q = q[np.linspace(0, q.shape[0] - 1, cap).astype(np.int64)]
        sets.append(q)
    q_ng, q_g = sets
    if q_ng.shape[0] == 0:
        raise EmptySubmap("no non-ground points to score")
    return (q_ng, q_g) + _scratch(max(q_ng.shape[0], q_g.shape[0]))


def _collapse(q: np.ndarray, s_r: float, buf: np.ndarray):
    """(centres, weights, n_loose): q's occupied s_r cells, in cell units.

    Rows beyond `COARSE_LIMIT` cells or non-finite are not collapsed;
    `n_loose` counts them. The cell keys are packed, exactly, into the
    float scratch `buf` and sorted there.
    """
    n = q.shape[0]
    for k in (0, 1):
        c = buf[:n, k]
        np.divide(q[:, k], s_r, out=c)
        np.floor(c, out=c)
    ix, iy = buf[:n, 0], buf[:n, 1]
    # NaN fails the comparison, so it is loose too
    loose = ~((np.abs(ix) <= COARSE_LIMIT) & (np.abs(iy) <= COARSE_LIMIT))
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
    centres = np.column_stack([kx, ky]) - COARSE_LIMIT + 0.5
    return centres, weights, n_loose


def _coarse_bounds(field: ScoreField, poses: Sequence[Se2Pose], q_ng: np.ndarray, buf, idx) -> np.ndarray:
    """An upper bound on every pose's confidence from the collapsed cells.

    See the module docstring for why it is never below the exact phase-1
    bound. Poses go through the scratch buffers in chunks of rows // cells,
    so no array grows with the candidate count times the points.
    """
    n_ng = q_ng.shape[0]
    centres, weights, n_loose = _collapse(q_ng, field.s_r, buf)
    m = centres.shape[0]
    xyt = np.array([(p.x, p.y, p.yaw) for p in poses], dtype=np.float64).reshape(-1, 3)
    lim = COARSE_LIMIT * field.s_r
    ok = np.isfinite(xyt[:, 2]) & np.all(np.abs(xyt[:, :2]) <= lim, axis=1)
    ok &= bool(np.all(np.abs(field.origin) <= lim))
    xyt[~ok] = 0.0  # bounded trivially below, so a harmless stand-in pose
    # [cx, cy, 1] @ [R.T; (t - origin) / s_r]: posed centres in field cells
    c, s = np.cos(xyt[:, 2]), np.sin(xyt[:, 2])
    offset = (xyt[:, :2] - field.origin) / field.s_r
    affine = np.stack([np.column_stack([c, s]), np.column_stack([-s, c]), offset], axis=1)
    centres = np.column_stack([centres, np.ones(m)])
    award = np.zeros(xyt.shape[0])
    step = buf.shape[0] // max(m, 1)
    for a in range(0, xyt.shape[0], step):
        b = min(a + step, xyt.shape[0])
        # a view of buf: rows split into (candidate, cell), columns kept
        np.matmul(centres, affine[a:b], out=buf[: (b - a) * m].reshape(b - a, m, 2))
        peaks = field._gather(field._max_bordered, (b - a) * m, buf, idx)
        award[a:b] = peaks.reshape(b - a, m) @ weights
    margin = (n_ng + 8) * 2.0**-48
    s_a = (award + n_loose) * (1.0 + margin)
    s_a[~ok] = n_ng
    return s_a / n_ng


def score_candidate(
    field: ScoreField,
    pose: Se2Pose,
    q_ng_xy: np.ndarray,
    q_g_xy: np.ndarray,
    lam: float = 0.5,
) -> ScoreResult:
    """Score one pose hypothesis; points are submap-frame xy."""
    return select_best(field, [Candidate(pose, 0, 0, 1)], q_ng_xy, q_g_xy, lam)[1]


def select_best(
    field: ScoreField,
    candidates: Sequence[Candidate],
    q_ng_xy: np.ndarray,
    q_g_xy: np.ndarray,
    lam: float = 0.5,
    max_points: Optional[int] = None,
) -> Tuple[int, ScoreResult]:
    """Return (best index, its exact ScoreResult) over the candidates.

    Ties on confidence fall back to vote count, then to the
    lexicographically smallest pose. max_points caps the scored points
    with a deterministic even stride; confidence is a normalized mean,
    so the cap trades a little variance for time. The points are thinned
    once and every candidate reuses the same two scratch buffers.

    Branch and bound, exact: every candidate gets a coarse upper bound
    on its confidence (`_coarse_bounds`), and candidates are visited in
    descending coarse order until one falls strictly below the best
    confidence so far. A visited candidate gets its exact award and the
    bound s_a / n_ng, and its ground penalty only while that bound
    reaches the best. The winner is the tie-break minimum over the
    scored candidates in input order, so it is the candidate an
    exhaustive pass picks.
    """
    if not candidates:
        raise NoCandidates("no pose candidates to score")
    # the bounds rest on lam * s_p >= 0
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0, got %r" % (lam,))
    q_ng, q_g, buf, idx = _prepare(q_ng_xy, q_g_xy, max_points)
    n_ng, n_g = q_ng.shape[0], q_g.shape[0]
    coarse = _coarse_bounds(field, [c.pose for c in candidates], q_ng, buf, idx)

    results = {}
    best_conf = -np.inf
    for i in np.argsort(-coarse, kind="stable").tolist():
        if coarse[i] < best_conf:
            break
        p = candidates[i].pose
        rot_t, shift = p.rotation().T, (p.x, p.y)
        s_a = _mass(field, q_ng, rot_t, shift, buf, idx)
        if s_a / n_ng < best_conf:
            continue
        s_p = _mass(field, q_g, rot_t, shift, buf, idx)
        conf = float((s_a - lam * s_p) / n_ng)
        results[i] = ScoreResult(s_a, s_p, n_ng, n_g, conf)
        best_conf = max(best_conf, conf)
    best = min(
        sorted(results),
        key=lambda i: (
            -results[i].confidence,
            -candidates[i].votes,
            candidates[i].pose.x,
            candidates[i].pose.y,
            candidates[i].pose.yaw,
        ),
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
