"""Occupancy-aware candidate scoring against the wall model.

The wall model is rasterized at s_r and dilated with a linear falloff:
value 1 on occupied cells down to 1/k_d at Chebyshev distance k_d, zero
beyond. Non-ground submap points collect award where they land on wall
mass; ground points landing there collect a penalty, since real ground
is free space. Confidence is the normalized difference, so a pose that
drapes scanned walls over modeled walls while keeping scanned floor off
them scores near 1.

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

Selection is exact branch and bound. Phase 1 scores only the non-ground
half of every candidate (s_a and s_miss: one lookup, two sums) and
bounds its confidence by the best ground half, s_p = 0 and s_free = n_g.
With field values in [0, 1] and lam >= 0, s_p >= 0 and s_free <= n_g
hold for the rounded sums too, and IEEE rounding is monotone, so for
every variant the bound is never below the exact confidence. Phase 2
scores the ground half in descending bound order, reusing the phase-1
bits, and stops at the first bound strictly below the best confidence
so far; ties with it are still scored. The winner is the tie-break
minimum over the scored candidates taken in input order, which is the
exhaustive pass's winner. `select_best` returns it with its exact
`ScoreResult`; pruned candidates have no exact score.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.ndimage import distance_transform_cdt

from .errors import EmptyModel, EmptySubmap, NoCandidates
from .geometry import Se2Pose
from .lines import rasterize_segments
from .voting import Candidate

VARIANTS = ("osc", "osc1", "osc2", "osc3")

__all__ = [
    "VARIANTS",
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
    """

    values: np.ndarray  # (nx, ny) float64 in [0, 1]
    origin: np.ndarray  # (2,) meters
    s_r: float  # meters per cell

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if not np.all((values >= 0.0) & (values <= 1.0)):  # also rejects NaN
            raise ValueError("score field values must lie in [0, 1]")
        object.__setattr__(self, "_bordered", np.pad(values, 1).ravel())

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
        nx, ny = self.values.shape
        for k, hi in ((0, nx), (1, ny)):
            c = buf[:n, k]
            np.add(xy[:, k], shift[k], out=c)
            np.subtract(c, self.origin[k], out=c)
            np.divide(c, self.s_r, out=c)
            np.floor(c, out=c)
            # clip before the int cast; fmax/fmin send NaN to the border too
            np.fmax(c, -1.0, out=c)
            np.fmin(c, hi, out=c)
        row, col, cells = buf[:n, 0], buf[:n, 1], idx[:n]
        np.multiply(row, ny + 2, out=row)
        np.add(row, col, out=row)
        np.copyto(cells, row, casting="unsafe")
        np.add(cells, ny + 3, out=cells)
        return np.take(self._bordered, cells, out=row)


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
    variant: str


def build_score_field(walls: np.ndarray, s_r: float = 0.2, k_d: int = 5) -> ScoreField:
    """Rasterize (W, 2, 2) wall endpoints at s_r and dilate with the linear k_d falloff."""
    walls = np.asarray(walls, dtype=np.float64).reshape(-1, 2, 2)
    if walls.shape[0] == 0:
        raise EmptyModel("no walls to build a score field from")
    if k_d < 1:
        raise ValueError("k_d must be >= 1")
    raster = rasterize_segments(walls, scale=1.0 / s_r, pad_px=k_d + 2)
    dist = distance_transform_cdt(~raster.grid, metric="chessboard").astype(np.float64)
    values = np.where(dist <= k_d, 1.0 - (dist / k_d) * (1.0 - 1.0 / k_d), 0.0)
    return ScoreField(values, raster.origin, s_r)


def _confidence(s_a, s_p, s_free, s_miss, n_ng, n_g, lam, variant):
    if variant == "osc":
        return (s_a - lam * s_p) / n_ng
    if variant == "osc1":
        return s_a / n_ng
    if variant == "osc2":
        return (s_a + s_free) / (n_ng + n_g) if n_g else s_a / n_ng
    if variant == "osc3":
        denom = n_ng + n_g
        return (s_a + s_free - lam * s_p - lam * s_miss) / (denom if n_g else n_ng)
    raise ValueError("unknown scoring variant %r" % (variant,))


def _mass(field: ScoreField, q: np.ndarray, rot_t, shift, buf, idx) -> Tuple[float, float]:
    """(sum of v, sum of 1 - v) for the field values v under the posed q."""
    n = q.shape[0]
    if n == 0:
        return 0.0, 0.0
    # the matmul of Se2Pose.apply: OpenBLAS rounds it with FMA, which a
    # column-wise x*c - y*s would not reproduce
    xy = np.matmul(q, rot_t, out=buf[:n])
    v = field._lookup(xy, shift, buf, idx)
    s = float(v.sum())
    np.subtract(1.0, v, out=v)
    return s, float(v.sum())


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


def _upper_bounds(field: ScoreField, poses: Sequence[Se2Pose], prepared, lam: float, variant: str):
    """Phase 1: the non-ground half of every pose and a bound on its confidence.

    Returns (ng, bound): each pose's (s_a, s_miss) as floats, and its
    confidence with the ground half at its best (s_p = 0, s_free = n_g)
    as a float64 array.
    """
    q_ng, q_g, buf, idx = prepared
    ng = [_mass(field, q_ng, p.rotation().T, (p.x, p.y), buf, idx) for p in poses]
    s_a, s_miss = np.array(ng).reshape(-1, 2).T
    n_ng, n_g = q_ng.shape[0], q_g.shape[0]
    return ng, _confidence(s_a, 0.0, n_g, s_miss, n_ng, n_g, lam, variant)


def score_candidate(
    field: ScoreField,
    pose: Se2Pose,
    q_ng_xy: np.ndarray,
    q_g_xy: np.ndarray,
    lam: float = 0.5,
    variant: str = "osc",
) -> ScoreResult:
    """Score one pose hypothesis; points are submap-frame xy."""
    return select_best(field, [Candidate(pose, 0, 0, 1)], q_ng_xy, q_g_xy, lam, variant)[1]


def select_best(
    field: ScoreField,
    candidates: Sequence[Candidate],
    q_ng_xy: np.ndarray,
    q_g_xy: np.ndarray,
    lam: float = 0.5,
    variant: str = "osc",
    max_points: Optional[int] = None,
) -> Tuple[int, ScoreResult]:
    """Return (best index, its exact ScoreResult) over the candidates.

    Ties on confidence fall back to vote count, then to the
    lexicographically smallest pose. max_points caps the scored points
    with a deterministic even stride; confidence is a normalized mean,
    so the cap trades a little variance for time. The points are thinned
    once and every candidate reuses the same two scratch buffers.

    Branch and bound, exact: every candidate gets its non-ground half
    and an upper bound on its confidence (`_upper_bounds`); the ground
    half is then scored in descending bound order until a bound falls
    strictly below the best confidence so far. The winner is the
    tie-break minimum over the scored candidates in input order, so it
    is the candidate an exhaustive pass picks, even for NaN poses.
    """
    if not candidates:
        raise NoCandidates("no pose candidates to score")
    # the bound rests on lam * s_p >= 0
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ValueError("lam must be finite and >= 0, got %r" % (lam,))
    prepared = _prepare(q_ng_xy, q_g_xy, max_points)
    q_ng, q_g, buf, idx = prepared
    n_ng, n_g = q_ng.shape[0], q_g.shape[0]
    ng, bound = _upper_bounds(field, [c.pose for c in candidates], prepared, lam, variant)

    results = {}
    best_conf = -np.inf
    for i in np.argsort(-bound, kind="stable").tolist():
        if bound[i] < best_conf:
            break
        (s_a, s_miss), p = ng[i], candidates[i].pose
        s_p, s_free = _mass(field, q_g, p.rotation().T, (p.x, p.y), buf, idx)
        conf = float(_confidence(s_a, s_p, s_free, s_miss, n_ng, n_g, lam, variant))
        results[i] = ScoreResult(s_a, s_p, n_ng, n_g, conf, variant)
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
