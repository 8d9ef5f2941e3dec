"""Reference oracle: the back end as first written.

The wall raster was a grid walk (a DDA in the style of Amanatides & Woo)
from cell to cell along a hairline to each side of every wall, one
Python step per cell; `verify._rasterize`'s column pass must mark the
same cells and give the same origin.

The score field looked up through a bounds mask and a masked 2-D fancy
index, one `pose.apply` + `value_at` pair per scored point set, and the
region-growing step that scans `labels == comp` for every component and
sums member cells one by one. The package's bordered-field scoring
and grouped clustering must reproduce these bit for bit;
`test_backend_oracle.py` checks that. The clustering oracle builds its
own neighbour table, one pack and search per offset, and sums each
component's pose sequentially in ascending cell order, the order the
package's `np.bincount` adds in, and then composes it with T(-pivot),
scalar by scalar, into the caller's frame. `pose_clusters` is a second,
independent clustering oracle: dicts and a breadth-first search over the
vote poses themselves, with no vote grid at all. Scoring is the one rule
(s_a - lam * s_p) / n_ng; `select_award_only` ranks on s_a / n_ng with
no ground points at all, which `select_best` at lam = 0 must match.

The SE(2) solvers took the SVD of the 2x2 cross-covariance and fixed the
sign so det(R) = +1. The package's closed form is not bit-exact with
them; `test_geometry.py` bounds the difference. `closed_form_se2_batch`
is that closed form as first written, on (M, K, 2) strided views with
`mean(axis=1)` and `sum(axis=1)`; the package's component-major solver
must match it bit for bit at K = 3.

Five test helpers that call the package live here too, since no
package code needs them: `lookup` is the package's field lookup of
model-frame points, `candidates_of` packs a `Candidate` list into the
`Candidates` arrays `select_best` takes, `score_pose` is the package's
exact score of one pose, `select_best` over it alone, `total_votes`
counts a grid's votes, and `vanilla_vote` is the mean pose of the
single cell with the most votes, the baseline that acceptance check A8
holds `hierarchical_vote` against.
"""

import collections
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from scan2plan.errors import EmptyGrid, EmptySubmap
from scan2plan.geometry import Se2Pose, normalize_angle
from scan2plan.verify import MAX_RASTER_CELLS, ScoreResult, _scratch, prepare_scoring
from scan2plan.verify import select_best as package_select_best
from scan2plan.voting import Candidate, Candidates, VoteGrid, _unpivot


def solve_se2(src: Sequence, dst: Sequence) -> Tuple[Se2Pose, float]:
    s = np.asarray(src, dtype=float).reshape(-1, 2)
    d = np.asarray(dst, dtype=float).reshape(-1, 2)
    if s.shape[0] < 2 or s.shape != d.shape:
        raise ValueError("need >= 2 matched point pairs")
    s_mean = s.mean(axis=0)
    d_mean = d.mean(axis=0)
    s_c = s - s_mean
    d_c = d - d_mean
    if np.max(np.linalg.norm(s_c, axis=1)) < 1e-9:
        raise ValueError("all source points coincide")

    h = s_c.T @ d_c
    u, _, vt = np.linalg.svd(h)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    if sign == 0.0:
        sign = 1.0
    r = vt.T @ np.diag([1.0, sign]) @ u.T
    t = d_mean - r @ s_mean
    yaw = float(np.arctan2(r[1, 0], r[0, 0]))
    pose = Se2Pose(t[0], t[1], yaw)
    rms = float(np.sqrt(np.mean(np.sum((s @ r.T + t - d) ** 2, axis=1))))
    return pose, rms


def solve_se2_batch(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    s = np.asarray(src, dtype=float)
    d = np.asarray(dst, dtype=float)
    s_mean = s.mean(axis=1, keepdims=True)
    d_mean = d.mean(axis=1, keepdims=True)
    s_c = s - s_mean
    d_c = d - d_mean

    h = np.einsum("mki,mkj->mij", s_c, d_c)
    u, _, vt = np.linalg.svd(h)
    v = np.swapaxes(vt, 1, 2)
    det = np.linalg.det(v @ np.swapaxes(u, 1, 2))
    corr = np.repeat(np.eye(2)[None, :, :], s.shape[0], axis=0)
    corr[:, 1, 1] = np.where(det < 0.0, -1.0, 1.0)
    r = v @ corr @ np.swapaxes(u, 1, 2)

    t = d_mean[:, 0, :] - np.einsum("mij,mj->mi", r, s_mean[:, 0, :])
    yaw = np.arctan2(r[:, 1, 0], r[:, 0, 0])
    res = np.einsum("mij,mkj->mki", r, s) + t[:, None, :] - d
    rms = np.sqrt(np.mean(np.sum(res**2, axis=2), axis=1))
    return t[:, 0], t[:, 1], yaw, rms


def closed_form_se2_batch(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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


def candidates_of(items: Sequence[Candidate]) -> Candidates:
    """The rows of a `Candidate` sequence as `Candidates` arrays."""
    xyt = np.array([(c.pose.x, c.pose.y, c.pose.yaw) for c in items], dtype=np.float64).reshape(-1, 3)
    ints = (np.array([getattr(c, f) for c in items], dtype=np.int64) for f in ("votes", "merged_score", "n_cells"))
    return Candidates(xyt, *ints)


def lookup(field, points_m) -> np.ndarray:
    """The package's field values at model-frame xy points, one per row."""
    pts = np.asarray(points_m, dtype=np.float64).reshape(-1, 2)
    # a zero shift changes at most the sign of a zero, never a cell
    return field._lookup(pts, (0.0, 0.0), *_scratch(pts.shape[0]))


def score_pose(field, pose: Se2Pose, q_ng_xy, q_g_xy, lam=0.5) -> ScoreResult:
    """The package's exact score of one pose, submap-frame xy points."""
    sets = prepare_scoring(q_ng_xy, q_g_xy, field.s_r)
    return package_select_best(field, candidates_of([Candidate(pose, 0, 0, 1)]), sets, lam)[1]


def total_votes(grid: VoteGrid) -> int:
    """The votes that passed the residual gate, over every cell."""
    return int(grid.counts.sum())


def vanilla_vote(grid: VoteGrid) -> Tuple[Se2Pose, int]:
    """(Mean pose, count) of the single best cell by raw count; ties go to
    the smallest cell index."""
    if grid.packed.shape[0] == 0:
        raise EmptyGrid("no votes were cast")
    best = int(np.lexsort((grid.packed, -grid.counts))[0])
    c = int(grid.counts[best])
    # 0.0 + s turns a -0.0 sum into +0.0, as the zero-started group sums do
    sx, sy, s_sin, s_cos = (0.0 + a[best] for a in (grid.sum_x, grid.sum_y, grid.sum_sin, grid.sum_cos))
    yaw = float(normalize_angle(np.arctan2(s_sin, s_cos)))
    return Se2Pose(*_unpivot(float(sx) / c, float(sy) / c, yaw, grid.pivot), yaw), c


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


def rasterize(walls: np.ndarray, scale: float, pad_px: int) -> Tuple[np.ndarray, np.ndarray]:
    """(grid, origin): a bool grid marking every cell touched by a (W, 2, 2)
    wall row, W >= 1; cell (ix, iy) covers origin + [ix, ix+1) / scale.

    Raises ValueError when the grid would exceed MAX_RASTER_CELLS.
    """
    # the cell count is checked in floats, before the int cast and the allocation
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.floor(walls.min(axis=(0, 1)) * scale)
        hi = np.floor(walls.max(axis=(0, 1)) * scale)
        shape = hi - lo + 2 * pad_px + 1
        fits = np.prod(shape) <= MAX_RASTER_CELLS
    if not fits:
        raise ValueError(
            "a %g x %g raster at %g px/m exceeds %d cells" % (shape[0], shape[1], scale, MAX_RASTER_CELLS)
        )
    lo, hi = lo.astype(np.int64) - pad_px, hi.astype(np.int64) + pad_px + 1
    grid = np.zeros((int(hi[0] - lo[0]), int(hi[1] - lo[1])), dtype=bool)
    d = walls[:, 1] - walls[:, 0]
    dirs = d / np.sqrt(np.vecdot(d, d))[:, None]
    # cells are closed squares: a segment running exactly along a cell
    # boundary touches both sides, so traverse a hairline off each side
    eps = 1e-7
    for (p0, p1), u in zip(walls, dirs):
        n = np.array([-u[1], u[0]]) * eps
        for off in (n, -n):
            for cx, cy in _traverse_cells(p0 * scale + off, p1 * scale + off):
                grid[cx - lo[0], cy - lo[1]] = True
    return grid, lo / scale


def value_at(field, points_m: np.ndarray) -> np.ndarray:
    pts = np.asarray(points_m, dtype=np.float64).reshape(-1, 2)
    ij = np.floor((pts - field.origin) / field.s_r).astype(np.int64)
    inside = (
        (ij[:, 0] >= 0)
        & (ij[:, 1] >= 0)
        & (ij[:, 0] < field.values.shape[0])
        & (ij[:, 1] < field.values.shape[1])
    )
    out = np.zeros(pts.shape[0])
    out[inside] = field.values[ij[inside, 0], ij[inside, 1]]
    return out


def score_candidate(field, pose: Se2Pose, q_ng_xy, q_g_xy, lam=0.5) -> ScoreResult:
    q_ng = np.asarray(q_ng_xy, dtype=np.float64).reshape(-1, 2)
    q_g = np.asarray(q_g_xy, dtype=np.float64).reshape(-1, 2)
    if q_ng.shape[0] == 0:
        raise EmptySubmap("no non-ground points to score")
    v_ng = value_at(field, pose.apply(q_ng))
    v_g = value_at(field, pose.apply(q_g)) if q_g.shape[0] else np.zeros(0)
    s_a = float(v_ng.sum())
    s_p = float(v_g.sum())
    conf = (s_a - lam * s_p) / q_ng.shape[0]
    return ScoreResult(s_a, s_p, q_ng.shape[0], q_g.shape[0], conf)


def award_only(field, pose: Se2Pose, q_ng: np.ndarray) -> float:
    """Award-only confidence s_a / n_ng, with no ground term; it is also
    the phase-1 bound of the pruned selection."""
    return float(value_at(field, pose.apply(q_ng)).sum()) / q_ng.shape[0]


def _subsample(points: np.ndarray, cap: Optional[int]) -> np.ndarray:
    """At most `cap` rows at an even stride; a cap of None or 0 keeps every row."""
    if not cap or points.shape[0] <= cap:
        return points
    idx = np.linspace(0, points.shape[0] - 1, cap).astype(np.int64)
    return points[idx]


def _pick(candidates: Sequence[Candidate], confidences: Sequence[float]) -> int:
    """Highest confidence, then most votes, then the smallest pose."""
    return min(
        range(len(candidates)),
        key=lambda i: (
            -confidences[i],
            -candidates[i].votes,
            candidates[i].pose.x,
            candidates[i].pose.y,
            candidates[i].pose.yaw,
        ),
    )


def select_best(
    field,
    candidates: Sequence[Candidate],
    q_ng_xy,
    q_g_xy,
    lam: float = 0.5,
    max_points: Optional[int] = None,
) -> Tuple[int, List[ScoreResult]]:
    if not candidates:
        raise ValueError("no pose candidates to score")
    q_ng = _subsample(np.asarray(q_ng_xy, dtype=np.float64).reshape(-1, 2), max_points)
    q_g = _subsample(np.asarray(q_g_xy, dtype=np.float64).reshape(-1, 2), max_points)
    results = [score_candidate(field, c.pose, q_ng, q_g, lam=lam) for c in candidates]
    return _pick(candidates, [r.confidence for r in results]), results


def select_award_only(
    field, candidates: Sequence[Candidate], q_ng_xy, max_points: Optional[int] = None
) -> Tuple[int, List[float]]:
    """The exhaustive selection on `award_only`, which reads no ground point."""
    q_ng = _subsample(np.asarray(q_ng_xy, dtype=np.float64).reshape(-1, 2), max_points)
    confidences = [award_only(field, c.pose, q_ng) for c in candidates]
    return _pick(candidates, confidences), confidences


def _neighbor_table(grid: VoteGrid) -> np.ndarray:
    """(N, 27) indices into the cell arrays, -1 where absent; column 13 is
    self. Each cell decoded to its offsets from the grid's origin, then one
    wrap, pack and search per neighbour offset; the spare cell on each
    side keeps every x and y neighbour inside `dims`."""
    ix, iy, iyaw = np.unravel_index(grid.packed, grid.dims)
    n_yaw = grid.dims[2]
    n = grid.packed.shape[0]
    table = np.full((n, 27), -1, dtype=np.int64)
    col = 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dyaw in (-1, 0, 1):
                nb = np.ravel_multi_index((ix + dx, iy + dy, (iyaw + dyaw) % n_yaw), grid.dims)
                pos = np.searchsorted(grid.packed, nb)
                pos = np.clip(pos, 0, n - 1)
                hit = grid.packed[pos] == nb
                table[hit, col] = pos[hit]
                col += 1
    return table


def _running_sum(values: np.ndarray) -> float:
    """Sequential sum from +0.0, in the order given."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _cell_pose(grid: VoteGrid, idx: np.ndarray) -> Se2Pose:
    """Vote-weighted mean pose of the cells idx, every sum sequential in
    ascending cell order, composed with T(-grid.pivot)."""
    idx = np.sort(idx)
    c = float(np.sum(grid.counts[idx]))
    mean = Se2Pose(
        _running_sum(grid.sum_x[idx]) / c,
        _running_sum(grid.sum_y[idx]) / c,
        float(np.arctan2(_running_sum(grid.sum_sin[idx]), _running_sum(grid.sum_cos[idx]))),
    )
    px, py = grid.pivot
    cos, sin = np.cos(mean.yaw), np.sin(mean.yaw)
    return Se2Pose(mean.x - (cos * px - sin * py), mean.y - (sin * px + cos * py), mean.yaw)


def hierarchical_vote(
    grid: VoteGrid,
    l_cells: Optional[int] = 10000,
    k_cells: Optional[int] = 5000,
    j_candidates: Optional[int] = 16,
) -> List[Candidate]:
    n = grid.packed.shape[0]
    if n == 0:
        raise EmptyGrid("no votes were cast")

    table = _neighbor_table(grid)

    order1 = np.lexsort((grid.packed, -grid.counts))
    sel1 = order1[: l_cells if l_cells is not None else n]

    padded = np.concatenate([grid.counts, [0]])
    merged_all = padded[table].sum(axis=1)
    order2 = np.lexsort((grid.packed[sel1], -merged_all[sel1]))
    sel2 = sel1[order2[: k_cells if k_cells is not None else sel1.shape[0]]]
    sel2_sorted = np.sort(sel2)

    in_k = np.zeros(n + 1, dtype=bool)
    in_k[sel2_sorted] = True
    nb = table[sel2_sorted]
    nb_in = np.where((nb >= 0) & in_k[np.where(nb >= 0, nb, n)], nb, -1)
    local = np.searchsorted(sel2_sorted, np.where(nb_in >= 0, nb_in, 0))
    rows = np.repeat(np.arange(sel2_sorted.shape[0]), 27)
    cols = local.ravel()
    mask = (nb_in.ravel() >= 0)
    graph = coo_matrix(
        (np.ones(int(mask.sum()), dtype=np.int8), (rows[mask], cols[mask])),
        shape=(sel2_sorted.shape[0], sel2_sorted.shape[0]),
    )
    n_comp, labels = connected_components(graph, directed=False)

    cands: List[Candidate] = []
    for comp in range(n_comp):
        member_local = np.nonzero(labels == comp)[0]
        members = sel2_sorted[member_local]
        rank_score = int(merged_all[members].max())
        cands.append(
            Candidate(
                pose=_cell_pose(grid, members),
                votes=int(grid.counts[members].sum()),
                merged_score=rank_score,
                n_cells=int(members.shape[0]),
            )
        )
    anchor = [int(sel2_sorted[labels == comp].min()) for comp in range(n_comp)]
    rank = sorted(
        range(n_comp), key=lambda i: (-cands[i].merged_score, grid.packed[anchor[i]])
    )
    keep = rank[: j_candidates if j_candidates is not None else n_comp]
    return [cands[i] for i in keep]


def pose_clusters(poses, pivot, r_xy=0.15, r_yaw_deg=1.0):
    """Merge, cluster and rank (x, y, yaw) vote poses with dicts and a
    search: cells keyed by each pose about `pivot`, each cluster's mean
    pose composed with T(-pivot). One dict per cluster, strongest first."""
    n_yaw = 360
    r_yaw = math.radians(r_yaw_deg)
    px, py = pivot
    cells = collections.defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
    for x, y, yaw in poses:
        x, y = x + (math.cos(yaw) * px - math.sin(yaw) * py), y + (math.sin(yaw) * px + math.cos(yaw) * py)
        yaw = normalize_angle(yaw)
        key = (
            math.floor(x / r_xy),
            math.floor(y / r_xy),
            min(math.floor((yaw + math.pi) / r_yaw), n_yaw - 1),
        )
        c = cells[key]
        c[0] += 1
        c[1] += x
        c[2] += y
        c[3] += math.cos(yaw)
        c[4] += math.sin(yaw)

    def neighbors(key):
        ix, iy, iyaw = key
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dyaw in (-1, 0, 1):
                    yield (ix + dx, iy + dy, (iyaw + dyaw) % n_yaw)

    merged = {k: sum(cells[n][0] for n in neighbors(k) if n in cells) for k in cells}

    unvisited = set(cells)
    clusters = []
    while unvisited:
        seed = unvisited.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            cur = stack.pop()
            for n in neighbors(cur):
                if n in unvisited:
                    unvisited.remove(n)
                    comp.add(n)
                    stack.append(n)
        clusters.append(comp)

    out = []
    for comp in clusters:
        votes = sum(cells[k][0] for k in comp)
        sx = sum(cells[k][1] for k in comp)
        sy = sum(cells[k][2] for k in comp)
        sc = sum(cells[k][3] for k in comp)
        ss = sum(cells[k][4] for k in comp)
        mean = Se2Pose(sx / votes, sy / votes, math.atan2(ss, sc))
        pose = mean.compose(Se2Pose(-px, -py, 0.0))
        out.append(
            {
                "votes": votes,
                "n_cells": len(comp),
                "merged": max(merged[k] for k in comp),
                "anchor": min(comp),
                "pose": (pose.x, pose.y, pose.yaw),
            }
        )
    out.sort(key=lambda d: (-d["merged"], d["anchor"]))
    return out
