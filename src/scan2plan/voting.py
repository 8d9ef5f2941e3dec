"""Sparse pose voting over an (x, y, yaw) grid with hierarchical extraction.

Each surviving triplet correspondence casts one vote: the closed-form
alignment of its three vertex pairs, gated by the fit residual to reject
false congruences (the descriptor query pairs no mirror images).

Votes are binned about a pivot p, the midpoint of the xy box of the
source vertices rounded to whole metres: a vote (t, yaw) goes to the
cell of its pose about p, t + R(yaw) p, which a yaw error e moves by
about |s - p| e (s the triplet's centroid), not |s| e, however far the
source frame's origin lies. Every pose that leaves this module is
composed with T(-p), so it maps the caller's source frame.

Candidates come out of a three-step reduction: top cells by own count,
re-ranking by 3x3x3 neighborhood sums (yaw wraps), then region growing
over the kept cells by group labels (`graph.connected_labels`). Each
group's vote-weighted mean pose comes from `np.bincount` over the
labels, which sums in ascending cell order.
All ties break lexicographically on the cell index. The ranked groups
come out as one `Candidates` array set; a `Candidate` object is built
only for a row that is read as one.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import EmptyGrid
from .geometry import Se2Pose, normalize_angle, solve_se2_batch
from .graph import connected_labels

# fewer bins make the -1 and +1 yaw neighbours of a cell one cell, so a
# 3x3x3 neighbourhood sum would count its votes more than once
MIN_YAW_BINS = 3

__all__ = [
    "VoteGrid",
    "Candidate",
    "Candidates",
    "cast_votes",
    "hierarchical_vote",
]


@dataclass
class VoteGrid:
    """Occupied vote cells only, sorted by packed (ix, iy, iyaw) index.

    A packed index is the row-major index of (ix - x0, iy - y0, iyaw) in a
    box of shape `dims`, sized from the votes with one spare cell on each
    side in x and y, so every cell and its neighbours pack without
    overflow and packed order is (ix, iy, iyaw) order. Cells and sums
    hold the votes' poses about `pivot` (see the module docstring).
    """

    origin: Tuple[int, int]  # (x0, y0)
    dims: Tuple[int, int, int]  # (nx, ny, n_yaw_bins)
    packed: np.ndarray  # (N,) int64, sorted ascending
    counts: np.ndarray  # (N,) int64
    sum_x: np.ndarray  # (N,) running sums of member poses
    sum_y: np.ndarray
    sum_cos: np.ndarray
    sum_sin: np.ndarray
    n_rejected: int = 0
    pivot: Tuple[float, float] = (0.0, 0.0)  # whole metres, in the source frame

    @property
    def n_yaw_bins(self) -> int:
        return self.dims[2]

    @property
    def total_votes(self) -> int:
        return int(self.counts.sum())



@dataclass
class Candidate:
    """A pose hypothesis from one vote cluster."""

    pose: Se2Pose
    votes: int
    merged_score: int
    n_cells: int


@dataclass(frozen=True)
class Candidates:
    """Ranked pose hypotheses, one row per vote cluster.

    Each pose maps the source frame of the voting correspondences onto
    their destination frame. `xyt` holds x, y and yaw, with yaw wrapped
    to [-pi, pi) as `Se2Pose` wraps it; wrapping a wrapped yaw again
    changes no bit, so `cands[k]` is the k-th `Candidate` exactly. A
    slice gives a `Candidates`, and iteration yields `Candidate`s.
    """

    xyt: np.ndarray  # (C, 3) float64
    votes: np.ndarray  # (C,) int64
    merged_score: np.ndarray  # (C,) int64
    n_cells: np.ndarray  # (C,) int64

    def __len__(self) -> int:
        return self.xyt.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Candidates(self.xyt[k], self.votes[k], self.merged_score[k], self.n_cells[k])
        x, y, yaw = self.xyt[k].tolist()
        return Candidate(Se2Pose(x, y, yaw), int(self.votes[k]), int(self.merged_score[k]), int(self.n_cells[k]))


def yaw_bins(r_yaw_deg: float) -> int:
    """Number of yaw cells of r_yaw_deg degrees covering the full turn.

    Raises ValueError unless r_yaw_deg is finite and positive and gives
    at least MIN_YAW_BINS cells.
    """
    # NaN fails the range test too
    n = np.ceil(360.0 / r_yaw_deg - 1e-9) if 0.0 < r_yaw_deg < np.inf else 0
    if n < MIN_YAW_BINS:
        raise ValueError("r_yaw_deg must give at least %d yaw bins, got %r" % (MIN_YAW_BINS, r_yaw_deg))
    return int(n)


def _cell_indices(grid_r_xy: float, r_yaw_deg: float, n_yaw: int, x, y, yaw):
    ix = np.floor(x / grid_r_xy).astype(np.int64)
    iy = np.floor(y / grid_r_xy).astype(np.int64)
    r_yaw = np.radians(r_yaw_deg)
    iyaw = np.floor((normalize_angle(yaw) + np.pi) / r_yaw).astype(np.int64)
    iyaw = np.minimum(iyaw, n_yaw - 1)
    return ix, iy, iyaw


def _unpivot(x, y, yaw, pivot):
    """t - R(yaw) pivot: the (x, y) of poses (x, y, yaw) about `pivot`, composed with T(-pivot)."""
    c, s = np.cos(yaw), np.sin(yaw)
    return x - (c * pivot[0] - s * pivot[1]), y - (s * pivot[0] + c * pivot[1])


def cast_votes(
    correspondences: Tuple[np.ndarray, np.ndarray],
    r_xy: float = 0.15,
    r_yaw_deg: float = 1.0,
    residual_max_m: float = 0.3,
) -> VoteGrid:
    """Solve every (src, dst) vertex-array pair and bin the accepted poses
    about the pivot of the src vertices.

    Raises ValueError when r_yaw_deg is not finite and positive or gives
    fewer than MIN_YAW_BINS yaw bins, or when the votes span more cells
    than an int64 indexes.
    """
    n_yaw = yaw_bins(r_yaw_deg)
    src, dst = correspondences
    x = y = yaw = np.zeros(0)
    pivot = (0.0, 0.0)
    if len(src):
        # column by column: numpy reduces an (N, 2) array over axis 0 slowly
        pivot = tuple(float(np.round((v.min() + v.max()) / 2.0)) for v in src.reshape(-1, 2).T)
        x, y, yaw, rms = solve_se2_batch(src, dst)
        ok = rms <= residual_max_m
        x, y, yaw = x[ok], y[ok], yaw[ok]
    n_rejected = len(src) - x.shape[0]
    c, s = np.cos(yaw), np.sin(yaw)
    x, y = x + (c * pivot[0] - s * pivot[1]), y + (s * pivot[0] + c * pivot[1])  # t + R(yaw) pivot

    ix, iy, iyaw = _cell_indices(r_xy, r_yaw_deg, n_yaw, x, y, yaw)
    if x.shape[0]:
        origin = (int(ix.min()) - 1, int(iy.min()) - 1)
        dims = (int(ix.max()) - origin[0] + 2, int(iy.max()) - origin[1] + 2, n_yaw)
    else:
        origin, dims = (0, 0), (1, 1, n_yaw)
    packed = np.ravel_multi_index((ix - origin[0], iy - origin[1], iyaw), dims)
    uniq, inv, counts = np.unique(packed, return_inverse=True, return_counts=True)
    n = uniq.shape[0]
    return VoteGrid(
        origin,
        dims,
        uniq,
        counts.astype(np.int64),
        np.bincount(inv, weights=x, minlength=n),
        np.bincount(inv, weights=y, minlength=n),
        np.bincount(inv, weights=c, minlength=n),
        np.bincount(inv, weights=s, minlength=n),
        n_rejected,
        pivot,
    )


def _neighbor_table(grid: VoteGrid) -> np.ndarray:
    """(N, 27) indices into the cell arrays, -1 where absent; column 13 is self.

    Column 9 (dx + 1) + 3 (dy + 1) + dyaw + 1 is the cell's own packed key
    plus a fixed x/y offset and a yaw step that wraps at the end bins, so
    one searchsorted finds all 27."""
    ny, n_yaw = grid.dims[1], grid.dims[2]
    n = grid.packed.shape[0]
    step = np.array([-1, 0, 1])
    xy = ((step[:, None] * ny + step[None, :]) * n_yaw).ravel()
    iyaw = grid.packed % n_yaw
    first, last = iyaw == 0, iyaw == n_yaw - 1
    dyaw = np.stack([np.where(first, n_yaw - 1, -1), np.zeros(n, np.int64), np.where(last, 1 - n_yaw, 1)], axis=1)
    nb = (grid.packed[:, None, None] + xy[None, :, None] + dyaw[:, None, :]).reshape(n, 27)
    pos = np.minimum(np.searchsorted(grid.packed, nb), n - 1)
    return np.where(grid.packed[pos] == nb, pos, -1)


def hierarchical_vote(
    grid: VoteGrid,
    l_cells: Optional[int] = 10000,
    k_cells: Optional[int] = 5000,
    j_candidates: Optional[int] = 1500,
) -> Candidates:
    """Three-step candidate extraction; None limits mean keep everything.

    Returns the top groups ranked by merged score, ties on the smallest
    cell's packed index; each group's mean pose is composed with
    T(-grid.pivot), so it is in the caller's frame.

    Raises ValueError for a limit below 1, or a grid of fewer than
    MIN_YAW_BINS yaw bins.
    """
    for name, limit in (("l_cells", l_cells), ("k_cells", k_cells), ("j_candidates", j_candidates)):
        if limit is not None and limit < 1:
            raise ValueError("%s must be None or at least 1, got %r" % (name, limit))
    if grid.n_yaw_bins < MIN_YAW_BINS:
        raise ValueError("a vote grid needs at least %d yaw bins, got %d" % (MIN_YAW_BINS, grid.n_yaw_bins))
    n = grid.packed.shape[0]
    if n == 0:
        raise EmptyGrid("no votes were cast")

    table = _neighbor_table(grid)

    # step 1: top L cells by own count
    order1 = np.lexsort((grid.packed, -grid.counts))
    sel1 = order1[:l_cells]

    # step 2: re-rank those by 3x3x3 neighborhood sums over the full grid
    padded = np.concatenate([grid.counts, [0]])
    merged_all = padded[table].sum(axis=1)
    order2 = np.lexsort((grid.packed[sel1], -merged_all[sel1]))
    kept = np.sort(sel1[order2[:k_cells]])

    # step 3: region growing over kept cells (26-connected, yaw wraps);
    # local maps a cell to its kept row, and absent neighbours (-1) read
    # the spare last slot, so both drop out of the edges
    local = np.full(n + 1, -1, dtype=np.int64)
    local[kept] = np.arange(kept.shape[0])
    nb = local[table[kept]]
    rows, cols = np.nonzero(nb >= 0)
    labels = connected_labels(kept.shape[0], rows, nb[rows, cols])
    n_groups = int(labels.max()) + 1
    merged = np.zeros(n_groups, dtype=np.int64)
    np.maximum.at(merged, labels, merged_all[kept])
    # groups are numbered by their smallest kept cell, so a stable sort
    # on -merged breaks ties on that cell's packed index
    top = np.argsort(-merged, kind="stable")[:j_candidates]
    votes, sx, sy, s_sin, s_cos = (
        np.bincount(labels, weights=a[kept])[top]
        for a in (grid.counts, grid.sum_x, grid.sum_y, grid.sum_sin, grid.sum_cos)
    )
    yaw = normalize_angle(np.arctan2(s_sin, s_cos))
    xyt = np.column_stack([*_unpivot(sx / votes, sy / votes, yaw, grid.pivot), yaw])
    return Candidates(xyt, votes.astype(np.int64), merged[top], np.bincount(labels)[top])
