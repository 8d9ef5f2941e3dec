"""Octree plane segmentation and gravity-based patch classification.

Points are binned into voxels of size s_v. A voxel whose covariance
eigenvalues (l1 >= l2 >= l3, l3 floored at 1e-12) satisfy l2/l3 >
sigma_lambda is kept as a planar patch; otherwise it splits into eight
children. Cells with fewer than four points are discarded. `Patches`
holds a patch label per point row (-1 for none), the labelled rows
grouped by patch, and one row of plane and cell-box arrays per patch.
Adjacent coplanar patches are merged as connected components of the
compatible pairs, relabelled, and refit from their pooled rows.
Classification returns patch index arrays.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .graph import connected_groups

EIGENVALUE_FLOOR = 1e-12
MIN_CELL_POINTS = 4
# guards against non-planar clusters that never thin out (e.g. coincident
# points); s_v/2**6 is far below any useful patch size
MAX_OCTREE_DEPTH = 6

__all__ = [
    "Patches",
    "SegmentationResult",
    "segment_planes",
    "merge_patches",
    "classify_patches",
]


@dataclass
class Patches:
    """Planar patches of a point array, one row each, plus a label per point."""

    label: np.ndarray  # (N,) int64 patch of each point row, -1 for none
    rows: np.ndarray  # (M,) the labelled rows, patch 0's first, then patch 1's, ...
    centroid: np.ndarray  # (P, 3)
    normal: np.ndarray  # (P, 3), unit
    eigenvalues: np.ndarray  # (P, 3), descending
    cell_lo: np.ndarray  # (P, 3) octree cell AABB
    cell_hi: np.ndarray

    def __len__(self) -> int:
        return self.centroid.shape[0]

    def mask(self, patch_idx) -> np.ndarray:
        """True for the point rows that one of the given patches holds."""
        return np.isin(self.label, patch_idx)

    def starts(self) -> np.ndarray:
        """(P + 1,) offsets: patch k holds rows[starts[k]:starts[k + 1]]."""
        return np.searchsorted(self.label[self.rows], np.arange(len(self) + 1))


@dataclass
class SegmentationResult:
    patches: Patches
    n_points: int
    n_unassigned: int


def _canonical_sign(normals: np.ndarray) -> np.ndarray:
    """Flip each normal (last axis) so its largest-magnitude component is positive."""
    i = np.argmax(np.abs(normals), axis=-1)[..., None]
    return np.where(np.take_along_axis(normals, i, axis=-1) < 0, -normals, normals)


def _fit_plane(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centroid, unit normal, eigenvalues descending) of a point set."""
    centroid = points.mean(axis=0)
    d = points - centroid
    cov = d.T @ d / points.shape[0]
    w, v = np.linalg.eigh(cov)  # ascending
    normal = _canonical_sign(v[:, 0])
    return centroid, normal, w[::-1].copy()


def _cell_keys(keys: np.ndarray) -> np.ndarray:
    """Pack (N, 3) non-negative cell indices into int64, lexicographically.

    Fields are sized by the observed extents; ValueError when they do not
    fit an int64.
    """
    dims = tuple(int(k) + 1 for k in keys.max(axis=0))
    if math.prod(dims) > np.iinfo(np.int64).max:
        raise ValueError("octree cells up to %s do not pack into an int64; raise s_v" % (dims,))
    return np.ravel_multi_index(keys.T, dims)


def segment_planes(
    points: np.ndarray, s_v: float = 2.0, sigma_lambda: float = 10.0
) -> SegmentationResult:
    """Octree split of `points` into planar patches numbered by level, then cell."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n_total = pts.shape[0]
    if n_total == 0:
        none, rows = np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
        return SegmentationResult(Patches(rows, rows, none, none, none, none, none), 0, 0)
    if s_v <= 0.0:
        raise ValueError("s_v must be positive")

    origin = pts.min(axis=0)
    label = np.full(n_total, -1, dtype=np.int64)
    levels = []  # (rows, centroid, normal, eigenvalues, cell_lo, cell_hi) per level
    active_idx = np.arange(n_total)
    active = pts
    size = float(s_v)
    n_patches = 0

    for _ in range(MAX_OCTREE_DEPTH + 1):
        if active.shape[0] == 0:
            break
        # checked as floats: a cast past int64 gives garbage keys, not an error
        top = np.floor((active.max(axis=0) - origin) / size)
        if np.any(top >= 2.0**63):
            raise ValueError("octree cells up to %s exceed int64; raise s_v" % (top,))
        keys = np.floor((active - origin) / size).astype(np.int64)
        packed = _cell_keys(keys)
        # one stable sort gives the cells ascending and each cell's rows in
        # input order
        order = np.argsort(packed, kind="stable")
        starts = np.concatenate([[0], np.flatnonzero(np.diff(packed[order])) + 1])
        counts = np.diff(np.append(starts, order.shape[0]))
        n_groups = starts.shape[0]
        inv = np.empty_like(order)
        inv[order] = np.repeat(np.arange(n_groups), counts)

        sums = np.empty((n_groups, 3))
        prods = np.empty((n_groups, 3, 3))
        for i in range(3):
            sums[:, i] = np.bincount(inv, weights=active[:, i], minlength=n_groups)
            for j in range(i, 3):
                prods[:, i, j] = np.bincount(
                    inv, weights=active[:, i] * active[:, j], minlength=n_groups
                )
                prods[:, j, i] = prods[:, i, j]
        means = sums / counts[:, None]
        cov = prods / counts[:, None, None] - means[:, :, None] * means[:, None, :]

        big = counts >= MIN_CELL_POINTS
        w = np.zeros((n_groups, 3))
        v = np.zeros((n_groups, 3, 3))
        if np.any(big):
            w[big], v[big] = np.linalg.eigh(cov[big])
        l3 = np.maximum(w[:, 0], EIGENVALUE_FLOOR)
        planar = big & (w[:, 1] / l3 > sigma_lambda)

        patch_of = np.full(n_groups, -1, dtype=np.int64)
        patch_of[planar] = n_patches + np.arange(np.count_nonzero(planar))
        n_patches += np.count_nonzero(planar)
        label[active_idx] = patch_of[inv]  # active rows are all still unassigned
        lo = origin + keys[order[starts[planar]]] * size
        # the cells ascend, so this level's patches do, each rows ascending
        rows = active_idx[order[np.repeat(planar, counts)]]
        levels.append((rows, means[planar], _canonical_sign(v[planar, :, 0]), w[planar, ::-1], lo, lo + size))

        keep = big[inv] & ~planar[inv]
        active_idx = active_idx[keep]
        active = active[keep]
        size *= 0.5

    patches = Patches(label, *(np.concatenate(f) for f in zip(*levels)))
    return SegmentationResult(patches, n_total, int(np.count_nonzero(label < 0)))


def merge_patches(
    patches: Patches,
    points: np.ndarray,
    normal_tol_deg: float = 10.0,
    dist_tol_m: float = 0.1,
) -> Patches:
    """Join cell-adjacent coplanar patches and refit each group from `points`.

    A group is a connected component of the pairs that touch (cell boxes
    within 1e-9 m) and are coplanar (normals within the angle, each
    centroid within dist_tol_m of the other's plane). A group of several
    patches is refit from its rows in member order, each member's rows
    as `patches.rows` lists them (ascending from `segment_planes`); a
    singleton keeps its plane. Groups are relabelled in order of their
    rounded centroids, and the output lists each group's rows in the
    same member order.
    """
    n = len(patches)
    if n == 0:
        return patches
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cos_tol = float(np.cos(np.radians(normal_tol_deg)))
    lo, hi = patches.cell_lo, patches.cell_hi
    normals, centroids = patches.normal, patches.centroid

    eps = 1e-9
    touch = np.ones((n, n), dtype=bool)
    for a in range(3):
        touch &= (lo[None, :, a] <= hi[:, None, a] + eps) & (lo[:, None, a] <= hi[None, :, a] + eps)
    i, j = np.nonzero(np.triu(touch, 1))
    gap = centroids[j] - centroids[i]
    coplanar = (
        (np.abs(np.vecdot(normals[i], normals[j])) >= cos_tol)
        & (np.abs(np.vecdot(normals[i], gap)) <= dist_tol_m)
        & (np.abs(np.vecdot(normals[j], gap)) <= dist_tol_m)
    )

    groups = connected_groups(n, i[coplanar], j[coplanar])
    group_of = np.empty(n, dtype=np.int64)
    group_of[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), [g.shape[0] for g in groups])
    starts = patches.starts()

    first = [g[0] for g in groups]
    centroid, normal, eig = centroids[first], normals[first], patches.eigenvalues[first]
    cell_lo, cell_hi = lo[first], hi[first]
    for g, members in enumerate(groups):
        if members.shape[0] > 1:
            rows = np.concatenate([patches.rows[starts[m] : starts[m + 1]] for m in members])
            centroid[g], normal[g], eig[g] = _fit_plane(pts[rows])
            cell_lo[g], cell_hi[g] = lo[members].min(axis=0), hi[members].max(axis=0)

    r = np.round(centroid, 9)
    order = np.lexsort((r[:, 2], r[:, 1], r[:, 0]))
    new_of = np.argsort(order)[group_of]
    label = np.where(patches.label >= 0, new_of[patches.label], -1)
    # the input patches by new label, members ascending, each block as listed
    seq = np.argsort(new_of, kind="stable")
    rows = np.concatenate([patches.rows[starts[k] : starts[k + 1]] for k in seq])
    return Patches(label, rows, centroid[order], normal[order], eig[order], cell_lo[order], cell_hi[order])


def classify_patches(
    patches: Patches, gravity: np.ndarray, angle_tol_deg: float = 15.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split patch indices into (walls, ground, other) by angle to gravity.

    Ground normals are parallel to gravity within the tolerance, wall
    normals perpendicular to it.
    """
    g = np.asarray(gravity, dtype=np.float64)
    g = g / np.linalg.norm(g)
    cos_par = float(np.cos(np.radians(angle_tol_deg)))
    sin_perp = float(np.sin(np.radians(angle_tol_deg)))
    # vecdot, not `normal @ g`: it rounds each row as the one-patch dot does
    c = np.abs(np.vecdot(patches.normal, g))
    ground = c >= cos_par
    wall = ~ground & (c <= sin_perp)
    return np.flatnonzero(wall), np.flatnonzero(ground), np.flatnonzero(~ground & ~wall)
