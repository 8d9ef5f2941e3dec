"""Octree plane segmentation and gravity-based patch classification.

Points are binned into voxels of size s_v. A voxel whose covariance
eigenvalues (l1 >= l2 >= l3, l3 floored at 1e-12) satisfy l2/l3 >
sigma_lambda is kept as a planar patch; otherwise it splits into eight
children. Cells with fewer than four points are discarded. A patch
holds the row indices of its points, not a copy of them. Adjacent
coplanar patches are merged afterwards as connected components of the
compatible pairs and refit from the pooled rows.
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .graph import connected_groups

EIGENVALUE_FLOOR = 1e-12
MIN_CELL_POINTS = 4
# guards against non-planar clusters that never thin out (e.g. coincident
# points); s_v/2**6 is far below any useful patch size
MAX_OCTREE_DEPTH = 6

__all__ = [
    "PlanarPatch",
    "SegmentationResult",
    "segment_planes",
    "merge_patches",
    "classify_patches",
]


@dataclass
class PlanarPatch:
    """A planar cluster of points with its fitted plane and cell bounds."""

    idx: np.ndarray  # (N,) int64 rows of the segmented point array
    centroid: np.ndarray  # (3,)
    normal: np.ndarray  # (3,), unit
    eigenvalues: np.ndarray  # (3,), descending
    cell_lo: np.ndarray  # (3,) octree cell AABB
    cell_hi: np.ndarray
    kind: str = ""


@dataclass
class SegmentationResult:
    patches: List[PlanarPatch]
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
    """Octree split of `points` into planar patches labelled by row index."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n_total = pts.shape[0]
    if n_total == 0:
        return SegmentationResult([], 0, 0)
    if s_v <= 0.0:
        raise ValueError("s_v must be positive")

    origin = pts.min(axis=0)
    patches: List[PlanarPatch] = []
    active_idx = np.arange(n_total)
    active = pts
    n_assigned = 0
    size = float(s_v)

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

        cell_keys = keys[order[starts]]
        normals = _canonical_sign(v[:, :, 0])

        for g in np.nonzero(planar)[0]:
            idx = active_idx[order[starts[g] : starts[g] + counts[g]]]
            lo = origin + cell_keys[g] * size
            patches.append(
                PlanarPatch(
                    idx=idx,
                    centroid=means[g],
                    normal=normals[g],
                    eigenvalues=w[g][::-1].copy(),
                    cell_lo=lo,
                    cell_hi=lo + size,
                )
            )
            n_assigned += idx.shape[0]

        keep = big[inv] & ~planar[inv]
        active_idx = active_idx[keep]
        active = active[keep]
        size *= 0.5

    return SegmentationResult(patches, n_total, n_total - n_assigned)


def merge_patches(
    patches: List[PlanarPatch],
    points: np.ndarray,
    normal_tol_deg: float = 10.0,
    dist_tol_m: float = 0.1,
) -> List[PlanarPatch]:
    """Join cell-adjacent coplanar patches and refit each group from `points`.

    A group is a connected component of the pairs that touch (cell boxes
    within 1e-9 m) and are coplanar (normals within the angle, each
    centroid within dist_tol_m of the other's plane). Its `idx` is the
    members' `idx` in member order; singletons pass through unchanged.
    """
    n = len(patches)
    if n == 0:
        return []
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cos_tol = float(np.cos(np.radians(normal_tol_deg)))
    lo = np.array([p.cell_lo for p in patches])
    hi = np.array([p.cell_hi for p in patches])
    normals = np.array([p.normal for p in patches])
    centroids = np.array([p.centroid for p in patches])

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

    merged: List[PlanarPatch] = []
    for members in connected_groups(n, i[coplanar], j[coplanar]):
        if members.shape[0] == 1:
            merged.append(patches[members[0]])
            continue
        idx = np.concatenate([patches[m].idx for m in members])
        centroid, normal, eig = _fit_plane(pts[idx])
        merged.append(
            PlanarPatch(
                idx=idx,
                centroid=centroid,
                normal=normal,
                eigenvalues=eig,
                cell_lo=lo[members].min(axis=0),
                cell_hi=hi[members].max(axis=0),
            )
        )
    merged.sort(key=lambda p: tuple(np.round(p.centroid, 9)))
    return merged


def classify_patches(
    patches: List[PlanarPatch], gravity: np.ndarray, angle_tol_deg: float = 15.0
) -> Tuple[List[PlanarPatch], List[PlanarPatch], List[PlanarPatch]]:
    """Split patches into (walls, ground, other) by angle to gravity.

    Ground normals are parallel to gravity within the tolerance, wall
    normals perpendicular to it. Sets each patch's `kind` in place.
    """
    g = np.asarray(gravity, dtype=np.float64)
    g = g / np.linalg.norm(g)
    cos_par = float(np.cos(np.radians(angle_tol_deg)))
    sin_perp = float(np.sin(np.radians(angle_tol_deg)))
    walls, ground, other = [], [], []
    for p in patches:
        c = abs(float(p.normal @ g))
        if c >= cos_par:
            p.kind = "ground"
            ground.append(p)
        elif c <= sin_perp:
            p.kind = "wall"
            walls.append(p)
        else:
            p.kind = "other"
            other.append(p)
    return walls, ground, other
