"""Wall segments from wall patches, segment merging and corner extraction.

A wall patch's plane is a 2-D line in the bird's-eye view: through its
centroid's xy, along the xy part of its normal turned 90 degrees. Its
points are projected onto that line, and the sorted projections split
into runs at gaps over RUN_GAP_M; every run at least MIN_RUN_M long is a
segment. All patches are handled at once by two sorts: one along the
line, in which tied projections may take any order since runs read only
the projections, then a stable one by patch. The per-patch loop of
`tests/scalar_frontend.py` gives the same endpoints bit for bit.
Near-collinear segments with close endpoints are chained by connected
components. A chain of two or more is refit from pooled moments: a
member of length L, midpoint c and vector d weighs L at c and adds
L d d^T / 12 about c (its points spread evenly), and the chain runs
along the closed-form 2x2 principal axis through the length-weighted
mean, spanning the extreme projections of the members' endpoints. A
singleton keeps its row bit for bit, as a refit would round it afresh.
Corners are intersections of extended non-parallel segments, all pairs
tested at once as arrays, then deduplicated by greedy non-maximum
suppression on combined support length. Chains and corners match the
scalar loops of `tests/scalar_frontend.py` bit for bit.

Segments are (S, 2, 2) arrays of [p0, p1] rows in meters throughout;
`sqrt(vecdot(d, d))` rounds lengths and directions as `np.linalg.norm`
does.
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_positive
from .graph import connected_labels

# a wall run breaks where consecutive points along it lie further apart
RUN_GAP_M = 0.5
# shortest wall run kept as a segment
MIN_RUN_M = 1.0

__all__ = [
    "Corners",
    "patch_segments",
    "merge_refit",
    "extract_corners",
]


@dataclass
class Corners:
    """Wall-intersection landmarks, one row each, strongest first."""

    pos: np.ndarray  # (N, 2)
    dirs: np.ndarray  # (N, 2, 2) unit directions of the two incident walls
    support: np.ndarray  # (N,) combined incident wall length, meters

    def __len__(self) -> int:
        return self.pos.shape[0]


def patch_segments(
    points_xy: np.ndarray, label: np.ndarray, centroid_xy: np.ndarray, normal_xy: np.ndarray
) -> np.ndarray:
    """Runs of points along each patch's line, as (S, 2, 2) segments in meters.

    Point i belongs to patch label[i]; patch k's line runs through
    centroid_xy[k] along normal_xy[k] turned 90 degrees, and every
    normal_xy row must be non-zero. Each point is projected onto its
    patch's line; a patch's projections split into runs at gaps over
    RUN_GAP_M, and a run spanning at least MIN_RUN_M becomes the segment
    between its extreme projections. Segments come out by patch, then
    along the line.
    """
    n = np.asarray(normal_xy, dtype=np.float64)
    u = np.stack([-n[:, 1], n[:, 0]], axis=1) / np.hypot(n[:, 0], n[:, 1])[:, None]
    c = np.asarray(centroid_xy, dtype=np.float64)
    xy = np.asarray(points_xy, dtype=np.float64)
    # one column at a time, the operations of (xy - c) . u on whole rows
    t = xy[:, 0] - c[:, 0][label]
    t *= u[:, 0][label]
    ty = xy[:, 1] - c[:, 1][label]
    ty *= u[:, 1][label]
    t += ty
    del ty
    # by patch, then along the line: any sort along the line, as tied
    # projections give the same runs in either order, then a stable sort
    # on the narrowest patch type, which numpy radix-sorts up to 16 bits
    order = np.argsort(t)
    order = order[np.argsort(label[order].astype(np.min_scalar_type(c.shape[0])), kind="stable")]
    k, t = label[order], t[order]
    first = np.ones(t.shape[0], dtype=bool)
    first[1:] = (k[1:] != k[:-1]) | (t[1:] - t[:-1] > RUN_GAP_M)
    start, end = np.flatnonzero(first), np.flatnonzero(np.roll(first, -1))
    keep = t[end] - t[start] >= MIN_RUN_M
    k, ts = k[start[keep]], np.stack([t[start[keep]], t[end[keep]]], axis=1)
    return c[k][:, None, :] + ts[:, :, None] * u[k][:, None, :]


def merge_refit(
    segments: np.ndarray,
    endpoint_tol_m: float = 0.3,
    angle_tol_deg: float = 5.0,
) -> np.ndarray:
    """Chain near-collinear (S, 2, 2) segments with close endpoints, refit each chain.

    A chain is a connected component of the segment pairs within the
    angle whose nearest endpoints lie within endpoint_tol_m. Singleton
    chains pass through unchanged. Chains come out ordered by their
    endpoints rounded to 1e-9 m. Raises ValueError unless both
    tolerances are finite and positive.
    """
    check_positive(endpoint_tol_m=endpoint_tol_m, angle_tol_deg=angle_tol_deg)
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

    labels = connected_labels(n, i[linked], j[linked])
    # a member weighs its length L at its midpoint c and adds L d d^T / 12
    # about c; bincount sums each chain's members in ascending index order
    c = 0.5 * (ends[:, 0] + ends[:, 1])
    mass = np.bincount(labels, length)
    mean = np.stack([np.bincount(labels, length * c[:, k]) for k in (0, 1)], axis=1) / mass[:, None]
    e = c - mean[labels]
    a, b = [0, 0, 1], [0, 1, 1]  # the xx, xy and yy entries
    scatter = length[:, None] * (e[:, a] * e[:, b] + d[:, a] * d[:, b] / 12.0)
    sxx, sxy, syy = (np.bincount(labels, scatter[:, k]) for k in range(3))
    theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    p, along = ends - mean[labels][:, None, :], u[labels][:, None, :]
    t = p[..., 0] * along[..., 0] + p[..., 1] * along[..., 1]
    t0, t1 = np.full_like(mass, np.inf), np.full_like(mass, -np.inf)
    np.minimum.at(t0, labels, t.min(axis=1))
    np.maximum.at(t1, labels, t.max(axis=1))
    out = mean[:, None, :] + np.stack([t0, t1], axis=1)[:, :, None] * u[:, None, :]
    single = np.flatnonzero(np.bincount(labels)[labels] == 1)
    out[labels[single]] = ends[single]
    r = np.round(out, 9)
    return out[np.lexsort((r[:, 1, 1], r[:, 1, 0], r[:, 0, 1], r[:, 0, 0]))]


def extract_corners(
    segments: np.ndarray,
    extend_m: float = 1.0,
    nms_radius_m: float = 0.5,
    min_angle_deg: float = 10.0,
) -> Corners:
    """Intersect extended non-parallel pairs of (S, 2, 2) segments, then NMS by support, position, pair order.

    Raises ValueError unless extend_m is finite and >= 0 and nms_radius_m
    and min_angle_deg are finite and positive."""
    check_positive(nms_radius_m=nms_radius_m, min_angle_deg=min_angle_deg)
    if not 0.0 <= extend_m < np.inf:  # 0 keeps each corner on both segments
        raise ValueError("extend_m must be finite and >= 0, got %r" % (extend_m,))
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
