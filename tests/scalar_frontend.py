"""Reference oracle: the front end as first written.

The octree segmentation that copies point blocks into each patch object,
the union-find patch merge and segment chaining (each chain's moments
summed one member at a time, in ascending member order), the per-patch
gravity classification, the wall runs cut one patch at a time from that
patch's own copied points, the corner loop over segment pairs that builds one
`Corner` per intersection, and the ground mask that hashes every
point's bytes. Segments here are `LineSegment2` lists.
The package's array front end must reproduce these bit for bit;
`test_frontend_oracle.py` checks that. Patches here carry `points` and
their cell's raw moments, the package's `Patches` label each row of the
segmented array. A cell's moments are sums over its rows in ascending
row order, each the first row plus numpy's pairwise sum of the rest (the
rule of an `np.add.reduceat` segment). A merged patch pools its members' moments in member
order and fits its plane from them with the formula `segment_planes`
applies to a cell. A cell's or a group's covariance is solved by the
package's closed-form `planes._eig_sym3`, so planes compare bit for bit;
`_fit_plane`, a centred refit, keeps LAPACK's `eigh` as the independent
reference the pooled-moment bounds are measured against.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from scan2plan.geometry import LineSegment2
from scan2plan.lines import MIN_RUN_M, RUN_GAP_M
from scan2plan.planes import _eig_sym3

EIGENVALUE_FLOOR = 1e-12
MIN_CELL_POINTS = 4
# guards against non-planar clusters that never thin out (e.g. coincident
# points); s_v/2**6 is far below any useful patch size
MAX_OCTREE_DEPTH = 6


@dataclass
class PlanarPatch:
    """A planar cluster of points with its fitted plane and cell bounds."""

    points: np.ndarray  # (N, 3)
    count: int
    sums: np.ndarray  # (3,) coordinate sums
    prods: np.ndarray  # (3, 3) coordinate-product sums
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


def _canonical_sign(normal: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(normal)))
    return -normal if normal[i] < 0 else normal


def _fit_plane(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centroid, unit normal, eigenvalues descending) of a point set, from centred coordinates."""
    centroid = points.mean(axis=0)
    d = points - centroid
    cov = d.T @ d / points.shape[0]
    w, v = np.linalg.eigh(cov)  # ascending
    normal = _canonical_sign(v[:, 0])
    return centroid, normal, w[::-1].copy()


def _fit_moments(count: int, sums: np.ndarray, prods: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centroid, unit normal, eigenvalues descending) of one patch's raw moments."""
    centroid = sums / count
    cov = prods / count - centroid[:, None] * centroid[None, :]
    normal, eig = _eig_sym3(cov[None])
    return centroid, normal[0], eig[0]


def _cell_sum(col: np.ndarray) -> float:
    """A cell's sum over its rows in ascending row order: the first row
    plus numpy's pairwise sum of the rest, as a segment of `np.add.reduceat`
    sums. The pairwise sum starts from -0.0, as reduceat's does, not from
    the +0.0 identity of a plain reduce, so rows of -0.0 sum to -0.0."""
    col = np.ascontiguousarray(col)
    return col[0] + np.add.reduce(col[1:], initial=-0.0) if col.shape[0] > 1 else col[0]


def segment_planes(
    points: np.ndarray, s_v: float = 2.0, sigma_lambda: float = 10.0
) -> SegmentationResult:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n_total = pts.shape[0]
    if n_total == 0:
        return SegmentationResult([], 0, 0)
    if s_v <= 0.0:
        raise ValueError("s_v must be positive")

    origin = pts.min(axis=0)
    patches: List[PlanarPatch] = []
    active = pts
    n_assigned = 0
    size = float(s_v)

    for _ in range(MAX_OCTREE_DEPTH + 1):
        if active.shape[0] == 0:
            break
        keys = np.floor((active - origin) / size).astype(np.int64)
        # cells numbered in the lexicographic (C) order of their coordinate rows
        cell_keys, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        n_groups = cell_keys.shape[0]

        order = np.argsort(inv, kind="stable")  # each cell's rows in ascending row order
        bounds = np.concatenate([[0], np.cumsum(counts)])
        sums = np.empty((n_groups, 3))
        prods = np.empty((n_groups, 3, 3))
        for g in range(n_groups):
            grp = active[order[bounds[g] : bounds[g + 1]]]
            for i in range(3):
                sums[g, i] = _cell_sum(grp[:, i])
                for j in range(i, 3):
                    prods[g, i, j] = prods[g, j, i] = _cell_sum(grp[:, i] * grp[:, j])
        means = sums / counts[:, None]
        cov = prods / counts[:, None, None] - means[:, :, None] * means[:, None, :]

        big = counts >= MIN_CELL_POINTS
        normals = np.zeros((n_groups, 3))
        w = np.zeros((n_groups, 3))  # descending
        if np.any(big):
            normals[big], w[big] = _eig_sym3(cov[big])
        l3 = np.maximum(w[:, 2], EIGENVALUE_FLOOR)
        planar = big & (w[:, 1] / l3 > sigma_lambda)

        for g in np.nonzero(planar)[0]:
            grp = active[order[bounds[g] : bounds[g + 1]]]
            lo = origin + cell_keys[g] * size
            patches.append(
                PlanarPatch(
                    points=grp,
                    count=int(counts[g]),
                    sums=sums[g],
                    prods=prods[g],
                    centroid=means[g],
                    normal=normals[g],
                    eigenvalues=w[g],
                    cell_lo=lo,
                    cell_hi=lo + size,
                )
            )
            n_assigned += grp.shape[0]

        keep = big[inv] & ~planar[inv]
        active = active[keep]
        size *= 0.5

    return SegmentationResult(patches, n_total, n_total - n_assigned)


def _dot3(u: np.ndarray, v: np.ndarray) -> float:
    """u . v summed x + y + z from the rounded products, with no fused multiply-add."""
    (ux, uy, uz), (vx, vy, vz) = u.tolist(), v.tolist()
    return ux * vx + uy * vy + uz * vz


def _compatible(a: PlanarPatch, b: PlanarPatch, cos_tol: float, dist_tol: float) -> bool:
    if abs(_dot3(a.normal, b.normal)) < cos_tol:
        return False
    gap = b.centroid - a.centroid
    return abs(_dot3(a.normal, gap)) <= dist_tol and abs(_dot3(b.normal, gap)) <= dist_tol


def touching_pairs(lo: np.ndarray, hi: np.ndarray, eps: float = 1e-9) -> List[Tuple[int, int]]:
    """(i, j), i < j, of the boxes within eps of each other on every axis, i then j ascending."""
    pairs = []
    for i in range(lo.shape[0]):
        touch = np.all((lo[i + 1 :] <= hi[i] + eps) & (lo[i] <= hi[i + 1 :] + eps), axis=1)
        pairs += [(i, int(j)) for j in np.nonzero(touch)[0] + i + 1]
    return pairs


def merge_patches(
    patches: List[PlanarPatch],
    normal_tol_deg: float = 10.0,
    dist_tol_m: float = 0.1,
) -> List[PlanarPatch]:
    """Union-find over cell-adjacent coplanar patches, fitting each group from pooled moments."""
    n = len(patches)
    if n == 0:
        return []
    cos_tol = float(np.cos(np.radians(normal_tol_deg)))
    lo = np.array([p.cell_lo for p in patches])
    hi = np.array([p.cell_hi for p in patches])

    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in touching_pairs(lo, hi):
        if find(i) != find(j) and _compatible(patches[i], patches[j], cos_tol, dist_tol_m):
            parent[find(j)] = find(i)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    merged: List[PlanarPatch] = []
    for members in groups.values():
        # pooled from -0.0, the additive identity, so a lone member keeps its moments
        count, sums, prods = 0, np.full(3, -0.0), np.full((3, 3), -0.0)
        for i in members:
            count, sums, prods = count + patches[i].count, sums + patches[i].sums, prods + patches[i].prods
        centroid, normal, eig = _fit_moments(count, sums, prods)
        merged.append(
            PlanarPatch(
                points=np.vstack([patches[i].points for i in members]),
                count=count,
                sums=sums,
                prods=prods,
                centroid=centroid,
                normal=normal,
                eigenvalues=eig,
                cell_lo=np.min([patches[i].cell_lo for i in members], axis=0),
                cell_hi=np.max([patches[i].cell_hi for i in members], axis=0),
                kind="",
            )
        )
    merged.sort(key=lambda p: tuple(np.round(p.centroid, 9)))
    return merged


def classify_patches(
    patches: List[PlanarPatch], gravity: np.ndarray, gravity_tol_deg: float = 15.0
) -> Tuple[List[PlanarPatch], List[PlanarPatch], List[PlanarPatch]]:
    """Split patches into (walls, ground, other) by angle to gravity.

    Ground normals are parallel to gravity within the tolerance, wall
    normals perpendicular to it. Sets each patch's `kind` in place.
    """
    g = np.asarray(gravity, dtype=np.float64)
    g = g / np.linalg.norm(g)
    cos_par = float(np.cos(np.radians(gravity_tol_deg)))
    sin_perp = float(np.sin(np.radians(gravity_tol_deg)))
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


def patch_segments(
    walls: Sequence[PlanarPatch], gap_m: float = RUN_GAP_M, min_run_m: float = MIN_RUN_M
) -> List[LineSegment2]:
    """Point runs along each wall patch's line, one patch at a time.

    A patch's line runs through its centroid's xy along its normal's xy
    part turned 90 degrees. Its points' projections are sorted, split at
    gaps over gap_m, and every run spanning at least min_run_m is emitted.
    """
    segments: List[LineSegment2] = []
    for p in walls:
        c = p.centroid[:2]
        u = np.array([-p.normal[1], p.normal[0]]) / np.hypot(p.normal[0], p.normal[1])
        d = p.points[:, :2] - c
        t = d[:, 0] * u[0] + d[:, 1] * u[1]
        t = t[np.argsort(t)]
        for run in np.split(t, np.flatnonzero(np.diff(t) > gap_m) + 1):
            if run[-1] - run[0] >= min_run_m:
                segments.append(LineSegment2(c + run[0] * u, c + run[-1] * u))
    return segments


def unit_direction(seg: LineSegment2) -> np.ndarray:
    """The segment's p0 -> p1 unit vector."""
    d = seg.p1 - seg.p0
    return d / np.linalg.norm(d)


def chains(segments: Sequence[LineSegment2], endpoint_tol_m: float, angle_tol_deg: float) -> List[List[int]]:
    """Member indices of each chain, by union-find over the segment pairs
    within the angle whose nearest endpoints lie within endpoint_tol_m;
    chains in order of their first member, members ascending."""
    n = len(segments)
    cos_tol = np.cos(np.radians(angle_tol_deg))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            a, b = segments[i], segments[j]
            if abs(float(unit_direction(a) @ unit_direction(b))) < cos_tol:
                continue
            gaps = [
                np.linalg.norm(pa - pb)
                for pa in (a.p0, a.p1)
                for pb in (b.p0, b.p1)
            ]
            if min(gaps) <= endpoint_tol_m and find(i) != find(j):
                parent[find(j)] = find(i)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def merge_refit(
    segments: Sequence[LineSegment2],
    endpoint_tol_m: float = 0.3,
    angle_tol_deg: float = 5.0,
) -> List[LineSegment2]:
    """Chain near-collinear segments with close endpoints, refit each chain.

    A chain of two or more takes the principal axis of its members'
    length-weighted moments through their weighted mean, and spans their
    endpoints' extreme projections. Singleton chains pass through unchanged.
    """
    out: List[LineSegment2] = []
    for members in chains(segments, endpoint_tol_m, angle_tol_deg):
        if len(members) == 1:
            out.append(segments[members[0]])
            continue
        # a member is its midpoint with weight L and scatter L d d^T / 12
        # about it, added in ascending member order
        w, sx, sy = 0.0, 0.0, 0.0
        for i in members:
            s = segments[i]
            length, c = s.length, 0.5 * (s.p0 + s.p1)
            w, sx, sy = w + length, sx + length * c[0], sy + length * c[1]
        m = np.array([sx, sy]) / w
        sxx, sxy, syy = 0.0, 0.0, 0.0
        for i in members:
            s = segments[i]
            length, e, d = s.length, 0.5 * (s.p0 + s.p1) - m, s.p1 - s.p0
            sxx += length * (e[0] * e[0] + d[0] * d[0] / 12.0)
            sxy += length * (e[0] * e[1] + d[0] * d[1] / 12.0)
            syy += length * (e[1] * e[1] + d[1] * d[1] / 12.0)
        theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy)
        u = np.array([np.cos(theta), np.sin(theta)])
        t = [
            (p[0] - m[0]) * u[0] + (p[1] - m[1]) * u[1]
            for i in members
            for p in (segments[i].p0, segments[i].p1)
        ]
        out.append(LineSegment2(m + min(t) * u, m + max(t) * u))
    out.sort(key=lambda s: (tuple(np.round(s.p0, 9)), tuple(np.round(s.p1, 9))))
    return out


@dataclass
class Corner:
    """A wall-intersection landmark with the two incident wall directions."""

    position: np.ndarray  # (2,)
    dirs: np.ndarray  # (2, 2) unit directions of the incident walls
    support: float  # combined incident wall length, meters


def extract_corners(
    segments: Sequence[LineSegment2],
    extend_m: float = 1.0,
    nms_radius_m: float = 0.5,
    min_angle_deg: float = 10.0,
) -> List[Corner]:
    """Intersect extended non-parallel segment pairs, then NMS by support."""
    candidates: List[Corner] = []
    sin_min = np.sin(np.radians(min_angle_deg))
    for i in range(len(segments)):
        a = segments[i]
        da = unit_direction(a)
        for j in range(i + 1, len(segments)):
            b = segments[j]
            db = unit_direction(b)
            cross = da[0] * db[1] - da[1] * db[0]
            if abs(cross) < sin_min:
                continue
            rhs = b.p0 - a.p0
            t = (rhs[0] * db[1] - rhs[1] * db[0]) / cross
            u = (rhs[0] * da[1] - rhs[1] * da[0]) / cross
            if -extend_m <= t <= a.length + extend_m and -extend_m <= u <= b.length + extend_m:
                candidates.append(
                    Corner(a.p0 + t * da, np.array([da, db]), a.length + b.length)
                )
    candidates.sort(
        key=lambda c: (-c.support, tuple(np.round(c.position, 9)))
    )
    kept: List[Corner] = []
    for c in candidates:
        if all(np.linalg.norm(c.position - k.position) > nms_radius_m for k in kept):
            kept.append(c)
    return kept


def _ground_mask(points: np.ndarray, ground_patches) -> np.ndarray:
    keys = set()
    for p in ground_patches:
        for row in p.points:
            keys.add(row.tobytes())
    if not keys:
        return np.zeros(points.shape[0], dtype=bool)
    return np.fromiter((row.tobytes() in keys for row in points), bool, points.shape[0])
