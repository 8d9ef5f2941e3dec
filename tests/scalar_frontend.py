"""Reference oracle: the front end as first written.

The octree segmentation that copies point blocks into each patch object,
the union-find patch merge and segment chaining, the per-patch gravity
classification, the Hough detector with a full `(P, theta_bins)` rho
table and one accumulator-sized `bincount` per claimed run, the corner
loop over segment pairs that builds one `Corner` per intersection, and
the ground mask that hashes every point's bytes. Segments here are
`LineSegment2` lists.
The package's array front end must reproduce these bit for bit;
`test_frontend_oracle.py` checks that. Patches here carry `points`, the
package's `Patches` label each row of the segmented array.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from scan2plan.errors import EmptyGrid
from scan2plan.geometry import LineSegment2
from scan2plan.lines import BevRaster

EIGENVALUE_FLOOR = 1e-12
MIN_CELL_POINTS = 4
# guards against non-planar clusters that never thin out (e.g. coincident
# points); s_v/2**6 is far below any useful patch size
MAX_OCTREE_DEPTH = 6


@dataclass
class PlanarPatch:
    """A planar cluster of points with its fitted plane and cell bounds."""

    points: np.ndarray  # (N, 3)
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
    """(centroid, unit normal, eigenvalues descending) of a point set."""
    centroid = points.mean(axis=0)
    d = points - centroid
    cov = d.T @ d / points.shape[0]
    w, v = np.linalg.eigh(cov)  # ascending
    normal = _canonical_sign(v[:, 0])
    return centroid, normal, w[::-1].copy()


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
        packed = (keys[:, 0] << 40) | (keys[:, 1] << 20) | keys[:, 2]
        uniq, inv, counts = np.unique(packed, return_inverse=True, return_counts=True)
        n_groups = uniq.shape[0]

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

        first = np.unique(inv, return_index=True)[1]
        cell_keys = keys[first]
        order = np.argsort(inv, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(counts)])

        for g in np.nonzero(planar)[0]:
            grp = active[order[bounds[g] : bounds[g + 1]]]
            normal = _canonical_sign(v[g][:, 0])
            lo = origin + cell_keys[g] * size
            patches.append(
                PlanarPatch(
                    points=grp,
                    centroid=means[g],
                    normal=normal,
                    eigenvalues=w[g][::-1].copy(),
                    cell_lo=lo,
                    cell_hi=lo + size,
                )
            )
            n_assigned += grp.shape[0]

        keep = big[inv] & ~planar[inv]
        active = active[keep]
        size *= 0.5

    return SegmentationResult(patches, n_total, n_total - n_assigned)


def _compatible(a: PlanarPatch, b: PlanarPatch, cos_tol: float, dist_tol: float) -> bool:
    if abs(float(a.normal @ b.normal)) < cos_tol:
        return False
    gap = b.centroid - a.centroid
    return abs(float(a.normal @ gap)) <= dist_tol and abs(float(b.normal @ gap)) <= dist_tol


def merge_patches(
    patches: List[PlanarPatch],
    normal_tol_deg: float = 10.0,
    dist_tol_m: float = 0.1,
) -> List[PlanarPatch]:
    """Union-find over cell-adjacent coplanar patches, refitting each group."""
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

    eps = 1e-9
    for i in range(n):
        touch = np.all((lo[i + 1 :] <= hi[i] + eps) & (lo[i] <= hi[i + 1 :] + eps), axis=1)
        for j in np.nonzero(touch)[0] + i + 1:
            if find(i) != find(j) and _compatible(patches[i], patches[j], cos_tol, dist_tol_m):
                parent[find(j)] = find(i)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    merged: List[PlanarPatch] = []
    for members in groups.values():
        if len(members) == 1:
            merged.append(patches[members[0]])
            continue
        pooled = np.vstack([patches[i].points for i in members])
        centroid, normal, eig = _fit_plane(pooled)
        merged.append(
            PlanarPatch(
                points=pooled,
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


def detect_segments(
    raster: BevRaster,
    l_min_px: int = 30,
    gap_px: float = 5.0,
    band_px: float = 5.0,
    theta_bins: int = 180,
) -> List[LineSegment2]:
    """Hough peaks -> greedy pixel claiming -> gap-split runs -> TLS refit.

    Returns segments in meters. Peaks need l_min_px votes in a 1 px rho
    bin; runs shorter than l_min_px are dropped.
    """
    if not np.any(raster.grid):
        raise EmptyGrid("empty raster")
    px = np.argwhere(raster.grid).astype(np.float64) + 0.5  # pixel centers

    thetas = np.arange(theta_bins) * np.pi / theta_bins
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(np.ceil(np.hypot(*raster.grid.shape))) + 2

    rho_all = px[:, 0][:, None] * cos_t[None, :] + px[:, 1][:, None] * sin_t[None, :]
    acc = np.empty((theta_bins, 2 * diag), dtype=np.int64)
    rho_idx = np.round(rho_all).astype(np.int64) + diag
    for t in range(theta_bins):
        acc[t] = np.bincount(rho_idx[:, t], minlength=2 * diag)

    t_bin, r_bin = np.nonzero(acc >= l_min_px)
    votes = acc[t_bin, r_bin]
    order = np.lexsort((r_bin, t_bin, -votes))

    # claims decrement the accumulator so exhausted peaks drop out in O(1)
    acc_flat = acc.reshape(-1)
    theta_base = np.arange(theta_bins) * (2 * diag)

    claimed = np.zeros(px.shape[0], dtype=bool)
    n_unclaimed = px.shape[0]
    segments: List[LineSegment2] = []
    for k in order:
        if n_unclaimed < l_min_px:
            break
        t, r = t_bin[k], r_bin[k]
        if acc[t, r] < l_min_px:
            continue
        dist = np.abs(rho_all[:, t] - (r - diag))
        band = (dist <= band_px) & ~claimed
        if int(np.sum(band)) < l_min_px:
            continue
        idx = np.nonzero(band)[0]
        # split claimed pixels into runs along the line direction
        along = -px[idx, 0] * sin_t[t] + px[idx, 1] * cos_t[t]
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
            lin = (theta_base[None, :] + rho_idx[run]).reshape(-1)
            acc_flat -= np.bincount(lin, minlength=acc_flat.shape[0])
            seg = _tls_segment(px[run])
            if seg is not None:
                segments.append(
                    LineSegment2(raster.m_of(seg[0]), raster.m_of(seg[1]))
                )
    return segments


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


def unit_direction(seg: LineSegment2) -> np.ndarray:
    """The segment's p0 -> p1 unit vector."""
    d = seg.p1 - seg.p0
    return d / np.linalg.norm(d)


def merge_refit(
    segments: Sequence[LineSegment2],
    endpoint_tol_m: float = 0.3,
    angle_tol_deg: float = 5.0,
) -> List[LineSegment2]:
    """Chain near-collinear segments with close endpoints, refit each chain.

    Singleton chains pass through unchanged.
    """
    n = len(segments)
    if n == 0:
        return []
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

    chains = {}
    for i in range(n):
        chains.setdefault(find(i), []).append(i)

    out: List[LineSegment2] = []
    for members in chains.values():
        if len(members) == 1:
            out.append(segments[members[0]])
            continue
        samples = []
        for i in members:
            s = segments[i]
            k = max(2, int(np.ceil(s.length / 0.05)) + 1)
            t = np.linspace(0.0, 1.0, k)
            samples.append(s.p0 + t[:, None] * (s.p1 - s.p0))
        fit = _tls_segment(np.vstack(samples))
        out.append(LineSegment2(fit[0], fit[1]))
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
