"""Octree plane segmentation and gravity-based patch classification.

Points are binned into voxels of size s_v. A voxel whose covariance
eigenvalues (l1 >= l2 >= l3, l3 floored at 1e-12) satisfy l2/l3 >
sigma_lambda is kept as a planar patch; otherwise it splits into eight
children (octree segmentation after Vo et al., ISPRS J. 2015). Cells
with fewer than four points are discarded, and the split stops at a
level where no cell has four.

The octree sorts the points once. Level 0 keys a row by its cell's three
integer coordinates packed mixed radix over the extent present, built
one coordinate column at a time, and orders the rows by a stable sort of
that key in the narrowest integer type that holds it (a radix sort when
it fits 16 bits). The three coordinate columns and the row indices are
gathered once in that order and carried down: each level compresses
them to the rows of the cells it splits and permutes them by the child
order. A child is keyed inside its parent, as the split parent's rank
times 8 plus its octant (the low bit of floor((x - origin) / size) on
each axis), a key below 8 times the split cells that is never packed
against the extent. Since both sorts are stable, a cell's rows are
contiguous in the carried columns and in ascending row order, and its
count, coordinate sums and coordinate-product sums are segment sums
(`np.add.reduceat`): the first row plus numpy's pairwise sum of the
rest. A level's planar cells are numbered in the C order of their
integer coordinates. Those coordinates double at each level, so level 0
rejects, with a ValueError that names s_v, an extent whose deepest
cells would not fit an int64.

`Patches` holds a patch label per point row (-1 for none) and, per
patch, its raw moments (point count, coordinate sums, coordinate-product
sums), its plane and its cell box. A plane is fitted from moments alone,
so adjacent coplanar patches merge as connected components of the
compatible pairs by summing their members' moments: no point is read
twice. Touching pairs come from a sweep over the cell boxes sorted by
their lower x, so the pair search grows with the pairs that overlap in
x, not with the square of the patch count. Classification returns patch
index arrays.

Every plane, of an octree cell or of a merged group, comes from one
closed-form 3x3 symmetric eigensolver, `_eig_sym3`, run on whole columns
of covariance entries: no LAPACK call per cell. Its eigenvalues are
within a few eps * |A| of the exact ones (|A| the largest eigenvalue
magnitude) and its normal within a few eps * |A| / (l2 - l3) rad of the
exact eigenvector, the accuracy LAPACK reaches (the argument is in its
docstring).
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import check_positive
from .graph import connected_labels

EIGENVALUE_FLOOR = 1e-12
MIN_CELL_POINTS = 4
# guards against non-planar clusters that never thin out (e.g. coincident
# points); s_v/2**6 is far below any useful patch size
MAX_OCTREE_DEPTH = 6
# slack on each axis within which two patch boxes touch, in metres
TOUCH_EPS_M = 1e-9

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
    count: np.ndarray  # (P,) int64 points of each patch
    sums: np.ndarray  # (P, 3) coordinate sums
    prods: np.ndarray  # (P, 3, 3) coordinate-product sums
    normal: np.ndarray  # (P, 3), unit
    eigenvalues: np.ndarray  # (P, 3), descending
    cell_lo: np.ndarray  # (P, 3) octree cell AABB
    cell_hi: np.ndarray

    def __len__(self) -> int:
        return self.count.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        """(P, 3) mean of each patch's points."""
        return self.sums / self.count[:, None]

    def mask(self, patch_idx) -> np.ndarray:
        """True for the point rows that one of the given patches holds."""
        held = np.zeros(len(self) + 1, dtype=bool)
        held[patch_idx] = True
        return held[self.label]  # label -1 reads the last slot, always False


@dataclass
class SegmentationResult:
    patches: Patches
    n_points: int
    n_unassigned: int


def _eig_sym3(cov: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(unit normals, eigenvalues descending) of an (n, 3, 3) stack of
    symmetric matrices A, of which it reads the upper entries only.

    The normal is the eigenvector of the smallest eigenvalue, its
    largest-magnitude component made positive (the first such on a tie).

    Method. A is scaled to B = (A - qI) / p, with q = tr(A) / 3 and
    p^2 = |A - qI|_F^2 / 6, whose eigenvalues are 2 cos((t + 2 pi k) / 3)
    for t = arccos(det(B) / 2) (Smith, CACM 1961). One of them, beta, is
    at least sqrt(3) from both others: the largest when det(B) > 0, else
    the smallest. beta = +-2 cos(arccos(|det(B)| / 2) / 3) has a slope of
    at most 1/6 in det(B), so it is exact to a few eps; its eigenvector is
    the largest-norm column of adj(B - beta I), which is at least sqrt(3)
    long where the rounding is a few eps. The other two eigenpairs are
    those of the 2x2 matrix B makes on the plane orthogonal to that
    eigenvector (an orthonormal basis after Duff et al., JCGT 2017),
    solved with atan2. Errors there are a few eps in B's scale, so the
    eigenvalues q + p x come within a few eps * |A| of the exact ones
    and the normal within a few eps * |A| / (l2 - l3), which is how
    sure any backward-stable solver, LAPACK's included, can be.

    The plain trigonometric method, which takes l3 from the formula and
    the normal from adj(A - l3 I), has no such bound: when l2 and l3 are
    both small beside l1 (a thin, elongated cell), arccos near +-1 turns
    the eps error of det(B) into a sqrt(eps) one, and the normal of such
    a cell can be off by up to 90 degrees.

    Degenerate rows are defined: zero covariance (p = 0) gives B = 0,
    eigenvalues q and the normal (1, 0, 0); rank 1 gives a unit normal
    orthogonal to the line. Eigenvalues come out sorted by min/max, so
    l1 >= l2 >= l3 holds on every row.
    """
    # one 1-D array per entry: at the few hundred rows of a call, (k, n)
    # stacks of them measured no faster
    a00, a01, a02, a11, a12, a22 = (cov[:, i, j] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = a00 - q, a11 - q, a22 - q
    off = a01 * a01 + a02 * a02 + a12 * a12
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + off + off) / 6.0)
    s = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
    b00, b11, b22, b01, b02, b12 = d0 * s, d1 * s, d2 * s, a01 * s, a02 * s, a12 * s
    det = b00 * (b11 * b22 - b12 * b12) + b01 * (b12 * b02 - b01 * b22) + b02 * (b01 * b12 - b11 * b02)
    beta = np.copysign(2.0 * np.cos(np.arccos(np.minimum(np.abs(det) * 0.5, 1.0)) / 3.0), det)
    top = beta > 0.0  # beta is the largest eigenvalue, so the normal lies in the 2x2 plane

    # beta's eigenvector: the longest column of the adjugate of B - beta I
    m00, m11, m22 = b00 - beta, b11 - beta, b22 - beta
    c00, c11, c22 = m11 * m22 - b12 * b12, m00 * m22 - b02 * b02, m00 * m11 - b01 * b01
    c01, c02, c12 = b02 * b12 - b01 * m22, b01 * b12 - b02 * m11, b01 * b02 - m00 * b12
    s01, s02, s12 = c01 * c01, c02 * c02, c12 * c12
    len0, len1, len2 = c00 * c00 + s01 + s02, s01 + c11 * c11 + s12, s02 + s12 + c22 * c22
    k = len1 > len0
    x, y, z, longest = np.where(k, c01, c00), np.where(k, c11, c01), np.where(k, c12, c02), np.maximum(len0, len1)
    k = len2 > longest
    t = 1.0 / np.sqrt(np.maximum(longest, len2))
    x, y, z = np.where(k, c02, x) * t, np.where(k, c12, y) * t, np.where(k, c22, z) * t

    # (u, w): an orthonormal basis of the plane orthogonal to (x, y, z)
    sg = np.copysign(1.0, z)
    f = -1.0 / (sg + z)
    xf = x * f
    g = xf * y
    u0, u1, u2 = 1.0 + sg * xf * x, sg * g, -sg * x
    w0, w1, w2 = g, sg + f * y * y, -y
    bu0 = b00 * u0 + b01 * u1 + b02 * u2
    bu1 = b01 * u0 + b11 * u1 + b12 * u2
    bu2 = b02 * u0 + b12 * u1 + b22 * u2
    buu, buw = u0 * bu0 + u1 * bu1 + u2 * bu2, w0 * bu0 + w1 * bu1 + w2 * bu2
    # the 2x2 is [[buu, buw], [buw, bww]] with bww = tr(B) - beta - buu = -beta - buu
    mid = beta * -0.5
    half = buu - mid  # (buu - bww) / 2
    h = np.sqrt(half * half + buw * buw)
    psi = np.arctan2(buw, half) * 0.5  # the upper eigenvector is cos(psi) u + sin(psi) w
    cs, sn = np.cos(psi), np.sin(psi)
    n0 = np.where(top, cs * w0 - sn * u0, x)
    n1 = np.where(top, cs * w1 - sn * u1, y)
    n2 = np.where(top, cs * w2 - sn * u2, z)

    a0, a1, a2 = np.abs(n0), np.abs(n1), np.abs(n2)
    lead = np.where((a0 >= a1) & (a0 >= a2), n0, np.where(a1 >= a2, n1, n2))
    flip = np.where(lead < 0.0, -1.0, 1.0)
    normal = np.empty((q.shape[0], 3))
    normal[:, 0], normal[:, 1], normal[:, 2] = n0 * flip, n1 * flip, n2 * flip
    upper, lower = mid + h, mid - h
    eig = np.empty((q.shape[0], 3))
    eig[:, 0] = q + p * np.maximum(beta, upper)
    eig[:, 1] = q + p * np.maximum(lower, np.minimum(beta, upper))
    eig[:, 2] = q + p * np.minimum(beta, lower)
    return normal, eig


def _fit_planes(count, sums, prods) -> Tuple[np.ndarray, np.ndarray]:
    """(unit normals, eigenvalues descending) of rows of raw moments.

    The covariance is the second moment less the mean's outer product;
    `_eig_sym3` solves it in closed form, within a few eps * |A| of the
    exact eigenvalues and a few eps * |A| / (l2 - l3) rad of the exact
    normal. Each row's fit depends on that row alone, so a group of one
    patch refits to its cell's plane bit for bit.
    """
    mean = sums / count[:, None]
    return _eig_sym3(prods / count[:, None, None] - mean[:, :, None] * mean[:, None, :])


def _cell_coords(col: np.ndarray, lo: float, size: float, out: np.ndarray) -> np.ndarray:
    """floor((col - lo) / size), each row's integer cell coordinate, into `out`."""
    np.subtract(col, lo, out=out)
    out /= size
    return np.floor(out, out=out)


def segment_planes(
    points: np.ndarray, s_v: float = 2.0, sigma_lambda: float = 10.0
) -> SegmentationResult:
    """Octree split of `points` into planar patches numbered by level, then cell.

    Raises ValueError for a NaN or inf point, an s_v or sigma_lambda that
    is not finite and positive, or an extent whose deepest cells overflow
    int64.
    """
    check_positive(s_v=s_v, sigma_lambda=sigma_lambda)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n_total = pts.shape[0]
    if n_total == 0:
        none, z = np.zeros(0, dtype=np.int64), np.zeros((0, 3))
        return SegmentationResult(Patches(none, none, z, np.zeros((0, 3, 3)), z, z, z, z), 0, 0)

    # Level 0 keys a row by the C-order ravel_multi_index of its cell's
    # integer coordinates, one axis at a time from a contiguous copy of the
    # column (strided passes, and axis-0 reductions of an (N, 3) array, cost
    # several times more). One float buffer a level holds its per-row
    # temporaries: fresh arrays of this size cost more in page faults than
    # the arithmetic.
    size = float(s_v)
    buf = np.empty(n_total)
    origin = np.empty(3)
    key = np.zeros(n_total, dtype=np.int64)
    dims = ()
    for a in range(3):
        np.copyto(buf, pts[:, a])
        lo, hi = buf.min(), buf.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):  # min and max pass a NaN on
            raise ValueError("points must be finite, got a NaN or inf %s coordinate" % ("xyz"[a],))
        origin[a] = lo
        extent = hi - lo
        # checked as floats: a cast past int64 gives garbage keys, not an
        # error. A cell coordinate doubles at each level, so the deepest
        # level bounds them all.
        deepest = np.floor(extent / (s_v * 0.5**MAX_OCTREE_DEPTH))
        if not deepest < 2.0**63:  # also catches an extent / s_v past the float range
            raise ValueError(
                "octree cells up to %s at depth %d exceed int64; raise s_v" % (float(deepest), MAX_OCTREE_DEPTH)
            )
        # floor is monotone, so the top cell is the largest coordinate
        dims += (int(np.floor(extent / size)) + 1,)
        if math.prod(dims) > np.iinfo(np.int64).max:
            raise ValueError("octree cells up to %s do not pack into an int64; raise s_v" % (dims,))
        key *= dims[a]
        key += _cell_coords(buf, origin[a], size, buf).astype(np.int64)
    n_keys = math.prod(dims)

    levels = []  # (count, sums, prods, normal, eigenvalues, cell_lo, cell_hi) per level
    n_patches = 0
    for depth in range(MAX_OCTREE_DEPTH + 1):
        # a stable sort of the key in the narrowest integer type that holds
        # it: numpy radix-sorts keys of 16 bits or fewer, and ties keep their
        # order under either sort
        key = key.astype(np.min_scalar_type(n_keys - 1))
        order = key.argsort(kind="stable")
        key = key[order]
        starts = np.concatenate([[0], np.flatnonzero(key[1:] != key[:-1]) + 1])
        del key
        if depth == 0:  # the only gather from the point array
            rows, cols = order, [pts[:, a][order] for a in range(3)]
        else:
            rows, cols = rows[order], [c[order] for c in cols]
        del order
        m = rows.shape[0]
        counts = np.diff(np.append(starts, m))
        n_groups = starts.shape[0]
        big = np.flatnonzero(counts >= MIN_CELL_POINTS)
        if depth and not big.shape[0]:  # no cell left to fit or split
            break

        # segment sums over the sorted columns: a cell's rows are contiguous,
        # in ascending row order
        sums = np.empty((n_groups, 3))
        prods = np.empty((n_groups, 3, 3))
        for i in range(3):
            sums[:, i] = np.add.reduceat(cols[i], starts)
            for j in range(i, 3):
                prods[:, i, j] = np.add.reduceat(np.multiply(cols[i], cols[j], out=buf), starts)
                prods[:, j, i] = prods[:, i, j]
        del buf

        normal, eig = _fit_planes(counts[big], sums[big], prods[big])
        flat = eig[:, 1] / np.maximum(eig[:, 2], EIGENVALUE_FLOOR) > sigma_lambda
        planar, normal, eig = big[flat], normal[flat], eig[flat]
        # patches in the C order of their cells' integer coordinates
        cell = np.empty((planar.shape[0], 3))
        for a in range(3):
            _cell_coords(cols[a][starts[planar]], origin[a], size, cell[:, a])
        c_order = np.lexsort((cell[:, 2], cell[:, 1], cell[:, 0]))
        planar, normal, eig, cell = planar[c_order], normal[c_order], eig[c_order], cell[c_order]
        lo = origin + cell * size
        levels.append((counts[planar], sums[planar], prods[planar], normal, eig, lo, lo + size))

        split = np.zeros(n_groups, dtype=bool)
        split[big[~flat]] = True
        last = depth == MAX_OCTREE_DEPTH or not split.any()
        if not last:
            keep = split.repeat(counts)
            for a in range(3):  # one column at a time, so one is held twice at most
                cols[a] = cols[a][keep]
        if depth == 0:  # allocated once the columns have shrunk to the split rows
            label = np.full(n_total, -1, dtype=np.int64)
        if planar.shape[0]:  # every row a level holds is still -1
            patch_of = np.full(n_groups, -1, dtype=np.int64)
            patch_of[planar] = n_patches + np.arange(planar.shape[0])
            n_patches += planar.shape[0]
            label[rows] = patch_of.repeat(counts)
        if last:
            break
        rows = rows[keep]

        # a child is keyed inside its parent: the parent's rank x 8 plus
        # the low bit of the child's coordinate on each axis
        size *= 0.5
        n_split = int(np.count_nonzero(split))
        key = np.arange(0, 8 * n_split, 8).repeat(counts[split])
        buf = np.empty(key.shape[0])
        for a in range(3):
            key += (_cell_coords(cols[a], origin[a], size, buf).astype(np.int64) & 1) << (2 - a)
        n_keys = 8 * n_split

    patches = Patches(label, *(np.concatenate(f) for f in zip(*levels)))
    return SegmentationResult(patches, n_total, int(np.count_nonzero(label < 0)))


def _touching_pairs(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the (n, 3) boxes [lo, hi] that touch.

    Two boxes touch when on every axis each one's lo is at most the
    other's hi + TOUCH_EPS_M. Every box must have lo <= hi. A sweep over
    the boxes sorted by lo x: a box p can touch only the later ones q
    whose lo x is at most its hi x + TOUCH_EPS_M, and one searchsorted
    finds where those end. That bound is the x test of q against p, made
    with the same float sum, and lo x of p <= lo x of q <= hi x of q is
    the x test of p against q, so only y and z are tested, y first to
    thin the candidates. Pairs come out in sweep order.
    """
    order = np.argsort(lo[:, 0], kind="stable")
    n = order.shape[0]
    after = np.arange(1, n + 1)
    n_cand = np.maximum(np.searchsorted(lo[order, 0], hi[order, 0] + TOUCH_EPS_M, side="right") - after, 0)
    # candidate k of box p is the box at sorted position p + 1 + k
    p = np.repeat(np.arange(n), n_cand)
    q = np.arange(p.shape[0]) - np.repeat(np.cumsum(n_cand) - n_cand - after, n_cand)
    for a in (1, 2):
        la, ha = lo[order, a], hi[order, a]
        touch = (la[q] <= ha[p] + TOUCH_EPS_M) & (la[p] <= ha[q] + TOUCH_EPS_M)
        p, q = p[touch], q[touch]
    i, j = order[p], order[q]
    return np.minimum(i, j), np.maximum(i, j)


def merge_patches(patches: Patches, normal_tol_deg: float = 10.0, dist_tol_m: float = 0.1) -> Patches:
    """Join cell-adjacent coplanar patches and fit each group from its pooled moments.

    A group is a connected component of the pairs that touch (cell boxes
    within 1e-9 m, found by a sweep over the boxes sorted by lower x)
    and are coplanar (normals within the angle, each
    centroid within dist_tol_m of the other's plane). Its moments are
    its members' summed in ascending patch order from -0.0, the additive
    identity, and its cell box spans theirs; so a single-patch group keeps
    its member's moments, -0.0 entries included, and its plane bit for bit.
    Groups are relabelled in order of their rounded centroids. Raises
    ValueError unless both tolerances are finite and positive.
    """
    check_positive(normal_tol_deg=normal_tol_deg, dist_tol_m=dist_tol_m)
    n = len(patches)
    if n == 0:
        return patches
    cos_tol = float(np.cos(np.radians(normal_tol_deg)))
    lo, hi = patches.cell_lo, patches.cell_hi
    normals, centroids = patches.normal, patches.centroid

    i, j = _touching_pairs(lo, hi)
    # dots as column products summed x + y + z, the rounding of the
    # oracle's scalar test; the columns gather from (3, n) copies
    normal_t, centroid_t = np.ascontiguousarray(normals.T), np.ascontiguousarray(centroids.T)
    (ax, ay, az), (bx, by, bz) = normal_t[:, i], normal_t[:, j]
    gx, gy, gz = centroid_t[:, j] - centroid_t[:, i]
    coplanar = (
        (np.abs(ax * bx + ay * by + az * bz) >= cos_tol)
        & (np.abs(ax * gx + ay * gy + az * gz) <= dist_tol_m)
        & (np.abs(bx * gx + by * gy + bz * gz) <= dist_tol_m)
    )

    i, j = i[coplanar], j[coplanar]
    group_of = connected_labels(n, i, j)
    n_groups = int(group_of.max()) + 1

    def pool(ufunc, a, start):
        # ufunc.at applies the patches in index order
        out = np.full((n_groups,) + a.shape[1:], start, dtype=a.dtype)
        ufunc.at(out, group_of, a)
        return out

    # from -0.0: pooling from +0.0 would turn a -0.0 entry into +0.0
    count = pool(np.add, patches.count, 0)
    sums, prods = (pool(np.add, a, -0.0) for a in (patches.sums, patches.prods))
    cell_lo, cell_hi = pool(np.minimum, lo, np.inf), pool(np.maximum, hi, -np.inf)
    normal, eig = _fit_planes(count, sums, prods)

    r = np.round(sums / count[:, None], 9)
    order = np.lexsort((r[:, 2], r[:, 1], r[:, 0]))
    # label -1 reads the appended last slot
    label = np.append(np.argsort(order)[group_of], -1)[patches.label]
    return Patches(label, *(f[order] for f in (count, sums, prods, normal, eig, cell_lo, cell_hi)))


def classify_patches(
    patches: Patches, gravity: np.ndarray, gravity_tol_deg: float = 15.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split patch indices into (walls, ground, other) by angle to gravity.

    Ground normals are parallel to gravity within the tolerance, wall
    normals perpendicular to it. Raises ValueError unless gravity_tol_deg
    is finite and positive.
    """
    check_positive(gravity_tol_deg=gravity_tol_deg)
    g = np.asarray(gravity, dtype=np.float64)
    g = g / np.sqrt(g.dot(g))  # the 2-norm as numpy's vector norm rounds it
    cos_par = float(np.cos(np.radians(gravity_tol_deg)))
    sin_perp = float(np.sin(np.radians(gravity_tol_deg)))
    # vecdot, not `normal @ g`: it rounds each row as the one-patch dot does
    c = np.abs(np.vecdot(patches.normal, g))
    ground = c >= cos_par
    wall = ~ground & (c <= sin_perp)
    return np.flatnonzero(wall), np.flatnonzero(ground), np.flatnonzero(~ground & ~wall)
