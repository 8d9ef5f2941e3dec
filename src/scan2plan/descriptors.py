"""Triangle descriptors over corner triplets and the sorted-key database.

A triplet of corners is canonicalized so its side lengths satisfy
|AB| <= |BC| <= |AC|, described by the three sides plus the acute angles
between each side and the wall directions at its vertices, and quantized
into six integer bins: the sorted-side triangle hash of STD (Yuan et al.,
ICRA 2023). Congruent triangles collide, and so do their mirror images,
since sides and acute wall angles ignore orientation. Each row also
carries its hand, the sign of (B - A) x (C - A) for its vertex order;
a rotation keeps it and a mirror flips it, so a query pairs only with
rows of its own hand. The pose voting stage sorts out which of the rest
are real. The hand is not a key field: the keys, and so the exported
file, are those of the six bins alone.

Triplets stay arrays from enumeration to voting. The database holds one
row per stored vertex order, sorted by its bins packed into one int64
(mixed radix, each field sized by the largest bin stored); the sort is
stable, so rows sharing a key keep insertion order. The database also
keeps its distinct keys and the row bounds of each, built once. A lookup
packs the query bins column by column, sorts them and finds each with
one binary search among the distinct keys, so its cost follows the key
count, not the row count; a query bin outside the stored range matches
nothing.

`serialize_db` writes a database as a v1 file for the benchmark's
`bench/workloads.db_digest` alone, and goes with ROADMAP item 4's
benchmark change; the package never calls it. The file groups rows by
key: magic, version, r_s r_a, key count, then per key six i32 bins, a
u32 row count and 18 f64 per row. It does not store l_max or
min_angle_deg.
"""

import math
import struct
from dataclasses import dataclass
from itertools import permutations
from typing import Tuple

import numpy as np

from .errors import ResolutionMismatch
from .lines import Corners

DB_MAGIC = b"L2BD"
DB_VERSION = 1

__all__ = [
    "Triplets",
    "DescriptorDB",
    "canonical_triplets",
    "clique_triplets",
    "build_triplets",
    "build_db",
    "query_correspondences",
    "serialize_db",
]

# The six vertex orders, lexicographic. Edge e joins the vertex pair with
# index sum e + 1 (01, 02, 12), so each order's sides AB, BC, AC are edges:
_PERMS = np.array(list(permutations(range(3))))
_PERM_EDGES = _PERMS[:, [0, 1, 0]] + _PERMS[:, [1, 2, 2]] - 1


@dataclass
class Triplets:
    """Ordered corner triplets, one row each."""

    verts: np.ndarray  # (M, 3, 2) A, B, C
    dirs: np.ndarray  # (M, 3, 2, 2) two unit wall directions per vertex
    sides: np.ndarray  # (M, 3) |AB|, |BC|, |AC|
    angles: np.ndarray  # (M, 3) degrees: AB at A, BC at B, AC at C
    bins: np.ndarray  # (M, 6) int64: sides // r_s, then angles // r_a
    r_s: float
    r_a: float
    hand: np.ndarray  # (M,) int8 sign of (B - A) x (C - A)

    def __len__(self) -> int:
        return self.verts.shape[0]


@dataclass
class DescriptorDB:
    """Stored triplet orders, sorted by packed key.

    Construction also keeps, for `find`, the distinct keys and each
    one's first row, with the row count appended as the last bound.
    """

    keys: np.ndarray  # (N,) int64, ascending; one key's rows in insertion order
    verts: np.ndarray  # (N, 3, 2)
    dirs: np.ndarray  # (N, 3, 2, 2)
    dims: Tuple[int, ...]  # radix of each of the six bins in a key
    r_s: float
    r_a: float
    hand: np.ndarray  # (N,) int8 sign of (B - A) x (C - A)

    def __post_init__(self):
        starts = np.flatnonzero(np.diff(self.keys, prepend=-1))
        # the distinct keys, then -2, which no packed query equals
        self._distinct = np.append(self.keys[starts], -2)
        self._bounds = np.append(starts, self.keys.shape[0])

    @classmethod
    def from_entries(cls, bins, verts, dirs, r_s: float, r_a: float) -> "DescriptorDB":
        """Pack (N, 6) bins and stable-sort the rows; ValueError if keys overflow int64.

        Each row's hand is taken from its vertices."""
        bins = np.asarray(bins, dtype=np.int64).reshape(-1, 6)
        dims = tuple(int(b) + 1 for b in bins.max(axis=0)) if bins.shape[0] else (1,) * 6
        if math.prod(dims) > np.iinfo(np.int64).max:
            raise ValueError("descriptor bins up to %s do not pack into an int64; raise r_s or r_a" % (dims,))
        keys = np.ravel_multi_index(tuple(bins.T), dims)
        order = np.argsort(keys, kind="stable")
        verts = verts[order]
        return cls(keys[order], verts, dirs[order], dims, r_s, r_a, _hand(verts))

    @property
    def n_triplets(self) -> int:
        """Stored rows (a triplet with tied side bins counts once per order)."""
        return self.keys.shape[0]

    @property
    def n_keys(self) -> int:
        return self._bounds.shape[0] - 1

    def key_starts(self) -> np.ndarray:
        """First row of each distinct key."""
        return self._bounds[:-1]

    def bins(self, rows=slice(None)) -> np.ndarray:
        """(n, 6) bins of the keys of the given rows."""
        return np.stack(np.unravel_index(self.keys[rows], self.dims), axis=1)

    def find(self, bins) -> Tuple[np.ndarray, np.ndarray]:
        """Row ranges [lo, hi) whose key equals each (n, 6) bin row; a row
        whose key is not stored gets [0, 0).

        The rows are packed column by column, a row with a bin outside
        the stored range to -1, below every key; they are then sorted
        and found with one search among the distinct keys.
        """
        bins = np.asarray(bins, dtype=np.int64).reshape(-1, 6)
        packed = np.zeros(bins.shape[0], dtype=np.int64)
        inside = np.ones(bins.shape[0], dtype=bool)
        for col, dim in zip(bins.T, self.dims):
            inside &= (col >= 0) & (col < dim)
            packed *= dim
            packed += col  # may wrap on a row outside, which is dropped next
        packed[~inside] = -1
        order = np.argsort(packed)
        packed = packed[order]
        pos = np.searchsorted(self._distinct[:-1], packed)
        hit = self._distinct[pos] == packed
        rows, key = order[hit], pos[hit]
        lo = np.zeros(bins.shape[0], dtype=np.int64)
        hi = np.zeros(bins.shape[0], dtype=np.int64)
        lo[rows] = self._bounds[key]
        hi[rows] = self._bounds[key + 1]
        return lo, hi


def _hand(verts: np.ndarray) -> np.ndarray:
    """Sign of (B - A) x (C - A) of each (M, 3, 2) row, as int8: +1
    counter-clockwise, -1 clockwise, 0 for collinear vertices."""
    u, v = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
    return np.sign(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]).astype(np.int8)


def _describe(verts: np.ndarray, dirs: np.ndarray, r_s: float, r_a: float):
    """Sides, wall angles and bins of vertices already in (A, B, C) order."""
    a, b, c = verts[:, 0], verts[:, 1], verts[:, 2]
    edges = np.stack([b - a, c - b, c - a], axis=1)
    # vecdot and stacked matmul run the same BLAS dot as scalar code, so
    # the results do not depend on how many triplets share a call
    sides = np.sqrt(np.vecdot(edges, edges))
    dots = np.abs(np.matmul(dirs, (edges / sides[..., None])[..., None])[..., 0])
    angles = np.degrees(np.arccos(np.clip(dots.max(axis=2), 0.0, 1.0)))
    bins = np.floor(np.concatenate([sides / r_s, angles / r_a], axis=1)).astype(np.int64)
    return sides, angles, bins


def canonical_triplets(
    verts, dirs, r_s: float = 0.5, r_a: float = 3.0, min_angle_deg: float = 10.0, tied_orders: bool = False
) -> Triplets:
    """Drop degenerate triplets, order and describe the rest.

    A triplet is degenerate when two corners lie within 1e-9 m or an
    interior angle is under min_angle_deg. By default each keeps one
    order: |AB| <= |BC| <= |AC| up to 1e-12, the smallest (|AB|, |BC|)
    rounded to 12 decimals, then the first order. With tied_orders each
    keeps every order whose side bins are non-decreasing, so a query
    canonicalized either way across a tied bin still finds an aligned
    row. Rows come out in input order, then lexicographic vertex order.
    """
    p = np.asarray(verts, dtype=np.float64).reshape(-1, 3, 2)
    d = np.asarray(dirs, dtype=np.float64).reshape(-1, 3, 2, 2)
    u = p[:, [1, 2, 0]] - p
    v = p[:, [2, 0, 1]] - p
    nu = np.sqrt(np.vecdot(u, u))
    nv = np.sqrt(np.vecdot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.vecdot(u, v) / (nu * nv)
    interior = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    edge = np.stack([nu[:, 0], nv[:, 0], nu[:, 1]], axis=1)  # |01|, |02|, |12|
    keep = (edge.min(axis=1) >= 1e-9) & (interior.min(axis=1) >= min_angle_deg)
    s = edge[:, _PERM_EDGES]  # (T, 6, 3): AB, BC, AC of every order
    if tied_orders:
        sb = np.floor(s / r_s)
        fit = keep[:, None] & (sb[..., 0] <= sb[..., 1]) & (sb[..., 1] <= sb[..., 2])
        src, perm = np.nonzero(fit)
    else:
        fit = (s[..., 0] <= s[..., 1] + 1e-12) & (s[..., 1] <= s[..., 2] + 1e-12)
        rounded = np.where(fit[..., None], np.round(s[..., :2], 12), np.inf)
        src = np.flatnonzero(keep)
        perm = np.lexsort((rounded[src, :, 1], rounded[src, :, 0]), axis=-1)[:, 0]
    order = _PERMS[perm]
    q, qd = p[src[:, None], order], d[src[:, None], order]
    return Triplets(q, qd, *_describe(q, qd, r_s, r_a), r_s, r_a, _hand(q))


def clique_triplets(corners: Corners, l_max: float):
    """Vertices and wall directions of the l_max graph's 3-cliques, (i < j < k) ascending."""
    upper = np.triu(np.linalg.norm(corners.pos[:, None, :] - corners.pos[None, :, :], axis=2) <= l_max, 1)
    i, j = np.nonzero(upper)
    edge, k = np.nonzero(upper[i] & upper[j])  # k > j adjacent to both i and j
    ijk = np.stack([i[edge], j[edge], k], axis=1)
    return corners.pos[ijk], corners.dirs[ijk]


def build_triplets(
    corners: Corners,
    l_max: float = 30.0,
    r_s: float = 0.5,
    r_a: float = 3.0,
    min_angle_deg: float = 10.0,
) -> Triplets:
    """Canonical triplets over 3-cliques of the l_max neighborhood graph."""
    verts, dirs = clique_triplets(corners, l_max)
    return canonical_triplets(verts, dirs, r_s, r_a, min_angle_deg)


def build_db(
    corners: Corners,
    l_max: float = 30.0,
    r_s: float = 0.5,
    r_a: float = 3.0,
    min_angle_deg: float = 10.0,
) -> DescriptorDB:
    """Database of model triplets.

    Triplets whose side bins tie are stored once per consistent vertex
    order, so a query canonicalized either way still finds a
    geometrically aligned entry.
    """
    verts, dirs = clique_triplets(corners, l_max)
    t = canonical_triplets(verts, dirs, r_s, r_a, min_angle_deg, tied_orders=True)
    return DescriptorDB.from_entries(t.bins, t.verts, t.dirs, r_s, r_a)


def query_correspondences(db: DescriptorDB, triplets: Triplets) -> Tuple[np.ndarray, np.ndarray]:
    """(src, dst) vertex arrays, (M, 3, 2) each, for `solve_se2_batch`.

    Each query triplet pairs with every row under its key that has its
    hand: query order first, then row order. A mirrored row never pairs,
    since no rotation maps a triangle onto its mirror image.
    """
    if triplets.r_s != db.r_s or triplets.r_a != db.r_a:
        raise ResolutionMismatch("query triplet quantization does not match the database")
    lo, hi = db.find(triplets.bins)
    n = hi - lo
    query = np.repeat(np.arange(n.shape[0]), n)
    rows = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(query.shape[0])
    same = np.take(db.hand, rows) == np.take(triplets.hand, query)
    return np.take(triplets.verts, query[same], axis=0), np.take(db.verts, rows[same], axis=0)


# --- serialization ---


def serialize_db(db: DescriptorDB, path) -> None:
    starts = db.key_starts()
    counts = np.diff(np.append(starts, db.n_triplets))
    rows = np.concatenate([db.verts.reshape(-1, 6), db.dirs.reshape(-1, 12)], axis=1).astype("<f8")
    parts = [DB_MAGIC, struct.pack("<I", DB_VERSION), struct.pack("<dd", db.r_s, db.r_a)]
    parts.append(struct.pack("<I", starts.shape[0]))
    for key, start, count in zip(db.bins(starts).tolist(), starts.tolist(), counts.tolist()):
        parts.append(struct.pack("<6iI", *key, count))
        parts.append(rows[start : start + count].tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
