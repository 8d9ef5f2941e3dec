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
packs the query bins as the keys are, sorts them and finds each with
one binary search among the distinct keys, so its cost follows the key
count, not the row count; a query bin outside the stored range matches
nothing.

Every value is the one the per-triplet formulas give (kept as the oracle
`tests/scalar_descriptors.py`), computed once per clique and gathered:
- u_e = p_{e+1} - p_e runs along edge e. The side from vertex e to e + 2
  is -u_{e+2} exactly, as IEEE subtraction, products and rounding are
  symmetric under negation, so its norm is |u_{e+2}| and its dot with
  u_e is -(u_e . u_{e+2}), fused multiply-add or not.
- An order's sides are the clique's edges, since |p_j - p_i| and
  |p_i - p_j| round alike. Sides, side bins and the unit side vectors
  are gathered per order; a unit vector comes up to its sign, which the
  absolute wall dot drops, as matmul negates its result exactly.
- `vecdot` and stacked `matmul` run one BLAS dot or product per row, so a
  value does not depend on how many triplets share a call.
- Minima and maxima over two or three values are comparisons of columns,
  which are exact.
- The DB's stable sort is one int64 sort of key * N + row where that
  fits, a stable argsort otherwise; the two give the same order.
Non-finite corners or triplets raise ValueError naming the first such
row, before any arithmetic.

`serialize_db` writes a database as a v1 file for the benchmark's
`bench/workloads.db_digest` alone, and goes with ROADMAP items 2 and
7's benchmark change; the package never calls it. The file groups rows by
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

from .errors import check_positive
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

# The six vertex orders, lexicographic. Edge e joins vertices e and e + 1
# mod 3 (01, 12, 20), the pair without vertex e + 2, so vertices a and b
# share edge (1 - a - b) mod 3; each order's sides AB, BC, AC are edges:
_PERMS = np.array(list(permutations(range(3))))
_PERM_EDGES = (1 - _PERMS[:, [0, 1, 0]] - _PERMS[:, [1, 2, 2]]) % 3


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
    def from_entries(cls, bins, verts, dirs, r_s: float, r_a: float, hand) -> "DescriptorDB":
        """Pack (N, 6) bins and stable-sort the rows with their hands;
        ValueError if keys overflow int64."""
        bins = np.asarray(bins, dtype=np.int64).reshape(-1, 6)
        n = bins.shape[0]
        if n and bins.min() < 0:
            raise ValueError("descriptor bins must be >= 0")
        dims = tuple(int(col.max()) + 1 for col in bins.T) if n else (1,) * 6
        if math.prod(dims) > np.iinfo(np.int64).max:
            raise ValueError("descriptor bins up to %s do not pack into an int64; raise r_s or r_a" % (dims,))
        keys = _pack(bins, dims)
        # stable: sort by key, then row, packed into one int64 where that fits
        if math.prod(dims) * n <= np.iinfo(np.int64).max:
            order = np.sort(keys * n + np.arange(n)) % n
        else:
            order = np.argsort(keys, kind="stable")
        verts, dirs, hand = (np.take(a, order, axis=0) for a in (verts, dirs, hand))
        return cls(keys[order], verts, dirs, dims, r_s, r_a, hand)

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

        The rows are packed as the stored keys are, a row with a bin
        outside the stored range to -1, below every key; they are then
        sorted and found with one search among the distinct keys.
        """
        bins = np.asarray(bins, dtype=np.int64).reshape(-1, 6)
        inside = np.ones(bins.shape[0], dtype=bool)
        for col, dim in zip(bins.T, self.dims):
            inside &= (col >= 0) & (col < dim)
        packed = _pack(bins, self.dims)  # may wrap on a row outside, which is dropped next
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


def _pack(bins: np.ndarray, dims: Tuple[int, ...]) -> np.ndarray:
    """Mixed-radix int64 key of each (n, 6) bin row, packed column by
    column; the key of the stored DB and of a lookup alike."""
    packed = np.zeros(bins.shape[0], dtype=np.int64)
    for col, dim in zip(bins.T, dims):
        packed *= dim
        packed += col
    return packed


def _hand(verts: np.ndarray) -> np.ndarray:
    """Sign of (B - A) x (C - A) of each (M, 3, 2) row, as int8: +1
    counter-clockwise, -1 clockwise, 0 for collinear vertices."""
    u, v = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
    return np.sign(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]).astype(np.int8)


def _require_finite(kind: str, *arrays: np.ndarray) -> None:
    """ValueError naming the first row (leading index) of the arrays that holds a NaN or inf."""
    if not all(np.isfinite(a).all() for a in arrays):
        bad = np.logical_or.reduce([~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1) for a in arrays])
        raise ValueError("%s %d has a NaN or inf coordinate or wall direction" % (kind, np.flatnonzero(bad)[0]))


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
    Raises ValueError unless r_s, r_a and min_angle_deg are finite and
    positive, naming the first triplet with a NaN or inf input, and when
    a side over r_s or an angle over r_a reaches 2^63.
    """
    check_positive(r_s=r_s, r_a=r_a, min_angle_deg=min_angle_deg)
    p = np.asarray(verts, dtype=np.float64).reshape(-1, 3, 2)
    d = np.asarray(dirs, dtype=np.float64).reshape(-1, 3, 2, 2)
    _require_finite("triplet", p, d)
    # u[:, e] runs along edge e; the side from vertex e to e + 2 is -u[:, e + 2]
    u = np.take(p, [1, 2, 0], axis=1) - p
    edge = np.sqrt(np.vecdot(u, u))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.vecdot(u, np.take(u, [2, 0, 1], axis=1)) / -(edge * np.take(edge, [2, 0, 1], axis=1))
    ok = (edge >= 1e-9) & (np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))) >= min_angle_deg)
    keep = ok[:, 0] & ok[:, 1] & ok[:, 2]
    if tied_orders:
        with np.errstate(over="ignore"):  # an inf bin fails the check at the end
            sb = np.floor(edge / r_s).T
        fit = np.stack([keep & (sb[ab] <= sb[bc]) & (sb[bc] <= sb[ac]) for ab, bc, ac in _PERM_EDGES], axis=1)
        src, perm = np.divmod(np.flatnonzero(fit), 6)
    else:
        # each order that fits in turn, kept where its rounded (AB, BC) is smaller
        src = np.flatnonzero(keep)
        s = edge[src].T
        s_tol, r, best = s + 1e-12, np.round(s, 12), np.full((2, src.shape[0]), np.inf)
        perm = np.zeros(src.shape[0], dtype=np.intp)
        for o, (ab, bc, ac) in enumerate(_PERM_EDGES):
            fit = (s[ab] <= s_tol[bc]) & (s[bc] <= s_tol[ac])
            better = fit & ((r[ab] < best[0]) | ((r[ab] == best[0]) & (r[bc] < best[1])))
            perm[better] = o
            best[:, better] = r[ab][better], r[bc][better]
    # flat rows of the vertices and of the sides of each kept order
    vert, side = src[:, None] * 3 + _PERMS[perm], src[:, None] * 3 + _PERM_EDGES[perm]
    q, qd = np.take(p.reshape(-1, 2), vert, axis=0), np.take(d.reshape(-1, 2, 2), vert, axis=0)
    sides = np.take(edge, side)
    # each side's unit vector up to sign, which |dot| ignores
    dots = np.abs(np.matmul(qd, (np.take(u.reshape(-1, 2), side, axis=0) / sides[..., None])[..., None])[..., 0])
    angles = np.degrees(np.arccos(np.clip(np.maximum(dots[..., 0], dots[..., 1]), 0.0, 1.0)))
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        bins = np.floor(np.concatenate([sides / r_s, angles / r_a], axis=1))
    # checked as floats: a cast past int64 gives garbage bins, not an error
    if bins.size and not bins.max() < 2.0**63:
        raise ValueError("descriptor bins up to %s exceed int64; raise r_s or r_a" % (float(bins.max()),))
    bins = bins.astype(np.int64)
    return Triplets(q, qd, sides, angles, bins, r_s, r_a, _hand(q))


def clique_triplets(corners: Corners, l_max: float):
    """Vertices and wall directions of the l_max graph's 3-cliques, (i < j < k) ascending.

    Raises ValueError unless l_max is finite and positive, and naming the
    first corner with a NaN or inf coordinate or wall direction."""
    check_positive(l_max=l_max)
    _require_finite("corner", corners.pos, corners.dirs)
    upper = np.triu(np.linalg.norm(corners.pos[:, None, :] - corners.pos[None, :, :], axis=2) <= l_max, 1)
    i, j = np.nonzero(upper)
    edge, k = np.nonzero(upper[i] & upper[j])  # k > j adjacent to both i and j
    ijk = np.stack([i[edge], j[edge], k], axis=1)
    return np.take(corners.pos, ijk, axis=0), np.take(corners.dirs, ijk, axis=0)


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
    return DescriptorDB.from_entries(t.bins, t.verts, t.dirs, r_s, r_a, t.hand)


def query_correspondences(db: DescriptorDB, triplets: Triplets) -> Tuple[np.ndarray, np.ndarray]:
    """(src, dst) vertex arrays, (M, 3, 2) each, for `solve_se2_batch`.

    Each query triplet pairs with every row under its key that has its
    hand: query order first, then row order. A mirrored row never pairs,
    since no rotation maps a triangle onto its mirror image. Raises
    ValueError when the triplets and the DB differ in r_s or r_a.
    """
    if triplets.r_s != db.r_s or triplets.r_a != db.r_a:
        steps = (triplets.r_s, triplets.r_a, db.r_s, db.r_a)
        raise ValueError("triplets at r_s, r_a = %r, %r do not fit a DB at %r, %r" % steps)
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
