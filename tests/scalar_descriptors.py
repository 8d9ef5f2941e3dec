"""Reference oracle: the original per-triplet scalar descriptor code.

This is the descriptor layer as first written, one Python loop step and
one `np.linalg.norm` per side per vertex order. The package's batched
layer must reproduce it bit for bit; `test_descriptor_oracle.py` checks
that. Triplets come back as (vertices, wall_dirs, key) tuples, the DB as
a dict of key -> [(vertices, wall_dirs)] in insertion order, and
correspondences as (src, dst) vertex pairs in query-then-bucket order,
kept only where both triangles have the same hand (the sign of
(B - A) x (C - A)), so a mirror image never pairs.
Corner sets arrive as the package's `Corners` arrays and are walked as
the per-corner objects of `scalar_frontend`. `find` is the DB lookup as
first written: two searches over every stored key, unsorted queries.
"""

from itertools import combinations, permutations

import numpy as np
from scalar_frontend import Corner


class Degenerate(Exception):
    pass


def _acute_angle_deg(side_dir, wall_dirs):
    dots = np.abs(wall_dirs @ side_dir)
    return float(np.degrees(np.arccos(np.clip(dots.max(), 0.0, 1.0))))


def _interior_angles_deg(p):
    out = np.empty(3)
    for i in range(3):
        u = p[(i + 1) % 3] - p[i]
        v = p[(i + 2) % 3] - p[i]
        c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        out[i] = np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
    return out


def describe_order(p, dirs, r_s, r_a):
    """(sides, angles, key) of vertices already in (A, B, C) order."""
    ab = float(np.linalg.norm(p[1] - p[0]))
    bc = float(np.linalg.norm(p[2] - p[1]))
    ac = float(np.linalg.norm(p[2] - p[0]))
    alpha = _acute_angle_deg((p[1] - p[0]) / ab, dirs[0])
    beta = _acute_angle_deg((p[2] - p[1]) / bc, dirs[1])
    gamma = _acute_angle_deg((p[2] - p[0]) / ac, dirs[2])
    key = (
        int(np.floor(ab / r_s)),
        int(np.floor(bc / r_s)),
        int(np.floor(ac / r_s)),
        int(np.floor(alpha / r_a)),
        int(np.floor(beta / r_a)),
        int(np.floor(gamma / r_a)),
    )
    return (ab, bc, ac), (alpha, beta, gamma), key


def check_triplet(p, min_angle_deg):
    d01 = np.linalg.norm(p[1] - p[0])
    d12 = np.linalg.norm(p[2] - p[1])
    d02 = np.linalg.norm(p[2] - p[0])
    if min(d01, d12, d02) < 1e-9:
        raise Degenerate("coincident corners")
    if _interior_angles_deg(p).min() < min_angle_deg:
        raise Degenerate("triangle below minimum interior angle")


def canonical_order(p):
    best = None
    for perm in permutations(range(3)):
        q = p[list(perm)]
        ab = np.linalg.norm(q[1] - q[0])
        bc = np.linalg.norm(q[2] - q[1])
        ac = np.linalg.norm(q[2] - q[0])
        if ab <= bc + 1e-12 and bc <= ac + 1e-12:
            cand = (round(ab, 12), round(bc, 12), perm)
            if best is None or cand < best:
                best = cand
    return list(best[2])


def consistent_orders(p, r_s):
    orders = []
    for perm in permutations(range(3)):
        q = p[list(perm)]
        b = (
            int(np.floor(np.linalg.norm(q[1] - q[0]) / r_s)),
            int(np.floor(np.linalg.norm(q[2] - q[1]) / r_s)),
            int(np.floor(np.linalg.norm(q[2] - q[0]) / r_s)),
        )
        if b[0] <= b[1] <= b[2]:
            orders.append(perm)
    return orders


def make_descriptor(positions, wall_dirs, r_s=0.5, r_a=3.0, min_angle_deg=10.0):
    """(vertices, wall_dirs, (sides, angles, key)); raises Degenerate."""
    p = np.asarray(positions, dtype=np.float64).reshape(3, 2)
    d = np.asarray(wall_dirs, dtype=np.float64).reshape(3, 2, 2)
    check_triplet(p, min_angle_deg)
    order = canonical_order(p)
    p, d = p[order], d[order]
    return p, d, describe_order(p, d, r_s, r_a)


def corner_objects(corners):
    """One `Corner` per row of a `Corners`."""
    return [Corner(p, d, s) for p, d, s in zip(corners.pos, corners.dirs, corners.support)]


def _cliques(corners, l_max):
    pos = np.array([c.position for c in corners])
    dmat = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    near = dmat <= l_max
    for i, j, k in combinations(range(len(corners)), 3):
        if near[i, j] and near[j, k] and near[i, k]:
            yield pos[[i, j, k]], np.array([corners[i].dirs, corners[j].dirs, corners[k].dirs])


def build_triplets(corners, l_max=30.0, r_s=0.5, r_a=3.0, min_angle_deg=10.0):
    """[(vertices, wall_dirs, key)] in (i < j < k) order."""
    corners = corner_objects(corners)
    if len(corners) < 3:
        return []
    out = []
    for p, d in _cliques(corners, l_max):
        try:
            q, qd, (_, _, key) = make_descriptor(p, d, r_s, r_a, min_angle_deg)
        except Degenerate:
            continue
        out.append((q, qd, key))
    return out


def build_db(corners, l_max=30.0, r_s=0.5, r_a=3.0, min_angle_deg=10.0):
    """{key: [(vertices, wall_dirs)]} with every tied-bin order stored."""
    buckets = {}
    corners = corner_objects(corners)
    if len(corners) < 3:
        return buckets
    for p, d in _cliques(corners, l_max):
        try:
            check_triplet(p, min_angle_deg)
        except Degenerate:
            continue
        for perm in consistent_orders(p, r_s):
            q, qd = p[list(perm)], d[list(perm)]
            _, _, key = describe_order(q, qd, r_s, r_a)
            buckets.setdefault(key, []).append((q, qd))
    return buckets


def hand(p):
    """Sign of (B - A) x (C - A): 1 counter-clockwise, -1 clockwise, 0 collinear."""
    u, v = p[1] - p[0], p[2] - p[0]
    return int(np.sign(u[0] * v[1] - u[1] * v[0]))


def query_correspondences(buckets, triplets):
    """[(src, dst)]: each query triplet, then the entries of its bucket
    with its hand, in insertion order."""
    out = []
    for verts, _, key in triplets:
        for entry, _ in buckets.get(key, ()):
            if hand(entry) == hand(verts):
                out.append((verts, entry))
    return out


def find(db, bins):
    """Row ranges [lo, hi) of a `DescriptorDB` whose key equals each (n, 6)
    bin row; a row with a bin outside the stored range packs below every key."""
    bins = np.asarray(bins, dtype=np.int64).reshape(-1, 6)
    inside = np.all((bins >= 0) & (bins < db.dims), axis=1)
    packed = np.full(bins.shape[0], -1, dtype=np.int64)
    packed[inside] = np.ravel_multi_index(tuple(bins[inside].T), db.dims)
    return np.searchsorted(db.keys, packed), np.searchsorted(db.keys, packed, "right")
