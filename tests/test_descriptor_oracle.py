"""Property tests: the batched descriptor layer against the scalar oracle.

`scalar_descriptors` keeps the original per-triplet code. Every
comparison here is bitwise: triplet vertices, wall directions and keys,
DB key order and row order within a key, and the correspondence list.
Inputs mix random corner sets with squares, isosceles, equilateral and
3-4-5 triangles whose sides sit exactly on bin boundaries, optionally
under a rigid motion that turns exact ties into near-ties.
"""

import math

import numpy as np
import scalar_descriptors as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from scan2plan.descriptors import (
    DescriptorDB,
    build_db,
    build_triplets,
    canonical_triplets,
    deserialize_db,
    query_correspondences,
    serialize_db,
)
from scan2plan.lines import Corners

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

SHAPES = {
    "square": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    "isosceles": [[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]],
    "equilateral": [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]],
    "3-4-5": [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]],
}

coords = st.one_of(
    st.floats(-20.0, 20.0, allow_nan=False),
    st.integers(-30, 30).map(lambda i: i * 0.5),  # exactly on 0.5 m bins
)
wall_angles = st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi / 4]))
r_s_values = st.sampled_from([0.5, 0.25, 1.0, 0.3])
r_a_values = st.sampled_from([3.0, 1.0, 5.0])
l_max_values = st.sampled_from([30.0, 6.0, 2.5, 1.5])


def _dirs(a, b):
    return np.array([[math.cos(a), math.sin(a)], [math.cos(b), math.sin(b)]])


@st.composite
def corner_sets(draw, max_extra=6):
    pts = []
    kind = draw(st.sampled_from(["random"] + sorted(SHAPES)))
    if kind != "random":
        shape = np.array(SHAPES[kind]) * draw(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]))
        if draw(st.booleans()):
            yaw = draw(st.floats(-math.pi, math.pi))
            c, s = math.cos(yaw), math.sin(yaw)
            shape = shape @ np.array([[c, s], [-s, c]]) + [draw(coords), draw(coords)]
        pts.extend(shape.tolist())
    for _ in range(draw(st.integers(0 if pts else 3, max_extra))):
        pts.append([draw(coords), draw(coords)])
    dirs = [_dirs(draw(wall_angles), draw(wall_angles)) for _ in pts]
    return Corners(np.array(pts).reshape(-1, 2), np.array(dirs).reshape(-1, 2, 2), np.ones(len(pts)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _assert_triplets_match(got, want):
    assert len(got) == len(want)
    for a, (v, d, key) in enumerate(want):
        assert _bits(got.verts[a]) == _bits(v)
        assert _bits(got.dirs[a]) == _bits(d)
        assert tuple(got.bins[a].tolist()) == key


def _assert_db_matches(db, buckets):
    starts = db.key_starts()
    assert [tuple(k) for k in db.bins(starts).tolist()] == sorted(buckets)
    rows = [entry for key in sorted(buckets) for entry in buckets[key]]
    assert db.n_triplets == len(rows)
    assert _bits(db.verts) == _bits([v for v, _ in rows])
    assert _bits(db.dirs) == _bits([d for _, d in rows])
    counts = np.diff(np.append(starts, db.n_triplets)).tolist()
    assert counts == [len(buckets[k]) for k in sorted(buckets)]


@SETTINGS
@given(corner_sets(), l_max_values, r_s_values, r_a_values)
def test_triplets_match_oracle(corners, l_max, r_s, r_a):
    got = build_triplets(corners, l_max, r_s, r_a)
    _assert_triplets_match(got, ref.build_triplets(corners, l_max, r_s, r_a))


@SETTINGS
@given(corner_sets(), l_max_values, r_s_values, r_a_values)
def test_db_matches_oracle(corners, l_max, r_s, r_a):
    _assert_db_matches(build_db(corners, l_max, r_s, r_a), ref.build_db(corners, l_max, r_s, r_a))


@SETTINGS
@given(corner_sets(), corner_sets(), r_s_values)
def test_correspondences_match_oracle(model, query, r_s):
    src, dst = query_correspondences(build_db(model, r_s=r_s), build_triplets(query, r_s=r_s))
    want = ref.query_correspondences(ref.build_db(model, r_s=r_s), ref.build_triplets(query, r_s=r_s))
    assert src.shape == dst.shape == (len(want), 3, 2)
    assert _bits(src) == _bits([s for s, _ in want])
    assert _bits(dst) == _bits([d for _, d in want])


@SETTINGS
@given(corner_sets(max_extra=3), st.sampled_from([10.0, 1.0, 30.0]))
def test_make_descriptor_matches_oracle(corners, min_angle_deg):
    p = corners.pos[:3]
    d = corners.dirs[:3]
    try:
        want = ref.make_descriptor(p, d, min_angle_deg=min_angle_deg)
    except ref.Degenerate:
        want = None
    got = canonical_triplets(p, d, min_angle_deg=min_angle_deg)
    if len(got) == 0:
        assert want is None
        return
    v, dd, (sides, angles, key) = want
    assert _bits(got.verts[0]) == _bits(v) and _bits(got.dirs[0]) == _bits(dd)
    assert _bits(got.sides[0]) == _bits(sides)
    assert _bits(got.angles[0]) == _bits(angles)
    assert tuple(got.bins[0].tolist()) == key


@SETTINGS
@given(corner_sets(), r_s_values, r_a_values)
def test_db_file_round_trip(tmp_path_factory, corners, r_s, r_a):
    db = build_db(corners, r_s=r_s, r_a=r_a)
    path = tmp_path_factory.mktemp("db") / "model.db"
    serialize_db(db, path)
    back = deserialize_db(path)
    assert back.dims == db.dims and np.array_equal(back.keys, db.keys)
    assert _bits(back.verts) == _bits(db.verts) and _bits(back.dirs) == _bits(db.dirs)


@st.composite
def key_spaces(draw):
    """(r_s, r_a, l_max, bins): bins anywhere a DB at those settings can hold."""
    r_s = draw(st.floats(0.05, 5.0))
    r_a = draw(st.floats(0.5, 30.0))
    l_max = draw(st.floats(0.1, 100.0))
    top = [math.floor(l_max / r_s)] * 3 + [math.floor(90.0 / r_a)] * 3
    rows = draw(st.lists(st.tuples(*[st.integers(0, t) for t in top]), min_size=1, max_size=30))
    return r_s, r_a, l_max, top, rows


@SETTINGS
@given(key_spaces())
def test_key_pack_round_trip(space):
    r_s, r_a, _, top, rows = space
    rows = rows + [tuple(top)]  # the largest bins the settings allow
    n = len(rows)
    db = DescriptorDB.from_entries(rows, np.arange(n * 6.0).reshape(n, 3, 2), np.zeros((n, 3, 2, 2)), r_s, r_a)
    order = sorted(range(n), key=lambda i: rows[i])  # stable: lexicographic, then insertion
    assert db.bins().tolist() == [list(rows[i]) for i in order]
    assert db.verts[:, 0, 0].tolist() == [6.0 * i for i in order]
    lo, hi = db.find(rows)
    for r, l, h in zip(rows, lo, hi):
        assert h - l == rows.count(r)
        assert (db.bins(slice(l, h)) == r).all()
