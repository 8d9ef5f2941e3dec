"""Triangle descriptor and database tests."""

import numpy as np
import pytest

from scan2plan.descriptors import (
    DescriptorDB,
    build_db,
    build_triplets,
    deserialize_db,
    make_descriptor,
    query_correspondences,
    serialize_db,
)
from scan2plan.errors import (
    DegenerateTriplet,
    ParseError,
    ResolutionMismatch,
    VersionMismatch,
)
from scan2plan.geometry import Se2Pose
from scan2plan.lines import Corners

XY_DIRS = np.array([[1.0, 0.0], [0.0, 1.0]])


def _corners(*xy):
    """Corners at the given (x, y), each between an x and a y wall."""
    pos = np.array(xy, float).reshape(-1, 2)
    return Corners(pos, np.tile(XY_DIRS, (pos.shape[0], 1, 1)), np.ones(pos.shape[0]))


def _random_corners(rng, n, spread=20.0):
    pos, dirs = np.empty((n, 2)), np.empty((n, 2, 2))
    for k in range(n):
        ang = rng.uniform(0.0, np.pi, size=2)
        dirs[k] = np.column_stack([np.cos(ang), np.sin(ang)])
        pos[k] = rng.uniform(0.0, spread, size=2)
    return Corners(pos, dirs, np.ones(n))


# --- descriptor values ---


def test_right_isoceles_descriptor():
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    dirs = np.array([XY_DIRS, XY_DIRS, XY_DIRS])
    t = make_descriptor(pos, dirs)
    s = t.sides[0]
    assert s[0] == pytest.approx(3.0, abs=1e-12)
    assert s[1] == pytest.approx(3.0, abs=1e-12)
    assert s[2] == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-12)
    a = t.angles[0]
    # axis-aligned legs run along the walls; the hypotenuse sits at 45 deg
    assert a[0] == pytest.approx(0.0, abs=1e-9)
    assert a[1] == pytest.approx(0.0, abs=1e-9)
    assert a[2] == pytest.approx(45.0, abs=1e-9)
    assert tuple(t.bins[0].tolist()) == (6, 6, 8, 0, 0, 15)


def test_side_order_is_canonical():
    rng = np.random.default_rng(1)
    for _ in range(200):
        pos = rng.uniform(0.0, 15.0, size=(3, 2))
        dirs = rng.standard_normal((3, 2, 2))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        try:
            t = make_descriptor(pos, dirs)
        except DegenerateTriplet:
            continue
        ab, bc, ac = t.sides[0]
        assert ab <= bc + 1e-9 <= ac + 2e-9
        assert np.linalg.norm(t.verts[0][1] - t.verts[0][0]) == pytest.approx(ab)
        assert np.linalg.norm(t.verts[0][2] - t.verts[0][1]) == pytest.approx(bc)
        assert np.linalg.norm(t.verts[0][2] - t.verts[0][0]) == pytest.approx(ac)


def test_descriptor_rigid_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pos = rng.uniform(0.0, 12.0, size=(3, 2))
        dirs = rng.standard_normal((3, 2, 2))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        pose = Se2Pose(*rng.uniform(-30.0, 30.0, size=2), rng.uniform(-np.pi, np.pi))
        r = pose.rotation()
        try:
            t0 = make_descriptor(pos, dirs)
        except DegenerateTriplet:
            continue
        t1 = make_descriptor(pose.apply(pos), dirs @ r.T)
        assert np.allclose(t0.sides[0], t1.sides[0], atol=1e-9)
        assert np.allclose(t0.angles[0], t1.angles[0], atol=1e-7)
        assert tuple(t0.bins[0].tolist()) == tuple(t1.bins[0].tolist())


def test_degenerate_triplets_raise():
    dirs = np.array([XY_DIRS, XY_DIRS, XY_DIRS])
    with pytest.raises(DegenerateTriplet):
        make_descriptor(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), dirs)
    with pytest.raises(DegenerateTriplet):
        make_descriptor(np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 1.0]]), dirs)
    # 10 m base with 0.5 m rise: apex angle fine, base angles ~5.7 deg
    with pytest.raises(DegenerateTriplet):
        make_descriptor(np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.5]]), dirs)


# --- triplet enumeration ---


def test_three_clique_count():
    rng = np.random.default_rng(3)
    corners = _random_corners(rng, 6, spread=8.0)
    triplets = build_triplets(corners, l_max=30.0, min_angle_deg=1.0)
    assert len(triplets) == 20


def test_l_max_prunes_far_corners():
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (50.0, 0.0))
    triplets = build_triplets(corners, l_max=30.0)
    assert len(triplets) == 1


# --- database ---


def test_congruent_triangles_share_bucket():
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (100.0, 0.0), (104.0, 0.0), (100.0, 3.0))
    db = build_db(corners, l_max=30.0)
    assert db.n_keys == 1
    assert db.n_triplets == 2


def test_tied_side_bins_store_both_orders():
    # square: four congruent right-isoceles triangles, two orders each
    corners = _corners((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0))
    db = build_db(corners, l_max=30.0)
    assert db.n_keys == 1
    assert db.n_triplets == 8


def test_query_finds_transformed_triplets():
    # side lengths chosen off the 0.5 m bin boundaries
    corners = _corners((0.0, 0.0), (6.3, 0.0), (6.3, 4.1), (0.0, 4.1), (3.1, 2.45))
    db = build_db(corners, l_max=30.0)
    pose = Se2Pose(12.0, -3.0, 0.9)
    inv = pose.inverse()
    r = inv.rotation()
    moved = Corners(inv.apply(corners.pos), corners.dirs @ r.T, corners.support)
    qts = build_triplets(moved, l_max=30.0)
    assert len(qts) >= 8
    src, dst = query_correspondences(db, qts)
    # every query triplet finds at least one geometrically exact partner;
    # tie buckets may add extras that the vote residual gate would drop
    for t in qts.verts:
        partners = np.all(src == t, axis=(1, 2))
        assert any(
            np.allclose(pose.apply(s), d, atol=1e-6)
            for s, d in zip(src[partners], dst[partners])
        )


def test_resolution_mismatch_raises():
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    db = build_db(corners, r_s=0.5)
    qts = build_triplets(corners, r_s=0.25)
    with pytest.raises(ResolutionMismatch):
        query_correspondences(db, qts)


# --- serialization ---


def test_db_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    corners = _random_corners(rng, 12, spread=15.0)
    db = build_db(corners)
    path = tmp_path / "model.db"
    serialize_db(db, path)
    back = deserialize_db(path)
    assert back.r_s == db.r_s and back.r_a == db.r_a
    assert back.n_keys == db.n_keys
    assert back.n_triplets == db.n_triplets
    assert np.array_equal(back.bins(), db.bins())
    assert np.array_equal(back.verts, db.verts)
    assert np.array_equal(back.dirs, db.dirs)


def test_db_round_trip_large(tmp_path):
    rng = np.random.default_rng(5)
    corners = _random_corners(rng, 40, spread=25.0)
    db = build_db(corners, l_max=40.0)
    assert db.n_triplets > 5000
    path = tmp_path / "big.db"
    serialize_db(db, path)
    back = deserialize_db(path)
    assert back.n_triplets == db.n_triplets
    assert np.array_equal(back.bins(back.key_starts()), db.bins(db.key_starts()))


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.db"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(VersionMismatch):
        deserialize_db(path)


def test_bad_version_raises(tmp_path):
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    path = tmp_path / "v9.db"
    serialize_db(build_db(corners), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        deserialize_db(path)


def test_truncated_db_raises(tmp_path):
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    path = tmp_path / "cut.db"
    serialize_db(build_db(corners), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(ParseError):
        deserialize_db(path)


def test_altered_key_raises(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "model.db"
    serialize_db(build_db(_random_corners(rng, 8, spread=12.0)), path)
    raw = bytearray(path.read_bytes())
    # the first key's |AC| bin, one too high: its rows no longer hash there
    raw[36:40] = (int.from_bytes(raw[36:40], "little") + 1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="stored under key"):
        deserialize_db(path)


# --- key packing ---


def test_query_bins_outside_stored_range_match_nothing():
    verts, dirs = np.zeros((2, 3, 2)), np.zeros((2, 3, 2, 2))
    db = DescriptorDB.from_entries([[0, 1, 2, 0, 1, 0], [0, 1, 2, 0, 0, 5]], verts, dirs, 0.5, 3.0)
    assert db.dims == (1, 2, 3, 1, 2, 6)
    lo, hi = db.find([[0, 1, 2, 0, 1, 0], [0, 1, 2, 0, 0, 6], [0, 1, 3, 0, 0, 0], [0, 0, 0, 0, 0, 0]])
    # (0, 1, 2, 0, 0, 6) would pack onto (0, 1, 2, 0, 1, 0) if it wrapped
    assert (hi - lo).tolist() == [1, 0, 0, 0]


def test_key_space_overflow_raises():
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    with pytest.raises(ValueError, match="int64"):
        build_db(corners, r_s=1e-6)
