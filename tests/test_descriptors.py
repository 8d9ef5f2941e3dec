"""Triangle descriptor and database tests."""

import hashlib
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import scalar_backend as ref

from scan2plan.config import PipelineConfig
from scan2plan.descriptors import (
    DB_MAGIC,
    DB_VERSION,
    DescriptorDB,
    build_db,
    build_triplets,
    canonical_triplets,
    clique_triplets,
    query_correspondences,
    serialize_db,
)
from scan2plan.geometry import Se2Pose, solve_se2_batch
from scan2plan.lines import Corners
from scan2plan.voting import cast_votes

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
    t = canonical_triplets(pos, dirs)
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
        t = canonical_triplets(pos, dirs)
        if len(t) == 0:
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
        t0 = canonical_triplets(pos, dirs)
        if len(t0) == 0:
            continue
        t1 = canonical_triplets(pose.apply(pos), dirs @ r.T)
        assert np.allclose(t0.sides[0], t1.sides[0], atol=1e-9)
        assert np.allclose(t0.angles[0], t1.angles[0], atol=1e-7)
        assert tuple(t0.bins[0].tolist()) == tuple(t1.bins[0].tolist())


def test_degenerate_triplets_dropped():
    dirs = np.array([XY_DIRS, XY_DIRS, XY_DIRS])
    assert len(canonical_triplets(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), dirs)) == 0
    assert len(canonical_triplets(np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 1.0]]), dirs)) == 0
    # 10 m base with 0.5 m rise: apex angle fine, base angles ~5.7 deg
    assert len(canonical_triplets(np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.5]]), dirs)) == 0


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


def test_mirrored_triangle_never_pairs():
    # a thin triangle (sides 1.1 m and 2.1 m at 10.5 degrees) is so close to
    # its mirror image that the mirror's best rotation fits it within
    # the residual gate; only the hand keeps the pair from voting
    a = np.radians(10.5)
    pos = np.array([[0.0, 0.0], [1.1, 0.0], [2.1 * np.cos(a), 2.1 * np.sin(a)]])
    th = np.array([0.3, 1.1, 2.0])
    dirs = np.stack([np.column_stack([np.cos(th), np.sin(th)]), np.column_stack([-np.sin(th), np.cos(th)])], axis=1)
    flip = np.array([1.0, -1.0])
    query = canonical_triplets(pos, dirs)
    mirror = canonical_triplets(pos * flip, dirs * flip, tied_orders=True)
    row = mirror.bins.tolist().index(query.bins[0].tolist())
    rms = solve_se2_batch(query.verts, mirror.verts[row : row + 1])[3]
    assert 0.1 < rms[0] < PipelineConfig().residual_max_m

    db = DescriptorDB.from_entries(mirror.bins, mirror.verts, mirror.dirs, 0.5, 3.0, mirror.hand)
    src, dst = query_correspondences(db, query)
    assert src.shape == dst.shape == (0, 3, 2)
    assert ref.total_votes(cast_votes((src, dst))) == 0

    # the same triangle turned and moved keeps its hand and pairs once
    pose = Se2Pose(3.0, -2.0, 2.5)
    turned = canonical_triplets(pose.apply(pos), dirs @ pose.rotation().T, tied_orders=True)
    db = DescriptorDB.from_entries(turned.bins, turned.verts, turned.dirs, 0.5, 3.0, turned.hand)
    assert ref.total_votes(cast_votes(query_correspondences(db, query))) == 1


def test_resolution_mismatch_raises():
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    db = build_db(corners, r_s=0.5)
    qts = build_triplets(corners, r_s=0.25)
    with pytest.raises(ValueError, match=r"r_s, r_a = 0.25, 3.0 do not fit a DB at 0.5, 3.0"):
        query_correspondences(db, qts)


# --- v1 export ---

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _grid_db():
    """A DB whose keys hold one to several rows: corners on a 4 x 3 grid of 2 m."""
    xy = [(2.0 * i, 2.0 * j) for i in range(4) for j in range(3)]
    db = build_db(_corners(*xy), l_max=7.0)
    assert np.diff(np.append(db.key_starts(), db.n_triplets)).max() > 1
    return db


def test_serialize_db_v1_layout(tmp_path):
    db = _grid_db()
    path = tmp_path / "grid.db"
    serialize_db(db, path)
    raw = path.read_bytes()
    assert raw[:4] == DB_MAGIC == b"L2BD"
    assert struct.unpack_from("<IddI", raw, 4) == (DB_VERSION, db.r_s, db.r_a, db.n_keys) == (1, 0.5, 3.0, db.n_keys)
    off, keys, counts, blocks = 28, [], [], []
    for _ in range(db.n_keys):
        *key, count = struct.unpack_from("<6iI", raw, off)
        blocks.append(np.frombuffer(raw, dtype="<f8", count=18 * count, offset=off + 28).reshape(count, 18))
        keys.append(key)
        counts.append(count)
        off += 28 + 144 * count
    assert off == len(raw)
    starts = db.key_starts()
    assert keys == db.bins(starts).tolist()
    assert counts == np.diff(np.append(starts, db.n_triplets)).tolist()
    rows = np.concatenate(blocks)
    assert np.array_equal(rows[:, :6].view(np.uint64), db.verts.reshape(-1, 6).view(np.uint64))
    assert np.array_equal(rows[:, 6:].view(np.uint64), db.dirs.reshape(-1, 12).view(np.uint64))


def test_bench_db_digest_matches_in_memory_arrays(tmp_path, monkeypatch):
    # bench/workloads.py hashes the v1 file; the same sha256 over the
    # in-memory key bins, row counts and sorted rows must come out
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    db = _grid_db()
    starts = db.key_starts()
    ends = np.append(starts[1:], db.n_triplets)
    rows = np.concatenate([db.verts.reshape(-1, 6), db.dirs.reshape(-1, 12)], axis=1).astype("<f8")
    h = hashlib.sha256()
    for key, lo, hi in zip(db.bins(starts), starts.tolist(), ends.tolist()):
        h.update(key.astype("<i4").tobytes() + struct.pack("<I", hi - lo))
        h.update(b"".join(sorted(r.tobytes() for r in rows[lo:hi])))
    assert workloads.db_digest(db, tmp_path) == h.hexdigest()


# --- key packing ---


def test_query_bins_outside_stored_range_match_nothing():
    verts, dirs = np.zeros((2, 3, 2)), np.zeros((2, 3, 2, 2))
    db = DescriptorDB.from_entries([[0, 1, 2, 0, 1, 0], [0, 1, 2, 0, 0, 5]], verts, dirs, 0.5, 3.0, np.zeros(2, np.int8))
    assert db.dims == (1, 2, 3, 1, 2, 6)
    lo, hi = db.find([[0, 1, 2, 0, 1, 0], [0, 1, 2, 0, 0, 6], [0, 1, 3, 0, 0, 0], [0, 0, 0, 0, 0, 0]])
    # (0, 1, 2, 0, 0, 6) would pack onto (0, 1, 2, 0, 1, 0) if it wrapped
    assert (hi - lo).tolist() == [1, 0, 0, 0]


def test_negative_stored_bin_raises():
    verts, dirs = np.zeros((2, 3, 2)), np.zeros((2, 3, 2, 2))
    with pytest.raises(ValueError, match=">= 0"):
        DescriptorDB.from_entries([[0, 1, 2, 0, 1, 0], [0, 1, -1, 0, 0, 5]], verts, dirs, 0.5, 3.0, np.zeros(2, np.int8))


def test_key_space_overflow_raises():
    corners = _corners((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    with pytest.raises(ValueError, match="int64"):
        build_db(corners, r_s=1e-6)


@pytest.mark.parametrize(
    "name, value", [("r_s", math.nan), ("r_s", 0.0), ("r_s", -0.5), ("r_a", math.nan), ("r_a", 0.0),
                    ("l_max", math.nan), ("l_max", -1.0), ("l_max", math.inf)],
)
def test_resolutions_and_l_max_must_be_finite_and_positive(name, value):
    # a NaN r_s or l_max used to give an empty DB or no triplets, a zero
    # or negative r_s numpy's own errors about dims or coordinates
    corners = _corners((0, 0), (4, 0), (0, 3), (5, 5))
    for build in (build_db, build_triplets):
        with pytest.raises(ValueError, match=name):
            build(corners, **{name: value})
    if name != "l_max":
        verts, dirs = clique_triplets(corners, 30.0)
        with pytest.raises(ValueError, match=name):
            canonical_triplets(verts, dirs, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["verts", "dirs"])
def test_non_finite_triplet_raises_naming_first_row(field, value):
    # a NaN vertex used to drop its triplet silently, an inf one to warn in
    # the side subtraction; a NaN wall direction gave angle bin -2**63 (and
    # build_db numpy's "invalid dims"), an inf one bin 0
    arrays = dict(zip(("verts", "dirs"), clique_triplets(_corners((0, 0), (4, 0), (0, 3), (5, 5)), 30.0)))
    arrays[field][3].flat[-1] = value
    arrays[field][1].flat[0] = value
    for tied_orders in (False, True):
        with pytest.raises(ValueError, match="triplet 1 has a NaN or inf"):
            canonical_triplets(arrays["verts"], arrays["dirs"], tied_orders=tied_orders)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["pos", "dirs"])
def test_non_finite_corner_raises_naming_first_row(field, value):
    corners = _corners((0, 0), (4, 0), (0, 3), (5, 5))
    getattr(corners, field)[3].flat[0] = value
    getattr(corners, field)[2].flat[-1] = value
    for build in (build_db, build_triplets):
        with pytest.raises(ValueError, match="corner 2 has a NaN or inf"):
            build(corners)


@pytest.mark.parametrize("value", [1e-300, 5e-324])
@pytest.mark.parametrize("step", ["r_s", "r_a"])
def test_bins_past_int64_raise_naming_the_steps(step, value):
    # r_s = 1e-300 used to warn in the int64 cast and then report
    # "descriptor bins must be >= 0", and 5e-324 overflows to inf; AC is
    # off both wall axes, so its angle bin overflows at a tiny r_a too
    corners = _corners((0, 0), (4, 0), (1, 3))
    verts, dirs = clique_triplets(corners, 30.0)
    for tied_orders in (False, True):
        with pytest.raises(ValueError, match="exceed int64; raise r_s or r_a"):
            canonical_triplets(verts, dirs, tied_orders=tied_orders, **{step: value})
    for build in (build_db, build_triplets):
        with pytest.raises(ValueError, match="exceed int64; raise r_s or r_a"):
            build(corners, **{step: value})


@pytest.mark.parametrize("top", [7, 2**53])
def test_from_entries_sorts_stably_with_hands(top):
    # top 2**53 leaves no room to pack the row number beside the key
    bins = np.array([[top, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [top, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 5]] * 300)
    n = bins.shape[0]
    hand = np.tile(np.array([1, -1, 0, 1], np.int8), 300)
    db = DescriptorDB.from_entries(bins, np.arange(n * 6.0).reshape(n, 3, 2), np.zeros((n, 3, 2, 2)), 0.5, 3.0, hand)
    order = sorted(range(n), key=lambda i: (bins[i].tolist(), i))
    assert db.verts[:, 0, 0].tolist() == [6.0 * i for i in order]
    assert db.hand.tolist() == hand[order].tolist()
    assert (math.prod(db.dims) * n > 2**63 - 1) == (top == 2**53)
