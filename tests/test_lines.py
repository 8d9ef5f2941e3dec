"""Wall runs from patches, segment merging and corner extraction tests."""

import numpy as np
import pytest

from scan2plan.geometry import Se2Pose
from scan2plan.lines import (
    MIN_RUN_M,
    RUN_GAP_M,
    extract_corners,
    merge_refit,
    patch_segments,
)


def _seg(ax, ay, bx, by):
    """One [p0, p1] endpoint row."""
    return np.array([[ax, ay], [bx, by]], float)


def _length(seg):
    return float(np.linalg.norm(seg[1] - seg[0]))


def _direction(seg):
    return (seg[1] - seg[0]) / _length(seg)


def _nearest_line_dist(p, seg):
    d = _direction(seg)
    return abs(float((p - seg[0]) @ np.array([-d[1], d[0]])))


def _runs(walls_pts):
    """patch_segments of point blocks, one patch each, fitted by PCA."""
    label = np.repeat(np.arange(len(walls_pts)), [p.shape[0] for p in walls_pts])
    centroid = np.array([p.mean(axis=0) for p in walls_pts])
    normal = np.array([np.linalg.eigh(np.cov(p.T))[1][:, 0] for p in walls_pts])
    return patch_segments(np.vstack(walls_pts), label, centroid, normal)


def _sampled(segs, step=0.01):
    """Points every `step` m along each wall, endpoints included."""
    return [s[0] + np.linspace(0.0, 1.0, int(_length(s) / step) + 1)[:, None] * (s[1] - s[0]) for s in segs]


def _along_y(ts, x=2.0):
    """One patch of points at x, at offsets ts along y, with normal +x."""
    ts = np.asarray(ts, dtype=float)
    pts = np.column_stack([np.full(ts.shape, x), ts])
    return patch_segments(pts, np.zeros(ts.shape[0], dtype=np.int64), np.array([[x, 0.0]]), np.array([[1.0, 0.0]]))


# --- wall runs from patches ---


def test_detects_single_wall_endpoints():
    seg = _seg(1.0, 2.0, 7.0, 5.0)
    found = _runs(_sampled([seg]))
    assert found.shape == (1, 2, 2)
    ends = sorted(found[0], key=lambda p: p[0])
    true = sorted(seg, key=lambda p: p[0])
    for got, want in zip(ends, true):
        assert np.linalg.norm(got - want) < 1e-9


def test_perpendicular_walls_give_two_segments():
    segs = [_seg(0.0, 0.0, 5.0, 0.0), _seg(0.0, 0.0, 0.0, 4.0)]
    found = _runs(_sampled(segs))
    assert len(found) == 2
    angles = sorted(abs(float(_direction(f) @ np.array([1.0, 0.0]))) for f in found)
    assert angles[0] < 0.05 and angles[1] > 0.95


def test_short_wall_dropped():
    segs = [_seg(0.0, 0.0, 5.0, 0.0), _seg(2.0, 1.0, 2.3, 1.0)]  # 0.3 m < MIN_RUN_M
    found = _runs(_sampled(segs))
    assert len(found) == 1
    assert _length(found[0]) > 4.5


def test_parallel_walls_stay_apart():
    segs = [_seg(0.0, 0.0, 6.0, 0.0), _seg(0.0, 3.0, 6.0, 3.0)]
    found = _runs(_sampled(segs))
    assert len(found) == 2
    ys = sorted(0.5 * (f[0, 1] + f[1, 1]) for f in found)
    assert abs(ys[0] - 0.0) < 0.05 and abs(ys[1] - 3.0) < 0.05


def test_detection_from_noisy_points():
    rng = np.random.default_rng(3)
    walls = [_seg(0.0, 0.0, 8.0, 0.0), _seg(8.0, 0.0, 8.0, 6.0), _seg(8.0, 6.0, 0.0, 6.0)]
    pts = []
    for w in walls:
        t = rng.uniform(0.0, 1.0, int(_length(w) * 250))
        pts.append(w[0] + t[:, None] * (w[1] - w[0]) + rng.normal(scale=0.03, size=(t.shape[0], 2)))
    found = merge_refit(_runs(pts))
    assert len(found) == 3
    for f in found:
        d = min(
            max(_nearest_line_dist(f[0], w), _nearest_line_dist(f[1], w)) for w in walls
        )
        assert d < 0.08


def test_gap_over_the_limit_splits_a_run():
    # offsets are exact binary fractions: each gap is exactly what it reads
    under = RUN_GAP_M - 2.0**-20
    for gap, n in ((under, 1), (RUN_GAP_M, 1), (RUN_GAP_M + 2.0**-20, 2)):
        ts = np.concatenate([np.linspace(0.0, 2.0, 17), 2.0 + gap + np.linspace(0.0, 2.0, 17)])
        found = _along_y(ts)
        assert len(found) == n, gap
        assert found[0, 0, 1] == 0.0 and found[-1, 1, 1] == 4.0 + gap


def test_run_exactly_min_run_is_kept():
    k = int(np.ceil(MIN_RUN_M / RUN_GAP_M))
    ts = np.arange(k + 1) * (MIN_RUN_M / k)
    found = _along_y(ts)
    assert found.shape == (1, 2, 2)
    assert found[0, 1, 1] - found[0, 0, 1] == MIN_RUN_M
    assert np.array_equal(found[0, :, 0], [2.0, 2.0])
    assert len(_along_y(ts * (1.0 - 2.0**-20))) == 0


def test_patch_segments_ignore_row_order_among_ties():
    # patch 0 along y at x = 2: offsets on a 1/8 m lattice, each repeated,
    # some rows off the line at the same offset (equal projections) and
    # some rows duplicated; patch 1 on a slanted line, duplicated rows
    rng = np.random.default_rng(5)
    ts = np.repeat(np.concatenate([np.arange(0, 20), np.arange(26, 40)]) * 0.125, 3)
    xs = 2.0 + rng.choice([-0.25, 0.0, 0.25], ts.shape[0])
    line = np.column_stack([xs, ts])
    slant = np.array([1.0, 1.0]) + rng.uniform(0.0, 3.0, (30, 1)) * np.array([0.6, 0.8])
    pts = np.vstack([line, line[::4], slant, slant[::3]])
    label = np.repeat([0, 1], [line.shape[0] + line[::4].shape[0], slant.shape[0] + slant[::3].shape[0]])
    centroid, normal = np.array([[2.0, 0.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.8, -0.6]])
    want = patch_segments(pts, label, centroid, normal)
    assert want.shape == (3, 2, 2)
    for perm in [np.arange(pts.shape[0])[::-1]] + [rng.permutation(pts.shape[0]) for _ in range(6)]:
        assert patch_segments(pts[perm], label[perm], centroid, normal).tobytes() == want.tobytes()


def test_patch_segments_of_no_points_is_empty():
    none = np.zeros((0, 2))
    assert patch_segments(none, np.zeros(0, dtype=np.int64), none, none).shape == (0, 2, 2)


# --- merge ---


def test_merge_collinear_pieces():
    pieces = [_seg(0.0, 0.0, 3.0, 0.0), _seg(3.1, 0.0, 6.0, 0.0)]
    merged = merge_refit(pieces)
    assert len(merged) == 1
    m = merged[0]
    assert abs(_length(m) - 6.0) < 1e-6
    assert abs(m[0, 1]) < 1e-9 and abs(m[1, 1]) < 1e-9


def test_merge_preserves_door_gaps():
    pieces = [_seg(0.0, 0.0, 3.0, 0.0), _seg(4.0, 0.0, 7.0, 0.0)]  # 1 m gap
    merged = merge_refit(pieces)
    assert len(merged) == 2


def test_merge_of_a_chain_shorter_than_a_nanometre():
    # the refit used to drop a chain spanning under 1e-9 m, and the
    # output array then failed on its None
    pieces = [_seg(0.0, 0.0, 1e-10, 0.0), _seg(2e-10, 0.0, 3e-10, 0.0)]
    merged = merge_refit(pieces)
    assert merged.shape == (1, 2, 2)
    assert np.allclose(merged[0], [[0.0, 0.0], [3e-10, 0.0]], rtol=0.0, atol=1e-24)


def test_merge_is_idempotent_on_disjoint_input():
    pieces = [_seg(0.0, 0.0, 3.0, 0.0), _seg(0.0, 2.0, 0.0, 5.0)]
    merged = merge_refit(pieces)
    two = merge_refit(merged)
    assert len(merged) == len(two) == 2
    assert np.allclose(merged, two)


# --- corners ---


def test_perpendicular_corner_location():
    segs = [_seg(0.0, 3.0, 5.0, 3.0), _seg(2.0, 0.0, 2.0, 2.8)]  # closes 0.2 m short
    corners = extract_corners(segs, extend_m=1.0)
    assert len(corners) == 1
    assert np.allclose(corners.pos[0], [2.0, 3.0], atol=1e-9)
    assert corners.support[0] == pytest.approx(5.0 + 2.8)
    for d in corners.dirs[0]:
        assert min(abs(d @ np.array([1.0, 0.0])), abs(d @ np.array([0.0, 1.0]))) < 1e-9


def test_parallel_walls_make_no_corner():
    segs = [_seg(0.0, 0.0, 6.0, 0.0), _seg(0.0, 3.0, 6.0, 3.0)]
    assert len(extract_corners(segs)) == 0


def test_crossing_segments_single_corner():
    segs = [_seg(0.0, 0.0, 4.0, 4.0), _seg(0.0, 4.0, 4.0, 0.0)]
    corners = extract_corners(segs)
    assert len(corners) == 1
    assert np.allclose(corners.pos[0], [2.0, 2.0], atol=1e-12)


def test_far_apart_segments_make_no_corner():
    segs = [_seg(0.0, 0.0, 2.0, 0.0), _seg(10.0, 1.0, 10.0, 4.0)]
    # intersection of supporting lines is ~8 m past the first wall's end
    assert len(extract_corners(segs, extend_m=1.0)) == 0


def test_corner_extraction_is_rigid_equivariant():
    segs = [
        _seg(0.0, 0.0, 5.0, 0.0),
        _seg(5.0, 0.0, 5.0, 4.0),
        _seg(5.0, 4.0, 0.0, 4.0),
        _seg(0.0, 4.0, 0.0, 0.0),
    ]
    pose = Se2Pose(3.3, -1.2, 0.77)
    moved = pose.apply(np.array(segs).reshape(-1, 2)).reshape(-1, 2, 2)
    a = extract_corners(segs)
    b = extract_corners(moved)
    assert len(a) == len(b) == 4
    pa = sorted(tuple(np.round(pose.apply(p), 9)) for p in a.pos)
    pb = sorted(tuple(np.round(p, 9)) for p in b.pos)
    assert np.allclose(np.array(pa), np.array(pb), atol=1e-9)


def test_nms_keeps_spacing():
    # three near-coincident corner candidates within 0.3 m
    segs = [
        _seg(0.0, 0.0, 4.0, 0.0),
        _seg(2.0, -2.0, 2.0, 2.0),
        _seg(2.25, -2.0, 2.25, 2.0),
    ]
    corners = extract_corners(segs, nms_radius_m=0.5)
    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            assert np.linalg.norm(corners.pos[i] - corners.pos[j]) > 0.5


def test_corners_of_unit_box():
    segs = [
        _seg(0.0, 0.0, 4.0, 0.0),
        _seg(4.0, 0.0, 4.0, 4.0),
        _seg(4.0, 4.0, 0.0, 4.0),
        _seg(0.0, 4.0, 0.0, 0.0),
    ]
    corners = extract_corners(segs)
    got = sorted(tuple(np.round(p, 9)) for p in corners.pos)
    assert got == [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (4.0, 4.0)]
