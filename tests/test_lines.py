"""Raster, Hough segment and corner extraction tests."""

import numpy as np
import pytest

from scan2plan.errors import EmptyGrid
from scan2plan.geometry import LineSegment2, Se2Pose
from scan2plan.lines import (
    detect_segments,
    extract_corners,
    merge_refit,
    rasterize_points,
    rasterize_segments,
)

S_I = 60.0


def _seg(ax, ay, bx, by):
    return LineSegment2(np.array([ax, ay], float), np.array([bx, by], float))


def _nearest_line_dist(p, seg):
    d = seg.direction
    return abs(float((p - seg.p0) @ np.array([-d[1], d[0]])))


# --- raster ---


def test_raster_marks_point_cells():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [1.005, 2.005]])
    r = rasterize_points(pts, scale=10.0)
    assert r.grid.sum() == 2
    ij = np.floor(r.px_of(np.array([[1.0, 2.0]]))).astype(int)[0]
    assert r.grid[ij[0], ij[1]]


def test_segment_raster_is_connected():
    seg = _seg(0.2, 0.1, 3.6, 2.9)
    r = rasterize_segments([seg], scale=S_I)
    on = np.argwhere(r.grid)
    # a grid walk visits 8-connected neighbours only
    order = np.lexsort((on[:, 1], on[:, 0]))
    n_px = on.shape[0]
    expect = abs(int(3.6 * S_I) - int(0.2 * S_I)) + abs(int(2.9 * S_I) - int(0.1 * S_I)) + 1
    assert n_px >= expect
    # every sampled point of the segment lands on a marked cell
    t = np.linspace(0.0, 1.0, 5000)
    pts = seg.p0 + t[:, None] * (seg.p1 - seg.p0)
    ij = np.floor(r.px_of(pts)).astype(int)
    assert np.all(r.grid[ij[:, 0], ij[:, 1]])


def test_empty_raster_raises():
    with pytest.raises(EmptyGrid):
        rasterize_points(np.zeros((0, 2)), scale=S_I)


# --- Hough detection ---


def test_detects_single_wall_endpoints():
    seg = _seg(1.0, 2.0, 7.0, 5.0)
    r = rasterize_segments([seg], scale=S_I)
    found = detect_segments(r)
    assert len(found) == 1
    f = found[0]
    ends = sorted([f.p0, f.p1], key=lambda p: p[0])
    true = sorted([seg.p0, seg.p1], key=lambda p: p[0])
    for got, want in zip(ends, true):
        assert np.linalg.norm(got - want) < 3.0 / S_I


def test_perpendicular_walls_give_two_segments():
    segs = [_seg(0.0, 0.0, 5.0, 0.0), _seg(0.0, 0.0, 0.0, 4.0)]
    r = rasterize_segments(segs, scale=S_I)
    found = detect_segments(r)
    assert len(found) == 2
    angles = sorted(abs(float(f.direction @ np.array([1.0, 0.0]))) for f in found)
    assert angles[0] < 0.05 and angles[1] > 0.95


def test_short_wall_dropped():
    segs = [_seg(0.0, 0.0, 5.0, 0.0), _seg(2.0, 1.0, 2.3, 1.0)]  # 18 px < 30
    r = rasterize_segments(segs, scale=S_I)
    found = detect_segments(r)
    assert len(found) == 1
    assert found[0].length > 4.5


def test_parallel_walls_stay_apart():
    segs = [_seg(0.0, 0.0, 6.0, 0.0), _seg(0.0, 3.0, 6.0, 3.0)]
    r = rasterize_segments(segs, scale=S_I)
    found = detect_segments(r)
    assert len(found) == 2
    ys = sorted(0.5 * (f.p0[1] + f.p1[1]) for f in found)
    assert abs(ys[0] - 0.0) < 0.05 and abs(ys[1] - 3.0) < 0.05


def test_detection_from_noisy_points():
    rng = np.random.default_rng(3)
    walls = [_seg(0.0, 0.0, 8.0, 0.0), _seg(8.0, 0.0, 8.0, 6.0), _seg(8.0, 6.0, 0.0, 6.0)]
    pts = []
    for w in walls:
        t = rng.uniform(0.0, 1.0, int(w.length * 250))
        pts.append(w.p0 + t[:, None] * (w.p1 - w.p0))
    pts = np.vstack(pts) + rng.normal(scale=0.03, size=(sum(p.shape[0] for p in pts), 2))
    r = rasterize_points(pts, scale=S_I)
    found = merge_refit(detect_segments(r))
    assert len(found) == 3
    for f in found:
        d = min(
            max(_nearest_line_dist(f.p0, w), _nearest_line_dist(f.p1, w)) for w in walls
        )
        assert d < 0.08


# --- merge ---


def test_merge_collinear_pieces():
    pieces = [_seg(0.0, 0.0, 3.0, 0.0), _seg(3.1, 0.0, 6.0, 0.0)]
    merged = merge_refit(pieces)
    assert len(merged) == 1
    m = merged[0]
    assert abs(m.length - 6.0) < 1e-6
    assert abs(m.p0[1]) < 1e-9 and abs(m.p1[1]) < 1e-9


def test_merge_preserves_door_gaps():
    pieces = [_seg(0.0, 0.0, 3.0, 0.0), _seg(4.0, 0.0, 7.0, 0.0)]  # 1 m gap
    merged = merge_refit(pieces)
    assert len(merged) == 2


def test_merge_is_idempotent_on_disjoint_input():
    pieces = [_seg(0.0, 0.0, 3.0, 0.0), _seg(0.0, 2.0, 0.0, 5.0)]
    merged = merge_refit(pieces)
    two = merge_refit(merged)
    assert len(merged) == len(two) == 2
    for a, b in zip(merged, two):
        assert np.allclose(a.p0, b.p0) and np.allclose(a.p1, b.p1)


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
    moved = [s.transformed(pose) for s in segs]
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
