"""Raster, Hough segment and corner extraction tests."""

import numpy as np
import pytest

from scan2plan.errors import EmptyGrid
from scan2plan.geometry import Se2Pose
from scan2plan.lines import (
    MAX_POINT_RASTER_CELLS,
    BevRaster,
    _bounds,
    detect_segments,
    extract_corners,
    merge_refit,
    rasterize_points,
    rasterize_segments,
)

S_I = 60.0


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


# --- raster ---


def test_raster_marks_point_cells():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [1.005, 2.005]])
    r = rasterize_points(pts, scale=10.0)
    assert r.grid.sum() == 2
    ij = np.floor((np.array([1.0, 2.0]) - r.origin) * r.scale).astype(int)
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
    pts = seg[0] + t[:, None] * (seg[1] - seg[0])
    ij = np.floor((pts - r.origin) * r.scale).astype(int)
    assert np.all(r.grid[ij[:, 0], ij[:, 1]])


def test_point_raster_cap_admits_200_m_submap():
    # checked through the bounds alone: the raster would be 1.44e8 cells
    pts = np.array([[0.0, 0.0], [200.0, 200.0]])
    lo, hi = _bounds(pts, 2, S_I, MAX_POINT_RASTER_CELLS)
    assert np.prod(hi - lo) == 12005**2
    with pytest.raises(ValueError, match="raster"):
        rasterize_points(pts * 10.0, scale=S_I)


def test_empty_raster_raises():
    with pytest.raises(EmptyGrid):
        rasterize_points(np.zeros((0, 2)), scale=S_I)


# --- Hough detection ---


def test_hough_accumulator_cap(monkeypatch):
    r = BevRaster(np.ones((5, 5), dtype=bool), np.zeros(2), 1.0)
    # counted in Python ints: 2**62 bins never reach np.arange
    with pytest.raises(ValueError, match="theta_bins = %d" % 2**62):
        detect_segments(r, theta_bins=2**62)
    # 180 theta bins x 2 * (ceil(hypot(5, 5)) + 2) rho bins = 3600 cells
    monkeypatch.setattr("scan2plan.lines.MAX_HOUGH_CELLS", 3600)
    detect_segments(r, l_min_px=3)
    monkeypatch.setattr("scan2plan.lines.MAX_HOUGH_CELLS", 3599)
    with pytest.raises(ValueError, match="theta_bins = 180 over a 5 x 5 raster"):
        detect_segments(r, l_min_px=3)


def test_detects_single_wall_endpoints():
    seg = _seg(1.0, 2.0, 7.0, 5.0)
    r = rasterize_segments([seg], scale=S_I)
    found = detect_segments(r)
    assert found.shape == (1, 2, 2)
    ends = sorted(found[0], key=lambda p: p[0])
    true = sorted(seg, key=lambda p: p[0])
    for got, want in zip(ends, true):
        assert np.linalg.norm(got - want) < 3.0 / S_I


def test_perpendicular_walls_give_two_segments():
    segs = [_seg(0.0, 0.0, 5.0, 0.0), _seg(0.0, 0.0, 0.0, 4.0)]
    r = rasterize_segments(segs, scale=S_I)
    found = detect_segments(r)
    assert len(found) == 2
    angles = sorted(abs(float(_direction(f) @ np.array([1.0, 0.0]))) for f in found)
    assert angles[0] < 0.05 and angles[1] > 0.95


def test_short_wall_dropped():
    segs = [_seg(0.0, 0.0, 5.0, 0.0), _seg(2.0, 1.0, 2.3, 1.0)]  # 18 px < 30
    r = rasterize_segments(segs, scale=S_I)
    found = detect_segments(r)
    assert len(found) == 1
    assert _length(found[0]) > 4.5


def test_parallel_walls_stay_apart():
    segs = [_seg(0.0, 0.0, 6.0, 0.0), _seg(0.0, 3.0, 6.0, 3.0)]
    r = rasterize_segments(segs, scale=S_I)
    found = detect_segments(r)
    assert len(found) == 2
    ys = sorted(0.5 * (f[0, 1] + f[1, 1]) for f in found)
    assert abs(ys[0] - 0.0) < 0.05 and abs(ys[1] - 3.0) < 0.05


def test_detection_from_noisy_points():
    rng = np.random.default_rng(3)
    walls = [_seg(0.0, 0.0, 8.0, 0.0), _seg(8.0, 0.0, 8.0, 6.0), _seg(8.0, 6.0, 0.0, 6.0)]
    pts = []
    for w in walls:
        t = rng.uniform(0.0, 1.0, int(_length(w) * 250))
        pts.append(w[0] + t[:, None] * (w[1] - w[0]))
    pts = np.vstack(pts) + rng.normal(scale=0.03, size=(sum(p.shape[0] for p in pts), 2))
    r = rasterize_points(pts, scale=S_I)
    found = merge_refit(detect_segments(r))
    assert len(found) == 3
    for f in found:
        d = min(
            max(_nearest_line_dist(f[0], w), _nearest_line_dist(f[1], w)) for w in walls
        )
        assert d < 0.08


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
