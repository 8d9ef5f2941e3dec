"""Wall runs from patches, segment merging and corner extraction tests."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scalar_frontend as ref

import scan2plan.lines
from scan2plan.config import PipelineConfig
from scan2plan.geometry import LineSegment2, Se2Pose
from scan2plan.lines import (
    MIN_RUN_M,
    RUN_GAP_M,
    extract_corners,
    merge_refit,
    patch_segments,
)
from scan2plan.pipeline import extract_submap_features
from scan2plan.planes import classify_patches, merge_patches, segment_planes
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap


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


def test_merged_line_runs_through_the_length_weighted_centroid():
    # weights 1 and 3 at midpoints (0.5, 0) and (2.6, 0.1); a refit that
    # weighs each piece by its 5 cm sample count misses this by 2.5e-4 m
    merged = merge_refit([_seg(0.0, 0.0, 1.0, 0.0), _seg(1.1, 0.1, 4.1, 0.1)])
    assert merged.shape == (1, 2, 2)
    assert _nearest_line_dist(np.array([2.075, 0.075]), merged[0]) < 1e-12


def test_merge_is_idempotent_on_disjoint_input():
    pieces = [_seg(0.0, 0.0, 3.0, 0.0), _seg(0.0, 2.0, 0.0, 5.0)]
    merged = merge_refit(pieces)
    two = merge_refit(merged)
    assert len(merged) == len(two) == 2
    assert np.allclose(merged, two)


def test_lines_makes_no_linalg_call():
    # chains refit from closed-form moments: the line stage calls no LAPACK
    tree = ast.parse(Path(scan2plan.lines.__file__).read_text())
    calls = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    imports = {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    imports |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert [name for name in calls | imports if "linalg" in name.split(".")] == []


def _sampled_refit(segs, endpoint_tol_m, angle_tol_deg):
    """The refit merge_refit replaced: a chain of two or more sampled every
    5 cm, endpoints included, and fit by total least squares."""
    out = []
    for members in ref.chains([LineSegment2(*s) for s in segs], endpoint_tol_m, angle_tol_deg):
        if len(members) == 1:
            out.append(segs[members[0]])
            continue
        pts = np.vstack([
            s[0] + np.linspace(0.0, 1.0, max(2, int(np.ceil(_length(s) / 0.05)) + 1))[:, None] * (s[1] - s[0])
            for s in segs[members]
        ])
        mean = pts.mean(axis=0)
        axis = np.linalg.eigh((pts - mean).T @ (pts - mean))[1][:, 1]
        t = (pts - mean) @ axis
        out.append([mean + t.min() * axis, mean + t.max() * axis])
    return np.array(out)


# the first A4 scenes; over 100 of them the largest corner move is 2.2 mm
A4_CORNER_SCENES = 5
# over twice that worst case, and a sixth of the 3 cm scan noise
CORNER_MOVE_M = 5e-3


def test_corners_stay_where_the_sampled_refit_put_them():
    # the tier-1 A4 scenes: the pooled refit keeps every corner of the
    # 5 cm sampled one, and moves none by more than CORNER_MOVE_M
    cfg = PipelineConfig()
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    for k in range(A4_CORNER_SCENES):
        gt = random_interior_pose(layout, np.random.default_rng(9000 + k))
        submap = synthesize_submap(
            layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03,
            drop_wall_frac=0.2, clutter_frac=0.1, seed=9000 + k,
        ).submap
        patches = segment_planes(submap.points, cfg.s_v, cfg.sigma_lambda).patches
        patches = merge_patches(patches, cfg.normal_tol_deg, cfg.dist_tol_m)
        walls = classify_patches(patches, submap.gravity, cfg.gravity_tol_deg)[0]
        wall_of = np.full(len(patches) + 1, -1)
        wall_of[walls] = np.arange(walls.shape[0])
        row_wall = wall_of[patches.label]
        rows = row_wall >= 0
        segs = patch_segments(
            submap.points[rows, :2], row_wall[rows], patches.centroid[walls, :2], patches.normal[walls, :2]
        )
        got = extract_submap_features(submap, cfg).corners
        merged = _sampled_refit(segs, cfg.endpoint_tol_m, cfg.angle_tol_deg)
        want = extract_corners(merged, cfg.extend_m, cfg.nms_radius_m, cfg.min_angle_deg)
        assert len(got) == len(want) > 0, k
        gap = np.linalg.norm(got.pos[:, None] - want.pos[None], axis=2)
        assert gap.min(axis=1).max() <= CORNER_MOVE_M and gap.min(axis=0).max() <= CORNER_MOVE_M, k


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
