"""Plane segmentation tests."""

import tracemalloc

import numpy as np
import pytest

from scan2plan.geometry import Se2Pose
from scan2plan.planes import classify_patches, merge_patches, segment_planes
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap

GRAVITY = np.array([0.0, 0.0, -1.0])


def _grid_plane(x0, x1, y0, y1, z, step=0.05):
    xs = np.arange(x0, x1, step)
    ys = np.arange(y0, y1, step)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])


# --- segmentation ---


def test_horizontal_plane_single_patch():
    pts = _grid_plane(0.0, 6.0, 0.0, 6.0, 0.0)
    res = segment_planes(pts)
    assert res.n_unassigned == 0
    merged = merge_patches(res.patches)
    assert len(merged) == 1
    n = merged.normal[0]
    assert np.allclose(np.abs(n), [0.0, 0.0, 1.0], atol=1e-9)
    assert abs(merged.centroid[0, 2]) < 1e-12
    assert np.all(merged.label == 0)


def test_isotropic_blob_yields_no_patch():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((2000, 3)) * 0.4
    # premise check straight from the eigenvalues of the blob covariance
    w = np.linalg.eigvalsh(np.cov(pts.T))
    assert w[1] / w[0] < 10.0
    res = segment_planes(pts, s_v=4.0)
    assert not np.any(np.bincount(res.patches.label[res.patches.label >= 0]) > 50)


def test_split_wall_merges_to_one():
    # vertical wall on y=1 crossing the 2 m cell boundary at x=2
    xs = np.arange(0.1, 3.9, 0.04)
    zs = np.arange(0.0, 2.4, 0.04)
    gx, gz = np.meshgrid(xs, zs)
    pts = np.column_stack([gx.ravel(), np.full(gx.size, 1.0), gz.ravel()])
    res = segment_planes(pts)
    assert len(res.patches) >= 2
    merged = merge_patches(res.patches)
    assert len(merged) == 1
    assert np.allclose(np.abs(merged.normal[0]), [0.0, 1.0, 0.0], atol=1e-9)


def test_parallel_walls_stay_separate():
    a = _grid_plane(0.0, 3.0, 0.0, 2.4, 0.0)[:, [0, 2, 1]]  # y=0 wall
    b = a + np.array([0.0, 3.0, 0.0])  # y=3 wall
    pts = np.vstack([a, b])
    merged = merge_patches(segment_planes(pts).patches)
    assert len(merged) == 2


def test_noisy_wall_recovered():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 4.0, 4000)
    zs = rng.uniform(0.0, 2.5, 4000)
    pts = np.column_stack([xs, np.zeros(4000), zs])
    pts = pts + rng.normal(scale=0.03, size=pts.shape)
    merged = merge_patches(segment_planes(pts).patches)
    # grid-edge slivers can survive as tiny patches; the wall itself
    # must come out as a single dominant one
    sizes = np.bincount(merged.label[merged.label >= 0], minlength=len(merged))
    big = np.flatnonzero(sizes >= 100)
    assert len(big) == 1
    assert sizes[big[0]] > 0.95 * pts.shape[0]
    n = merged.normal[big[0]]
    angle = np.degrees(np.arccos(min(1.0, abs(n[1]))))
    assert angle < 2.0


def test_patch_eigenvalues_sorted_and_ratio_holds():
    layout = generate_layout(seed=5, n_rooms=4, corridor=True, extent_m=30.0)
    scene = synthesize_submap(layout.wall_model, Se2Pose(6.0, 6.0, 0.4), radius_m=8.0, seed=1)
    res = segment_planes(scene.submap.points)
    assert len(res.patches) > 0
    for w, n in zip(res.patches.eigenvalues, res.patches.normal):
        assert w[0] >= w[1] >= w[2]
        assert w[1] / max(w[2], 1e-12) > 10.0
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12


def test_points_assigned_at_most_once():
    layout = generate_layout(seed=2, n_rooms=2, corridor=False, extent_m=16.0)
    scene = synthesize_submap(layout.wall_model, Se2Pose(4.0, 3.0, 0.0), radius_m=6.0, seed=3)
    pts = scene.submap.points
    res = segment_planes(pts)
    label = res.patches.label
    assert label.shape == (pts.shape[0],)
    assert np.all((label >= -1) & (label < len(res.patches)))
    assert np.count_nonzero(label >= 0) + res.n_unassigned == pts.shape[0]
    # every patch holds rows, and no two rows of different patches coincide
    assert np.all(np.bincount(label[label >= 0], minlength=len(res.patches)) > 0)
    rows = np.round(pts[label >= 0], 9)
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_segmentation_is_permutation_invariant():
    layout = generate_layout(seed=4, n_rooms=2, corridor=False, extent_m=16.0)
    scene = synthesize_submap(layout.wall_model, Se2Pose(4.0, 3.0, 1.0), radius_m=6.0, seed=6)
    pts = scene.submap.points
    rng = np.random.default_rng(0)
    shuffled = pts[rng.permutation(pts.shape[0])]

    def signature(points):
        merged = merge_patches(segment_planes(points).patches)
        sizes = np.bincount(merged.label[merged.label >= 0], minlength=len(merged))
        return sorted(
            (int(n), tuple(np.round(c, 6))) for n, c in zip(sizes, merged.centroid)
        )

    assert signature(pts) == signature(shuffled)


def test_far_apart_cells_stay_apart():
    # with 2 m cells, A sits in cell (1, 0, 0) and B in (0, 2**20, 0); a
    # 20-bit field per axis packed both into the same key
    a = _grid_plane(2.25, 4.0, 0.25, 2.0, 0.0, step=0.25)
    b = _grid_plane(0.25, 2.0, 2.0**21 + 0.25, 2.0**21 + 2.0, 0.0, step=0.25)
    pts = np.vstack([a, b])
    res = segment_planes(pts)
    assert len(res.patches) == 2
    got = sorted(np.flatnonzero(res.patches.label == k).tolist() for k in range(2))
    assert got == [list(range(a.shape[0])), list(range(a.shape[0], pts.shape[0]))]


def test_cell_key_overflow_raises():
    pts = np.vstack([_grid_plane(0.0, 1.0, 0.0, 1.0, 0.0, step=0.25), [[1e6, 1e6, 1e6]]])
    with pytest.raises(ValueError):
        segment_planes(pts, s_v=1e-3)


def test_segmentation_peak_memory_on_a4_scene():
    # the octree works column by column: no (N, 3) float temporaries and
    # no (N, 3) int key array, so its peak stays near two point arrays
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    gt = random_interior_pose(layout, np.random.default_rng(9000))
    points = synthesize_submap(
        layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03,
        drop_wall_frac=0.2, clutter_frac=0.1, seed=9000,
    ).submap.points
    tracemalloc.start()
    try:
        segment_planes(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * points.nbytes, (peak, points.nbytes)


def test_merge_memory_grows_linearly_along_a_corridor():
    # 4,000 unit floor cells in a 2 x 2,000 strip: a dense (n, n) box-touch
    # matrix alone would take n**2 bytes (16 MB), while a cell touches at
    # most eight others
    x, y = np.meshgrid(np.arange(0.25, 2000.0, 0.5), np.arange(0.25, 2.0, 0.5), indexing="ij")
    patches = segment_planes(np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)]), s_v=1.0).patches
    n = len(patches)
    assert n == 4000
    tracemalloc.start()
    try:
        merged = merge_patches(patches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(merged) == 1
    assert peak <= n * n / 8, (peak, n * n)


def test_empty_input():
    res = segment_planes(np.zeros((0, 3)))
    assert len(res.patches) == 0 and res.n_points == 0
    assert len(merge_patches(res.patches)) == 0


# --- classification ---


def test_classify_wall_ground_other():
    ground = _grid_plane(0.0, 3.0, 0.0, 3.0, 0.0)
    wall = _grid_plane(0.0, 3.0, 0.0, 2.4, 0.0)[:, [0, 2, 1]] + np.array([0.0, 6.0, 0.0])
    # 45 degree ramp: neither wall nor ground at 15 degree tolerance
    t = _grid_plane(0.0, 3.0, 0.0, 3.0, 0.0)
    ramp = np.column_stack([t[:, 0] + 12.0, t[:, 1], t[:, 1]])
    pts = np.vstack([ground, wall, ramp])
    merged = merge_patches(segment_planes(pts).patches)
    walls, grounds, other = classify_patches(merged, GRAVITY)
    assert len(walls) == len(grounds) == len(other) == 1
    assert sorted(np.concatenate([walls, grounds, other]).tolist()) == [0, 1, 2]
    assert abs(merged.centroid[grounds[0], 2]) < 1e-9
    assert abs(merged.centroid[walls[0], 1] - 6.0) < 1e-9


def test_classify_tracks_gravity_direction():
    # tilt gravity 20 degrees: a z-normal plane is no longer ground
    wallish = _grid_plane(0.0, 3.0, 0.0, 3.0, 0.0)
    merged = merge_patches(segment_planes(wallish).patches)
    g = np.array([np.sin(np.radians(20.0)), 0.0, -np.cos(np.radians(20.0))])
    walls, grounds, other = classify_patches(merged, g)
    assert len(grounds) == 0 and len(other) == 1
