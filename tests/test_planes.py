"""Plane segmentation tests."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scan2plan
from scan2plan.config import PipelineConfig
from scan2plan.errors import InvalidSubmap
from scan2plan.geometry import Se2Pose
from scan2plan.ingest import Submap
from scan2plan.pipeline import extract_submap_features
from scan2plan.planes import _eig_sym3, classify_patches, merge_patches, segment_planes
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


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(s_v=np.inf), "s_v"),
        (dict(s_v=np.nan), "s_v"),
        (dict(s_v=0.0), "s_v"),
        (dict(sigma_lambda=np.nan), "sigma_lambda"),
        (dict(sigma_lambda=np.inf), "sigma_lambda"),
    ],
)
def test_invalid_parameters_raise(kwargs, name):
    # s_v = inf gave a NaN cell box, s_v = nan a cast error and
    # sigma_lambda = nan no patch at all
    pts = _grid_plane(0.0, 3.0, 0.0, 3.0, 0.0)
    with pytest.raises(ValueError, match=name):
        segment_planes(pts, **kwargs)
    with pytest.raises(ValueError, match=name):
        segment_planes(np.zeros((0, 3)), **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 2])
def test_non_finite_points_named(bad, axis):
    # a NaN or inf point read "octree cells up to nan ... raise s_v"
    pts = _grid_plane(0.0, 3.0, 0.0, 3.0, 0.0)
    pts[7, axis] = bad
    with pytest.raises(ValueError, match="finite, got a NaN or inf %s coordinate" % "xyz"[axis]):
        segment_planes(pts)
    pts[:, axis] = bad  # all rows alike: the extent is inf - inf or nan - nan
    with pytest.raises(ValueError, match="finite"):
        segment_planes(pts)


def test_cell_key_overflow_raises():
    pts = np.vstack([_grid_plane(0.0, 1.0, 0.0, 1.0, 0.0, step=0.25), [[1e6, 1e6, 1e6]]])
    with pytest.raises(ValueError):
        segment_planes(pts, s_v=1e-3)


def test_deepest_cell_coordinates_checked_at_level_0():
    # a floor, a blob that splits down to MAX_OCTREE_DEPTH (coincident
    # points no cell calls planar) and one point 2**58 m out along -x.
    # Level 0 packs about 2**57 x 2 x 2 cells into an int64, but a cell
    # coordinate doubles at each level: at depth 6 the blob sits 2**63
    # cells from the origin, past int64, so no level may cast it
    rng = np.random.default_rng(5)
    c = np.array([0.5, 0.5, 1.0])
    near = np.vstack([
        _grid_plane(0.0, 1.0, 0.0, 1.0, 0.0, step=0.1),
        np.tile(c, (40, 1)),
        c + rng.normal(scale=1e-7, size=(20, 3)),
    ])
    assert len(segment_planes(near).patches) > 0
    pts = np.vstack([near, [[-(2.0**58), 0.5, 0.5]]])
    with pytest.raises(ValueError, match="s_v"):
        segment_planes(pts)
    # the pipeline reports it as an invalid submap (exit 2 at the CLI)
    with pytest.raises(InvalidSubmap, match="s_v"):
        extract_submap_features(Submap(pts, GRAVITY), PipelineConfig())


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


def test_extraction_peak_memory_on_a4_scene():
    # the wall rows are gathered by index and projected one column at a
    # time, with no (N,) wall number per row and no (W, 2) temporaries: the
    # peak, in the wall runs, measured 2.15 point arrays (2.52 with those
    # temporaries); the bound leaves 7% headroom
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    gt = random_interior_pose(layout, np.random.default_rng(9000))
    submap = synthesize_submap(
        layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03,
        drop_wall_frac=0.2, clutter_frac=0.1, seed=9000,
    ).submap
    tracemalloc.start()
    try:
        extract_submap_features(submap, PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * submap.points.nbytes, (peak, submap.points.nbytes)


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


# --- the closed-form 3x3 solver ---

EPS = np.finfo(np.float64).eps
# `_eig_sym3` and LAPACK each land within a few eps * |A| of the exact
# eigenvalues and a few eps * |A| / (l2 - l3) rad of the exact normal
# (the argument is in `_eig_sym3`'s docstring); the two together may
# differ by the sum, which these factors cover with room
EIG_TOL = 16.0
NORMAL_TOL = 16.0


@st.composite
def clouds(draw):
    """Point sets as the octree meets them: planar, linear and isotropic
    clouds, coincident points, noise-free planes and 4-point cells, along
    the axes or turned, up to 1e5 m from the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["planar", "linear", "isotropic", "coincident", "exact", "four"]))
    n = 4 if kind == "four" else draw(st.integers(4, 300))
    size = draw(st.sampled_from([0.01, 0.5, 2.0]))
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.03]))
    if kind == "planar":
        p = np.column_stack([rng.uniform(0.0, size, (n, 2)), rng.normal(scale=noise, size=n)])
    elif kind == "linear":
        width = draw(st.sampled_from([1.0, 0.1, 1e-3]))
        p = np.column_stack([rng.uniform(0.0, size, n), rng.normal(scale=noise, size=n), rng.normal(scale=noise * width, size=n)])
    elif kind == "isotropic":
        p = rng.normal(scale=size, size=(n, 3))
    elif kind == "coincident":
        p = np.repeat(rng.uniform(0.0, size, (1, 3)), n, axis=0)
    elif kind == "exact":
        p = np.column_stack([rng.uniform(0.0, size, (n, 2)), np.zeros(n)])
    else:
        p = rng.uniform(0.0, size, (4, 3)) * [1.0, 1.0, draw(st.sampled_from([1.0, 1e-3, 1e-6, 0.0]))]
    turn = draw(st.sampled_from(["none", "axes", "any"]))
    if turn == "axes":
        p = p[:, rng.permutation(3)]
    elif turn == "any":
        p = p @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return p + draw(st.sampled_from([0.0, 1.0, 1e3, 1e5])) * rng.uniform(-1.0, 1.0, 3)


def _covariance(p):
    """A point set's covariance from its raw moments, as the plane stage
    takes it, mirrored from its upper entries: LAPACK reads the lower
    ones, `_eig_sym3` the upper, and both must see one matrix."""
    mean = p.sum(axis=0) / p.shape[0]
    c = p.T @ p / p.shape[0] - mean[:, None] * mean[None, :]
    return np.triu(c) + np.triu(c, 1).T


@settings(max_examples=300, deadline=None)
@given(st.lists(clouds(), min_size=1, max_size=6))
# a noise-free floor cell along the axes: two of the adjugate's three
# columns are zero, so only the longest one gives the normal
@example([np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 1.0, 0.0]])])
def test_closed_form_matches_lapack(point_sets):
    """Eigenvalues finite, descending and within EIG_TOL eps |A| of
    LAPACK's; where the plane is resolved (l2 > 10 |l3|), a unit normal,
    its largest component positive, within NORMAL_TOL eps |A| / (l2 - l3)
    rad of LAPACK's."""
    a = np.array([_covariance(p) for p in point_sets])
    normal, eig = _eig_sym3(a)
    w, v = np.linalg.eigh(a)
    w, v = w[:, ::-1], v[:, :, 0]  # descending, and the normal
    scale = np.max(np.abs(w), axis=1)

    assert np.all(np.isfinite(normal)) and np.all(np.isfinite(eig))
    assert np.all(eig[:, 0] >= eig[:, 1]) and np.all(eig[:, 1] >= eig[:, 2])
    assert np.all(np.abs(eig - w) <= EIG_TOL * EPS * scale[:, None])
    assert np.all(np.abs(np.linalg.norm(normal, axis=1) - 1.0) <= 4.0 * EPS)
    resolved = w[:, 1] > 10.0 * np.abs(w[:, 2])
    for n, ref, s, (_, l2, l3) in zip(normal[resolved], v[resolved], scale[resolved], w[resolved]):
        assert n[np.argmax(np.abs(n))] > 0.0
        angle = np.arctan2(np.linalg.norm(np.cross(n, ref)), abs(n @ ref))
        assert angle <= NORMAL_TOL * EPS * s / (l2 - l3), (angle, n, ref)


def test_closed_form_degenerate_rows():
    # zero covariance; rank 1; det(B) = +0 with l3 = 0 the smallest (the
    # eigenvalue picked as beta must decide which vector is the normal)
    rows = [
        (np.zeros((3, 3)), [0.0, 0.0, 0.0]),
        (np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), [14.0, 0.0, 0.0]),
        (np.diag([2.0, 1.0, 0.0]), [2.0, 1.0, 0.0]),
        (np.diag([0.0, 1.0, 2.0]), [2.0, 1.0, 0.0]),
    ]
    normal, eig = _eig_sym3(np.array([a for a, _ in rows]))
    assert np.all(np.isfinite(normal)) and np.all(np.isfinite(eig))
    assert np.allclose(eig, [w for _, w in rows], rtol=0.0, atol=16.0 * EPS * 14.0)
    assert np.allclose(np.linalg.norm(normal, axis=1), 1.0, rtol=0.0, atol=4.0 * EPS)
    assert abs(normal[1] @ [1.0, 2.0, 3.0]) <= 16.0 * EPS * 14.0
    assert np.allclose(normal[2], [0.0, 0.0, 1.0], atol=4.0 * EPS)
    assert np.allclose(normal[3], [1.0, 0.0, 0.0], atol=4.0 * EPS)


def test_planes_make_no_lapack_call():
    # every plane comes from the closed-form solver; a per-cell np.linalg
    # call costs more than the whole fit
    tree = ast.parse((Path(scan2plan.__file__).parent / "planes.py").read_text())
    linalg = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "linalg")
        or (isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.dump(node))
    ]
    assert linalg == []


def test_planes_make_no_bincount_call():
    # cell moments are segment sums over the sorted columns; a weighted
    # bincount takes several times as long per column
    tree = ast.parse((Path(scan2plan.__file__).parent / "planes.py").read_text())
    bincount = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "bincount"]
    assert bincount == []


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
