"""Pose voting tests."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scalar_backend as ref
from hypothesis import given, settings
from hypothesis import strategies as st

import scan2plan
from scan2plan.config import PipelineConfig
from scan2plan.descriptors import query_correspondences
from scan2plan.errors import EmptyGrid
from scan2plan.geometry import Se2Pose, normalize_angle, pose_errors
from scan2plan.pipeline import build_floor_index, extract_submap_features
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap
from scan2plan.voting import VoteGrid, cast_votes, hierarchical_vote, yaw_bins

TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
PIVOT = (2.0, 2.0)  # TRIANGLE's xy box has its midpoint at (2, 1.5)


def _corr(pose, src=TRIANGLE, jitter=None, rng=None):
    dst = pose.apply(src)
    if jitter is not None:
        dst = dst + rng.uniform(-jitter, jitter, size=dst.shape)
    return src.copy(), dst


def _stack(pairs):
    """(src, dst) vertex arrays of a list of (src, dst) triangle pairs."""
    src = np.array([s for s, _ in pairs]).reshape(-1, 3, 2)
    dst = np.array([d for _, d in pairs]).reshape(-1, 3, 2)
    return src, dst


def _corrs_at(pose, n, jitter=0.0, rng=None):
    return [_corr(pose, jitter=jitter if jitter else None, rng=rng) for _ in range(n)]


def _about(pose, pivot):
    """The pose about `pivot` of a pose of the caller's frame: pose o T(pivot)."""
    return pose.compose(Se2Pose(pivot[0], pivot[1], 0.0))


# --- casting ---


def test_single_vote_recovers_pose():
    pose = Se2Pose(3.2, -1.1, 0.6)
    grid = cast_votes(_stack([_corr(pose)]))
    assert ref.total_votes(grid) == 1 and grid.n_rejected == 0
    assert grid.pivot == PIVOT
    got, votes = ref.vanilla_vote(grid)
    assert votes == 1
    assert abs(got.x - pose.x) < 1e-9
    assert abs(got.y - pose.y) < 1e-9
    assert abs(normalize_angle(got.yaw - pose.yaw)) < 1e-9


def test_mirrored_correspondence_is_rejected():
    mirrored = TRIANGLE * np.array([1.0, -1.0])
    grid = cast_votes(_stack([(TRIANGLE, mirrored)]))
    assert ref.total_votes(grid) == 0 and grid.n_rejected == 1
    with pytest.raises(EmptyGrid):
        ref.vanilla_vote(grid)


def test_vote_conservation():
    rng = np.random.default_rng(0)
    pose = Se2Pose(1.0, 2.0, -0.4)
    good = _corrs_at(pose, 40, jitter=0.01, rng=rng)
    mirrored = TRIANGLE * np.array([-1.0, 1.0])
    bad = [(TRIANGLE, mirrored) for _ in range(7)]
    grid = cast_votes(_stack(good + bad))
    assert ref.total_votes(grid) == 40
    assert grid.n_rejected == 7


def test_empty_correspondences():
    grid = cast_votes(_stack([]))
    assert ref.total_votes(grid) == 0
    with pytest.raises(EmptyGrid):
        hierarchical_vote(grid)


@pytest.mark.parametrize(
    "name, value",
    [("r_xy", 0.0), ("r_xy", math.nan), ("r_xy", math.inf), ("r_xy", -0.15),
     ("residual_max_m", math.nan), ("residual_max_m", 0.0), ("residual_max_m", -0.3)],
)
def test_cell_size_and_residual_gate_must_be_finite_and_positive(name, value):
    # zero or NaN overflowed the cell index, inf binned every vote into
    # one cell, a negative size was accepted, a NaN gate dropped every vote
    with pytest.raises(ValueError, match=name):
        cast_votes(_corr(Se2Pose(1.0, 2.0, 0.3)), **{name: value})


# --- extraction ---


def test_inlier_cluster_beats_outliers():
    rng = np.random.default_rng(1)
    truth = Se2Pose(5.0, 7.0, 1.2)
    corrs = _corrs_at(truth, 20, jitter=0.015, rng=rng)  # < r_xy / 4 of pose spread
    for _ in range(80):
        p = Se2Pose(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-np.pi, np.pi))
        corrs.append(_corr(p))
    grid = cast_votes(_stack(corrs))
    cands = hierarchical_vote(grid)
    best = cands[0]
    assert best.votes >= 20
    assert np.hypot(best.pose.x - truth.x, best.pose.y - truth.y) < 0.15
    assert abs(normalize_angle(best.pose.yaw - truth.yaw)) < np.radians(1.0)


def test_two_peaks_ordered_by_merged_score():
    rng = np.random.default_rng(2)
    big = Se2Pose(0.0, 0.0, 0.0)
    small = Se2Pose(20.0, 20.0, 2.0)
    corrs = _corrs_at(big, 30, jitter=0.01, rng=rng) + _corrs_at(small, 18, jitter=0.01, rng=rng)
    cands = hierarchical_vote(cast_votes(_stack(corrs)))
    assert len(cands) == 2
    assert cands[0].votes == 30 and cands[1].votes == 18
    assert np.hypot(cands[0].pose.x - big.x, cands[0].pose.y - big.y) < 0.15
    assert np.hypot(cands[1].pose.x - small.x, cands[1].pose.y - small.y) < 0.15


def test_candidate_pose_is_vote_weighted_mean():
    # two poses one cell apart merge into one cluster; mean is weighted
    a = Se2Pose(0.030, 0.0, 0.0)
    b = Se2Pose(0.180, 0.0, 0.0)  # adjacent 0.15 m cell
    corrs = [_corr(a)] * 3 + [_corr(b)]
    cands = hierarchical_vote(cast_votes(_stack(corrs)))
    assert len(cands) == 1
    expect_x = (3 * a.x + 1 * b.x) / 4
    assert cands[0].pose.x == pytest.approx(expect_x, abs=1e-9)
    assert cands[0].votes == 4 and cands[0].n_cells == 2


def test_yaw_wraps_across_pi():
    # votes straddling the +/-pi seam must land in one cluster
    a = Se2Pose(0.0, 0.0, np.pi - 0.002)
    b = Se2Pose(0.0, 0.0, -np.pi + 0.002)
    cands = hierarchical_vote(cast_votes(_stack([_corr(a), _corr(b)])))
    assert len(cands) == 1
    assert cands[0].votes == 2
    assert abs(abs(normalize_angle(cands[0].pose.yaw)) - np.pi) < 0.01


# --- oracle comparison ---


def test_unlimited_extraction_matches_oracle():
    rng = np.random.default_rng(3)
    poses = []
    # a few dense clusters plus scattered singles, some repeating cells
    for cx, cy, cyaw in [(0, 0, 0.0), (5, 5, 1.0), (-8, 3, -3.1)]:
        for _ in range(rng.integers(5, 15)):
            poses.append(
                (
                    cx + rng.uniform(-0.2, 0.2),
                    cy + rng.uniform(-0.2, 0.2),
                    cyaw + rng.uniform(-0.03, 0.03),
                )
            )
    for _ in range(60):
        poses.append(
            (rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-np.pi, np.pi))
        )

    corrs = []
    for x, y, yaw in poses:
        corrs.append(_corr(Se2Pose(x, y, yaw)))
    grid = cast_votes(_stack(corrs), residual_max_m=1e9)
    n = grid.packed.shape[0]  # limits that keep every cell and group
    got = hierarchical_vote(grid, l_cells=n, k_cells=n, j_candidates=n)
    assert grid.pivot == PIVOT
    want = ref.pose_clusters(poses, grid.pivot)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.votes == w["votes"]
        assert g.n_cells == w["n_cells"]
        assert g.merged_score == w["merged"]
        wx, wy, wyaw = w["pose"]
        assert abs(g.pose.x - wx) < 1e-9
        assert abs(g.pose.y - wy) < 1e-9
        assert abs(normalize_angle(g.pose.yaw - wyaw)) < 1e-9


def test_limits_trim_but_keep_strongest():
    rng = np.random.default_rng(4)
    truth = Se2Pose(2.0, 2.0, 0.5)
    corrs = _corrs_at(truth, 25, jitter=0.01, rng=rng)
    for _ in range(200):
        p = Se2Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-np.pi, np.pi))
        corrs.append(_corr(p))
    grid = cast_votes(_stack(corrs))
    cands = hierarchical_vote(grid, l_cells=50, k_cells=25, j_candidates=5)
    assert len(cands) <= 5
    assert cands[0].votes >= 25
    assert np.hypot(cands[0].pose.x - truth.x, cands[0].pose.y - truth.y) < 0.15


@pytest.mark.parametrize("value", [0, -1, -2, None, math.nan, 1500.0])
@pytest.mark.parametrize("limit", ["l_cells", "k_cells", "j_candidates"])
def test_limits_below_one_rejected(limit, value):
    # a negative limit used to drop the weakest cells or groups silently,
    # and 0 cells died in numpy's max of an empty array; a limit must be
    # an integer, so None (once "keep everything") and NaN fail too, and
    # 1500.0, which passed the >= 1 test and raised TypeError in a slice
    grid = cast_votes(_stack([_corr(Se2Pose(5.0 * k, 0.0, 0.0)) for k in range(3)]))
    assert grid.packed.shape[0] == 3
    assert len(hierarchical_vote(grid, 3, 3, 3)) == 3
    assert len(hierarchical_vote(grid, 1, 1, 1)) == 1
    with pytest.raises(ValueError, match="%s must be an integer of at least 1" % (limit,)):
        hierarchical_vote(grid, **{limit: value})


def _five_votes(r_yaw_deg):
    # 5 votes in one x/y cell about the pivot: 3 at yaw 0.1, 2 at -0.1;
    # P o T(-pivot) is the caller-frame pose whose pose about the pivot is P
    def at(yaw):
        return Se2Pose(1.0, 2.0, yaw).compose(Se2Pose(-PIVOT[0], -PIVOT[1], 0.0))

    corrs = _corrs_at(at(0.1), 3) + _corrs_at(at(-0.1), 2)
    return cast_votes(_stack(corrs), r_yaw_deg=r_yaw_deg)


@pytest.mark.parametrize("r_yaw_deg", [90.0, 120.0])
def test_every_vote_counts_once_with_three_yaw_bins_or_more(r_yaw_deg):
    (cand,) = hierarchical_vote(_five_votes(r_yaw_deg))
    assert cand.votes == 5 and cand.merged_score == 5


@pytest.mark.parametrize("r_yaw_deg", [180.0, 200.0, 360.0])
def test_fewer_than_three_yaw_bins_rejected(r_yaw_deg):
    # the -1 and +1 yaw neighbours of a 1- or 2-bin grid are one cell, so
    # a neighbourhood sum would count its votes twice or more
    with pytest.raises(ValueError, match="yaw bins"):
        _five_votes(r_yaw_deg)


@pytest.mark.parametrize("r_yaw_deg", [0.0, math.nan, -1.0, math.inf])
def test_non_finite_or_non_positive_yaw_step_rejected(r_yaw_deg):
    # 0 used to divide by zero and NaN to fail numpy's int conversion
    with pytest.raises(ValueError, match="yaw bins"):
        yaw_bins(r_yaw_deg)
    with pytest.raises(ValueError, match="yaw bins"):
        _five_votes(r_yaw_deg)


@pytest.mark.parametrize("n_yaw", [1, 2])
def test_hierarchical_vote_rejects_grid_of_fewer_than_three_yaw_bins(n_yaw):
    one = np.ones(1)
    grid = VoteGrid((3, 3, n_yaw), np.array([4 * n_yaw]), np.array([5]), one, one, one, one)
    with pytest.raises(ValueError, match="yaw bins"):
        hierarchical_vote(grid)


# --- cell packing ---


def _cells(grid):
    """(ix - x0, iy - y0, iyaw) of each occupied cell, decoded from `dims`;
    (x0, y0) is one cell below the votes' lowest (ix, iy)."""
    return np.unravel_index(grid.packed, grid.dims)


def test_fine_yaw_bins_unpack_exactly():
    # 0.5 deg bins give 720 yaw cells; yaw 3.0 rad lands in cell 703
    pose = Se2Pose(1.0, 2.0, 3.0)
    grid = cast_votes(_stack([_corr(pose)]), r_yaw_deg=0.5)
    ix, iy, iyaw = _cells(grid)
    assert grid.dims == (3, 3, 720)
    assert (int(ix[0]), int(iy[0]), int(iyaw[0])) == (1, 1, 703)


def test_far_translation_unpacks_exactly():
    # 200 km out is 1.33e6 cells of 0.15 m, past any fixed 21-bit field
    pose = Se2Pose(-149999.93, 200e3, 0.3)
    grid = cast_votes(_stack([_corr(pose), _corr(Se2Pose(pose.x, pose.y + 0.15, pose.yaw))]))
    ix, iy, _ = _cells(grid)
    about = _about(pose, grid.pivot)
    cx, cy = math.floor(about.x / 0.15), math.floor(about.y / 0.15)
    assert abs(cx) > 999_990 and cy > 1_333_340
    assert grid.dims[:2] == (3, 4)
    assert ix.tolist() == [1] * 2
    assert iy.tolist() == [1, 2]
    # neighbouring cells still merge into one candidate
    (cand,) = hierarchical_vote(grid)
    assert cand.votes == 2 and cand.n_cells == 2


@pytest.mark.parametrize(
    "r_xy, match", [(1e-300, "exceed int64"), (1e-9, "do not pack into an int64"), (5e-324, "exceed int64")]
)
def test_vote_cells_past_int64_raise_naming_r_xy(r_xy, match):
    # 1e-300 used to warn in the int64 cast and then raise OverflowError,
    # 1e-9 to raise numpy's "invalid dims" without naming r_xy
    corr = _stack(_corrs_at(Se2Pose(3.0, -2.0, 0.5), 1) + _corrs_at(Se2Pose(-40.0, 25.0, 0.5), 1))
    with pytest.raises(ValueError, match="%s; raise r_xy" % (match,)):
        cast_votes(corr, r_xy=r_xy)


# --- frames ---


def _cluster_corrs(rng):
    """(src, dst) of a few dense vote clusters and scattered singles, each
    over its own random triangle within 15 m of the origin."""
    poses = []
    for _ in range(3):
        centre = (rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-np.pi, np.pi))
        for _ in range(rng.integers(5, 15)):
            poses.append(np.array(centre) + rng.uniform(-0.03, 0.03, size=3))
    poses += [(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-np.pi, np.pi)) for _ in range(40)]
    src = rng.uniform(-15, 15, size=(len(poses), 3, 2))
    dst = np.array([Se2Pose(*p).apply(tri) for p, tri in zip(poses, src)])
    return src, dst


@settings(max_examples=40)
@given(st.integers(0, 2**16), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_shifting_the_source_frame_moves_only_the_poses(seed, dx, dy):
    # whole metres move the pivot with the points, so every vote keeps its
    # cell; each candidate comes back in the shifted frame
    src, dst = _cluster_corrs(np.random.default_rng(seed))
    shift = np.array([float(dx), float(dy)])
    n = src.shape[0]  # at least the cell count: every cell and group is kept
    base = hierarchical_vote(cast_votes((src, dst)), n, n, n)
    moved = hierarchical_vote(cast_votes((src + shift, dst)), n, n, n)
    assert len(moved) == len(base)
    assert np.array_equal(moved.votes, base.votes)
    assert np.array_equal(moved.merged_score, base.merged_score)
    assert np.array_equal(moved.n_cells, base.n_cells)
    for got, want in zip(moved, base):
        want = want.pose.compose(Se2Pose(-dx, -dy, 0.0))
        assert abs(normalize_angle(got.pose.yaw - want.yaw)) < 1e-9
        assert np.abs(got.pose.translation - want.translation).max() < 1e-6


def test_a4_candidates_hold_the_truth_in_the_submap_frame():
    # the A4 floor and its first scenes: candidates leave voting in the
    # submap's frame, so one of them is the truth itself, not the truth
    # moved by the pivot
    cfg = PipelineConfig()
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    floor = build_floor_index(layout.wall_model, cfg)
    for k in range(8):
        gt = random_interior_pose(layout, np.random.default_rng(9000 + k))
        scene = synthesize_submap(
            layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03,
            drop_wall_frac=0.2, clutter_frac=0.1, seed=9000 + k,
        )
        feats = extract_submap_features(scene.submap, cfg)
        corr = query_correspondences(floor.db, feats.triplets)
        grid = cast_votes(corr, cfg.r_xy, cfg.r_yaw_deg, cfg.residual_max_m)
        cands = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
        errors = [pose_errors(c.pose, gt) for c in cands]
        assert any(rot < 1.0 and trans < 0.5 for rot, trans in errors), k


def _imports(path):
    """Every module and module.name a file imports; relative ones as `.x`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.add(module)
            names.update("%s.%s" % (module, a.name) for a in node.names)
    return names


def test_no_module_imports_scipy_sparse():
    # one connected-components helper, graph.connected_labels, in numpy;
    # patch merging, segment chaining and vote clustering group through it
    paths = sorted(Path(scan2plan.__file__).parent.glob("*.py"))
    sparse = [p.name for p in paths if any(n.split(".")[:2] == ["scipy", "sparse"] for n in _imports(p))]
    assert sparse == []
    users = {p.name for p in paths if ".graph.connected_labels" in _imports(p)}
    assert users == {"planes.py", "lines.py", "voting.py"}


def test_the_score_field_owns_its_raster():
    # verify draws and dilates the wall grid itself: it reads nothing of
    # lines, and no other module imports scipy.ndimage
    imports = {p.name: _imports(p) for p in Path(scan2plan.__file__).parent.glob("*.py")}
    assert "lines" not in {n.lstrip(".").split(".")[0] for n in imports["verify.py"] if n.startswith(".")}
    ndimage = {p for p, names in imports.items() if any(n.split(".")[:2] == ["scipy", "ndimage"] for n in names)}
    assert ndimage == {"verify.py"}
