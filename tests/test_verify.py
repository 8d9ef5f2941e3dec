"""Score field and confidence tests."""

import math
import tracemalloc

import numpy as np
import pytest
import scalar_backend as ref

from scan2plan.errors import EmptyModel, EmptySubmap
from scan2plan.geometry import Se2Pose
from scan2plan.synthetic import generate_layout, synthesize_submap
from scan2plan.verify import (
    SCORING_MAX_POINTS,
    ScoreField,
    _rasterize,
    _scratch,
    build_score_field,
    prepare_scoring,
    reliability_curve,
    select_best,
    thin_rows,
)
from scan2plan.voting import Candidate


def _seg(ax, ay, bx, by):
    """One [p0, p1] wall row."""
    return np.array([[ax, ay], [bx, by]], float)


def _scene(seed=3, pose=None, **kw):
    layout = generate_layout(seed=seed, n_rooms=1, corridor=False, extent_m=10.0)
    x0, y0, x1, y1 = layout.rooms[0]
    pose = pose or Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.9)
    scene = synthesize_submap(layout.wall_model, pose, radius_m=30.0, **kw)
    n_wall = scene.deviation_log["n_wall_points"]
    q_ng = scene.submap.points[:n_wall, :2]
    q_g = scene.submap.points[n_wall:, :2]
    return layout, scene, q_ng, q_g


# --- wall raster ---


def test_segment_raster_is_connected():
    s_i = 60.0
    seg = _seg(0.2, 0.1, 3.6, 2.9)
    grid, origin = _rasterize(seg[None], s_i, 2)
    on = np.argwhere(grid)
    # a grid walk visits 8-connected neighbours only
    n_px = on.shape[0]
    expect = abs(int(3.6 * s_i) - int(0.2 * s_i)) + abs(int(2.9 * s_i) - int(0.1 * s_i)) + 1
    assert n_px >= expect
    # every sampled point of the segment lands on a marked cell
    t = np.linspace(0.0, 1.0, 5000)
    pts = seg[0] + t[:, None] * (seg[1] - seg[0])
    ij = np.floor((pts - origin) * s_i).astype(int)
    assert np.all(grid[ij[:, 0], ij[:, 1]])


def test_raster_scratch_is_bounded_by_chunks():
    # 2,000 diagonal 80 m walls walk about 2.3 million cells; a pass over
    # every hairline at once allocates about 146 MB here, the chunked one
    # under 6 MB next to the 0.24 MB grid
    x = np.arange(2000) * 0.05
    side = 80.0 / math.sqrt(2.0)
    walls = np.stack([np.column_stack([x, np.zeros_like(x)]), np.column_stack([x + side, np.full_like(x, side)])], 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid, _ = _rasterize(walls, 1.0 / 0.2, 7)
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    assert grid.sum() > 100_000
    assert peak_mb < 16.0


@pytest.mark.parametrize(
    "bad",
    [
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 2.0, 1.0, 2.0),
        (0.0, 0.0, math.nan, 1.0),
        (math.inf, 0.0, math.inf, 1.0),
        (0.0, -math.inf, 0.0, 0.0),
        (0.0, 0.0, 1e-170, 0.0),  # its squared length underflows to 0
    ],
)
def test_bad_wall_row_is_named(bad):
    # a NaN row used to report the cap ("a nan x 20 raster ... exceeds")
    # and a zero-length one to divide by zero; both now name the row
    walls = [_seg(0.0, 0.0, 2.0, 0.0), _seg(*bad), _seg(0.0, 0.0, 0.0, 2.0)]
    with pytest.raises(ValueError, match=r"wall row 1 must be finite and of nonzero length"):
        build_score_field(walls)


# --- field values ---


def test_dilation_profile():
    field = build_score_field([_seg(0.0, 1.03, 6.0, 1.03)], s_r=0.2, k_d=5)
    probe_x = 3.0
    want = {0: 1.0, 1: 0.84, 2: 0.68, 3: 0.52, 4: 0.36, 5: 0.2, 6: 0.0, 7: 0.0}
    for d, expect in want.items():
        v = ref.lookup(field, np.array([[probe_x, 1.03 + 0.2 * d]]))[0]
        assert v == pytest.approx(expect, abs=1e-12), d
        v = ref.lookup(field, np.array([[probe_x, 1.03 - 0.2 * d]]))[0]
        assert v == pytest.approx(expect, abs=1e-12), -d


def test_field_peaks_at_one_and_bounded():
    field = build_score_field([_seg(0.0, 0.0, 4.0, 3.0), _seg(4.0, 3.0, 4.0, 0.0)])
    assert field.values.max() == 1.0
    assert field.values.min() == 0.0
    # adjacent cells change by at most one falloff step; the largest
    # step is the 1/k_d drop at the kernel edge
    step = 1.0 / 5 + 1e-12
    assert np.abs(np.diff(field.values, axis=0)).max() <= step
    assert np.abs(np.diff(field.values, axis=1)).max() <= step


def test_outside_grid_scores_zero():
    field = build_score_field([_seg(0.0, 0.0, 2.0, 0.0)])
    assert ref.lookup(field, np.array([[500.0, 500.0], [-500.0, 0.0]])).sum() == 0.0


def test_empty_model_raises():
    with pytest.raises(EmptyModel):
        build_score_field([])


@pytest.mark.parametrize("k_d", [2.5, 5.0, 0, math.nan])
def test_k_d_must_be_an_integer_of_at_least_one(k_d):
    # a float k_d used to reach the raster as a float pad and fail there
    # with an IndexError
    with pytest.raises(ValueError, match="k_d must be an integer"):
        build_score_field([_seg(0.0, 0.0, 4.0, 0.0)], k_d=k_d)
    assert build_score_field([_seg(0.0, 0.0, 4.0, 0.0)], k_d=np.int64(2)).values.size > 0


def test_chebyshev_metric_on_diagonal():
    # one occupied cell; the diagonal neighbor is at chessboard distance 1
    field = build_score_field([_seg(1.01, 1.01, 1.05, 1.05)], s_r=0.2, k_d=5)
    center = np.array([[1.1, 1.1]])
    diag = np.array([[1.3, 1.3]])
    assert ref.lookup(field, center)[0] == 1.0
    assert ref.lookup(field, diag)[0] == pytest.approx(0.84, abs=1e-12)


# --- candidate scoring ---


def test_true_pose_scores_exactly_one():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    r = ref.score_pose(field, scene.gt_pose, q_ng, q_g)
    assert r.s_a == float(q_ng.shape[0])
    assert r.s_p == 0.0
    assert r.confidence == 1.0


def test_misplaced_pose_scores_at_most_zero():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    # offset larger than the building, so scanned walls land on open floor
    # and scanned floor drapes over the modeled walls
    wrong = Se2Pose(scene.gt_pose.x + 8.0, scene.gt_pose.y, scene.gt_pose.yaw + 0.2)
    r = ref.score_pose(field, wrong, q_ng, q_g)
    assert r.s_a == 0.0
    assert r.confidence <= 0.0
    far = Se2Pose(500.0, 500.0, 0.0)
    assert ref.score_pose(field, far, q_ng, q_g).confidence == 0.0
    for lam in (0.0, 0.5):
        for pose in (scene.gt_pose, wrong, far):
            conf = ref.score_pose(field, pose, q_ng, q_g, lam=lam).confidence
            assert np.isfinite(conf) and conf <= 1.0


def test_duplicated_points_leave_confidence_unchanged():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    a = ref.score_pose(field, scene.gt_pose, q_ng, q_g)
    b = ref.score_pose(
        field, scene.gt_pose, np.vstack([q_ng, q_ng]), np.vstack([q_g, q_g])
    )
    assert abs(a.confidence - b.confidence) < 1e-12


def test_extra_free_space_ground_is_free():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    base = ref.score_pose(field, scene.gt_pose, q_ng, q_g)
    # ground points far outside the building, still free space
    inv = scene.gt_pose.inverse()
    extra = inv.apply(np.array([[50.0, 50.0], [60.0, -20.0], [-30.0, 40.0]]))
    more = ref.score_pose(field, scene.gt_pose, q_ng, np.vstack([q_g, extra]))
    assert more.confidence == base.confidence


def test_ground_on_walls_is_penalized():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    inv = scene.gt_pose.inverse()
    wall = layout.wall_model.walls[0]
    mid = 0.5 * (wall.p0 + wall.p1)
    bad_ground = inv.apply(np.tile(mid, (q_ng.shape[0], 1)))
    r = ref.score_pose(field, scene.gt_pose, q_ng, bad_ground)
    assert r.s_p == pytest.approx(q_ng.shape[0])
    assert r.confidence == pytest.approx(1.0 - 0.5, abs=1e-9)
    # award-only scoring is lam = 0
    r1 = ref.score_pose(field, scene.gt_pose, q_ng, bad_ground, lam=0.0)
    assert r1.confidence == 1.0


def test_empty_submap_raises():
    field = build_score_field([_seg(0.0, 0.0, 2.0, 0.0)])
    with pytest.raises(EmptySubmap):
        ref.score_pose(field, Se2Pose(0.0, 0.0, 0.0), np.zeros((0, 2)), np.zeros((0, 2)))


# --- selection ---


def test_select_best_prefers_true_pose():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    good = Candidate(scene.gt_pose, votes=10, merged_score=10, n_cells=1)
    bad = Candidate(
        Se2Pose(scene.gt_pose.x + 2.5, scene.gt_pose.y - 3.0, scene.gt_pose.yaw + 1.0),
        votes=50,
        merged_score=50,
        n_cells=1,
    )
    best, result = select_best(field, ref.candidates_of([bad, good]), prepare_scoring(q_ng, q_g, field.s_r))
    assert best == 1
    assert result == ref.score_pose(field, good.pose, q_ng, q_g)
    assert result.confidence > ref.score_pose(field, bad.pose, q_ng, q_g).confidence


def test_select_best_tie_breaks_on_votes():
    field = build_score_field([_seg(0.0, 0.0, 4.0, 0.0)])
    pose = Se2Pose(0.0, 0.0, 0.0)
    a = Candidate(pose, votes=3, merged_score=3, n_cells=1)
    b = Candidate(pose, votes=9, merged_score=9, n_cells=1)
    pts = np.array([[1.0, 0.05], [2.0, 0.05]])
    best, _ = select_best(field, ref.candidates_of([a, b]), prepare_scoring(pts, np.zeros((0, 2)), field.s_r))
    assert best == 1


def test_select_best_subsample_keeps_exact_score():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    cand = Candidate(scene.gt_pose, votes=1, merged_score=1, n_cells=1)
    sets = prepare_scoring(ref._subsample(q_ng, 500), ref._subsample(q_g, 500), field.s_r)
    best, result = select_best(field, ref.candidates_of([cand]), sets)
    assert best == 0
    assert result.n_ng == 500
    assert result.confidence == 1.0


def test_thin_rows_keeps_the_cap_at_an_even_stride():
    rows = np.arange(3.0 * (SCORING_MAX_POINTS + 1234)).reshape(-1, 3)
    got = thin_rows(rows)
    assert SCORING_MAX_POINTS == 5000 and got.shape == (SCORING_MAX_POINTS, 3)
    assert np.array_equal(got, ref._subsample(rows, SCORING_MAX_POINTS))
    assert np.array_equal(got[[0, -1]], rows[[0, -1]])
    # the pipeline thins row indices; a set at the cap comes back as is
    idx = np.arange(SCORING_MAX_POINTS + 1)
    assert np.array_equal(thin_rows(idx), np.linspace(0, SCORING_MAX_POINTS, SCORING_MAX_POINTS).astype(np.int64))
    at_cap = idx[:-1]
    assert thin_rows(at_cap) is at_cap


@pytest.mark.parametrize("lam", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_bad_lam_raises(lam):
    # select_best's confidence bound needs lam * s_p >= 0
    field = build_score_field([_seg(0.0, 0.0, 2.0, 0.0)])
    pts = np.array([[1.0, 0.0]])
    cand = Candidate(Se2Pose(0.0, 0.0, 0.0), votes=1, merged_score=1, n_cells=1)
    with pytest.raises(ValueError, match="lam"):
        select_best(field, ref.candidates_of([cand]), prepare_scoring(pts, pts, field.s_r), lam=lam)
    with pytest.raises(ValueError, match="lam"):
        ref.score_pose(field, Se2Pose(0.0, 0.0, 0.0), pts, pts, lam=lam)


@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
def test_score_field_rejects_values_outside_unit_interval(bad):
    values = np.full((3, 3), 0.5)
    values[1, 2] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ScoreField(values, np.zeros(2), 0.2)


@pytest.mark.parametrize("s_r", [0.0, -0.2, math.nan, math.inf, -math.inf])
def test_score_field_rejects_bad_cell_size(s_r):
    with pytest.raises(ValueError, match="s_r"):
        ScoreField(np.ones((3, 3)), np.zeros(2), s_r)
    with pytest.raises(ValueError, match="s_r"):
        build_score_field([_seg(0.0, 0.0, 2.0, 0.0)], s_r=s_r)


@pytest.mark.parametrize("origin", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0]])
def test_score_field_rejects_non_finite_origin(origin):
    with pytest.raises(ValueError, match="origin"):
        ScoreField(np.ones((3, 3)), np.array(origin), 0.2)


def test_score_field_from_lists_reads_like_arrays():
    # the field keeps float64 copies, so list inputs read like array inputs
    values, origin = [[0.0, 1.0], [0.5, 0.25]], (0.0, 0.0)
    pts = [[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5], [-0.5, 0.5], [2.5, 2.5]]
    from_lists = ScoreField(values, origin, 1.0)
    from_arrays = ScoreField(np.array(values), np.array(origin), 1.0)
    assert from_lists.values.dtype == np.float64 and from_lists.origin.dtype == np.float64
    assert np.array_equal(ref.lookup(from_lists, pts), ref.lookup(from_arrays, pts))
    assert ref.lookup(from_lists, pts).tolist() == [0.0, 1.0, 0.5, 0.25, 0.0, 0.0]


def test_negative_cell_size_cannot_mirror_the_grid():
    # with s_r = -0.5 the point (-0.6, -0.6) used to land in cell (1, 1)
    with pytest.raises(ValueError, match="s_r"):
        ref.lookup(ScoreField(np.ones((3, 3)), np.zeros(2), -0.5), [[-0.6, -0.6]])


def test_no_candidates_raises():
    field = build_score_field([_seg(0.0, 0.0, 2.0, 0.0)])
    with pytest.raises(ValueError, match="no pose candidates"):
        select_best(field, [], prepare_scoring(np.array([[1.0, 0.0]]), np.zeros((0, 2)), field.s_r))


# --- reliability curve ---


def test_perfect_separation_auc_one():
    labels = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
    scores = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
    precision, recall, thresholds, auc = reliability_curve(labels, scores)
    assert auc == pytest.approx(1.0)
    assert recall[-1] == 1.0


def test_uninformative_scores_auc_is_prevalence():
    labels = np.array([1, 0, 0, 0], dtype=bool)
    scores = np.full(4, 0.5)
    precision, recall, thresholds, auc = reliability_curve(labels, scores)
    assert precision.shape == (1,)
    assert auc == pytest.approx(0.25)


def test_reliability_curve_rejects_degenerate_input():
    with pytest.raises(ValueError):
        reliability_curve(np.zeros(4, dtype=bool), np.arange(4.0))
    with pytest.raises(ValueError):
        reliability_curve(np.array([True, False]), np.arange(3.0))


def test_mixed_ranking_auc_between():
    labels = np.array([1, 0, 1, 0, 1, 0, 0, 1], dtype=bool)
    rng = np.random.default_rng(0)
    scores = rng.uniform(0.0, 1.0, size=8)
    _, _, _, auc = reliability_curve(labels, scores)
    assert 0.0 < auc <= 1.0


def test_tied_infinite_scores_collapse():
    # failed registrations report -inf; ties there must still share
    # one threshold instead of tripping nan arithmetic
    labels = np.array([1, 0, 0], dtype=bool)
    scores = np.array([0.9, -np.inf, -np.inf])
    with np.errstate(invalid="raise"):
        precision, recall, thresholds, auc = reliability_curve(labels, scores)
    assert thresholds.shape == (2,)
    assert precision[0] == 1.0
    assert auc == pytest.approx(1.0)


def test_select_best_scores_every_point_given():
    # thinning is the pipeline's, at extraction; select_best keeps every row
    layout, scene, q_ng, q_g = _scene()
    q_ng = np.concatenate([q_ng, q_ng])
    field = build_score_field(layout.wall_model.endpoints())
    cand = Candidate(scene.gt_pose, votes=1, merged_score=1, n_cells=1)
    assert q_ng.shape[0] > SCORING_MAX_POINTS
    best, result = select_best(field, ref.candidates_of([cand]), prepare_scoring(q_ng, q_g, field.s_r))
    assert (best, result.n_ng, result.n_g) == (0, q_ng.shape[0], q_g.shape[0])


@pytest.mark.parametrize("values", [np.full(5, 0.5), np.full((2, 2, 2), 0.5), 0.5])
def test_score_field_rejects_values_that_are_not_a_grid(values):
    # a 1-D field used to construct and fail at its first lookup with
    # "not enough values to unpack"
    with pytest.raises(ValueError, match="values must be a 2-D grid"):
        ScoreField(values, (0.0, 0.0), 0.2)


@pytest.mark.parametrize("origin", [[0.0, 0.0, 7.0], [0.0], [[0.0, 0.0]], 0.0])
def test_score_field_rejects_origin_of_another_shape(origin):
    # a third entry used to be accepted and silently ignored
    with pytest.raises(ValueError, match=r"origin must be a finite point of shape \(2,\)"):
        ScoreField(np.full((3, 3), 0.5), origin, 0.2)


def test_select_best_rejects_sets_collapsed_at_another_s_r():
    # the coarse cells are 2 * s_r of the sets; the bound needs the field's s_r
    field = build_score_field([_seg(0.0, 0.0, 4.0, 0.0)], s_r=0.2)
    pts = np.array([[1.0, 0.05], [2.0, 0.05]])
    cands = ref.candidates_of([Candidate(Se2Pose(0.0, 0.0, 0.0), 1, 1, 1)])
    with pytest.raises(ValueError, match="s_r"):
        select_best(field, cands, prepare_scoring(pts, pts, 0.25), lam=0.5)
    assert select_best(field, cands, prepare_scoring(pts, pts, 0.2), lam=0.0)[1].confidence == 1.0


def test_block_lookup_matches_oracle_at_edges_clip_limits_off_grid_and_nan():
    # one ufunc call over both columns must round and clip each element as
    # the masked oracle does: exact cell edges and one ulp either side,
    # the cells at and past the clip limits -4 and n + 3, far off the
    # grid, infinities and NaN, in either column, through a zero and a
    # nonzero shift
    rng = np.random.default_rng(2)
    field = ScoreField(rng.uniform(0.05, 1.0, size=(7, 4)), np.array([-1.3, 0.6]), 0.25)
    o, s = field.origin, field.s_r
    rows = []
    for k in (-6, -5, -4, -3, -1, 0, 1, 3, 4, 6, 7, 10, 11, 12):
        for a in (0, 1):
            edge = o[a] + k * s
            for v in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
                p = [o[0] + 1.1 * s, o[1] + 2.3 * s]
                p[a] = v
                rows.append(p)
    for v in (1e300, -1e300, np.inf, -np.inf, np.nan):
        rows += [[v, o[1] + s], [o[0] + s, v], [v, v]]
    pts = np.array(rows)
    with np.errstate(invalid="ignore"):  # the oracle casts inf and NaN to int64
        assert ref.lookup(field, pts).tobytes() == ref.value_at(field, pts).tobytes()
        # points that the shift brings back onto the edges, where the
        # order of its add and the origin's subtract shows in the cell
        shift = (0.1, -0.3)
        back = np.column_stack([pts[:, 0] - shift[0], pts[:, 1] - shift[1]])
        buf, idx = _scratch(pts.shape[0] + 3)
        got = field._lookup(back, shift, buf, idx)
        assert got.tobytes() == ref.value_at(field, np.column_stack([back[:, 0] + shift[0], back[:, 1] + shift[1]])).tobytes()
    assert 0.0 < ref.lookup(field, pts).sum()
