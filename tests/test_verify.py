"""Score field and confidence tests."""

import math

import numpy as np
import pytest

from scan2plan.errors import EmptyModel, EmptySubmap, NoCandidates
from scan2plan.geometry import Se2Pose
from scan2plan.synthetic import generate_layout, synthesize_submap
from scan2plan.verify import (
    ScoreField,
    build_score_field,
    reliability_curve,
    score_candidate,
    select_best,
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


# --- field values ---


def test_dilation_profile():
    field = build_score_field([_seg(0.0, 1.03, 6.0, 1.03)], s_r=0.2, k_d=5)
    probe_x = 3.0
    want = {0: 1.0, 1: 0.84, 2: 0.68, 3: 0.52, 4: 0.36, 5: 0.2, 6: 0.0, 7: 0.0}
    for d, expect in want.items():
        v = field.value_at(np.array([[probe_x, 1.03 + 0.2 * d]]))[0]
        assert v == pytest.approx(expect, abs=1e-12), d
        v = field.value_at(np.array([[probe_x, 1.03 - 0.2 * d]]))[0]
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
    assert field.value_at(np.array([[500.0, 500.0], [-500.0, 0.0]])).sum() == 0.0


def test_empty_model_raises():
    with pytest.raises(EmptyModel):
        build_score_field([])


def test_chebyshev_metric_on_diagonal():
    # one occupied cell; the diagonal neighbor is at chessboard distance 1
    field = build_score_field([_seg(1.01, 1.01, 1.05, 1.05)], s_r=0.2, k_d=5)
    center = np.array([[1.1, 1.1]])
    diag = np.array([[1.3, 1.3]])
    assert field.value_at(center)[0] == 1.0
    assert field.value_at(diag)[0] == pytest.approx(0.84, abs=1e-12)


# --- candidate scoring ---


def test_true_pose_scores_exactly_one():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    r = score_candidate(field, scene.gt_pose, q_ng, q_g)
    assert r.s_a == float(q_ng.shape[0])
    assert r.s_p == 0.0
    assert r.confidence == 1.0


def test_misplaced_pose_scores_at_most_zero():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    # offset larger than the building, so scanned walls land on open floor
    # and scanned floor drapes over the modeled walls
    wrong = Se2Pose(scene.gt_pose.x + 8.0, scene.gt_pose.y, scene.gt_pose.yaw + 0.2)
    r = score_candidate(field, wrong, q_ng, q_g)
    assert r.s_a == 0.0
    assert r.confidence <= 0.0
    far = Se2Pose(500.0, 500.0, 0.0)
    assert score_candidate(field, far, q_ng, q_g).confidence == 0.0
    for lam in (0.0, 0.5):
        for pose in (scene.gt_pose, wrong, far):
            conf = score_candidate(field, pose, q_ng, q_g, lam=lam).confidence
            assert np.isfinite(conf) and conf <= 1.0


def test_duplicated_points_leave_confidence_unchanged():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    a = score_candidate(field, scene.gt_pose, q_ng, q_g)
    b = score_candidate(
        field, scene.gt_pose, np.vstack([q_ng, q_ng]), np.vstack([q_g, q_g])
    )
    assert abs(a.confidence - b.confidence) < 1e-12


def test_extra_free_space_ground_is_free():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    base = score_candidate(field, scene.gt_pose, q_ng, q_g)
    # ground points far outside the building, still free space
    inv = scene.gt_pose.inverse()
    extra = inv.apply(np.array([[50.0, 50.0], [60.0, -20.0], [-30.0, 40.0]]))
    more = score_candidate(field, scene.gt_pose, q_ng, np.vstack([q_g, extra]))
    assert more.confidence == base.confidence


def test_ground_on_walls_is_penalized():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    inv = scene.gt_pose.inverse()
    wall = layout.wall_model.walls[0]
    mid = 0.5 * (wall.p0 + wall.p1)
    bad_ground = inv.apply(np.tile(mid, (q_ng.shape[0], 1)))
    r = score_candidate(field, scene.gt_pose, q_ng, bad_ground)
    assert r.s_p == pytest.approx(q_ng.shape[0])
    assert r.confidence == pytest.approx(1.0 - 0.5, abs=1e-9)
    # award-only scoring is lam = 0
    r1 = score_candidate(field, scene.gt_pose, q_ng, bad_ground, lam=0.0)
    assert r1.confidence == 1.0


def test_empty_submap_raises():
    field = build_score_field([_seg(0.0, 0.0, 2.0, 0.0)])
    with pytest.raises(EmptySubmap):
        score_candidate(field, Se2Pose(0.0, 0.0, 0.0), np.zeros((0, 2)), np.zeros((0, 2)))


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
    best, result = select_best(field, [bad, good], q_ng, q_g)
    assert best == 1
    assert result == score_candidate(field, good.pose, q_ng, q_g)
    assert result.confidence > score_candidate(field, bad.pose, q_ng, q_g).confidence


def test_select_best_tie_breaks_on_votes():
    field = build_score_field([_seg(0.0, 0.0, 4.0, 0.0)])
    pose = Se2Pose(0.0, 0.0, 0.0)
    a = Candidate(pose, votes=3, merged_score=3, n_cells=1)
    b = Candidate(pose, votes=9, merged_score=9, n_cells=1)
    pts = np.array([[1.0, 0.05], [2.0, 0.05]])
    best, _ = select_best(field, [a, b], pts, np.zeros((0, 2)))
    assert best == 1


def test_select_best_subsample_keeps_exact_score():
    layout, scene, q_ng, q_g = _scene()
    field = build_score_field(layout.wall_model.endpoints())
    cand = Candidate(scene.gt_pose, votes=1, merged_score=1, n_cells=1)
    best, result = select_best(field, [cand], q_ng, q_g, max_points=500)
    assert best == 0
    assert result.n_ng == 500
    assert result.confidence == 1.0


@pytest.mark.parametrize("lam", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_bad_lam_raises(lam):
    # select_best's confidence bound needs lam * s_p >= 0
    field = build_score_field([_seg(0.0, 0.0, 2.0, 0.0)])
    pts = np.array([[1.0, 0.0]])
    cand = Candidate(Se2Pose(0.0, 0.0, 0.0), votes=1, merged_score=1, n_cells=1)
    with pytest.raises(ValueError, match="lam"):
        select_best(field, [cand], pts, pts, lam=lam)
    with pytest.raises(ValueError, match="lam"):
        score_candidate(field, Se2Pose(0.0, 0.0, 0.0), pts, pts, lam=lam)


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


def test_negative_cell_size_cannot_mirror_the_grid():
    # with s_r = -0.5 the point (-0.6, -0.6) used to land in cell (1, 1)
    with pytest.raises(ValueError, match="s_r"):
        ScoreField(np.ones((3, 3)), np.zeros(2), -0.5).value_at([[-0.6, -0.6]])


def test_no_candidates_raises():
    field = build_score_field([_seg(0.0, 0.0, 2.0, 0.0)])
    with pytest.raises(NoCandidates):
        select_best(field, [], np.array([[1.0, 0.0]]), np.zeros((0, 2)))


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
