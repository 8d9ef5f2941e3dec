"""End-to-end registration, evaluation, and PR harness tests."""

import dataclasses

import numpy as np
import pytest

from scan2plan.config import PipelineConfig
from scan2plan.errors import EmptyModel, EmptyScene
from scan2plan.geometry import Se2Pose, registration_success
from scan2plan.ingest import Submap, save_pose, save_submap
from scan2plan.planes import Patches, classify_patches
from scan2plan.pipeline import (
    FAILURE_CONFIDENCE,
    STAGES,
    build_floor_index,
    evaluate_scenes,
    pr_from_directories,
    register_directory,
    register_submap,
    write_eval_csv,
    write_pr_csv,
)
from scan2plan.synthetic import (
    generate_layout,
    random_interior_pose,
    synthesize_submap,
)

DOWN = np.array([0.0, 0.0, -1.0])

_CACHE = {}


def _home():
    """Shared 8-room floor with its prepared index."""
    if "home" not in _CACHE:
        cfg = PipelineConfig()
        layout = generate_layout(7, 8, True, 40.0)
        _CACHE["home"] = (layout, build_floor_index(layout.wall_model, cfg))
    return _CACHE["home"]


def _away():
    if "away" not in _CACHE:
        cfg = PipelineConfig()
        layout = generate_layout(31, 8, True, 40.0)
        _CACHE["away"] = (layout, build_floor_index(layout.wall_model, cfg))
    return _CACHE["away"]


def _scene(layout, seed, noise=0.0, drop=0.0, clutter=0.0, radius=12.0):
    rng = np.random.default_rng(seed)
    pose = random_interior_pose(layout, rng)
    return synthesize_submap(
        layout.wall_model, pose, radius, noise, drop, clutter, seed=seed + 777
    )


# ---------------------------------------------------------------------------
# Single-floor registration
# ---------------------------------------------------------------------------

def test_clean_scene_registers():
    layout, floor = _home()
    scene = _scene(layout, 11)
    best, reports = register_submap(scene.submap, [floor], PipelineConfig())
    assert len(reports) == 1
    assert best.pose is not None
    assert registration_success(best.pose, scene.gt_pose)
    assert best.confidence > 0.9
    assert best.accepted
    for stage in STAGES + ("total",):
        assert best.timings_ms[stage] >= 0.0


def test_deviated_scene_registers():
    layout, floor = _home()
    scene = _scene(layout, 12, noise=0.03, drop=0.2, clutter=0.1)
    best, _ = register_submap(scene.submap, [floor], PipelineConfig())
    assert best.pose is not None
    assert registration_success(best.pose, scene.gt_pose)


def test_report_counters_consistent():
    layout, floor = _home()
    scene = _scene(layout, 13)
    best, _ = register_submap(scene.submap, [floor], PipelineConfig())
    assert best.floor_id == layout.wall_model.floor_id
    assert best.n_correspondences > 0
    assert 1 <= best.n_candidates
    assert 1 <= best.votes <= best.n_correspondences


def test_registration_is_deterministic():
    layout, floor = _home()
    scene = _scene(layout, 14, noise=0.02)
    cfg = PipelineConfig()
    a, _ = register_submap(scene.submap, [floor], cfg)
    b, _ = register_submap(scene.submap, [floor], cfg)
    assert (a.pose.x, a.pose.y, a.pose.yaw) == (b.pose.x, b.pose.y, b.pose.yaw)
    assert a.confidence == b.confidence
    assert a.votes == b.votes


# ---------------------------------------------------------------------------
# Multi-floor
# ---------------------------------------------------------------------------

def test_wrong_floor_not_accepted():
    layout, _ = _home()
    _, away_floor = _away()
    scene = _scene(layout, 15, noise=0.02, drop=0.1, clutter=0.05)
    best, _ = register_submap(scene.submap, [away_floor], PipelineConfig())
    assert not best.accepted


def test_multi_floor_picks_home_floor():
    layout, home_floor = _home()
    _, away_floor = _away()
    scene = _scene(layout, 16, noise=0.02)
    best, reports = register_submap(
        scene.submap, [away_floor, home_floor], PipelineConfig()
    )
    assert len(reports) == 2
    assert best.floor_id == layout.wall_model.floor_id
    assert registration_success(best.pose, scene.gt_pose)
    assert best.confidence == max(r.confidence for r in reports)


# ---------------------------------------------------------------------------
# Submap frames far from the points
# ---------------------------------------------------------------------------

def _shifted(submap, shift):
    points = submap.points.copy()
    points[:, :2] += shift
    return Submap(points, submap.gravity)


@pytest.mark.parametrize("offset", [1e3, 1e4])
def test_far_frame_registers_as_unshifted(offset):
    # registration_success would judge translation at the far frame's
    # origin, where a 0.01 deg rotation error alone moves it by 2.5 m at
    # 10 km; the unshifted run and the points' centroid are compared
    layout, floor = _home()
    cfg = PipelineConfig()
    shift = np.array([offset, offset])
    for seed in (11, 12, 16):
        scene = _scene(layout, seed, noise=0.03, drop=0.2, clutter=0.1)
        base, _ = register_submap(scene.submap, [floor], cfg)
        far, _ = register_submap(_shifted(scene.submap, shift), [floor], cfg)
        assert registration_success(base.pose, scene.gt_pose)
        rot = np.degrees(abs(np.angle(np.exp(1j * (far.pose.yaw - base.pose.yaw)))))
        assert rot < 0.01
        centroid = scene.submap.points[:, :2].mean(axis=0)
        assert np.linalg.norm(far.pose.apply(centroid + shift) - base.pose.apply(centroid)) < 0.05
        assert far.accepted == base.accepted


def test_report_pose_is_in_the_submap_frame():
    # registration runs about the walls, wherever the submap's frame lies;
    # moving that frame by whole metres moves the reported pose with it
    layout, floor = _home()
    cfg = PipelineConfig()
    scene = _scene(layout, 13, noise=0.03, drop=0.2, clutter=0.1)
    shift = np.array([3000.0, -2000.0])
    base, _ = register_submap(scene.submap, [floor], cfg)
    moved, _ = register_submap(_shifted(scene.submap, shift), [floor], cfg)
    want = base.pose.compose(Se2Pose(-shift[0], -shift[1], 0.0))
    assert moved.pose.yaw == pytest.approx(want.yaw, abs=1e-9)
    assert moved.pose.translation == pytest.approx(want.translation, abs=1e-5)


def test_no_floors_rejected():
    layout, _ = _home()
    scene = _scene(layout, 17)
    with pytest.raises(EmptyModel):
        register_submap(scene.submap, [], PipelineConfig())


# ---------------------------------------------------------------------------
# Degenerate submaps
# ---------------------------------------------------------------------------

def test_empty_submap_fails_gracefully():
    _, floor = _home()
    sub = Submap(np.zeros((0, 3)), DOWN)
    best, reports = register_submap(sub, [floor], PipelineConfig())
    assert best.pose is None
    assert best.confidence == FAILURE_CONFIDENCE
    assert not best.accepted
    assert len(reports) == 1


def test_ground_only_submap_fails_gracefully():
    _, floor = _home()
    rng = np.random.default_rng(3)
    xy = rng.uniform(-8, 8, size=(4000, 2))
    pts = np.column_stack([xy, np.zeros(4000)])
    best, _ = register_submap(Submap(pts, DOWN), [floor], PipelineConfig())
    assert best.pose is None
    assert not best.accepted


def test_wall_free_submap_reports_the_stages_it_ran():
    # no wall patch means no triplets, so the floor fails at the vote
    # stage; its report keeps every time measured up to there
    _, floor = _home()
    xy = np.random.default_rng(3).uniform(-8, 8, size=(4000, 2))
    best, _ = register_submap(Submap(np.column_stack([xy, np.zeros(4000)]), DOWN), [floor], PipelineConfig())
    assert best.pose is None
    assert (best.n_correspondences, best.n_candidates, best.votes) == (0, 0, 0)
    assert list(best.timings_ms) == ["planes", "lines", "descriptors", "query", "vote", "total"]
    assert best.timings_ms["total"] == sum(best.timings_ms[k] for k in STAGES[:5])


def test_failed_vote_keeps_the_correspondence_count():
    # an A4 scene whose every vote the residual gate rejects: the query
    # still found correspondences, and the report says how many
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    cfg = dataclasses.replace(PipelineConfig(), residual_max_m=1e-12)
    floor = build_floor_index(layout.wall_model, cfg)
    gt = random_interior_pose(layout, np.random.default_rng(9000))
    scene = synthesize_submap(
        layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03,
        drop_wall_frac=0.2, clutter_frac=0.1, seed=9000,
    )
    best, _ = register_submap(scene.submap, [floor], cfg)
    assert best.pose is None and best.confidence == FAILURE_CONFIDENCE
    assert best.n_correspondences > 0
    assert "vote" in best.timings_ms and "verify" not in best.timings_ms


# ---------------------------------------------------------------------------
# Directory harnesses
# ---------------------------------------------------------------------------

def _write_scene_dir(path, layout, seeds, with_pose=True, **devs):
    path.mkdir(exist_ok=True)
    for s in seeds:
        scene = _scene(layout, s, **devs)
        save_submap(scene.submap, path / ("scene_%04d.submap" % s))
        if with_pose:
            save_pose(scene.gt_pose, path / ("scene_%04d.pose" % s))


def test_ground_mask_labels_rows_not_coordinates():
    # row 3 repeats row 0 bit for bit but belongs to no ground patch
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
    z = np.zeros((2, 3))
    # patch 0 (rows 0, 1) lies flat, patch 1 (row 2) stands upright
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    patches = Patches(np.array([0, 0, 1, -1]), np.array([2, 1]), z, np.zeros((2, 3, 3)), normals, z, z, z)
    walls, ground, _ = classify_patches(patches, DOWN)
    mask = patches.mask(ground)
    assert mask.tolist() == [True, True, False, False]
    assert points[mask].tolist() == points[:2].tolist()
    assert patches.mask(walls).tolist() == [False, False, True, False]
    assert not patches.mask(np.array([], dtype=np.int64)).any()


def test_evaluate_scene_directory(tmp_path):
    layout, floor = _home()
    d = tmp_path / "scenes"
    _write_scene_dir(d, layout, [21, 22, 23])
    _write_scene_dir(d, layout, [24], with_pose=False)
    summary = evaluate_scenes(d, [floor], PipelineConfig())
    assert summary.recall == 1.0
    assert len(summary.outcomes) == 4
    assert [o.success for o in summary.outcomes].count(None) == 1
    assert summary.mean_ms > 0.0
    assert summary.p50_ms <= summary.p95_ms

    csv = tmp_path / "eval.csv"
    write_eval_csv(summary.outcomes, csv)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "scene,success,rot_err_deg,trans_err_m,confidence,votes,floor,total_ms"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[0] == "scene_0021"
    assert row[1] == "1"


def test_empty_directory_rejected(tmp_path):
    _, floor = _home()
    with pytest.raises(EmptyScene):
        register_directory(tmp_path, [floor], PipelineConfig())


def test_pr_harness_separates_floors(tmp_path):
    layout, home_floor = _home()
    away_layout, _ = _away()
    pos = tmp_path / "pos"
    neg = tmp_path / "neg"
    _write_scene_dir(pos, layout, [31, 32], noise=0.02, drop=0.1)
    _write_scene_dir(neg, away_layout, [33, 34], with_pose=False, noise=0.02, drop=0.1)
    precision, recall, thresholds, auc = pr_from_directories(
        pos, neg, [home_floor], PipelineConfig()
    )
    assert auc >= 0.99  # scenes from another floor score well below
    csv = tmp_path / "pr.csv"
    write_pr_csv(precision, recall, thresholds, csv)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "threshold,precision,recall"
    assert len(lines) == len(thresholds) + 1


# ---------------------------------------------------------------------------
# Scoring sets, prepared once per submap
# ---------------------------------------------------------------------------

def test_register_submap_collapses_the_coarse_cells_once(monkeypatch):
    # three floors read the cells that extraction built; none rebuilds them
    from scan2plan import verify

    layout, floor = _home()
    calls = []
    collapse = verify._collapse
    monkeypatch.setattr(verify, "_collapse", lambda *a: calls.append(1) or collapse(*a))
    best, reports = register_submap(_scene(layout, 11).submap, [floor, _away()[1], floor], PipelineConfig())
    assert len(calls) == 1
    assert all(r.n_candidates > 0 and "verify" in r.timings_ms for r in reports)
    assert best.accepted


def test_submap_without_non_ground_rows_fails_each_floor_in_verification(monkeypatch):
    # a ground-only scan extracts, with empty non-ground sets; matched with
    # a real scan's triplets, every floor's report fails through EmptySubmap
    from scan2plan import pipeline
    from scan2plan.errors import EmptySubmap

    cfg = PipelineConfig()
    layout, floor = _home()
    xy = np.random.default_rng(3).uniform(-8, 8, size=(4000, 2))
    ground = pipeline.extract_submap_features(Submap(np.column_stack([xy, np.zeros(4000)]), DOWN), cfg)
    assert ground.q_ng_xy.shape == (0, 2) and ground.q_g_xy.shape[0] > 0
    assert ground.scoring.centres.shape == (0, 3)
    feats = dataclasses.replace(pipeline.extract_submap_features(_scene(layout, 11).submap, cfg), scoring=ground.scoring)
    raised = []
    select = pipeline.select_best

    def traced(*args, **kwargs):
        try:
            return select(*args, **kwargs)
        except EmptySubmap as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(pipeline, "select_best", traced)
    floors = [floor, _away()[1]]
    reports = [pipeline.register_features(feats, f, cfg) for f in floors]
    assert len(raised) == len(floors)
    for r in reports:
        assert r.pose is None and r.confidence == FAILURE_CONFIDENCE and not r.accepted
        assert r.n_candidates > 0 and "verify" in r.timings_ms
