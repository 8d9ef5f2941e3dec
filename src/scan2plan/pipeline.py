"""End-to-end registration, evaluation, and reliability harnesses.

A floor is prepared once (corners, descriptor DB, score field); each
submap is reduced once to corners, a descriptor DB, and ground /
non-ground scoring sets, then matched against every prepared floor. The
report with the highest verification confidence wins.
"""

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .descriptors import DescriptorDB, Triplets, build_db, build_triplets, query_correspondences
from .errors import EmptyGrid, EmptyModel, EmptyScene, EmptySubmap, InvalidModel, InvalidSubmap, NoCandidates
from .geometry import Se2Pose, pose_errors, registration_success
from .ingest import Submap, WallModel, load_pose, load_submap
from .lines import Corners, detect_segments, extract_corners, merge_refit, rasterize_points
from .planes import classify_patches, merge_patches, segment_planes
from .verify import ScoreField, build_score_field, reliability_curve, select_best
from .voting import cast_votes, hierarchical_vote

FAILURE_CONFIDENCE = float("-inf")

STAGES = ("planes", "lines", "descriptors", "query", "vote", "verify")


@dataclass
class FloorIndex:
    """Per-floor assets prepared offline: corners, DB, score field."""

    model: WallModel
    corners: Corners
    db: DescriptorDB
    field: ScoreField


@dataclass
class SubmapFeatures:
    """Everything extracted from one submap, reusable across floors."""

    corners: Corners
    triplets: Triplets
    q_ng_xy: np.ndarray
    q_g_xy: np.ndarray
    timings_ms: Dict[str, float]


@dataclass
class RegistrationReport:
    """Outcome of registering one submap against one floor."""

    floor_id: str
    pose: Optional[Se2Pose]
    confidence: float
    votes: int
    n_correspondences: int
    n_candidates: int
    accepted: bool
    timings_ms: Dict[str, float]


@dataclass
class SceneOutcome:
    """Per-scene evaluation row; success is None without a gt pose."""

    scene: str
    success: Optional[bool]
    rot_err_deg: float
    trans_err_m: float
    confidence: float
    votes: int
    floor_id: str
    total_ms: float


@dataclass
class EvalSummary:
    recall: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    outcomes: List[SceneOutcome]


def build_floor_index(model: WallModel, cfg: PipelineConfig, db: Optional[DescriptorDB] = None) -> FloorIndex:
    """Prepare one floor; pass a deserialized db to skip rebuilding it.

    Raises InvalidModel when the walls span too large a score field.
    """
    walls = model.endpoints()
    corners = extract_corners(walls, cfg.extend_m, cfg.nms_radius_m, cfg.min_angle_deg)
    if db is None:
        db = build_db(corners, cfg.l_max, cfg.r_s, cfg.r_a, cfg.min_angle_deg)
    try:
        field = build_score_field(walls, cfg.s_r, cfg.k_d)
    except ValueError as exc:  # k_d >= 1 is validated, so only the extent is left
        raise InvalidModel("floor %s: %s" % (model.floor_id, exc)) from None
    return FloorIndex(model, corners, db, field)


def extract_submap_features(submap: Submap, cfg: PipelineConfig) -> SubmapFeatures:
    """Submap -> wall corners, descriptor DB, and scoring point sets.

    Raises EmptyGrid when no wall surface survives segmentation and
    InvalidSubmap when the points span too many octree cells for int64,
    too large a wall raster or too large a Hough accumulator.
    """
    timings: Dict[str, float] = {}

    t0 = time.perf_counter()
    points = submap.points
    try:
        patches = segment_planes(points, cfg.s_v, cfg.sigma_lambda).patches
    except ValueError as exc:  # s_v > 0 is validated, so only the extent is left
        raise InvalidSubmap("submap too large for its octree: %s" % (exc,)) from None
    # rebinding frees the unmerged set before the line stage
    patches = merge_patches(patches, points, cfg.normal_tol_deg, cfg.dist_tol_m)
    walls, ground, _ = classify_patches(patches, submap.gravity, cfg.gravity_tol_deg)
    g_mask = patches.mask(ground)
    q_g_xy = points[g_mask][:, :2]
    q_ng_xy = points[~g_mask][:, :2]
    timings["planes"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    if walls.shape[0] == 0:
        raise EmptyGrid("no wall patches in submap")
    try:
        raster = rasterize_points(points[patches.mask(walls), :2], cfg.s_i)
    except ValueError as exc:  # s_i > 0 is validated, so only the extent is left
        raise InvalidSubmap("submap too large for its wall raster: %s" % (exc,)) from None
    try:
        segments = detect_segments(raster, cfg.l_min_px, cfg.gap_px, cfg.band_px, cfg.theta_bins)
    except ValueError as exc:  # theta_bins > 0 is validated, so only the size is left
        raise InvalidSubmap("Hough accumulator too large: %s" % (exc,)) from None
    segments = merge_refit(segments, cfg.endpoint_tol_m, cfg.angle_tol_deg)
    corners = extract_corners(segments, cfg.extend_m, cfg.nms_radius_m, cfg.min_angle_deg)
    timings["lines"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    triplets = build_triplets(corners, cfg.l_max, cfg.r_s, cfg.r_a, cfg.min_angle_deg)
    timings["descriptors"] = (time.perf_counter() - t0) * 1e3

    return SubmapFeatures(corners, triplets, q_ng_xy, q_g_xy, timings)


def _failed_report(floor_id: str, timings: Dict[str, float]) -> RegistrationReport:
    out = dict(timings)
    out["total"] = sum(out.get(k, 0.0) for k in STAGES)
    return RegistrationReport(floor_id, None, FAILURE_CONFIDENCE, 0, 0, 0, False, out)


def register_features(feats: SubmapFeatures, floor: FloorIndex, cfg: PipelineConfig) -> RegistrationReport:
    """Match prepared submap features against one prepared floor."""
    timings = dict(feats.timings_ms)

    t0 = time.perf_counter()
    corr = query_correspondences(floor.db, feats.triplets)
    timings["query"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    try:
        grid = cast_votes(corr, cfg.r_xy, cfg.r_yaw_deg, cfg.residual_max_m)
        candidates = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
    except EmptyGrid:
        timings["vote"] = (time.perf_counter() - t0) * 1e3
        return _failed_report(floor.model.floor_id, timings)
    timings["vote"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    try:
        best_idx, best = select_best(
            floor.field,
            candidates,
            feats.q_ng_xy,
            feats.q_g_xy,
            lam=cfg.lam,
            max_points=cfg.scoring_max_points or None,
        )
    except (EmptySubmap, NoCandidates):
        timings["verify"] = (time.perf_counter() - t0) * 1e3
        return _failed_report(floor.model.floor_id, timings)
    timings["verify"] = (time.perf_counter() - t0) * 1e3
    timings["total"] = sum(timings[k] for k in STAGES)

    return RegistrationReport(
        floor_id=floor.model.floor_id,
        pose=candidates[best_idx].pose,
        confidence=best.confidence,
        votes=candidates[best_idx].votes,
        n_correspondences=corr[0].shape[0],
        n_candidates=len(candidates),
        accepted=best.confidence >= cfg.min_confidence,
        timings_ms=timings,
    )


def register_submap(
    submap: Submap, floors: Sequence[FloorIndex], cfg: PipelineConfig
) -> Tuple[RegistrationReport, List[RegistrationReport]]:
    """Register against every floor; returns (best report, all reports)."""
    if not floors:
        raise EmptyModel("no floors to register against")
    try:
        feats = extract_submap_features(submap, cfg)
    except EmptyGrid:
        reports = [_failed_report(f.model.floor_id, {}) for f in floors]
        return reports[0], reports
    reports = [register_features(feats, f, cfg) for f in floors]
    best = max(range(len(reports)), key=lambda i: (reports[i].confidence, -i))
    return reports[best], reports


# ---------------------------------------------------------------------------
# Directory-level harnesses
# ---------------------------------------------------------------------------

def _run_scene(path: Path, floors: Sequence[FloorIndex], cfg: PipelineConfig) -> SceneOutcome:
    submap = load_submap(path)
    t0 = time.perf_counter()
    best, _ = register_submap(submap, floors, cfg)
    total_ms = (time.perf_counter() - t0) * 1e3
    gt_path = path.with_suffix(".pose")
    success: Optional[bool] = None
    rot_err = trans_err = float("nan")
    if gt_path.exists():
        gt = load_pose(gt_path)
        if best.pose is None:
            success = False
        else:
            rot_err, trans_err = pose_errors(best.pose, gt)
            success = registration_success(best.pose, gt)
    return SceneOutcome(
        path.stem, success, rot_err, trans_err,
        best.confidence, best.votes, best.floor_id, total_ms,
    )


def register_directory(scene_dir, floors: Sequence[FloorIndex], cfg: PipelineConfig) -> List[SceneOutcome]:
    """Run registration over every `*.submap` in a directory, sorted."""
    paths = sorted(Path(scene_dir).glob("*.submap"))
    if not paths:
        raise EmptyScene("no *.submap files in %s" % (scene_dir,))
    return [_run_scene(p, floors, cfg) for p in paths]


def evaluate_scenes(scene_dir, floors: Sequence[FloorIndex], cfg: PipelineConfig) -> EvalSummary:
    """Recall and timing aggregate over a scene directory with gt poses."""
    outcomes = register_directory(scene_dir, floors, cfg)
    judged = [o for o in outcomes if o.success is not None]
    if not judged:
        raise EmptyScene("no scene has a gt pose file")
    times = np.array([o.total_ms for o in outcomes])
    return EvalSummary(
        recall=float(np.mean([o.success for o in judged])),
        mean_ms=float(times.mean()),
        p50_ms=float(np.percentile(times, 50)),
        p95_ms=float(np.percentile(times, 95)),
        outcomes=outcomes,
    )


def write_eval_csv(outcomes: Sequence[SceneOutcome], path) -> None:
    """One row per scene; `success` is blank when no gt was available.

    Names are quoted where they hold a comma, a quote or a line break."""
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow("scene,success,rot_err_deg,trans_err_m,confidence,votes,floor,total_ms".split(","))
        for o in outcomes:
            flag = "" if o.success is None else str(int(o.success))
            out.writerow(
                [o.scene, flag, "%.6f" % o.rot_err_deg, "%.6f" % o.trans_err_m, "%.6f" % o.confidence,
                 "%d" % o.votes, o.floor_id, "%.3f" % o.total_ms]
            )


def pr_from_directories(pos_dir, neg_dir, floors: Sequence[FloorIndex], cfg: PipelineConfig):
    """Label registrable/unregistrable scene dirs and sweep confidence.

    Returns (precision, recall, thresholds, auc).
    """
    pos = register_directory(pos_dir, floors, cfg)
    neg = register_directory(neg_dir, floors, cfg)
    labels = np.array([1] * len(pos) + [0] * len(neg))
    scores = np.array([o.confidence for o in pos] + [o.confidence for o in neg])
    return reliability_curve(labels, scores)


def write_pr_csv(precision, recall, thresholds, path) -> None:
    with open(path, "w") as f:
        f.write("threshold,precision,recall\n")
        for t, p, r in zip(thresholds, precision, recall):
            f.write("%.6f,%.6f,%.6f\n" % (t, p, r))
