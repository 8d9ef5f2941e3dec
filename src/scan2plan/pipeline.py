"""End-to-end registration, evaluation, and reliability harnesses.

A floor is prepared once (corners, descriptor DB, score field); each
submap is reduced once to corners, their descriptor triplets, and
ground / non-ground scoring sets (thinned by `verify.thin_rows` as
they are gathered), then matched against every prepared floor.
Verification's per-submap work is done at extraction too: after the
line stage, `verify.prepare_scoring` collapses the non-ground set into
its coarse cells at the config's s_r, and every floor's `select_best`
reads them. The report with the highest verification confidence wins.

Every submap runs every stage (one without walls casts no votes), and
a floor fails at one exit, in voting or verification, with the counts
and stage times measured up to there.

Every stage works in the submap's own frame, and every pose maps that
frame onto the floor's; `voting` keeps its vote clusters tight however
far the frame's origin lies from the points.
"""

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .descriptors import DescriptorDB, Triplets, build_db, build_triplets, query_correspondences
from .errors import EmptyGrid, EmptyModel, EmptyScene, EmptySubmap, InvalidModel, InvalidSubmap
from .geometry import Se2Pose, pose_errors, registration_success
from .ingest import Submap, WallModel, load_pose, load_submap
from .lines import Corners, extract_corners, merge_refit, patch_segments
from .planes import classify_patches, merge_patches, segment_planes
from .verify import ScoreField, ScoringSets, build_score_field, prepare_scoring, reliability_curve, select_best, thin_rows
from .voting import cast_votes, hierarchical_vote

FAILURE_CONFIDENCE = float("-inf")

STAGES = ("planes", "lines", "descriptors", "query", "vote", "verify")


@dataclass
class FloorIndex:
    """Per-floor assets prepared offline: the corners' DB, the score field."""

    model: WallModel
    db: DescriptorDB
    field: ScoreField


@dataclass
class SubmapFeatures:
    """Everything extracted from one submap, reusable across floors.

    `scoring` holds the xy of at most `SCORING_MAX_POINTS` non-ground
    and ground rows each, picked by `verify.thin_rows`, and the
    non-ground rows' coarse cells at the config's s_r, which every
    floor's `select_best` reads."""

    corners: Corners
    triplets: Triplets
    scoring: ScoringSets
    timings_ms: Dict[str, float]

    @property
    def q_ng_xy(self) -> np.ndarray:
        return self.scoring.q_ng

    @property
    def q_g_xy(self) -> np.ndarray:
        return self.scoring.q_g


@dataclass
class RegistrationReport:
    """Outcome of registering one submap against one floor.

    A failure has no pose, no votes and FAILURE_CONFIDENCE, but keeps
    its counts. `timings_ms` holds the ms of each stage that ran, a
    failing one too, and `total`, their sum.
    """

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


def build_floor_index(model: WallModel, cfg: PipelineConfig) -> FloorIndex:
    """Prepare one floor from its walls: corners, descriptor DB, score field.

    Raises InvalidModel when the walls span too large a score field.
    """
    walls = model.endpoints()
    corners = extract_corners(walls, cfg.extend_m, cfg.nms_radius_m, cfg.min_angle_deg)
    db = build_db(corners, cfg.l_max, cfg.r_s, cfg.r_a, cfg.min_angle_deg)
    try:
        field = build_score_field(walls, cfg.s_r, cfg.k_d)
    except ValueError as exc:  # k_d and every LineSegment2 are validated, so only the extent is left
        raise InvalidModel("floor %s: %s" % (model.floor_id, exc)) from None
    return FloorIndex(model, db, field)


@contextmanager
def _stage(timings: Dict[str, float], name: str) -> Iterator[None]:
    """Time the block into timings[name], in ms, also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = (time.perf_counter() - t0) * 1e3


def extract_submap_features(submap: Submap, cfg: PipelineConfig) -> SubmapFeatures:
    """Submap -> wall corners, descriptor triplets, and scoring point sets.

    Wall segments are the point runs along each wall patch's line
    (`lines.patch_segments`); a submap without wall patches gets no
    segments, corners or triplets. The descriptor stage also prepares
    the scoring sets (`verify.prepare_scoring`); a submap without
    non-ground rows gets empty ones, which each floor's verification
    reports as EmptySubmap. Raises InvalidSubmap when gravity
    lies more than gravity_tol_deg from the z axis (the bird's-eye view
    looks down z) or when the points span too many octree cells for
    int64.
    """
    timings: Dict[str, float] = {}
    # normalized as classify_patches does, so a vertical normal is ground
    g = submap.gravity / np.linalg.norm(submap.gravity)
    if abs(g[2]) < np.cos(np.radians(cfg.gravity_tol_deg)):
        raise InvalidSubmap(
            "gravity %s lies more than gravity_tol_deg = %g degrees from the z axis"
            % (np.array2string(submap.gravity, precision=6), cfg.gravity_tol_deg)
        )

    points = submap.points
    with _stage(timings, "planes"):
        try:
            patches = segment_planes(points, cfg.s_v, cfg.sigma_lambda).patches
        except ValueError as exc:  # s_v > 0 and finite points are validated, so only the extent is left
            raise InvalidSubmap("submap too large for its octree: %s" % (exc,)) from None
        # rebinding frees the unmerged set before the line stage
        patches = merge_patches(patches, cfg.normal_tol_deg, cfg.dist_tol_m)
        walls, ground, _ = classify_patches(patches, submap.gravity, cfg.gravity_tol_deg)
        g_mask = patches.mask(ground)
        # only the rows scoring keeps are gathered
        q_g_xy = points[thin_rows(np.flatnonzero(g_mask)), :2]
        q_ng_xy = points[thin_rows(np.flatnonzero(~g_mask)), :2]

    with _stage(timings, "lines"):
        # the wall rows as indices, each labelled with its wall 0..W-1
        rows = np.flatnonzero(patches.mask(walls))
        wall_of = np.full(len(patches), -1, dtype=np.int64)
        wall_of[walls] = np.arange(walls.shape[0])
        # a take of whole rows copies several times faster than the fancy
        # index points[rows, :2]; patch_segments reads the view's x and y
        # one column at a time
        segments = patch_segments(
            np.take(points, rows, axis=0)[:, :2], wall_of[patches.label[rows]],
            patches.centroid[walls, :2], patches.normal[walls, :2],
        )
        segments = merge_refit(segments, cfg.endpoint_tol_m, cfg.angle_tol_deg)
        corners = extract_corners(segments, cfg.extend_m, cfg.nms_radius_m, cfg.min_angle_deg)

    with _stage(timings, "descriptors"):
        triplets = build_triplets(corners, cfg.l_max, cfg.r_s, cfg.r_a, cfg.min_angle_deg)
        # after the line stage's peak; with no non-ground row it scores as EmptySubmap
        scoring = prepare_scoring(q_ng_xy, q_g_xy, cfg.s_r)

    return SubmapFeatures(corners, triplets, scoring, timings)


def register_features(feats: SubmapFeatures, floor: FloorIndex, cfg: PipelineConfig) -> RegistrationReport:
    """Match prepared submap features against one prepared floor.

    The report is a failure when no vote survives the residual gate
    (EmptyGrid), or when verification has no non-ground point to score
    (EmptySubmap). A grid with a vote always yields a candidate.
    """
    timings = dict(feats.timings_ms)
    report = RegistrationReport(floor.model.floor_id, None, FAILURE_CONFIDENCE, 0, 0, 0, False, timings)
    with _stage(timings, "query"):
        corr = query_correspondences(floor.db, feats.triplets)
    report.n_correspondences = corr[0].shape[0]
    try:
        with _stage(timings, "vote"):
            grid = cast_votes(corr, cfg.r_xy, cfg.r_yaw_deg, cfg.residual_max_m)
            candidates = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
        report.n_candidates = len(candidates)
        with _stage(timings, "verify"):
            best_idx, best = select_best(floor.field, candidates, feats.scoring, lam=cfg.lam)
    except (EmptyGrid, EmptySubmap):
        pass  # the report stays a failure
    else:
        winner = candidates[best_idx]
        report.pose, report.confidence, report.votes = winner.pose, best.confidence, winner.votes
        report.accepted = best.confidence >= cfg.min_confidence
    timings["total"] = sum(timings.get(k, 0.0) for k in STAGES)
    return report


def register_submap(
    submap: Submap, floors: Sequence[FloorIndex], cfg: PipelineConfig
) -> Tuple[RegistrationReport, List[RegistrationReport]]:
    """Register against every floor; returns (best report, all reports)."""
    if not floors:
        raise EmptyModel("no floors to register against")
    feats = extract_submap_features(submap, cfg)
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
