"""The floor side of registration is exactly invariant; the submap side
within stated tolerances.

A floor's walls carry no order and no direction: reversing the wall
list, shuffling it, or swapping every wall's endpoints must give a
descriptor DB with the same rows (count, keys and vertices as a sorted
multiset) and, for every scan, bit-identical poses and confidences
against every floor. A floor given twice under two ids ties with
itself, and `register_submap` keeps the first. The scans are extracted
once and matched through `register_features`, so each case costs only
the floor builds and the back end.

A scan's rows carry no order and its frame is arbitrary, but the octree
cuts cells on the frame's axes and the scoring sets keep rows by their
order, so permuting the rows or moving the frame may move the pose and
the confidence a little; each bound is justified where it is stated.
"""

import functools

import numpy as np
import pytest

from scan2plan.config import PipelineConfig
from scan2plan.geometry import LineSegment2, Se2Pose, pose_errors
from scan2plan.ingest import Submap, WallModel
from scan2plan.pipeline import build_floor_index, extract_submap_features, register_features, register_submap
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap

CFG = PipelineConfig()
SEEDS = (9000, 9001, 9002)


@functools.lru_cache(maxsize=1)
def _prepared():
    """(layout, floor, [(submap, features)]): the A4 floor and three of its scans."""
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    scans = []
    for seed in SEEDS:
        gt = random_interior_pose(layout, np.random.default_rng(seed))
        scene = synthesize_submap(
            layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03,
            drop_wall_frac=0.2, clutter_frac=0.1, seed=seed,
        )
        scans.append((scene.submap, extract_submap_features(scene.submap, CFG)))
    return layout, build_floor_index(layout.wall_model, CFG), scans


def _key(report):
    pose = None if report.pose is None else [report.pose.x, report.pose.y, report.pose.yaw]
    return np.float64(pose).tobytes(), np.float64(report.confidence).tobytes(), report.votes


def _db_rows(db):
    """The DB's (key, vertices) rows as a sorted multiset of bytes."""
    verts = np.ascontiguousarray(db.verts).reshape(db.verts.shape[0], -1)
    return sorted(k.tobytes() + v.tobytes() for k, v in zip(db.keys, verts))


def _reorder(walls, how):
    if how == "reversed":
        return walls[::-1]
    if how == "shuffled":
        return [walls[i] for i in np.random.default_rng(5).permutation(len(walls))]
    return [LineSegment2(w.p1, w.p0) for w in walls]


@pytest.mark.parametrize("how", ["reversed", "shuffled", "swapped_ends"])
def test_wall_order_and_direction_leave_db_and_poses_unchanged(how):
    layout, floor, scans = _prepared()
    walls = _reorder(layout.wall_model.walls, how)
    assert [w.p0.tolist() for w in walls] != [w.p0.tolist() for w in layout.wall_model.walls]
    other = build_floor_index(WallModel(layout.wall_model.floor_id, walls), CFG)
    assert other.db.n_triplets == floor.db.n_triplets
    assert _db_rows(other.db) == _db_rows(floor.db)
    for _, feats in scans:
        want, got = register_features(feats, floor, CFG), register_features(feats, other, CFG)
        assert want.pose is not None
        assert _key(got) == _key(want)


def test_a_floor_given_twice_registers_to_the_first_id():
    layout, floor, scans = _prepared()
    twin = build_floor_index(WallModel("twin", layout.wall_model.walls), CFG)
    for submap, _ in scans:
        best, reports = register_submap(submap, [floor, twin], CFG)
        assert best.floor_id == layout.wall_model.floor_id and best.accepted
        assert _key(reports[1]) == _key(reports[0])
        best, _ = register_submap(submap, [twin, floor], CFG)
        assert best.floor_id == "twin"


# --- the submap side ---

# Measured on the A4 scans of seeds 9000-9007, against each scan's own
# registration: permuting the rows moved the pose by at most 5.1e-14 deg
# and 9.4e-15 m, which is rounding, and the confidence by -0.0032 to
# +0.0046, since the thinned scoring sets keep rows by their order. The
# pose bound admits rounding and no real move; the confidence bound is
# about twice the worst measured move.
ROW_ORDER_ROT_DEG, ROW_ORDER_TRANS_M, ROW_ORDER_CONF = 1e-9, 1e-9, 0.01


def test_row_order_leaves_the_pose_unchanged():
    _, floor, scans = _prepared()
    for k, (submap, feats) in enumerate(scans):
        want = register_features(feats, floor, CFG)
        perm = np.random.default_rng(k).permutation(submap.points.shape[0])
        got, _ = register_submap(Submap(submap.points[perm], submap.gravity), [floor], CFG)
        rot, trans = pose_errors(got.pose, want.pose)
        assert rot <= ROW_ORDER_ROT_DEG and trans <= ROW_ORDER_TRANS_M
        assert abs(got.confidence - want.confidence) <= ROW_ORDER_CONF


# On the same eight scans a rigid frame change (the yaws and shifts
# below) moved the mapped-back pose by at most 0.132 deg and 0.022 m,
# and the confidence by -0.0107 to +0.0063: the octree's cells, and so
# the patches, the corners and the scoring sets, follow the frame's
# axes. Each bound is about twice the worst measured move.
FRAME_ROT_DEG, FRAME_TRANS_M, FRAME_CONF = 0.25, 0.05, 0.02


@pytest.mark.parametrize("shift", [(0.0, 0.0), (7.3, -4.1)])
@pytest.mark.parametrize("yaw", [0.3, np.pi / 2, 2.0])
def test_a_rigid_frame_change_maps_back_to_the_pose(yaw, shift):
    _, floor, scans = _prepared()
    move = Se2Pose(shift[0], shift[1], yaw)
    for submap, feats in scans:
        want = register_features(feats, floor, CFG)
        pts = np.column_stack([move.apply(submap.points[:, :2]), submap.points[:, 2]])
        gravity = np.append(move.rotation() @ submap.gravity[:2], submap.gravity[2])
        got, _ = register_submap(Submap(pts, gravity), [floor], CFG)
        # got maps the moved frame onto the floor, so got o move maps the original
        rot, trans = pose_errors(got.pose.compose(move), want.pose)
        assert rot <= FRAME_ROT_DEG and trans <= FRAME_TRANS_M
        assert abs(got.confidence - want.confidence) <= FRAME_CONF
