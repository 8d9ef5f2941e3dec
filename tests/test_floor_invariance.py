"""The floor side of registration is exactly invariant.

A floor's walls carry no order and no direction: reversing the wall
list, shuffling it, or swapping every wall's endpoints must give a
descriptor DB with the same rows (count, keys and vertices as a sorted
multiset) and, for every scan, bit-identical poses and confidences
against every floor. A floor given twice under two ids ties with
itself, and `register_submap` keeps the first. The scans are extracted
once and matched through `register_features`, so each case costs only
the floor builds and the back end.
"""

import functools

import numpy as np
import pytest

from scan2plan.config import PipelineConfig
from scan2plan.geometry import LineSegment2
from scan2plan.ingest import WallModel
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
