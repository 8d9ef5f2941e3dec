"""Tests for submap accumulation and file round trips."""

import numpy as np
import pytest

from scan2plan.errors import EmptyModel, InsufficientTravel, InvalidSubmap, ParseError, VersionMismatch
from scan2plan.geometry import LineSegment2, Se2Pose
from scan2plan.ingest import (
    ScanSequence,
    Submap,
    WallModel,
    accumulate_submap,
    load_pose,
    load_submap,
    load_wall_model,
    save_pose,
    save_submap,
    save_wall_model,
    voxel_downsample,
)

DOWN = np.array([0.0, 0.0, -1.0])


def pose4(t):
    m = np.eye(4)
    m[:3, 3] = t
    return m


def test_single_scan_one_voxel_centroid():
    rng = np.random.default_rng(0)
    pts = 0.1 + rng.uniform(0.0, 0.6, size=(8, 3))  # all inside voxel [0, 0.8)^3
    seq = ScanSequence([(0.0, pts)], [np.eye(4)], DOWN)
    sub = accumulate_submap(seq, r_v=0.8, d_s=0.0)
    assert sub.points.shape == (1, 3)
    assert np.allclose(sub.points[0], pts.mean(axis=0))


def test_duplicate_scans_are_idempotent():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5, 5, size=(200, 3))
    one = accumulate_submap(ScanSequence([(0.0, pts)], [np.eye(4)], DOWN), 0.8, 0.0)
    two = accumulate_submap(
        ScanSequence([(0.0, pts), (1.0, pts)], [np.eye(4), np.eye(4)], DOWN), 0.8, 0.0
    )
    assert np.allclose(np.sort(one.points, axis=0), np.sort(two.points, axis=0))


def test_sparse_grid_survives_downsampling():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(100)])
    seq = ScanSequence([(0.0, pts)], [np.eye(4)], DOWN)
    sub = accumulate_submap(seq, r_v=0.8, d_s=0.0)
    assert sub.points.shape[0] == 100


def test_prefix_selection_and_span():
    pts = np.zeros((1, 3))
    scans = [(float(k), pts) for k in range(5)]
    poses = [pose4([2.0 * k, 0.0, 0.0]) for k in range(5)]
    sub = accumulate_submap(ScanSequence(scans, poses, DOWN), 0.5, d_s=3.0)
    # steps of 2 m: prefix of 3 scans spans 4 m >= 3 m
    assert sub.source_span_m == pytest.approx(4.0)
    assert sub.points.shape[0] == 3


def test_insufficient_travel():
    seq = ScanSequence([(0.0, np.zeros((4, 3)))], [np.eye(4)], DOWN)
    with pytest.raises(InsufficientTravel):
        accumulate_submap(seq, 0.8, d_s=15.0)


def test_downsample_point_budget_and_locality():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-10, 10, size=(5000, 3))
    out = voxel_downsample(pts, 0.8)
    assert out.shape[0] <= pts.shape[0]
    # every representative stays within half a voxel diagonal of an input point
    from scipy.spatial import cKDTree

    d, _ = cKDTree(pts).query(out)
    assert np.max(d) <= 0.8 * np.sqrt(3) / 2 + 1e-12


def test_poses_transform_scans_to_world():
    pts = np.array([[1.0, 0.0, 0.0]])
    yaw = np.pi / 2
    m = np.eye(4)
    m[:2, :2] = [[np.cos(yaw), -np.sin(yaw)], [np.sin(yaw), np.cos(yaw)]]
    m[:3, 3] = [5.0, 0.0, 0.0]
    sub = accumulate_submap(ScanSequence([(0.0, pts)], [m], DOWN), 0.1, 0.0)
    assert np.allclose(sub.points[0], [5.0, 1.0, 0.0], atol=1e-9)


# ---------------------------------------------------------------------------
# Wall model I/O
# ---------------------------------------------------------------------------

def test_wall_model_single_line(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("0 0 5 0\n")
    model = load_wall_model(p)
    assert len(model.walls) == 1
    assert np.allclose(model.walls[0].p0, [0, 0])
    assert np.allclose(model.walls[0].p1, [5, 0])


def test_wall_model_malformed_row_names_line(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("0 0 5 0\n1 2 three 4\n")
    with pytest.raises(ParseError, match=":2"):
        load_wall_model(p)


def test_wall_model_empty_raises(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("# nothing here\n")
    with pytest.raises(EmptyModel):
        load_wall_model(p)


def test_wall_model_roundtrip_500_walls(tmp_path):
    rng = np.random.default_rng(3)
    walls = []
    for _ in range(500):
        p0 = rng.uniform(-100, 100, size=2)
        d = rng.uniform(-10, 10, size=2)
        while np.linalg.norm(d) < 1e-3:
            d = rng.uniform(-10, 10, size=2)
        walls.append(LineSegment2(p0, p0 + d))
    model = WallModel("f2", walls)
    f1 = tmp_path / "a.walls"
    f2 = tmp_path / "b.walls"
    save_wall_model(model, f1)
    save_wall_model(load_wall_model(f1), f2)
    assert f1.read_bytes() == f2.read_bytes()
    loaded = load_wall_model(f1)
    assert loaded.floor_id == "f2"
    for w0, w1 in zip(walls, loaded.walls):
        assert np.array_equal(w0.p0, w1.p0) and np.array_equal(w0.p1, w1.p1)


def test_wall_model_comments_and_floor_sections(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("# building\nfloor g\n0 0 4 0  # south\nfloor 1\n0 0 0 4\n")
    g = load_wall_model(p, floor_id="g")
    one = load_wall_model(p, floor_id="1")
    assert len(g.walls) == 1 and len(one.walls) == 1
    with pytest.raises(ParseError):
        load_wall_model(p)  # ambiguous without floor_id


# ---------------------------------------------------------------------------
# Submap binary I/O
# ---------------------------------------------------------------------------

def test_submap_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.uniform(-50, 50, size=(1234, 3)).astype(np.float32).astype(float)
    sub = Submap(pts, np.array([0.0, 0.1, -1.0]))
    f = tmp_path / "s.submap"
    save_submap(sub, f)
    back = load_submap(f)
    assert np.array_equal(back.points, sub.points)
    assert np.allclose(back.gravity, sub.gravity, atol=1e-7)


def test_submap_bad_magic(tmp_path):
    f = tmp_path / "s.submap"
    f.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(VersionMismatch):
        load_submap(f)


def test_submap_truncated(tmp_path):
    sub = Submap(np.zeros((10, 3)), np.array([0, 0, -1.0]))
    f = tmp_path / "s.submap"
    save_submap(sub, f)
    f.write_bytes(f.read_bytes()[:-5])
    with pytest.raises(ParseError):
        load_submap(f)


# ---------------------------------------------------------------------------
# Pose text I/O
# ---------------------------------------------------------------------------

def test_pose_roundtrip_exact(tmp_path):
    pose = Se2Pose(12.345678901234567, -0.25, 1.0471975511965976)
    f = tmp_path / "gt.pose"
    save_pose(pose, f)
    back = load_pose(f)
    assert (back.x, back.y, back.yaw) == (pose.x, pose.y, pose.yaw)


def test_pose_malformed(tmp_path):
    f = tmp_path / "gt.pose"
    f.write_text("1.0 2.0\n")
    with pytest.raises(ParseError):
        load_pose(f)
    f.write_text("1.0 2.0 north\n")
    with pytest.raises(ParseError):
        load_pose(f)


def _raw_submap(path, gravity, points):
    pts = np.asarray(points, dtype="<f4")
    path.write_bytes(
        b"L2B1" + np.asarray(gravity, dtype="<f4").tobytes()
        + len(pts).to_bytes(4, "little") + pts.tobytes()
    )


def test_submap_rejects_non_finite_points(tmp_path):
    pts = np.zeros((4, 3))
    pts[2, 1] = np.nan
    with pytest.raises(InvalidSubmap):
        Submap(pts, DOWN)
    pts[2, 1] = np.inf
    with pytest.raises(InvalidSubmap):
        Submap(pts, DOWN)
    f = tmp_path / "nan.submap"
    _raw_submap(f, DOWN, pts)
    with pytest.raises(InvalidSubmap, match="nan.submap"):
        load_submap(f)


def test_submap_rejects_bad_gravity(tmp_path):
    for g in ([0.0, 0.0, 0.0], [0.0, np.nan, -1.0], [np.inf, 0.0, -1.0]):
        with pytest.raises(InvalidSubmap):
            Submap(np.zeros((4, 3)), np.array(g))
    f = tmp_path / "zero_g.submap"
    _raw_submap(f, [0.0, 0.0, 0.0], np.zeros((4, 3)))
    with pytest.raises(InvalidSubmap):
        load_submap(f)


def test_scan_sequence_rejects_bad_gravity():
    pts = np.zeros((4, 3))
    for g in ([0.0, 0.0, 0.0], [0.0, np.nan, -1.0], [np.inf, 0.0, -1.0]):
        with pytest.raises(InvalidSubmap):
            ScanSequence([(0.0, pts)], [np.eye(4)], np.array(g))
