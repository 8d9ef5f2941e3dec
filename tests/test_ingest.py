"""Submap validation and file round trips."""

import re

import numpy as np
import pytest

from scan2plan.errors import EmptyModel, InvalidSubmap, ParseError, VersionMismatch
from scan2plan.geometry import LineSegment2, Se2Pose
from scan2plan.ingest import (
    Submap,
    WallModel,
    load_pose,
    load_submap,
    load_wall_models,
    save_pose,
    save_submap,
    save_wall_models,
)

DOWN = np.array([0.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# Wall model I/O
# ---------------------------------------------------------------------------

def test_wall_model_single_line(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("0 0 5 0\n")
    (model,) = load_wall_models(p)
    assert len(model.walls) == 1
    assert np.allclose(model.walls[0].p0, [0, 0])
    assert np.allclose(model.walls[0].p1, [5, 0])


def test_wall_model_malformed_row_names_line(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("0 0 5 0\n1 2 three 4\n")
    with pytest.raises(ParseError, match=":2"):
        load_wall_models(p)


def test_wall_model_empty_raises(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("# nothing here\n")
    with pytest.raises(EmptyModel):
        load_wall_models(p)


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
    save_wall_models([model], f1)
    save_wall_models(load_wall_models(f1), f2)
    assert f1.read_bytes() == f2.read_bytes()
    (loaded,) = load_wall_models(f1)
    assert loaded.floor_id == "f2"
    for w0, w1 in zip(walls, loaded.walls):
        assert np.array_equal(w0.p0, w1.p0) and np.array_equal(w0.p1, w1.p1)


def test_wall_model_comments_and_floor_sections(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("# building\nfloor g\n0 0 4 0  # south\nfloor 1\n0 0 0 4\n")
    g, one = load_wall_models(p)
    assert (g.floor_id, one.floor_id) == ("g", "1")
    assert len(g.walls) == 1 and len(one.walls) == 1


def test_wall_model_empty_floor_section_names_header(tmp_path):
    p = tmp_path / "m.walls"
    p.write_text("floor a\n0 0 4 0\n# last floor\nfloor empty\n")
    with pytest.raises(EmptyModel, match=re.escape("%s:4: floor 'empty' has no walls" % p)):
        load_wall_models(p)


@pytest.mark.parametrize(
    "text, line, floor",
    [("floor a\n0 0 4 0\nfloor a\n0 0 0 4\n", 3, "a"), ("0 0 4 0\nfloor 0\n0 0 0 4\n", 2, "0")],
    ids=["header", "implicit"],
)
def test_wall_model_repeated_floor_names_header(tmp_path, text, line, floor):
    p = tmp_path / "m.walls"
    p.write_text(text)
    with pytest.raises(ParseError, match=re.escape("%s:%d: floor '%s' repeats the section opened at line 1" % (p, line, floor))):
        load_wall_models(p)


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


@pytest.mark.parametrize("text", ["nan 1 inf", "0 0 nan", "1 -inf 0", "1e400 0 0"])
def test_pose_non_finite_rejected(tmp_path, text):
    # a non-finite ground truth would count the scene as a silent miss
    f = tmp_path / "gt.pose"
    f.write_text(text + "\n")
    with pytest.raises(ParseError, match="gt.pose"):
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
