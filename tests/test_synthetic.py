"""Floorplan generator and scene synthesizer tests."""

import collections
import hashlib

import numpy as np
import pytest

from scan2plan.errors import EmptyScene
from scan2plan.geometry import Se2Pose
from scan2plan import synthetic
from scan2plan.ingest import save_submap
from scan2plan.synthetic import (
    GROUND_CLEARANCE_M,
    generate_layout,
    random_interior_pose,
    synthesize_submap,
)

# --- floorplan shape ---


def test_single_room_is_a_rectangle():
    model = generate_layout(seed=7, n_rooms=1, corridor=False, extent_m=12.0).wall_model
    assert len(model.walls) == 4
    arr = model.endpoints().reshape(-1, 4)
    xs = np.unique(np.round(np.concatenate([arr[:, 0], arr[:, 2]]), 9))
    ys = np.unique(np.round(np.concatenate([arr[:, 1], arr[:, 3]]), 9))
    assert len(xs) == 2 and len(ys) == 2
    assert 3.0 <= xs[1] - xs[0] <= 10.0 + 1e-9
    assert 3.0 <= ys[1] - ys[0] <= 10.0 + 1e-9


def test_room_sides_within_bounds():
    for seed in range(6):
        layout = generate_layout(seed=seed, n_rooms=9, corridor=True, extent_m=50.0)
        assert len(layout.rooms) == 9
        for x0, y0, x1, y1 in layout.rooms:
            assert 3.0 - 1e-9 <= x1 - x0 <= 10.0 + 1e-6
            assert 3.0 - 1e-9 <= y1 - y0 <= 10.0 + 1e-6


def test_generator_is_deterministic():
    a = generate_layout(seed=123, n_rooms=8, corridor=True, extent_m=40.0).wall_model
    b = generate_layout(seed=123, n_rooms=8, corridor=True, extent_m=40.0).wall_model
    assert np.array_equal(a.endpoints().reshape(-1, 4), b.endpoints().reshape(-1, 4))
    c = generate_layout(seed=124, n_rooms=8, corridor=True, extent_m=40.0).wall_model
    assert not np.array_equal(a.endpoints().reshape(-1, 4), c.endpoints().reshape(-1, 4))


def _proper_crossing(a0, a1, b0, b1):
    """True when open interiors of segments a and b intersect."""

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    o1, o2 = orient(a0, a1, b0), orient(a0, a1, b1)
    o3, o4 = orient(b0, b1, a0), orient(b0, b1, a1)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def test_walls_only_meet_at_shared_endpoints():
    for seed in (0, 5, 11):
        model = generate_layout(seed=seed, n_rooms=12, corridor=True, extent_m=60.0).wall_model
        segs = [(w.p0, w.p1) for w in model.walls]
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                a0, a1 = segs[i]
                b0, b1 = segs[j]
                assert not _proper_crossing(a0, a1, b0, b1), (seed, i, j)
                # interior T-contacts would have been split into endpoints
                for p in (b0, b1):
                    d = a1 - a0
                    u = d / np.linalg.norm(d)
                    t = (p - a0) @ u
                    off = abs((p - a0) @ np.array([-u[1], u[0]]))
                    if off < 1e-9:
                        assert not (1e-6 < t < np.linalg.norm(d) - 1e-6), (seed, i, j)


def test_rooms_are_connected():
    # flood fill over a 0.1 m occupancy raster must reach every room center
    for seed in (1, 2, 3):
        layout = generate_layout(seed=seed, n_rooms=10, corridor=True, extent_m=50.0)
        arr = layout.wall_model.endpoints().reshape(-1, 4)
        res = 0.1
        lo = arr[:, :2].min(axis=0) - 0.5
        hi = arr[:, 2:].max(axis=0) + 0.5
        shape = np.ceil((hi - lo) / res).astype(int)
        occ = np.zeros(shape, dtype=bool)
        for x0, y0, x1, y1 in arr:
            n = int(np.hypot(x1 - x0, y1 - y0) / 0.02) + 2
            t = np.linspace(0.0, 1.0, n)
            px = ((x0 + t * (x1 - x0) - lo[0]) / res).astype(int)
            py = ((y0 + t * (y1 - y0) - lo[1]) / res).astype(int)
            occ[px, py] = True
        cx, cy = layout.corridor[:2]
        start = tuple(((np.array([cx + 0.3, cy + 0.3]) - lo) / res).astype(int))
        seen = np.zeros_like(occ)
        queue = collections.deque([start])
        seen[start] = True
        while queue:
            x, y = queue.popleft()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < shape[0] and 0 <= ny < shape[1] and not seen[nx, ny] and not occ[nx, ny]:
                    seen[nx, ny] = True
                    queue.append((nx, ny))
        for x0, y0, x1, y1 in layout.rooms:
            c = ((np.array([(x0 + x1) / 2, (y0 + y1) / 2]) - lo) / res).astype(int)
            assert seen[c[0], c[1]], seed


# --- scenes ---


def _box_layout():
    return generate_layout(seed=3, n_rooms=1, corridor=False, extent_m=10.0)


def test_scene_points_lie_on_walls_under_gt_pose():
    layout = _box_layout()
    x0, y0, x1, y1 = layout.rooms[0]
    pose = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.7)
    scene = synthesize_submap(layout.wall_model, pose, radius_m=30.0, seed=5)
    n_wall = scene.deviation_log["n_wall_points"]
    pts = scene.submap.points
    mapped = scene.gt_pose.apply(pts[:n_wall, :2])
    best = np.full(n_wall, np.inf)
    for w in layout.wall_model.walls:
        d = w.p1 - w.p0
        t = np.clip((mapped - w.p0) @ d / (d @ d), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(mapped - (w.p0 + t[:, None] * d), axis=1))
    assert best.max() < 1e-9
    ground = pts[n_wall:]
    assert np.all(ground[:, 2] == 0.0)
    assert ground.shape[0] > 0


def test_scene_rerun_is_byte_identical(tmp_path):
    layout = generate_layout(seed=9, n_rooms=6, corridor=True, extent_m=40.0)
    pose = random_interior_pose(layout, np.random.default_rng(0))
    kw = dict(radius_m=10.0, noise_sigma_m=0.03, drop_wall_frac=0.2, clutter_frac=0.1, seed=42)
    s1 = synthesize_submap(layout.wall_model, pose, **kw)
    s2 = synthesize_submap(layout.wall_model, pose, **kw)
    f1, f2 = tmp_path / "a.submap", tmp_path / "b.submap"
    save_submap(s1.submap, f1)
    save_submap(s2.submap, f2)
    assert f1.read_bytes() == f2.read_bytes()
    assert s1.deviation_log == s2.deviation_log


def test_dropped_walls_are_logged_and_absent():
    layout = _box_layout()
    x0, y0, x1, y1 = layout.rooms[0]
    pose = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.0)
    scene = synthesize_submap(layout.wall_model, pose, radius_m=30.0, drop_wall_frac=0.5, seed=11)
    assert len(scene.deviation_log["dropped_walls"]) == 2
    n_wall = scene.deviation_log["n_wall_points"]
    mapped = scene.gt_pose.apply(scene.submap.points[:n_wall, :2])
    for i in scene.deviation_log["dropped_walls"]:
        w = layout.wall_model.walls[i]
        d = w.p1 - w.p0
        # trim the shared-corner ends; kept perpendicular walls touch those
        u = d / np.linalg.norm(d)
        a = w.p0 + 0.5 * u
        b = w.p1 - 0.5 * u
        e = b - a
        t = np.clip((mapped - a) @ e / (e @ e), 0.0, 1.0)
        dist = np.linalg.norm(mapped - (a + t[:, None] * e), axis=1)
        assert dist.min() > 0.4, i


def test_all_walls_dropped_flags_wall_free():
    layout = _box_layout()
    x0, y0, x1, y1 = layout.rooms[0]
    pose = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.0)
    scene = synthesize_submap(layout.wall_model, pose, radius_m=30.0, drop_wall_frac=1.0, seed=2)
    assert scene.deviation_log["wall_free"]
    assert scene.deviation_log["n_wall_points"] == 0
    assert np.all(scene.submap.points[:, 2] == 0.0)


def test_clutter_budget_and_log():
    layout = _box_layout()
    x0, y0, x1, y1 = layout.rooms[0]
    pose = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.0)
    plain = synthesize_submap(layout.wall_model, pose, radius_m=30.0, seed=4)
    n_plain = plain.deviation_log["n_wall_points"]
    for frac in (0.1, 1.0):
        scene = synthesize_submap(layout.wall_model, pose, radius_m=30.0, clutter_frac=frac, seed=4)
        extra = scene.deviation_log["n_wall_points"] - n_plain
        assert extra == int(round(frac * n_plain))
        assert len(scene.deviation_log["clutter_segments"]) >= 1


def test_ground_keeps_clearance_from_walls():
    layout = _box_layout()
    x0, y0, x1, y1 = layout.rooms[0]
    pose = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 1.3)
    scene = synthesize_submap(layout.wall_model, pose, radius_m=30.0, seed=8)
    n_wall = scene.deviation_log["n_wall_points"]
    ground = scene.gt_pose.apply(scene.submap.points[n_wall:, :2])
    best = np.full(ground.shape[0], np.inf)
    for w in layout.wall_model.walls:
        d = w.p1 - w.p0
        t = np.clip((ground - w.p0) @ d / (d @ d), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(ground - (w.p0 + t[:, None] * d), axis=1))
    assert best.min() >= GROUND_CLEARANCE_M - 1e-9


def _segment_distances(points_xy, walls):
    """Min distance from each 2D point to any wall segment, over all points."""
    best = np.full(points_xy.shape[0], np.inf)
    for w in walls:
        d = w.p1 - w.p0
        t = np.clip((points_xy - w.p0) @ d / float(d @ d), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(points_xy - (w.p0 + t[:, None] * d), axis=1))
    return best


@pytest.mark.parametrize("layout_seed", [21, 5, 33])
def test_box_cull_matches_full_distances(layout_seed):
    # each wall tests only the points in its grown box; the decisions must
    # equal the all-points distances, also for points on the clearance
    # contour and on the edges of the boxes
    layout = generate_layout(seed=layout_seed, n_rooms=12, corridor=True, extent_m=48.0)
    walls = layout.wall_model.walls
    rng = np.random.default_rng(layout_seed)
    ends = layout.wall_model.endpoints().reshape(-1, 2)
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    pts = [rng.uniform(lo - 3.0, hi + 3.0, size=(4000, 2))]
    c = GROUND_CLEARANCE_M
    grow = c + synthetic.CLEARANCE_CUT_MARGIN_M
    for w in walls[:: max(1, len(walls) // 20)]:
        d = w.p1 - w.p0
        n = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        s = rng.uniform(-0.2, 1.2, size=(50, 1))
        on = w.p0 + s * d + rng.choice([-1.0, 1.0], size=(50, 1)) * c * n
        pts.append(np.nextafter(on, on + rng.choice([-1.0, 0.0, 1.0], size=on.shape)))
        pts.append(np.array([np.minimum(w.p0, w.p1) - grow, np.maximum(w.p0, w.p1) + grow]))
    pts = np.vstack(pts)
    want = _segment_distances(pts, walls) >= c
    got = synthetic._clear_of(pts, layout.wall_model.endpoints(), c)
    assert np.array_equal(got, want)
    assert want.any() and not want.all()


def test_sensor_far_from_model_raises():
    layout = _box_layout()
    with pytest.raises(EmptyScene):
        synthesize_submap(layout.wall_model, Se2Pose(500.0, 500.0, 0.0), radius_m=5.0)


def test_interior_pose_clearance():
    layout = generate_layout(seed=21, n_rooms=8, corridor=True, extent_m=40.0)
    rng = np.random.default_rng(3)
    assert synthetic.SENSOR_CLEARANCE_M == 0.8  # the README's figure
    for _ in range(20):
        pose = random_interior_pose(layout, rng)
        p = np.array([[pose.x, pose.y]])
        best = np.inf
        for w in layout.wall_model.walls:
            d = w.p1 - w.p0
            t = np.clip((p - w.p0) @ d / (d @ d), 0.0, 1.0)
            best = min(best, float(np.linalg.norm(p - (w.p0 + t[:, None] * d), axis=1)[0]))
        assert best >= 0.8


# --- pinned bytes ---

# sha256 of the generator's output, so a rewrite of it must keep every bit:
# layout endpoints, rooms and corridor; interior pose draws; and submap
# points with noise, dropped walls and clutter
LAYOUT_DIGESTS = {
    (1, 1, False): "ae527943efd293c10fa8b9c931e662951a0deb4c9544201bd9288f452d70ba09",
    (4, 5, False): "28251f59642e1210ed3f5e98c5b7b2509841fae7c119c207312631bd4cb38808",
    (9, 6, True): "99d231a4af3aaebbb29e8a2c79db789dbae082a3010f783b45351b4360093ced",
    (21, 12, True): "b139e3aadff9369abfdea32468c500bb3f104aa280602f7d4e918b3049a4b5f1",
    (103, 48, True): "4ba2c66e9a8cc2f3371b3e2bc49e6c51b6b2aa4e207700785034207beda9213a",
}
POSE_DIGEST = "d669f8f226b4bafe749a99561a9241bd479265812d59e020590b39bbefb47493"
SUBMAP_DIGESTS = {
    (9, 6): "f8224267f87a1c44029ad2ec4d5b3ebc091f31ea4be6a89de441a6d9d7b39ded",
    (21, 12): "6d5b3be65e3feae38ddae7691f5cbc5a03ac62ff5af3fe9a8d6d6fba8c7835b2",
}


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed, n_rooms, corridor", sorted(LAYOUT_DIGESTS))
def test_layout_bytes_pinned(seed, n_rooms, corridor):
    layout = generate_layout(seed=seed, n_rooms=n_rooms, corridor=corridor, extent_m=48.0)
    assert (layout.corridor is None) == (not corridor or n_rooms < 2)
    got = _sha(layout.wall_model.endpoints(), layout.rooms, layout.corridor or ())
    assert got == LAYOUT_DIGESTS[(seed, n_rooms, corridor)]


def test_interior_pose_bytes_pinned():
    poses = []
    for seed, n_rooms, corridor in sorted(LAYOUT_DIGESTS):
        layout = generate_layout(seed=seed, n_rooms=n_rooms, corridor=corridor, extent_m=48.0)
        rng = np.random.default_rng(seed)
        poses += [(p.x, p.y, p.yaw) for p in (random_interior_pose(layout, rng) for _ in range(8))]
    assert _sha(poses) == POSE_DIGEST


@pytest.mark.parametrize("seed, n_rooms", sorted(SUBMAP_DIGESTS))
def test_submap_bytes_pinned(seed, n_rooms):
    layout = generate_layout(seed=seed, n_rooms=n_rooms, corridor=True, extent_m=48.0)
    pose = random_interior_pose(layout, np.random.default_rng(seed))
    kw = dict(radius_m=15.0, noise_sigma_m=0.03, drop_wall_frac=0.2, clutter_frac=0.1, seed=seed)
    scene = synthesize_submap(layout.wall_model, pose, **kw)
    assert scene.deviation_log["dropped_walls"] and scene.deviation_log["clutter_segments"]
    assert _sha(scene.submap.points) == SUBMAP_DIGESTS[(seed, n_rooms)]


# --- parameter validation ---


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name, value",
    [("radius_m", 0.0), ("radius_m", NAN), ("radius_m", INF),
     ("noise_sigma_m", -1.0), ("noise_sigma_m", NAN), ("noise_sigma_m", INF),
     ("drop_wall_frac", 1.5), ("drop_wall_frac", -0.5), ("drop_wall_frac", NAN),
     ("clutter_frac", -1.0), ("clutter_frac", 1.5), ("clutter_frac", NAN)],
)
def test_bad_scene_parameter_rejected(name, value):
    layout = _box_layout()
    x0, y0, x1, y1 = layout.rooms[0]
    kw = dict(radius_m=30.0, noise_sigma_m=0.0, drop_wall_frac=0.0, clutter_frac=0.0)
    kw[name] = value
    with pytest.raises(ValueError, match=name):
        synthesize_submap(layout.wall_model, Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.0), **kw)


@pytest.mark.parametrize("extent", [0.0, -5.0, NAN, INF])
def test_bad_extent_rejected(extent):
    with pytest.raises(ValueError, match="extent_m"):
        generate_layout(seed=3, n_rooms=4, corridor=True, extent_m=extent)
