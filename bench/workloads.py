"""The two benchmark workloads: seeded inputs, the timed op, and judging.

Both workloads run `PipelineConfig()` defaults in one process with one
client in a closed loop. The sensor pose of scene k is drawn by
`random_interior_pose` with seed POSE_SEED + k in every run: where the
sensor stands sets most of an op's cost (visible corners, triplets), so
fixed poses keep that out of the run-to-run spread. A run's base seed b
then varies the inputs as follows.

- `a4`: one 12-room floor; the op is `register_submap(submap, [floor])`.
  Scene k is scanned by `synthesize_submap` with seed b + k (noise,
  dropped walls, clutter); at b = POSE_SEED these are the scenes of the
  tier-1 A4 gate. The front end (planes, lines, triplets) is almost all
  of the op.
- `building`: three floors of 28, 52 and 100 corners; every 4th scene
  comes from a fourth layout that is not in the building. The front end
  runs untimed before the op; the op is `register_features` against
  every floor, best report wins as in `register_submap`. Query, vote and
  verify are almost all of the op, and set-up is mostly `build_db`.
  Here the op's cost follows the number of correspondences, which the
  scan's dropped walls and clutter swing by +-40% per scene, more than
  the affordable 20 scenes average out. So scene k is always scanned
  with seed POSE_SEED + k, and b + k draws a rigid change of the submap's
  frame (up to 50 m, any yaw), with the ground-truth pose moved to match.

Scans are synthesized from the walls within reach of the sensor only,
which gives the same points as the whole floor at a fraction of the cost.
"""

import hashlib
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from scan2plan import pipeline
from scan2plan.config import PipelineConfig
from scan2plan.descriptors import serialize_db
from scan2plan.errors import EmptyGrid
from scan2plan.geometry import Se2Pose, registration_success
from scan2plan.ingest import Submap, WallModel
from scan2plan.synthetic import (
    GROUND_CLEARANCE_M,
    FloorLayout,
    generate_layout,
    random_interior_pose,
    synthesize_submap,
)

SCENE_ARGS = dict(radius_m=15.0, noise_sigma_m=0.03, drop_wall_frac=0.2, clutter_frac=0.1)
EXTENT_M = 48.0
ABSENT_EVERY = 4  # scene k with k % 4 == 3 comes from the absent layout
POSE_SEED = 9000
FRAME_SHIFT_M = 50.0


@dataclass(frozen=True)
class Spec:
    name: str
    floors: Tuple[Tuple[int, int], ...]  # (layout seed, n_rooms) per floor
    absent: Optional[Tuple[int, int]]  # layout not in the building
    n_scenes: int
    passes: int  # least timed passes over the scenes in an untraced run
    setup_reps: int  # whole set-ups per untraced run, median reported
    extract_untimed: bool  # building: front end untimed, fixed scans, seeded frames


SPECS = {
    "a4": Spec("a4", ((21, 12),), None, n_scenes=40, passes=1, setup_reps=3, extract_untimed=False),
    # two set-ups, not three, and 20 scenes timed twice: a set-up takes
    # ~10 s and a scene's untimed front end ~1 s, and a run must stay near
    # a minute
    "building": Spec(
        "building", ((101, 12), (102, 24), (103, 48)), (104, 24),
        n_scenes=20, passes=2, setup_reps=2, extract_untimed=True,
    ),
}


@dataclass
class Scene:
    k: int
    gt: Se2Pose
    truth_floor: Optional[str]  # None when the scene's layout is absent
    op_input: object  # Submap for a4, SubmapFeatures (or None) for building


def layouts(spec: Spec) -> Tuple[List[FloorLayout], Optional[FloorLayout]]:
    floors = [generate_layout(seed=s, n_rooms=n, corridor=True, extent_m=EXTENT_M) for s, n in spec.floors]
    absent = None
    if spec.absent is not None:
        s, n = spec.absent
        absent = generate_layout(seed=s, n_rooms=n, corridor=True, extent_m=EXTENT_M)
    return floors, absent


def near_walls(model: WallModel, sensor: np.ndarray) -> WallModel:
    """The walls that can touch a scan from `sensor`, in model order.

    A wall farther than radius + GROUND_CLEARANCE_M is neither visible nor
    close enough to any ground point to clear it, so the scan is the same.
    """
    reach = SCENE_ARGS["radius_m"] + GROUND_CLEARANCE_M + 0.5
    keep = []
    for w in model.walls:
        d = w.p1 - w.p0
        t = np.clip((sensor - w.p0) @ d / (d @ d), 0.0, 1.0)
        if np.linalg.norm(sensor - (w.p0 + t * d)) <= reach:
            keep.append(w)
    return WallModel(model.floor_id, keep)


def make_scene(spec: Spec, floors, absent, base: int, k: int, cfg: PipelineConfig) -> Scene:
    """Generate scene k and its op input; never timed."""
    rng = np.random.default_rng(POSE_SEED + k)
    if absent is not None and k % ABSENT_EVERY == ABSENT_EVERY - 1:
        layout, truth = absent, None
    else:
        layout = floors[k % ABSENT_EVERY % len(floors)]
        truth = layout.wall_model.floor_id
    gt = random_interior_pose(layout, rng)
    model = near_walls(layout.wall_model, gt.translation)
    if not spec.extract_untimed:
        submap = synthesize_submap(model, gt, seed=base + k, **SCENE_ARGS).submap
        return Scene(k, gt, truth, submap)

    submap = synthesize_submap(model, gt, seed=POSE_SEED + k, **SCENE_ARGS).submap
    f = np.random.default_rng(base + k)
    frame = Se2Pose(*f.uniform(-FRAME_SHIFT_M, FRAME_SHIFT_M, 2), f.uniform(-np.pi, np.pi))
    points = submap.points.copy()
    points[:, :2] = frame.apply(points[:, :2])
    gt = gt.compose(frame.inverse())
    try:
        feats = pipeline.extract_submap_features(Submap(points, submap.gravity), cfg)
    except EmptyGrid:
        feats = None
    return Scene(k, gt, truth, feats)


def op_for(spec: Spec) -> Callable:
    """The timed op: (op input, floors, cfg) -> (best report, all reports).

    Calls go through the `pipeline` module so a tracer's wrappers apply.
    """
    if not spec.extract_untimed:
        def op_a4(submap, floors, cfg):
            return pipeline.register_submap(submap, floors, cfg)
        return op_a4

    def op_building(feats, floors, cfg):
        if feats is None:
            raise EmptyGrid("no wall patches in submap")
        reports = [pipeline.register_features(feats, f, cfg) for f in floors]
        best = max(range(len(reports)), key=lambda i: (reports[i].confidence, -i))
        return reports[best], reports
    return op_building


def is_hit(scene: Scene, pose: Optional[Se2Pose], floor_id: str) -> bool:
    """Right floor and within 5 deg / 3 m of the ground truth."""
    return (
        scene.truth_floor is not None
        and pose is not None
        and floor_id == scene.truth_floor
        and registration_success(pose, scene.gt)
    )


def result_key(reports) -> str:
    """Exact poses and confidences of every report, as hex floats."""
    parts = []
    for r in reports:
        pose = "-" if r.pose is None else "%s,%s,%s" % (r.pose.x.hex(), r.pose.y.hex(), r.pose.yaw.hex())
        parts.append("%s:%s:%s" % (r.floor_id, pose, float(r.confidence).hex()))
    return ";".join(parts)


def db_digest(db, tmp_dir: Path) -> str:
    """sha256 of the sorted key -> entry multiset, read from the v1 file format."""
    with tempfile.TemporaryDirectory(dir=tmp_dir) as d:
        path = Path(d) / "db.bin"
        serialize_db(db, path)
        raw = path.read_bytes()
    (n_keys,) = struct.unpack_from("<I", raw, 24)
    off = 28
    h = hashlib.sha256()
    for _ in range(n_keys):
        key = raw[off : off + 24]
        (count,) = struct.unpack_from("<I", raw, off + 24)
        off += 28
        rows = [raw[off + r * 144 : off + (r + 1) * 144] for r in range(count)]
        off += count * 144
        h.update(key + struct.pack("<I", count) + b"".join(sorted(rows)))
    return h.hexdigest()
