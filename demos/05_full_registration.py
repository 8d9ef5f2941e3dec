"""
One-shot registration against a multi-floor model
=================================================

Runs the whole pipeline: a submap scanned on one floor is registered
against both floors of a building, and the confidence score both picks
the pose and names the floor it came from.
"""

import numpy as np

from scan2plan.config import PipelineConfig
from scan2plan.geometry import pose_errors
from scan2plan.pipeline import build_floor_index, register_submap
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap

cfg = PipelineConfig()

# two floors of the same building with different room splits
floors = []
for seed in (7, 31):
    layout = generate_layout(seed=seed, n_rooms=8, corridor=True, extent_m=40.0)
    floors.append((layout, build_floor_index(layout.wall_model, cfg)))
    print("indexed floor %s: %d triplets" % (layout.wall_model.floor_id, floors[-1][1].db.n_triplets))

# scan somewhere on the first floor
home = floors[0][0]
rng = np.random.default_rng(3)
gt = random_interior_pose(home, rng)
scene = synthesize_submap(home.wall_model, gt, radius_m=12.0,
                          noise_sigma_m=0.03, drop_wall_frac=0.15, seed=5)

best, reports = register_submap(scene.submap, [f for _, f in floors], cfg)

for r in reports:
    print("floor %s: confidence %7.3f, votes %4d, accepted %s" % (
        r.floor_id, r.confidence, r.votes, r.accepted))

rot_err, trans_err = pose_errors(best.pose, gt)
print("best floor %s at (%.2f, %.2f, %.1f deg)" % (
    best.floor_id, best.pose.x, best.pose.y, np.degrees(best.pose.yaw)))
print("error vs truth: %.2f deg, %.3f m" % (rot_err, trans_err))
print("stage timings: " + ", ".join(
    "%s %.0f ms" % (k, v) for k, v in best.timings_ms.items()))
