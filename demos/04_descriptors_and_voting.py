"""
Triangle descriptors, hashing, and pose voting
==============================================

Indexes the model's corner triplets in a hash table, queries it with the
submap's triplets, and lets every correspondence vote for the pose its
closed-form alignment implies.
"""

import numpy as np

from scan2plan.config import PipelineConfig
from scan2plan.descriptors import build_db, build_triplets, query_correspondences
from scan2plan.lines import extract_corners
from scan2plan.pipeline import extract_submap_features
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap
from scan2plan.voting import cast_votes, hierarchical_vote

cfg = PipelineConfig()
layout = generate_layout(seed=7, n_rooms=8, corridor=True, extent_m=40.0)
rng = np.random.default_rng(0)
gt = random_interior_pose(layout, rng)
scene = synthesize_submap(layout.wall_model, gt, radius_m=12.0,
                          noise_sigma_m=0.03, seed=1)

# model side: corners come straight from wall intersections
corners = extract_corners(layout.wall_model.endpoints())
db = build_db(corners, l_max=cfg.l_max)
print("model: %d corners, %d stored triplet orders under %d keys" % (
    len(corners), db.n_triplets, db.n_keys))

# submap side: the full feature stack from demo 02 and 03 in one call
feats = extract_submap_features(scene.submap, cfg)
print("submap: %d corners, %d triplets" % (len(feats.corners), len(feats.triplets)))

# identical quantized descriptors pair up; most pairs are wrong, and
# that is fine, the vote grid absorbs them
corr = query_correspondences(db, feats.triplets)
print("%d correspondences retrieved" % corr[0].shape[0])

grid = cast_votes(corr, r_xy=cfg.r_xy, r_yaw_deg=cfg.r_yaw_deg,
                  residual_max_m=cfg.residual_max_m)
print("%d votes in %d cells (%d rejected by residual)" % (
    int(grid.counts.sum()), grid.packed.shape[0], grid.n_rejected))

cands = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
print("top candidates (truth at %.2f %.2f %.1f deg):" % (gt.x, gt.y, np.degrees(gt.yaw)))
for c in cands[:5]:
    print("  votes %4d  merged %4d  pose %7.2f %7.2f %7.1f deg" % (
        c.votes, c.merged_score, c.pose.x, c.pose.y, np.degrees(c.pose.yaw)))
