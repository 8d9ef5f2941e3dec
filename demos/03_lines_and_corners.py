"""
From wall points to line segments and corners
=============================================

Turns each wall patch's plane into a line in the bird's-eye view, cuts
the patch's points along it into wall runs, and intersects the runs into
the corner set that drives matching.
"""

import numpy as np

from scan2plan.lines import MIN_RUN_M, RUN_GAP_M, extract_corners, merge_refit, patch_segments
from scan2plan.planes import classify_patches, merge_patches, segment_planes
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap

layout = generate_layout(seed=7, n_rooms=8, corridor=True, extent_m=40.0)
rng = np.random.default_rng(0)
pose = random_interior_pose(layout, rng)
scene = synthesize_submap(layout.wall_model, pose, radius_m=12.0,
                          noise_sigma_m=0.03, seed=1)
sub = scene.submap

result = segment_planes(sub.points)
patches = merge_patches(result.patches)
walls, _, _ = classify_patches(patches, sub.gravity)
rows = patches.mask(walls)
print("%d wall points from %d patches" % (int(rows.sum()), len(walls)))

# a wall patch's line runs through its centroid, across its normal; its
# points split into runs at gaps over RUN_GAP_M, and runs of MIN_RUN_M
# or more become segments. walls is ascending, so searchsorted numbers
# each point's wall 0..W-1.
segments = patch_segments(
    sub.points[rows, :2], np.searchsorted(walls, patches.label[rows]),
    patches.centroid[walls, :2], patches.normal[walls, :2],
)
print("%d wall runs (gap %.1f m, min %.1f m)" % (len(segments), RUN_GAP_M, MIN_RUN_M))

segments = merge_refit(segments, endpoint_tol_m=0.3, angle_tol_deg=5.0)
# one [p0, p1] endpoint row per segment
print("%d line segments after merge" % len(segments))
for p0, p1 in segments[:5]:
    print("  (%6.2f, %6.2f) -> (%6.2f, %6.2f)  %5.2f m" % (
        p0[0], p0[1], p1[0], p1[1], np.linalg.norm(p1 - p0)))

# corners are intersections of nearby non-parallel segments
corners = extract_corners(segments, extend_m=1.0, nms_radius_m=0.5)
print("%d corners" % len(corners))
# one row per corner, strongest (largest wall support) first
for p, d in zip(corners.pos[:5], corners.dirs[:5]):
    ang = np.degrees(np.arctan2(d[:, 1], d[:, 0]))
    print("  (%6.2f, %6.2f) between walls at %6.1f and %6.1f deg" % (
        p[0], p[1], ang[0], ang[1]))
