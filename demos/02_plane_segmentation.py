"""
Segment a submap into planar patches
====================================

Splits the cloud into voxel-grown planar patches, merges coplanar
neighbors, and sorts the result into walls, ground, and the rest by the
angle each normal makes with gravity.
"""

import numpy as np

from scan2plan.planes import classify_patches, merge_patches, segment_planes
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap

layout = generate_layout(seed=7, n_rooms=8, corridor=True, extent_m=40.0)
rng = np.random.default_rng(0)
pose = random_interior_pose(layout, rng)
scene = synthesize_submap(layout.wall_model, pose, radius_m=12.0,
                          noise_sigma_m=0.03, clutter_frac=0.1, seed=1)
sub = scene.submap

# grow planes from coarse voxels; flat cells seed patches
result = segment_planes(sub.points, s_v=2.0, sigma_lambda=10.0)
print("%d raw patches from %d points (%d left unassigned)" % (
    len(result.patches), result.n_points, result.n_unassigned))

# one physical wall often arrives as several voxel-sized pieces
patches = merge_patches(result.patches, normal_tol_deg=10.0, dist_tol_m=0.1)
print("%d patches after coplanar merge" % len(patches))

walls, ground, other = classify_patches(patches, sub.gravity, gravity_tol_deg=15.0)
print("%d wall patches, %d ground patches, %d other" % (len(walls), len(ground), len(other)))

# patches are array rows and every point carries its patch's label;
# walls stand perpendicular to gravity, ground lies along it
sizes = np.bincount(patches.label[patches.label >= 0], minlength=len(patches))
for kind, group in (("wall", walls[:3]), ("ground", ground[:1])):
    for k in group:
        tilt = np.degrees(np.arccos(abs(float(np.dot(patches.normal[k], sub.gravity)))))
        print("  %s patch: %5d points, normal-to-gravity angle %5.1f deg" % (
            kind, sizes[k], tilt))
