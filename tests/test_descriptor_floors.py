"""Whole floors through the descriptor layer, bit for bit.

The property tests in `test_descriptor_oracle.py` draw at most about ten
corners. Here a benchmark floor's DB (28 corners, 2,145 cliques) and an
A4 submap's query triplets go through the scalar oracle, and the DBs of
the benchmark floors are pinned by digest: a sha256 over the key, vertex,
wall direction and hand bytes of every row, in DB order.
"""

import hashlib

import numpy as np
import pytest
import scalar_descriptors as ref
from test_descriptor_oracle import _assert_db_matches, _assert_triplets_match

from scan2plan.config import PipelineConfig
from scan2plan.descriptors import build_db, build_triplets
from scan2plan.lines import extract_corners
from scan2plan.pipeline import extract_submap_features
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap

CFG = PipelineConfig()

# (layout seed, rooms) -> sha256 of the floor's DB at extent 48 m and the default config
DB_DIGESTS = {
    (21, 12): "6881699a72a1997654ac94d249f54f74e23e86f2a48941d9c455dd5c789cce74",
    (101, 12): "a14c54dee57aabf044de7fc85b0bdf555823ce870604bf8936b66b101e5601a0",
    (102, 24): "37d326b8e21c26c359236e967807abcd1cf227917b3caa066df78ea4fbb213b5",
    (103, 48): "598719945bea67be4ad006624fb26073fc6d9bdb666047b96f3364fe33bdf785",
    (104, 24): "cdba5b1bf5abc692e16b14a8333cf95dcef2462f99b6f748698ef9dbde56c831",
}


def _floor_corners(seed, n_rooms):
    walls = generate_layout(seed=seed, n_rooms=n_rooms, corridor=True, extent_m=48.0).wall_model.endpoints()
    return extract_corners(walls, CFG.extend_m, CFG.nms_radius_m, CFG.min_angle_deg)


def _db(corners):
    return build_db(corners, CFG.l_max, CFG.r_s, CFG.r_a, CFG.min_angle_deg)


def test_floor_db_matches_oracle():
    corners = _floor_corners(101, 12)
    db = _db(corners)
    _assert_db_matches(db, ref.build_db(corners, CFG.l_max, CFG.r_s, CFG.r_a, CFG.min_angle_deg))
    assert db.hand.tolist() == [ref.hand(v) for v in db.verts]


def test_a4_submap_triplets_match_oracle():
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    gt = random_interior_pose(layout, np.random.default_rng(9000))
    submap = synthesize_submap(
        layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03, drop_wall_frac=0.2, clutter_frac=0.1, seed=9000
    ).submap
    corners = extract_submap_features(submap, CFG).corners
    got = build_triplets(corners, CFG.l_max, CFG.r_s, CFG.r_a, CFG.min_angle_deg)
    want = ref.build_triplets(corners, CFG.l_max, CFG.r_s, CFG.r_a, CFG.min_angle_deg)
    assert len(want) > 100
    _assert_triplets_match(got, want)
    assert got.hand.tolist() == [ref.hand(v) for v, _, _ in want]


@pytest.mark.parametrize("floor", sorted(DB_DIGESTS))
def test_benchmark_floor_db_digest(floor):
    db = _db(_floor_corners(*floor))
    h = hashlib.sha256()
    for a, dtype in ((db.keys, "<i8"), (db.verts, "<f8"), (db.dirs, "<f8"), (db.hand, "i1")):
        assert a.dtype == np.dtype(dtype)
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    assert h.hexdigest() == DB_DIGESTS[floor]
