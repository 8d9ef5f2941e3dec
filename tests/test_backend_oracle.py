"""Property tests: bordered-field scoring and grouped clustering against the oracle.

`scalar_backend` keeps the original masked lookup, exhaustive
per-candidate scoring and per-component clustering. Every comparison
here is bitwise: field values, award and penalty sums, confidences, the
chosen index and the winner's result (the package's pruned selection
against the exhaustive oracle, with every candidate's coarse bound at or
above its exact phase-1 bound, and that at or above its exact
confidence; at lam = 0 also against the award-only oracle), and every
candidate's pose, votes, merged score and cell count. A cut to the top
j candidates must give the first j rows of the full ranking bit for
bit, and selection over them the exhaustive winner and its result
whenever that winner ranks below j, else a confidence no higher than
the exhaustive one. Point sets put
coordinates exactly on cell edges, one ulp either side of the grid's
bounds, far outside it, NaN, and beyond the int64 range of cell indices.
Vote grids grow components of more than 8 cells (where numpy's pairwise
`.sum()` departs from the running sum both sides use) across the yaw
wrap, and the package's one-search neighbour table must equal the
oracle's one-search-per-offset table. The wall raster's column pass must
mark the cells of the oracle's per-cell grid walk, with the same origin,
for walls on cell corners, along axes and diagonals, on the bench
layouts, and with the hairlines split into chunks of any size.
"""

import math

import numpy as np
import pytest
import scalar_backend as ref
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scan2plan import verify
from scan2plan.geometry import Se2Pose
from scan2plan.verify import (
    COARSE_LIMIT,
    ScoreField,
    _coarse_bounds,
    _rasterize,
    _scratch,
    build_score_field,
    prepare_scoring,
    select_best,
)
from scan2plan.voting import Candidate, Candidates, VoteGrid, _neighbor_table, hierarchical_vote

SETTINGS = settings(max_examples=80)
FAR = [1e6, 1e20, 1e300, math.inf]  # 1e20 / s_r and up overflow an int64 cell index


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _result_key(r):
    return (_bits([r.s_a, r.s_p, r.confidence]), r.n_ng, r.n_g)


@st.composite
def fields(draw):
    """A built field over random walls, or a hand-built one with non-zero edges."""
    s_r = draw(st.sampled_from([0.2, 0.25, 0.1, 0.3]))
    if draw(st.booleans()):
        walls = []
        for _ in range(draw(st.integers(1, 4))):
            p0 = np.array([draw(st.floats(-6, 6)), draw(st.floats(-6, 6))])
            ang = draw(st.floats(0.0, math.pi))
            p1 = p0 + draw(st.floats(0.3, 6.0)) * np.array([math.cos(ang), math.sin(ang)])
            walls.append((p0, p1))
        return build_score_field(walls, s_r=s_r, k_d=draw(st.integers(1, 5)))
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.uniform(0.05, 1.0, size=(nx, ny))  # edge cells non-zero
    values[rng.uniform(size=values.shape) < 0.3] = 1.0
    origin = np.array([draw(st.floats(-5, 5)), draw(st.integers(-5, 5)) * s_r])
    return ScoreField(values, origin, s_r)


@st.composite
def probes(draw, field, max_size=40):
    """Model-frame points: cell edges, just outside, far, and random."""
    nx, ny = field.values.shape
    o, s = field.origin, field.s_r
    lo, hi = o, o + np.array([nx, ny]) * s
    pts = []
    for _ in range(draw(st.integers(1, max_size))):
        kind = draw(st.sampled_from(["edge", "bound", "far", "nan", "random"]))
        xy = []
        for a in range(2):
            n = (nx, ny)[a]
            if kind == "edge":
                v = o[a] + draw(st.integers(-2, n + 2)) * s
            elif kind == "bound":
                v = np.nextafter(draw(st.sampled_from([lo[a], hi[a]])), draw(st.sampled_from([-math.inf, math.inf])))
            elif kind == "far":
                v = draw(st.sampled_from(FAR)) * draw(st.sampled_from([-1.0, 1.0]))
            elif kind == "nan":
                v = math.nan
            else:
                v = draw(st.floats(lo[a] - 2 * s, hi[a] + 2 * s))
            xy.append(float(v))
        pts.append(xy)
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


poses = st.one_of(
    st.just(Se2Pose(0.0, 0.0, 0.0)),
    st.builds(Se2Pose, st.floats(-3, 3), st.floats(-3, 3), st.floats(-math.pi, math.pi)),
    st.builds(Se2Pose, st.just(0.0), st.just(0.0), st.sampled_from([math.pi / 2, -math.pi, math.pi / 4])),
)


@SETTINGS
@given(
    st.integers(1, 64) | st.just(5000),
    st.floats(-math.pi, math.pi) | st.sampled_from([0.0, math.pi / 2, -math.pi]),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_column_major_matmul_rounds_like_plain(n, yaw, seed, strided):
    # scoring writes the rotation into a column-major buffer; BLAS then
    # runs the transposed product, which must round like `q @ R.T`
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-2, 4, size=(n, 1))
    q = q[:, :2] if strided else np.ascontiguousarray(q[:, :2])
    rot_t = Se2Pose(0.0, 0.0, yaw).rotation().T
    buf = np.empty((n + 3, 2), order="F")
    assert _bits(np.matmul(q, rot_t, out=buf[:n])) == _bits(q @ rot_t)


@SETTINGS
@given(st.data())
def test_value_at_matches_oracle(data):
    field = data.draw(fields())
    pts = data.draw(probes(field))
    with np.errstate(invalid="ignore"):  # the oracle casts inf and 1e300 to int64
        want = ref.value_at(field, pts)
    assert _bits(ref.lookup(field, pts)) == _bits(want)


# --- wall raster ---

# the floors of the bench specs: a4 (21) and building (101-103, 104 absent)
BENCH_LAYOUTS = [(21, 12), (101, 12), (102, 24), (103, 48), (104, 24)]


def _assert_raster_matches_oracle(walls, s_r, pad_px=7):
    walls = np.asarray(walls, dtype=np.float64).reshape(-1, 2, 2)
    grid, origin = _rasterize(walls, 1.0 / s_r, pad_px)
    want_grid, want_origin = ref.rasterize(walls, 1.0 / s_r, pad_px)
    assert grid.shape == want_grid.shape
    assert np.array_equal(grid, want_grid)
    assert _bits(origin) == _bits(want_origin)


@st.composite
def raster_walls(draw):
    """(walls, s_r): 1-6 walls with ends on cell corners or anywhere,
    running along an axis, at 45 degrees or in any direction."""
    s_r = draw(st.sampled_from([0.1, 0.2, 0.25, 0.3]))

    def point(corner):
        if corner:
            return np.array([draw(st.integers(-40, 40)), draw(st.integers(-40, 40))]) * s_r
        return np.array([draw(st.floats(-8, 8)), draw(st.floats(-8, 8))])

    walls = []
    for _ in range(draw(st.integers(1, 6))):
        corner, kind = draw(st.booleans()), draw(st.sampled_from(["axis", "diagonal", "any"]))
        p0 = point(corner)
        if kind == "any":
            p1 = point(corner)
        else:
            steps = [(1, 0), (0, 1), (-1, 0), (0, -1)] if kind == "axis" else [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            n = draw(st.integers(1, 60)) * s_r if corner else draw(st.floats(0.01, 12))
            p1 = p0 + n * np.array(draw(st.sampled_from(steps)), dtype=np.float64)
        if np.any(p1 != p0):
            walls.append((p0, p1))
    assume(walls)
    return np.array(walls), s_r


@settings(max_examples=300)
@given(raster_walls())
def test_raster_matches_oracle(case):
    _assert_raster_matches_oracle(*case)


@pytest.mark.parametrize("s_r", [0.1, 0.2, 0.25, 0.3])
def test_raster_matches_oracle_on_the_bench_layouts(s_r):
    from scan2plan.synthetic import generate_layout

    for seed, n_rooms in BENCH_LAYOUTS:
        walls = generate_layout(seed=seed, n_rooms=n_rooms, corridor=True, extent_m=48.0).wall_model.endpoints()
        _assert_raster_matches_oracle(walls, s_r)


@pytest.mark.parametrize("chunk", [1, 20, 300])
def test_raster_chunks_match_oracle(monkeypatch, chunk):
    # a chunk of 1 holds one hairline each; at 20 the longest hairlines
    # exceed the chunk and go alone, and at 300 most chunks hold several
    from scan2plan.synthetic import generate_layout

    walls = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0).wall_model.endpoints()
    bound = np.abs(walls[:, 1] - walls[:, 0]).sum(axis=1) / 0.2 + 3.0  # cells, per hairline
    assert bound.max() > 20 and 2 * bound.sum() > 5 * 300
    monkeypatch.setattr(verify, "RASTER_CHUNK_CELLS", chunk)
    _assert_raster_matches_oracle(walls, 0.2)


def _sets(field, q_ng, q_g):
    """The scoring sets of two point sets, collapsed at the field's s_r."""
    return prepare_scoring(q_ng, q_g, field.s_r)


def _bounds(field, cands, q_ng, q_g, cap):
    """(coarse, exact phase-1) bounds of every candidate."""
    sets = _sets(field, ref._subsample(q_ng, cap), ref._subsample(q_g, cap))
    buf, idx = _scratch(max(sets.q_ng.shape[0], sets.q_g.shape[0]))
    coarse = _coarse_bounds(field, ref.candidates_of(cands).xyt, sets, buf, idx)
    return coarse.tolist(), [ref.award_only(field, c.pose, sets.q_ng) for c in cands]


def _assert_selection_matches_oracle(field, cands, q_ng, q_g, lam, cap) -> int:
    """The pruned selection picks the exhaustive oracle's index with the
    same result bits, and for every candidate coarse bound >= phase-1
    bound >= exact confidence."""
    want_best, want = ref.select_best(field, cands, q_ng, q_g, lam=lam, max_points=cap)
    thinned = _sets(field, ref._subsample(q_ng, cap), ref._subsample(q_g, cap))
    got_best, got = select_best(field, ref.candidates_of(cands), thinned, lam=lam)
    assert got_best == want_best
    assert _result_key(got) == _result_key(want[want_best])
    coarse, exact = _bounds(field, cands, q_ng, q_g, cap)
    assert all(c >= b >= r.confidence for c, b, r in zip(coarse, exact, want))
    return got_best


@st.composite
def selections(draw):
    """(field, q_ng, q_g, candidates): scan points drawn in the model
    frame and taken back through a pose, so many land on (or one rounding
    off) cell edges again, and candidates with tied poses."""
    field = draw(fields())
    q_ng = draw(probes(field))
    q_g = draw(probes(field)) if draw(st.booleans()) else np.zeros((0, 2))
    frame = draw(poses)
    inv = frame.inverse()
    with np.errstate(invalid="ignore", over="ignore"):
        q_ng = inv.apply(q_ng) if draw(st.booleans()) else q_ng
        q_g = inv.apply(q_g) if q_g.shape[0] else q_g
    if draw(st.booleans()):  # a strided view, as a submap's xy columns are
        q_ng = np.column_stack([q_ng, np.zeros(len(q_ng))])[:, :2]

    cands = []
    for _ in range(draw(st.integers(1, 5))):
        pose = draw(st.one_of(st.just(frame), poses))
        votes = draw(st.integers(1, 4))
        cands.append(Candidate(pose, votes, votes, 1))
        if draw(st.booleans()):  # same pose, so tied confidence
            cands.append(Candidate(pose, draw(st.integers(1, 4)), 1, 1))
    return field, q_ng, q_g, cands


caps = st.sampled_from([None, None, 0, 1, 3, 7])


@SETTINGS
@given(selections(), st.sampled_from([0.5, 1.0, 0.0, 2.5]), caps)
def test_scoring_matches_oracle(selection, lam, cap):
    field, q_ng, q_g, cands = selection
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_selection_matches_oracle(field, cands, q_ng, q_g, lam, cap)
        for c in cands[:2]:
            a = ref.score_pose(field, c.pose, q_ng, q_g, lam=lam)
            b = ref.score_candidate(field, c.pose, q_ng, q_g, lam=lam)
            assert _result_key(a) == _result_key(b)


@SETTINGS
@given(selections(), caps)
def test_lam_zero_is_award_only(selection, cap):
    # award-only scoring is lam = 0: the same pick and confidence bits as
    # ranking on s_a / n_ng with the ground points left out entirely
    field, q_ng, q_g, cands = selection
    with np.errstate(invalid="ignore", over="ignore"):
        want_best, want = ref.select_award_only(field, cands, q_ng, cap)
        thinned = _sets(field, ref._subsample(q_ng, cap), ref._subsample(q_g, cap))
        got_best, got = select_best(field, ref.candidates_of(cands), thinned, lam=0.0)
    assert got_best == want_best
    assert _bits(got.confidence) == _bits(want[want_best])


@SETTINGS
@given(st.data())
def test_coarse_bound_is_never_below_exact(data):
    field = data.draw(fields())
    s = field.s_r
    frame = data.draw(poses)
    # submap-frame points on the collapse's own cell edges and one ulp
    # either side, rows at and just past the coarse limit, and probes
    # taken back from the model frame (edges, far, inf, 1e300, NaN)
    k = np.array(data.draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=30)))
    edges = k * s
    limit = COARSE_LIMIT * s
    sets = [edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf)]
    if data.draw(st.booleans()):
        sets.append(np.array([[limit, -limit], [np.nextafter(limit, math.inf), 0.0]]))
    with np.errstate(invalid="ignore", over="ignore"):
        sets.append(frame.inverse().apply(data.draw(probes(field))))
        q_ng = np.vstack([sets[i] for i in data.draw(st.sets(st.integers(0, len(sets) - 1), min_size=1))])
        # the ground rows set the scratch size, so the chunk size varies
        q_g = frame.inverse().apply(data.draw(probes(field, max_size=200))) if data.draw(st.booleans()) else np.zeros((0, 2))

    far = st.sampled_from([limit, np.nextafter(limit, math.inf), 1e300])
    cands = [
        Candidate(pose, 1, 1, 1)
        for pose in data.draw(
            st.lists(
                st.one_of(
                    st.just(frame),
                    poses,
                    st.builds(Se2Pose, far, st.floats(-3, 3), st.floats(-math.pi, math.pi)),
                ),
                min_size=1,
                max_size=12,
            )
        )
    ]
    lam = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    cap = data.draw(st.sampled_from([None, None, 0, 1, 3, 7, 50]))
    with np.errstate(invalid="ignore", over="ignore"):
        want = ref.select_best(field, cands, q_ng, q_g, lam=lam, max_points=cap)[1]
        coarse, exact = _bounds(field, cands, q_ng, q_g, cap)
    for c, b, r in zip(coarse, exact, want):
        assert c >= b >= r.confidence


def _hot(shape, cell, s_r, origin=(0.0, 0.0)):
    values = np.zeros(shape)
    values[cell] = 1.0
    return ScoreField(values, np.array(origin), s_r)


COARSE_CASES = {
    # a point at the far corner of its cell, turned 45 deg, lands 1.41
    # cells from its cell's corner but 0.71 from the centre
    "far_cell_corner": (_hot((9, 9), (4, 6), 0.2), Se2Pose(0.9, 0.98, math.pi / 4), [[0.1998, 0.1998]]),
    # the far corner of a 2 * s_r cell lies 1.41 cells from the centre;
    # turned 45 deg it reaches the last cell of the 4x4 window, which a
    # 3x3 window about the centre's own cell misses
    "far_double_cell_corner": (_hot((9, 9), (4, 6), 0.2), Se2Pose(0.86, 0.6772, math.pi / 4), [[0.3998, 0.3998]]),
    # a posed centre exactly 1.5 cells past a cell edge: the window starts
    # at that edge, and a point near the cell's near corner lands in the
    # window's first cell
    "centre_on_window_edge": (_hot((9, 9), (3, 3), 0.25), Se2Pose(0.875, 0.875, 0.0), [[0.0002, 0.0002]]),
    # past the limit the rounding of a lookup is no longer small: a pose
    # onto a field 1e15 m out gets the trivial bound
    "far_origin": (_hot((5, 5), (2, 2), 0.2, (1e15, 1e15)), Se2Pose(1e15 + 0.5, 1e15 + 0.5, 0.0), [[0.0, 0.0]]),
    # a row past the limit that a pose within it brings onto the grid
    "loose_row_on_grid": (_hot((46100, 3), (46010, 1), 1e-3), Se2Pose(-33554.0, 0.0, 0.0), [[33600.0105, 0.0015]]),
    # six values of 0.7 sum to 4.2, but 6 * 0.7 rounds to 4.199999999999999
    "sum_rounding": (ScoreField(np.full((3, 3), 0.7), np.zeros(2), 1.0), Se2Pose(0.0, 0.0, 0.0), [[1.5, 1.5]] * 6),
}


@pytest.mark.parametrize("case", sorted(COARSE_CASES))
def test_coarse_bound_where_each_safeguard_counts(case):
    field, pose, q = COARSE_CASES[case]
    coarse, exact = _bounds(field, [Candidate(pose, 1, 1, 1)], np.array(q), np.zeros((0, 2)), None)
    want = ref.score_candidate(field, pose, np.array(q), np.zeros((0, 2)), lam=0.0).confidence
    assert want > 0.0
    assert coarse[0] >= exact[0] >= want


def test_cell_edges_under_rotation_match_oracle():
    # scan points that a rotation puts back onto cell edges: the cell
    # each one lands in follows the last bit of the rotated coordinate,
    # so the rotation must round exactly as Se2Pose.apply does
    rng = np.random.default_rng(11)
    field = ScoreField(rng.uniform(0.05, 1.0, size=(60, 60)), np.array([-6.0, -6.0]), 0.2)
    k = rng.integers(0, 61, size=(5000, 2))
    edges = field.origin + k * field.s_r
    for _ in range(20):
        pose = Se2Pose(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        q = pose.inverse().apply(edges)
        got = ref.score_pose(field, pose, q, q[:100])
        want = ref.score_candidate(field, pose, q, q[:100])
        assert _result_key(got) == _result_key(want)


def test_scoring_matches_oracle_on_a_scene():
    from scan2plan.synthetic import generate_layout, synthesize_submap

    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    x0, y0, x1, y1 = layout.rooms[3]
    gt = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.4)
    scene = synthesize_submap(layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03, seed=4)
    n_wall = scene.deviation_log["n_wall_points"]
    q_ng, q_g = scene.submap.points[:n_wall, :2], scene.submap.points[n_wall:, :2]
    field = build_score_field(layout.wall_model.endpoints())
    rng = np.random.default_rng(0)
    cands = [Candidate(gt, 5, 5, 1)] + [
        Candidate(Se2Pose(gt.x + rng.normal(0, 2), gt.y + rng.normal(0, 2), rng.uniform(-3, 3)), 3, 3, 1)
        for _ in range(20)
    ]
    for cap in (None, 5000, 333):
        for lam in (0.0, 0.5, 1.0, 2.5):
            assert _assert_selection_matches_oracle(field, cands, q_ng, q_g, lam, cap) == 0


def test_coarse_chunk_edges_match_oracle_on_a_scene():
    # the coarse pass runs rows // cells candidates at a time, cells of
    # 2 * s_r: check a last chunk that is partial, chunks of one, and the
    # uncapped rows (65 candidates a chunk here, so 69 candidates)
    from scan2plan.synthetic import generate_layout, synthesize_submap

    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    x0, y0, x1, y1 = layout.rooms[3]
    gt = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.4)
    scene = synthesize_submap(layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03, seed=4)
    n_wall = scene.deviation_log["n_wall_points"]
    q_ng, q_g = scene.submap.points[:n_wall, :2], scene.submap.points[n_wall:, :2]
    assert q_ng.shape[0] > 30000
    field = build_score_field(layout.wall_model.endpoints())
    rng = np.random.default_rng(5)
    cands = [Candidate(gt, 5, 5, 1)] + [
        Candidate(Se2Pose(gt.x + rng.normal(0, 1), gt.y + rng.normal(0, 1), gt.yaw + rng.normal(0, 0.2)), 3, 3, 1)
        for _ in range(68)
    ]
    chunks = []
    for cap, lam in ((None, 0.5), (5000, 2.5), (333, 0.0)):
        sets = _sets(field, ref._subsample(q_ng, cap), ref._subsample(q_g, cap))
        chunks.append(max(sets.q_ng.shape[0], sets.q_g.shape[0]) // sets.centres.shape[0])
        assert _assert_selection_matches_oracle(field, cands, q_ng, q_g, lam, cap) == 0
    assert chunks[2] == 1
    assert all(1 < c < len(cands) and len(cands) % c for c in chunks[:2])


# --- vote clustering ---


@st.composite
def vote_grids(draw):
    """Blobs of occupied cells, some straddling the yaw wrap, with random
    sums, about a pivot of whole metres."""
    n_yaw = draw(st.sampled_from([360, 12, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cells = []
    for _ in range(draw(st.integers(1, 5))):
        center = np.array([rng.integers(-50, 50), rng.integers(-50, 50), rng.integers(0, n_yaw)])
        if draw(st.booleans()):
            center[2] = draw(st.sampled_from([0, n_yaw - 1]))  # on the wrap
        size = draw(st.integers(1, 40))
        off = rng.integers(-2, 3, size=(size, 3))
        blob = center + off
        blob[:, 2] %= n_yaw
        cells.append(blob)
    cells = np.unique(np.concatenate(cells), axis=0)
    n = cells.shape[0]
    counts = rng.integers(1, 6, size=n).astype(np.int64)
    sums = _mixed_sums(rng, counts)
    for s in sums:  # signed zeros, which a one-cell sum turns into +0.0
        s[rng.uniform(size=n) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    pivot = tuple(float(draw(st.integers(-10**4, 10**4))) for _ in "xy")
    return _grid(cells, n_yaw, counts, sums, pivot)


def _mixed_sums(rng, counts):
    """Four per-cell pose sums of mixed magnitude, so summation order
    shows in the last bits."""
    n = counts.shape[0]
    return [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n) * counts for _ in range(4)]


def _grid(cells, n_yaw, counts, sums, pivot=(0.0, 0.0)) -> VoteGrid:
    """A VoteGrid over unique (ix, iy, iyaw) rows, packed as cast_votes does."""
    ix, iy, iyaw = cells.T
    origin = (int(ix.min()) - 1, int(iy.min()) - 1)
    dims = (int(ix.max()) - origin[0] + 2, int(iy.max()) - origin[1] + 2, n_yaw)
    packed = np.ravel_multi_index((ix - origin[0], iy - origin[1], iyaw), dims)
    order = np.argsort(packed)
    return VoteGrid(dims, packed[order], counts[order], *(s[order] for s in sums), pivot=pivot)


def _cand_key(c):
    return (_bits([c.pose.x, c.pose.y, c.pose.yaw]), c.votes, c.merged_score, c.n_cells)


# None is the oracle's "keep everything"; the package takes the grid's
# cell count in its place
limits = st.one_of(st.none(), st.integers(1, 60))


def _or_every_cell(grid, *limits):
    return [grid.packed.shape[0] if limit is None else limit for limit in limits]


@SETTINGS
@given(vote_grids())
def test_neighbor_table_matches_oracle(grid):
    got = _neighbor_table(grid)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref._neighbor_table(grid))


@SETTINGS
@given(vote_grids(), limits, limits, limits)
def test_hierarchical_vote_matches_oracle(grid, l_cells, k_cells, j_candidates):
    if l_cells is not None and k_cells is not None and k_cells > l_cells:
        k_cells = l_cells
    want = ref.hierarchical_vote(grid, l_cells, k_cells, j_candidates)
    got = hierarchical_vote(grid, *_or_every_cell(grid, l_cells, k_cells, j_candidates))
    assert isinstance(got, Candidates) and len(got) == len(want)
    assert got.xyt.dtype == np.float64 and got.xyt.shape == (len(want), 3)
    assert [_cand_key(got[k]) for k in range(len(got))] == [_cand_key(c) for c in want]
    best = int(np.lexsort((grid.packed, -grid.counts))[0])
    pose, votes = ref.vanilla_vote(grid)
    want_pose = ref._cell_pose(grid, np.array([best]))
    assert _bits([pose.x, pose.y, pose.yaw]) == _bits([want_pose.x, want_pose.y, want_pose.yaw])
    assert votes == int(grid.counts[best])


@SETTINGS
@given(vote_grids(), limits, limits, st.integers(1, 60))
def test_top_j_candidates_are_a_prefix_of_every_group(grid, l_cells, k_cells, j_candidates):
    # J only cuts the ranking: the top j rows keep every bit of the run
    # that returns every group
    l_cells, k_cells = _or_every_cell(grid, l_cells, k_cells)
    k_cells = min(k_cells, l_cells)
    every = hierarchical_vote(grid, l_cells, k_cells, grid.packed.shape[0])
    top = hierarchical_vote(grid, l_cells, k_cells, j_candidates)
    assert len(every) >= 1  # a grid with a vote yields a candidate under any limits
    assert len(top) == min(j_candidates, len(every))
    for name in ("xyt", "votes", "merged_score", "n_cells"):
        got, want = getattr(top, name), getattr(every, name)[:j_candidates]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@SETTINGS
@given(st.data())
def test_selection_over_top_j_keeps_the_exhaustive_winner(data):
    # a winner ranked below j keeps its index and result bits; one ranked
    # at j or beyond can only leave a lower confidence behind
    grid = data.draw(vote_grids())
    field = data.draw(fields())
    q_ng = data.draw(probes(field))
    q_g = data.draw(probes(field)) if data.draw(st.booleans()) else np.zeros((0, 2))
    lam = data.draw(st.sampled_from([0.0, 0.5, 2.5]))
    cands = hierarchical_vote(grid, *_or_every_cell(grid, None, None, None))
    j = data.draw(st.integers(1, len(cands)))
    with np.errstate(invalid="ignore", over="ignore"):
        sets = _sets(field, q_ng, q_g)
        want_best, want = select_best(field, cands, sets, lam=lam)
        got_best, got = select_best(field, cands[:j], sets, lam=lam)
    if want_best < j:
        assert got_best == want_best
        assert _result_key(got) == _result_key(want)
    else:
        assert got.confidence <= want.confidence


def test_component_across_the_yaw_wrap():
    # one dense blob on the wrap: a component well past 8 cells
    rng = np.random.default_rng(7)
    cells = np.unique(np.array([[0, 0, 359]]) + rng.integers(-2, 3, size=(60, 3)), axis=0)
    cells[:, 2] %= 360
    cells = np.unique(cells, axis=0)
    counts = np.ones(cells.shape[0], np.int64)
    grid = _grid(cells, 360, counts, _mixed_sums(rng, counts))
    got = hierarchical_vote(grid, *_or_every_cell(grid, None, None, None))
    assert max(c.n_cells for c in got) > 8
    assert [_cand_key(c) for c in got] == [_cand_key(c) for c in ref.hierarchical_vote(grid, None, None, None)]


@SETTINGS
@given(st.data())
def test_selection_over_candidate_arrays_matches_oracle(data):
    # select_best over hierarchical_vote's arrays picks the oracle's index
    # over the oracle's Candidate list, with the same result bits; the
    # grids' poses lie mostly off the field, so ties and the vote and
    # pose tie-break are common
    grid = data.draw(vote_grids())
    field = data.draw(fields())
    q_ng = data.draw(probes(field))
    q_g = data.draw(probes(field)) if data.draw(st.booleans()) else np.zeros((0, 2))
    lam, cap = data.draw(st.sampled_from([0.0, 0.5, 2.5])), data.draw(caps)
    j_candidates = data.draw(limits)
    cands = hierarchical_vote(grid, *_or_every_cell(grid, None, None, j_candidates))
    want_cands = ref.hierarchical_vote(grid, None, None, j_candidates)
    with np.errstate(invalid="ignore", over="ignore"):
        want_best, want = ref.select_best(field, want_cands, q_ng, q_g, lam=lam, max_points=cap)
        thinned = _sets(field, ref._subsample(q_ng, cap), ref._subsample(q_g, cap))
        got_best, got = select_best(field, cands, thinned, lam=lam)
    assert got_best == want_best
    assert _result_key(got) == _result_key(want[want_best])


def test_selection_over_candidate_arrays_matches_oracle_on_a_scene():
    # the package's vote arrays against the oracle's Candidate list, from
    # the correspondences of a real scan against its floor
    from scan2plan.config import PipelineConfig
    from scan2plan.descriptors import query_correspondences
    from scan2plan.pipeline import build_floor_index, extract_submap_features
    from scan2plan.synthetic import generate_layout, synthesize_submap
    from scan2plan.voting import cast_votes

    cfg = PipelineConfig()
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    x0, y0, x1, y1 = layout.rooms[3]
    gt = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.4)
    scene = synthesize_submap(layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03, seed=4)
    feats = extract_submap_features(scene.submap, cfg)
    floor = build_floor_index(layout.wall_model, cfg)
    grid = cast_votes(query_correspondences(floor.db, feats.triplets), cfg.r_xy, cfg.r_yaw_deg, cfg.residual_max_m)
    cands = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
    want_cands = ref.hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
    assert len(cands) == len(want_cands) > 1
    for lam in (0.0, 0.5):
        want_best, want = ref.select_best(floor.field, want_cands, feats.q_ng_xy, feats.q_g_xy, lam=lam)
        got_best, got = select_best(floor.field, cands, feats.scoring, lam=lam)
        assert got_best == want_best
        assert _result_key(got) == _result_key(want[want_best])
