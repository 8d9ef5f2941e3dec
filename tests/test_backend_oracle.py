"""Property tests: bordered-field scoring and grouped clustering against the oracle.

`scalar_backend` keeps the original masked lookup, exhaustive
per-candidate scoring and per-component clustering. Every comparison
here is bitwise: field values, award and penalty sums, confidences, the
chosen index and the winner's result (the package's pruned selection
against the exhaustive oracle, with every candidate's coarse bound at or
above its exact phase-1 bound, and that at or above its exact
confidence; at lam = 0 also against the award-only oracle), and every
candidate's pose, votes, merged score and cell count. Point sets put
coordinates exactly on cell edges, one ulp either side of the grid's
bounds, far outside it, NaN, and beyond the int64 range of cell indices.
Vote grids grow components of more than 8 cells (where pairwise
summation departs from a running sum) across the yaw wrap.
"""

import math

import numpy as np
import pytest
import scalar_backend as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from scan2plan.geometry import Se2Pose
from scan2plan.verify import (
    COARSE_LIMIT,
    ScoreField,
    _coarse_bounds,
    _collapse,
    _prepare,
    build_score_field,
    score_candidate,
    select_best,
)
from scan2plan.voting import Candidate, VoteGrid, hierarchical_vote, vanilla_vote

SETTINGS = settings(max_examples=80, deadline=None, database=None, derandomize=True)
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
    assert _bits(field.value_at(pts)) == _bits(want)


def _bounds(field, cands, q_ng, q_g, cap):
    """(coarse, exact phase-1) bounds of every candidate."""
    q_ng, _, buf, idx = _prepare(q_ng, q_g, cap)
    coarse = _coarse_bounds(field, [c.pose for c in cands], q_ng, buf, idx)
    return coarse.tolist(), [ref.award_only(field, c.pose, q_ng) for c in cands]


def _assert_selection_matches_oracle(field, cands, q_ng, q_g, lam, cap) -> int:
    """The pruned selection picks the exhaustive oracle's index with the
    same result bits, and for every candidate coarse bound >= phase-1
    bound >= exact confidence."""
    want_best, want = ref.select_best(field, cands, q_ng, q_g, lam=lam, max_points=cap)
    got_best, got = select_best(field, cands, q_ng, q_g, lam=lam, max_points=cap)
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


caps = st.sampled_from([None, None, 1, 3, 7])


@SETTINGS
@given(selections(), st.sampled_from([0.5, 1.0, 0.0, 2.5]), caps)
def test_scoring_matches_oracle(selection, lam, cap):
    field, q_ng, q_g, cands = selection
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_selection_matches_oracle(field, cands, q_ng, q_g, lam, cap)
        for c in cands[:2]:
            a = score_candidate(field, c.pose, q_ng, q_g, lam=lam)
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
        got_best, got = select_best(field, cands, q_ng, q_g, lam=0.0, max_points=cap)
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
    cap = data.draw(st.sampled_from([None, None, 1, 3, 7, 50]))
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
        got = score_candidate(field, pose, q, q[:100])
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
    # the coarse pass runs rows // cells candidates at a time: check a
    # last chunk that is partial, chunks of one, and the uncapped rows
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
        for _ in range(29)
    ]
    chunks = []
    for cap, lam in ((None, 0.5), (5000, 2.5), (333, 0.0)):
        _, _, buf, _ = prepared = _prepare(q_ng, q_g, cap)
        chunks.append(buf.shape[0] // _collapse(prepared[0], field.s_r, buf)[0].shape[0])
        assert _assert_selection_matches_oracle(field, cands, q_ng, q_g, lam, cap) == 0
    assert chunks[2] == 1
    assert all(1 < c < len(cands) and len(cands) % c for c in chunks[:2])


# --- vote clustering ---


@st.composite
def vote_grids(draw):
    """Blobs of occupied cells, some straddling the yaw wrap, with random sums."""
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
    return _grid(cells, n_yaw, counts, sums)


def _mixed_sums(rng, counts):
    """Four per-cell pose sums of mixed magnitude, so summation order
    shows in the last bits."""
    n = counts.shape[0]
    return [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n) * counts for _ in range(4)]


def _grid(cells, n_yaw, counts, sums) -> VoteGrid:
    """A VoteGrid over unique (ix, iy, iyaw) rows, packed as cast_votes does."""
    ix, iy, iyaw = cells.T
    origin = (int(ix.min()) - 1, int(iy.min()) - 1)
    dims = (int(ix.max()) - origin[0] + 2, int(iy.max()) - origin[1] + 2, n_yaw)
    packed = np.ravel_multi_index((ix - origin[0], iy - origin[1], iyaw), dims)
    order = np.argsort(packed)
    return VoteGrid(origin, dims, packed[order], counts[order], *(s[order] for s in sums))


def _cand_key(c):
    return (_bits([c.pose.x, c.pose.y, c.pose.yaw]), c.votes, c.merged_score, c.n_cells)


limits = st.one_of(st.none(), st.integers(1, 60))


@SETTINGS
@given(vote_grids(), limits, limits, limits)
def test_hierarchical_vote_matches_oracle(grid, l_cells, k_cells, j_candidates):
    if l_cells is not None and k_cells is not None and k_cells > l_cells:
        k_cells = l_cells
    want = ref.hierarchical_vote(grid, l_cells, k_cells, j_candidates)
    got = hierarchical_vote(grid, l_cells, k_cells, j_candidates)
    assert [_cand_key(c) for c in got] == [_cand_key(c) for c in want]
    best = int(np.lexsort((grid.packed, -grid.counts))[0])
    pose, votes = vanilla_vote(grid)
    want_pose = ref._cell_pose(grid, np.array([best]))
    assert _bits([pose.x, pose.y, pose.yaw]) == _bits([want_pose.x, want_pose.y, want_pose.yaw])
    assert votes == int(grid.counts[best])


def test_component_across_the_yaw_wrap():
    # one dense blob on the wrap: a component well past 8 cells
    rng = np.random.default_rng(7)
    cells = np.unique(np.array([[0, 0, 359]]) + rng.integers(-2, 3, size=(60, 3)), axis=0)
    cells[:, 2] %= 360
    cells = np.unique(cells, axis=0)
    counts = np.ones(cells.shape[0], np.int64)
    grid = _grid(cells, 360, counts, _mixed_sums(rng, counts))
    got = hierarchical_vote(grid, None, None, None)
    assert max(c.n_cells for c in got) > 8
    assert [_cand_key(c) for c in got] == [_cand_key(c) for c in ref.hierarchical_vote(grid, None, None, None)]
