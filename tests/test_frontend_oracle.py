"""Property tests: the array front end against the scalar oracle.

`scalar_frontend` keeps the original front end: patches that copy their
points, union-find merging and chaining, the per-patch gravity test, a
Hough detector with the full rho table, the per-pair corner loop, and
the byte-hash ground mask. Every comparison here is bitwise: patch rows,
planes and cell boxes; merged groups; patch classes; segment endpoints;
corner positions, wall directions, support and order; the ground mask.
Patch normals sit within a few ulp of the classification thresholds.
Rasters mix random pixels with
lines, vote ties (mirror-symmetric shapes), runs exactly l_min_px long
and pixel centers exactly band_px from a peak's rho. Corner inputs put
candidates exactly nms_radius_m apart, crossings exactly at the
min_angle_deg sine, and intersections exactly extend_m past a wall end.
"""

import numpy as np
import scalar_frontend as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scan2plan.config import PipelineConfig
from scan2plan.geometry import LineSegment2, Se2Pose
from scan2plan.graph import connected_groups
from scan2plan.lines import BevRaster, detect_segments, extract_corners, merge_refit, rasterize_points
from scan2plan.pipeline import extract_submap_features
from scan2plan.planes import Patches, classify_patches, merge_patches, segment_planes
from scan2plan.synthetic import generate_layout, synthesize_submap

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)
GRAVITY = np.array([0.0, 0.0, -1.0])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _ends(segments):
    """(S, 2, 2) endpoint array of a LineSegment2 list."""
    return np.array([(s.p0, s.p1) for s in segments]).reshape(-1, 2, 2)


def _assert_segments_match(got, want):
    """A package (S, 2, 2) array equals the oracle's LineSegment2 list bitwise."""
    assert got.shape == (len(want), 2, 2)
    assert _bits(got) == _bits(_ends(want))


# --- rasters ---


@st.composite
def rasters(draw):
    nx, ny = draw(st.integers(8, 90)), draw(st.integers(8, 90))
    grid = np.zeros((nx, ny), dtype=bool)
    l_min = draw(st.sampled_from([4, 6, 10, 30]))
    kind = draw(st.sampled_from(["lines", "exact_run", "ties", "single_line", "noise"]))
    if kind == "exact_run":
        # runs of exactly l_min and l_min - 1 px along x and y
        i0, j0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        grid[i0 : i0 + l_min + 1, j0] = True
        grid[i0, j0 : j0 + l_min] = True
    elif kind == "ties":
        # a mirror-symmetric square outline: its sides tie in votes
        c = draw(st.integers(3, min(nx, ny) // 2))
        grid[c : nx - c, c] = grid[c : nx - c, ny - c - 1] = True
        grid[c, c : ny - c] = grid[nx - c - 1, c : ny - c] = True
    elif kind == "single_line":
        # one straight run that claims every pixel
        i0 = draw(st.integers(0, nx - 1))
        grid[i0, :] = True
    n_lines = draw(st.integers(0, 4)) if kind in ("lines", "noise") else draw(st.integers(0, 1))
    for _ in range(n_lines):
        a = np.array([draw(st.floats(0, nx - 1)), draw(st.floats(0, ny - 1))])
        b = np.array([draw(st.floats(0, nx - 1)), draw(st.floats(0, ny - 1))])
        t = np.linspace(0.0, 1.0, 4 * (nx + ny))
        ij = np.floor(a + t[:, None] * (b - a)).astype(int)
        grid[ij[:, 0], ij[:, 1]] = True
    if kind == "noise":
        seed = draw(st.integers(0, 2**16))
        grid |= np.random.default_rng(seed).random((nx, ny)) < draw(st.sampled_from([0.02, 0.1, 0.3]))
    if not grid.any():
        grid[0, 0] = True
    origin = np.array([draw(st.sampled_from([0.0, -1.5, 2.25])), draw(st.sampled_from([0.0, 3.75]))])
    raster = BevRaster(grid, origin, draw(st.sampled_from([60.0, 20.0])))
    params = dict(
        l_min_px=l_min,
        gap_px=draw(st.sampled_from([5.0, 2.0, 1.0])),
        # a pixel center sits k + 0.5 px from an integer rho at theta 0
        band_px=draw(st.sampled_from([5.0, 4.5, 2.5, 1.5, 0.5])),
        theta_bins=draw(st.sampled_from([180, 90, 36, 7])),
    )
    return raster, params


@SETTINGS
@given(rasters())
def test_detect_segments_matches_oracle(case):
    raster, params = case
    _assert_segments_match(detect_segments(raster, **params), ref.detect_segments(raster, **params))


def test_all_claimed_raster_matches_oracle():
    grid = np.zeros((40, 40), dtype=bool)
    grid[5:35, 7] = True
    raster = BevRaster(grid, np.zeros(2), 60.0)
    got = detect_segments(raster, l_min_px=10)
    assert len(got) == 1
    _assert_segments_match(got, ref.detect_segments(raster, l_min_px=10))


# --- segment chaining ---

coord = st.one_of(st.floats(-10.0, 10.0), st.integers(-40, 40).map(lambda i: i * 0.25))


@st.composite
def segment_sets(draw):
    segs = []
    for _ in range(draw(st.integers(0, 12))):
        a = np.array([draw(coord), draw(coord)])
        if segs and draw(st.booleans()):
            # continue a previous segment's line; axis-aligned ones on quarter
            # coordinates put the endpoint gap exactly at the tolerance
            prev = segs[draw(st.integers(0, len(segs) - 1))]
            d = ref.unit_direction(prev)
            a = prev.p1 + draw(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5])) * d
        elif draw(st.booleans()):
            d = np.array(draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])))
        else:
            ang = draw(st.floats(0.0, np.pi))
            d = np.array([np.cos(ang), np.sin(ang)])
        length = draw(st.one_of(st.integers(1, 16).map(lambda i: i * 0.25), st.floats(0.1, 5.0)))
        segs.append(LineSegment2(a, a + length * d))
    return segs


@SETTINGS
@given(segment_sets(), st.sampled_from([0.3, 0.25, 1.0]), st.sampled_from([5.0, 1.0, 30.0]))
def test_merge_refit_matches_oracle(segs, tol, angle):
    _assert_segments_match(merge_refit(_ends(segs), tol, angle), ref.merge_refit(segs, tol, angle))


@SETTINGS
@given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40))
def test_connected_groups_match_union_find(n, edges):
    edges = [(a, b) for a, b in edges if a < n and b < n]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in edges:
        parent[find(b)] = find(a)
    want = {}
    for i in range(n):
        want.setdefault(find(i), []).append(i)
    i = np.array([a for a, _ in edges], dtype=np.int64)
    j = np.array([b for _, b in edges], dtype=np.int64)
    assert [g.tolist() for g in connected_groups(n, i, j)] == list(want.values())


# --- corners ---


def _assert_corners_match(got, want):
    """`Corners` rows equal the oracle's `Corner` list bitwise, in order."""
    assert len(got) == len(want)
    assert _bits(got.pos) == _bits([c.position for c in want])
    assert _bits(got.dirs) == _bits([c.dirs for c in want])
    assert _bits(got.support) == _bits([c.support for c in want])


def _hseg(y, a, b):
    """Wall along x at height y, from x = a to x = b."""
    return LineSegment2(np.array([a, y]), np.array([b, y]))


def _vseg(x, a, b):
    """Wall along y at x, from y = a to y = b."""
    return LineSegment2(np.array([x, a]), np.array([x, b]))


@st.composite
def corner_cases(draw):
    """(segments, extend_m, nms_radius_m, min_angle_deg)."""
    extend = draw(st.sampled_from([1.0, 0.5, 0.25, 0.0]))
    radius = draw(st.sampled_from([0.5, 0.25, 1.0]))
    min_angle = draw(st.sampled_from([10.0, 90.0, 45.0, 1.0]))
    kind = draw(st.sampled_from(["lattice", "bounds", "chains"]))
    if kind == "lattice":
        # axis-aligned walls on a 0.5 m lattice: candidates exactly 0.5 m
        # apart, exactly perpendicular, and many equal supports
        segs = []
        for _ in range(draw(st.integers(0, 8))):
            a, b = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2, unique=True))
            wall = _hseg if draw(st.booleans()) else _vseg
            segs.append(wall(draw(st.integers(-4, 4)) * 0.5, a * 0.5, b * 0.5))
    elif kind == "bounds":
        # walls across a wall along x from 0 to length, meeting its line at
        # t = x and their own at u = -y0: both exactly at or just past the
        # -extend_m and length + extend_m bounds
        length = draw(st.integers(1, 8)) * 0.5
        segs = [LineSegment2(np.array([0.0, 0.0]), np.array([length, 0.0]))]
        for _ in range(draw(st.integers(1, 4))):
            other = draw(st.integers(1, 8)) * 0.5
            x = draw(st.sampled_from([-extend, length + extend, -extend - 0.25, length + extend + 0.25, length / 2]))
            y0 = draw(st.sampled_from([extend, -other - extend, extend + 0.25, -other - extend - 0.25, -other / 2]))
            segs.append(_vseg(x, y0, y0 + other))
    else:
        segs = draw(segment_sets())
    if segs and draw(st.booleans()):
        # a duplicate, a reversed copy, or a parallel copy of a drawn wall
        s = segs[draw(st.integers(0, len(segs) - 1))]
        shift = draw(st.sampled_from([0.0, 0.25, 0.5]))
        p0, p1 = (s.p1, s.p0) if draw(st.booleans()) else (s.p0, s.p1)
        segs.append(LineSegment2(p0 + shift, p1 + shift))
    if segs and draw(st.booleans()):
        segs = [segs[k] for k in draw(st.permutations(range(len(segs))))]
    return segs, extend, radius, min_angle


@settings(SETTINGS, max_examples=300)
@given(corner_cases())
@example(([], 1.0, 0.5, 10.0))
@example(([_hseg(0.0, 0.0, 2.0)], 1.0, 0.5, 10.0))
@example(([_hseg(0.0, 0.0, 2.0), _vseg(1.0, -1.0, 1.0)], 1.0, 0.5, 90.0))  # |cross| == sin_min
@example(([_hseg(0.0, 0.0, 2.0), _vseg(-1.0, 1.0, 3.0)], 1.0, 0.5, 10.0))  # t == u == -extend_m
@example(([_hseg(0.0, 0.0, 2.0), _vseg(3.0, -4.0, -1.0)], 1.0, 0.5, 10.0))  # t, u == length + extend_m
@example(([_hseg(0.0, -1.0, 1.0), _hseg(0.5, -1.0, 1.0), _vseg(0.0, -1.0, 1.0)], 1.0, 0.5, 10.0))  # 0.5 m apart
def test_extract_corners_matches_oracle(case):
    segs, extend, radius, min_angle = case
    got = extract_corners(_ends(segs), extend, radius, min_angle)
    _assert_corners_match(got, ref.extract_corners(segs, extend, radius, min_angle))


# --- planes and the ground mask ---


@st.composite
def point_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(4, 400))
        uv = rng.uniform(0.0, draw(st.sampled_from([1.0, 3.0, 6.0])), size=(n, 2))
        if draw(st.booleans()):
            uv = np.round(uv * 4.0) / 4.0  # on cell boundaries
        kind = draw(st.sampled_from(["floor", "wall_x", "wall_y", "tilted", "blob"]))
        off = np.array([draw(st.integers(-4, 4)), draw(st.integers(-4, 4)), draw(st.integers(-1, 2))], float)
        if kind == "floor":
            p = np.column_stack([uv, np.zeros(n)])
        elif kind == "wall_x":
            p = np.column_stack([uv[:, 0], np.zeros(n), uv[:, 1]])
        elif kind == "wall_y":
            p = np.column_stack([np.zeros(n), uv[:, 0], uv[:, 1]])
        elif kind == "tilted":
            p = np.column_stack([uv, 0.6 * uv[:, 0]])
        else:
            p = rng.normal(scale=0.5, size=(n, 3))
        p = p + off + rng.normal(scale=draw(st.sampled_from([0.0, 0.005, 0.03])), size=p.shape)
        blocks.append(p)
    pts = np.vstack(blocks)
    if draw(st.booleans()):  # bit-identical duplicates of some rows
        pts = np.vstack([pts, pts[rng.integers(0, pts.shape[0], 20)]])
    return pts[rng.permutation(pts.shape[0])]


def _rows(block):
    """A point block as a sorted list of row bytes: its rows as a multiset."""
    return sorted(bytes(r) for r in np.ascontiguousarray(block, dtype=np.float64))


def _assert_patches_match(got, want, pts):
    """`Patches` rows equal the oracle's patch list bitwise, in order.

    Each patch's labelled rows compare as a multiset; its block of
    `Patches.rows` lists them in the oracle's order (member order for a
    merged patch), bitwise, as do the refit planes.
    """
    assert len(got) == len(want)
    assert got.label.shape == (pts.shape[0],)
    starts = got.starts()
    assert starts[-1] == got.rows.shape[0] == np.count_nonzero(got.label >= 0)
    for k, w in enumerate(want):
        block = got.rows[starts[k] : starts[k + 1]]
        assert np.all(got.label[block] == k)
        assert _rows(pts[got.label == k]) == _rows(w.points)
        assert _bits(pts[block]) == _bits(w.points)
        for name in ("centroid", "normal", "eigenvalues", "cell_lo", "cell_hi"):
            assert _bits(getattr(got, name)[k]) == _bits(getattr(w, name)), name


def _positions(groups, patches):
    """Each oracle group as a list of positions in `patches`."""
    at = {id(p): k for k, p in enumerate(patches)}
    return [[at[id(p)] for p in group] for group in groups]


@SETTINGS
@given(point_sets(), st.sampled_from([2.0, 1.0, 0.5]), st.sampled_from([10.0, 3.0]))
def test_planes_and_ground_mask_match_oracle(pts, s_v, sigma):
    seg = segment_planes(pts, s_v, sigma)
    want = ref.segment_planes(pts, s_v, sigma)
    assert (seg.n_points, seg.n_unassigned) == (want.n_points, want.n_unassigned)
    _assert_patches_match(seg.patches, want.patches, pts)

    merged = merge_patches(seg.patches, pts, 10.0, 0.1)
    want_merged = ref.merge_patches(want.patches, 10.0, 0.1)
    _assert_patches_match(merged, want_merged, pts)
    kinds = classify_patches(merged, GRAVITY)
    want_kinds = ref.classify_patches(want_merged, GRAVITY)
    assert [k.tolist() for k in kinds] == _positions(want_kinds, want_merged)
    mask = merged.mask(kinds[1])
    assert np.array_equal(mask, ref._ground_mask(pts, want_kinds[1]))


@st.composite
def classify_cases(draw):
    """(normals, gravity, tol): unit normals, many within 3 ulp of a threshold.

    A normal's dot with gravity is put at cos(tol) or sin(tol) plus k
    ulp, k in [-3, 3], or drawn uniformly. Gravity is either straight
    down, so the dot is exact, or a random direction, where the rows'
    rounding decides the class.
    """
    tol = draw(st.sampled_from([15.0, 5.0, 30.0, 45.0, 60.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    g = GRAVITY if draw(st.booleans()) else rng.normal(size=3)
    g = g / np.linalg.norm(g)
    n = draw(st.integers(1, 300))
    perp = np.cross(g, rng.normal(size=(n, 3)))
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    z = rng.choice([np.cos(np.radians(tol)), np.sin(np.radians(tol))], n)
    z += rng.integers(-3, 4, n) * np.spacing(z)
    z = np.where(rng.random(n) < draw(st.sampled_from([1.0, 0.5, 0.0])), z, rng.uniform(0.0, 1.0, n))
    z *= rng.choice([-1.0, 1.0], n)
    normals = z[:, None] * g + np.sqrt(1.0 - z * z)[:, None] * perp
    return normals, g * draw(st.sampled_from([1.0, 9.81])), tol


@settings(SETTINGS, max_examples=200)
@given(classify_cases())
def test_classify_patches_matches_oracle(case):
    normals, gravity, tol = case
    none = np.zeros_like(normals)
    rows = np.zeros(0, dtype=np.int64)
    got = classify_patches(Patches(rows, rows, none, normals, none, none, none), gravity, tol)
    patches = [ref.PlanarPatch(None, None, nrm, None, None, None) for nrm in normals]
    want = ref.classify_patches(patches, gravity, tol)
    assert [k.tolist() for k in got] == _positions(want, patches)


# --- whole front end on a synthetic scan ---


def test_front_end_matches_oracle_on_scene():
    cfg = PipelineConfig()
    layout = generate_layout(seed=2, n_rooms=4, corridor=True, extent_m=24.0)
    scene = synthesize_submap(
        layout.wall_model, Se2Pose(6.0, 5.0, 0.3), radius_m=10.0, seed=11,
        drop_wall_frac=0.2, clutter_frac=0.1,
    )
    pts = scene.submap.points
    feats = extract_submap_features(scene.submap, cfg)

    seg = ref.segment_planes(pts, cfg.s_v, cfg.sigma_lambda)
    patches = ref.merge_patches(seg.patches, cfg.normal_tol_deg, cfg.dist_tol_m)
    walls, ground, _ = ref.classify_patches(patches, scene.submap.gravity, cfg.gravity_tol_deg)
    mask = ref._ground_mask(pts, ground)
    raster = rasterize_points(np.concatenate([p.points[:, :2] for p in walls]), cfg.s_i)
    segments = ref.detect_segments(raster, cfg.l_min_px, cfg.gap_px, cfg.band_px, cfg.theta_bins)
    segments = ref.merge_refit(segments, cfg.endpoint_tol_m, cfg.angle_tol_deg)
    corners = ref.extract_corners(segments, cfg.extend_m, cfg.nms_radius_m, cfg.min_angle_deg)

    assert len(corners) >= 4
    _assert_corners_match(feats.corners, corners)
    assert _bits(feats.q_g_xy) == _bits(pts[mask][:, :2])
    assert _bits(feats.q_ng_xy) == _bits(pts[~mask][:, :2])
