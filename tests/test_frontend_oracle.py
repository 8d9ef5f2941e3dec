"""Property tests: the array front end against the scalar oracle.

`scalar_frontend` keeps the original front end: patches that copy their
points, union-find merging and chaining, the per-patch gravity test,
wall runs cut one patch at a time, the per-pair corner loop, and the
byte-hash ground mask. Every comparison here is bitwise: patch rows,
moments, planes and cell boxes; touching box pairs; merged groups; patch classes; segment
endpoints; corner positions, wall directions, support and order; the
ground mask, through the scoring sets thinned as the back-end oracle's
`_subsample` thins the masked rows.
Patch normals sit within a few ulp of the classification thresholds.
Wall runs hold gaps exactly RUN_GAP_M and one ulp over it, and runs
exactly MIN_RUN_M long. Corner inputs put
candidates exactly nms_radius_m apart, crossings exactly at the
min_angle_deg sine, and intersections exactly extend_m past a wall end.
"""

import numpy as np
import scalar_frontend as ref
from scalar_backend import _subsample
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scan2plan.config import PipelineConfig
from scan2plan.geometry import LineSegment2, Se2Pose
from scan2plan.graph import connected_labels
from scan2plan.lines import MIN_RUN_M, RUN_GAP_M, extract_corners, merge_refit, patch_segments
from scan2plan.pipeline import extract_submap_features
from scan2plan.planes import Patches, _touching_pairs, classify_patches, merge_patches, segment_planes
from scan2plan.synthetic import generate_layout, synthesize_submap

SETTINGS = settings(max_examples=60)
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


# --- wall runs ---


@st.composite
def wall_patches(draw):
    """Oracle wall patches whose point runs sit at the gap and length limits.

    A patch's points lie along its line at offsets built from steps of
    exactly RUN_GAP_M, RUN_GAP_M + 2**-20 and multiples of 1/8 m, with
    runs exactly MIN_RUN_M long cut off on both sides. Axis-aligned
    normals and quarter-metre centroids keep those offsets exact in the
    projections (for dyadic limits such as the defaults); angled normals,
    random steps and off-line scatter exercise general rounding.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    over = RUN_GAP_M + 2.0**-20
    k = int(np.ceil(MIN_RUN_M / RUN_GAP_M))
    patches = []
    for _ in range(draw(st.integers(0, 6))):
        axis = draw(st.booleans())
        if axis:
            normal = np.array(draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])) + (0.0,))
        else:
            ang = draw(st.floats(0.0, 2 * np.pi))
            normal = np.array([np.cos(ang), np.sin(ang), draw(st.sampled_from([0.0, 0.1]))])
        centroid = np.array([draw(st.integers(-40, 40)) * 0.25, draw(st.integers(-40, 40)) * 0.25, 1.0])
        steps = [draw(st.integers(-8, 8)) * 0.25]
        for _ in range(draw(st.integers(0, 30))):
            step = draw(st.sampled_from(["gap", "over", "run", "eighths", "random"]))
            if step == "gap":
                steps.append(RUN_GAP_M)
            elif step == "over":
                steps.append(over)
            elif step == "run":
                steps += [over] + [MIN_RUN_M / k] * k + [over]
            elif step == "eighths" or axis:
                steps.append(draw(st.integers(0, 12)) * 0.125)
            else:
                steps.append(draw(st.floats(0.0, 1.5)))
        t = np.cumsum(steps)
        u = np.array([-normal[1], normal[0]]) / np.hypot(normal[0], normal[1])
        off = 0.0 if axis else rng.normal(scale=0.02, size=t.shape)
        xy = centroid[:2] + t[:, None] * u + np.multiply.outer(off, normal[:2])
        points = np.column_stack([xy, rng.uniform(0.0, 2.5, t.shape)])
        patches.append(ref.PlanarPatch(points, t.shape[0], None, None, centroid, normal, None, None, None))
    return patches, draw(st.integers(0, 2**16))


def _one_point_patch(t0):
    """A wall patch of zero steps: one point, t0 along its line through (1, 2)."""
    centroid, normal = np.array([1.0, 2.0, 1.0]), np.array([1.0, 0.0, 0.0])
    points = np.array([[1.0, 2.0 + t0, 0.5]])
    return ref.PlanarPatch(points, 1, None, None, centroid, normal, None, None, None)


@settings(SETTINGS, max_examples=200)
@given(wall_patches())
@example(([_one_point_patch(0.25)], 0))
@example(([_one_point_patch(-1.0), _one_point_patch(-1.0)], 3))
def test_patch_segments_matches_oracle(case):
    patches, seed = case
    label = np.repeat(np.arange(len(patches)), [p.points.shape[0] for p in patches])
    pts = np.vstack([p.points for p in patches] + [np.zeros((0, 3))])
    # rows in any order: the package sorts them by patch, then along the line
    perm = np.random.default_rng(seed).permutation(label.shape[0])
    got = patch_segments(
        pts[perm, :2], label[perm],
        np.array([p.centroid[:2] for p in patches]).reshape(-1, 2),
        np.array([p.normal[:2] for p in patches]).reshape(-1, 2),
    )
    _assert_segments_match(got, ref.patch_segments(patches))


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
    # groups numbered 0, 1, ... in the order node 0..n-1 first meets them
    number = {}
    want = [number.setdefault(find(i), len(number)) for i in range(n)]
    i = np.array([a for a, _ in edges], dtype=np.int64)
    j = np.array([b for _, b in edges], dtype=np.int64)
    got = connected_labels(n, i, j)
    assert got.dtype == np.int64
    assert got.tolist() == want


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


# --- touching cell boxes ---

EPS = 1e-9


@st.composite
def box_sets(draw):
    """(lo, hi) boxes in shuffled order, many touching at the limit.

    Lattice boxes share lo x values; a box may nest inside an earlier
    one, or start exactly EPS or EPS plus one ulp past an earlier box's
    hi on one axis while overlapping it on the others; a row of unit
    cells runs along x.
    """
    lo, hi = [], []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["lattice", "nested", "eps", "ulp", "row"])) if lo else "lattice"
        if kind == "row":
            start = np.array([draw(st.integers(-4, 4)), draw(st.integers(-2, 2)), 0.0])
            for k in range(draw(st.integers(1, 60))):
                lo.append(start + [k, 0.0, 0.0])
                hi.append(lo[-1] + 1.0)
            continue
        if kind == "lattice":
            a = np.array(draw(st.lists(st.integers(-4, 4), min_size=3, max_size=3)), float) * 0.5
            b = a + np.array(draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))) * 0.5
        else:
            o = draw(st.integers(0, len(lo) - 1))
            if kind == "nested":
                f0, f1 = draw(st.sampled_from([0.0, 0.25, 0.5])), draw(st.sampled_from([0.0, 0.25, 0.5]))
                a, b = lo[o] + f0 * (hi[o] - lo[o]), hi[o] - f1 * (hi[o] - lo[o])
            else:
                axis = draw(st.integers(0, 2))
                a = lo[o].copy()
                a[axis] = hi[o][axis] + EPS
                if kind == "ulp":
                    a[axis] = np.nextafter(a[axis], np.inf)
                b = a + draw(st.sampled_from([0.0, 0.5, 2.0]))
        lo.append(a)
        hi.append(b)
    perm = draw(st.permutations(range(len(lo))))
    return np.array(lo).reshape(-1, 3)[perm], np.array(hi).reshape(-1, 3)[perm]


def _unit(x):
    return np.array([[x, 0.0, 0.0]]), np.array([[x + 1.0, 1.0, 1.0]])


@settings(SETTINGS, max_examples=300)
@given(box_sets())
@example((np.zeros((0, 3)), np.zeros((0, 3))))
@example(_unit(0.0))
@example(tuple(np.vstack(b) for b in zip(_unit(0.0), _unit(1.0 + EPS))))  # exactly EPS apart
@example(tuple(np.vstack(b) for b in zip(_unit(np.nextafter(1.0 + EPS, 2.0)), _unit(0.0))))  # one ulp more
def test_touching_pairs_match_oracle(boxes):
    lo, hi = boxes
    i, j = _touching_pairs(lo, hi, EPS)
    assert i.dtype == j.dtype == np.int64
    assert np.all(i < j)
    got = list(zip(i.tolist(), j.tolist()))
    assert sorted(got) == ref.touching_pairs(lo, hi, EPS)  # also: no pair twice


# --- planes and the ground mask ---


# at every sampled s_v, a block this far off gives level 0 over 2**16
# cells, so the octree sorts wide keys by timsort rather than radix sort
FAR_M = 600.0


@st.composite
def point_sets(draw, far=False):
    """Planar and blob blocks in shuffled row order; with `far`, the last
    of several blocks sometimes lies FAR_M off along x and y."""
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
    if far and len(blocks) > 1 and draw(st.booleans()):
        blocks[-1] = blocks[-1] + np.array([FAR_M, FAR_M, 0.0])
    pts = np.vstack(blocks)
    if draw(st.booleans()):  # bit-identical duplicates of some rows
        pts = np.vstack([pts, pts[rng.integers(0, pts.shape[0], 20)]])
    return pts[rng.permutation(pts.shape[0])]


def _rows(block):
    """A point block as a sorted list of row bytes: its rows as a multiset."""
    return sorted(bytes(r) for r in np.ascontiguousarray(block, dtype=np.float64))


def _assert_patches_match(got, want, pts):
    """`Patches` equal the oracle's patch list bitwise, in order.

    Each patch's labelled rows compare as a multiset; its moments,
    plane and cell box compare bitwise.
    """
    assert len(got) == len(want)
    assert got.label.shape == (pts.shape[0],)
    for k, w in enumerate(want):
        assert _rows(pts[got.label == k]) == _rows(w.points)
        assert got.count[k] == w.count
        for name in ("sums", "prods", "centroid", "normal", "eigenvalues", "cell_lo", "cell_hi"):
            assert _bits(getattr(got, name)[k]) == _bits(getattr(w, name)), name


def _positions(groups, patches):
    """Each oracle group as a list of positions in `patches`."""
    at = {id(p): k for k, p in enumerate(patches)}
    return [[at[id(p)] for p in group] for group in groups]


def _far_floors():
    """Two noisy 3 m floors FAR_M apart along x and y."""
    rng = np.random.default_rng(7)
    a = np.column_stack([rng.uniform(0.0, 3.0, (200, 2)), rng.normal(scale=0.005, size=200)])
    return np.vstack([a, a[::-1] + np.array([FAR_M, FAR_M, 0.0])])


def _coincident_blob():
    """40 coincident points and 20 within 1e-7 m of them, which no cell
    can call planar, so they split down to MAX_OCTREE_DEPTH; beside them a
    0.3 m blob and a noisy floor."""
    rng = np.random.default_rng(11)
    c = np.array([0.3, 0.7, 1.1])
    floor = np.column_stack([rng.uniform(0.0, 3.0, (150, 2)), rng.normal(scale=0.005, size=150)])
    pts = np.vstack([
        np.tile(c, (40, 1)),
        c + rng.normal(scale=1e-7, size=(20, 3)),
        c + [1.2, 1.2, 0.0] + rng.normal(scale=0.3, size=(60, 3)),
        floor,
    ])
    return pts[rng.permutation(pts.shape[0])]


def _on_cell_faces():
    """At s_v = 2 every coordinate is a multiple of 2 / 2**6 from the
    origin, so points lie exactly on the cell faces of every level: repeated
    lattice sites that split down to the last level, a floor, and sites
    lifted by half a level-6 cell."""
    rng = np.random.default_rng(12)
    sites = rng.integers(0, 64, size=(60, 3)) / 32.0
    blob = np.repeat(sites, rng.integers(1, 7, 60), axis=0)
    g = np.arange(96) / 32.0
    floor = np.column_stack([np.repeat(g, 96), np.tile(g, 96), np.zeros(96 * 96)])[::7]
    pts = np.vstack([blob, floor, blob[:20] + [0.0, 0.0, 1.0 / 64.0]])
    return pts[rng.permutation(pts.shape[0])]


def _stacked_parents():
    """Two level-0 cells stacked in z at s_v = 2, each split by a blob
    beside a floor patch. The upper floor's child cell (0, 0, 2) precedes
    the lower one's (1, 0, 0) in C order but not in parent-then-octant
    order, which pins the level-1 patch numbering."""
    rng = np.random.default_rng(13)

    def floor(x0, z):
        return np.column_stack([rng.uniform(x0 + 0.1, x0 + 0.9, 30), rng.uniform(0.1, 0.9, 30), np.full(30, z)])

    pts = np.vstack([
        [[0.0, 0.0, 0.0]],  # the origin
        floor(1.0, 0.5),
        rng.uniform(0.1, 0.9, (30, 3)) + [0.0, 1.0, 1.0],
        floor(0.0, 2.5),
        rng.uniform(0.1, 0.9, (30, 3)) + [1.0, 1.0, 3.0],
    ])
    return pts[rng.permutation(pts.shape[0])]


def _far_level6_cells():
    """At s_v = 0.5 a level-6 cell is h = 1/128 m, so 8,192 m up is cell
    2**20 in z. A 4x4 floor grid there, with coincident points a cell
    above it, splits down to level 6, where the grid's cell (0, 0, 2**20)
    is planar; coincident points near the origin reach the cell
    (0, 1, 0) of that level, which a key of three 20-bit fields packs
    onto the grid's."""
    h = 0.5 / 64
    rng = np.random.default_rng(14)
    g = (np.arange(4) + 0.5) / 4.0 * h
    grid = np.column_stack([np.repeat(g, 4), np.tile(g, 4), np.full(16, 8192.0 + 0.5 * h)])
    pts = np.vstack([
        [[0.0, 0.0, 0.0]],  # the origin
        np.tile([0.5 * h, 1.5 * h, 0.5 * h], (6, 1)),
        grid,
        np.tile([0.5 * h, 0.5 * h, 8192.0 + 1.5 * h], (8, 1)),
    ])
    return pts[rng.permutation(pts.shape[0])]


@SETTINGS
@given(point_sets(far=True), st.sampled_from([2.0, 1.0, 0.5]), st.sampled_from([10.0, 3.0]))
@example(_far_floors(), 2.0, 10.0)
@example(_far_floors(), 0.5, 3.0)
@example(_coincident_blob(), 2.0, 10.0)
@example(_on_cell_faces(), 2.0, 10.0)
@example(_on_cell_faces(), 2.0, 3.0)
@example(_stacked_parents(), 2.0, 10.0)
@example(_far_level6_cells(), 0.5, 10.0)
def test_planes_and_ground_mask_match_oracle(pts, s_v, sigma):
    seg = segment_planes(pts, s_v, sigma)
    want = ref.segment_planes(pts, s_v, sigma)
    assert (seg.n_points, seg.n_unassigned) == (want.n_points, want.n_unassigned)
    _assert_patches_match(seg.patches, want.patches, pts)

    merged = merge_patches(seg.patches, 10.0, 0.1)
    want_merged = ref.merge_patches(want.patches, 10.0, 0.1)
    _assert_patches_match(merged, want_merged, pts)
    kinds = classify_patches(merged, GRAVITY)
    want_kinds = ref.classify_patches(want_merged, GRAVITY)
    assert [k.tolist() for k in kinds] == _positions(want_kinds, want_merged)
    mask = merged.mask(kinds[1])
    assert np.array_equal(mask, ref._ground_mask(pts, want_kinds[1]))


@settings(SETTINGS, max_examples=200)
@given(point_sets(), st.sampled_from([2.0, 1.0, 0.5]), st.sampled_from([10.0, 3.0]))
def test_merged_planes_from_pooled_moments(pts, s_v, sigma):
    """A merged patch counts its rows; a single-patch group keeps its cell's
    fit bit for bit; a pooled plane lies within 1e-9 of a centred refit."""
    seg = segment_planes(pts, s_v, sigma).patches
    merged = merge_patches(seg, 10.0, 0.1)
    labelled = merged.label >= 0
    assert np.array_equal(seg.label >= 0, labelled)
    assert np.array_equal(merged.count, np.bincount(merged.label[labelled], minlength=len(merged)))
    for k in range(len(merged)):
        rows = merged.label == k
        members = np.unique(seg.label[rows])
        if members.shape[0] == 1:
            for name in ("count", "sums", "prods", "centroid", "normal", "eigenvalues", "cell_lo", "cell_hi"):
                assert _bits(getattr(merged, name)[k]) == _bits(getattr(seg, name)[members[0]]), name
            continue
        centroid, normal, eig = ref._fit_plane(pts[rows])
        n = merged.normal[k]
        assert np.arctan2(np.linalg.norm(np.cross(n, normal)), abs(n @ normal)) <= 1e-9
        assert np.max(np.abs(merged.centroid[k] - centroid)) <= 1e-9
        assert np.max(np.abs(merged.eigenvalues[k] - eig)) <= 1e-9


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
    n = normals.shape[0]
    none, rows = np.zeros_like(normals), np.zeros(0, dtype=np.int64)
    one = np.ones(n, dtype=np.int64)
    got = classify_patches(Patches(rows, one, none, np.zeros((n, 3, 3)), normals, none, none, none), gravity, tol)
    patches = [ref.PlanarPatch(None, 1, None, None, None, nrm, None, None, None) for nrm in normals]
    want = ref.classify_patches(patches, gravity, tol)
    assert [k.tolist() for k in got] == _positions(want, patches)


# --- whole front end on a synthetic scan ---


def test_front_end_matches_oracle_on_scene():
    _assert_front_end_matches_oracle(PipelineConfig())


def test_front_end_keeps_every_scoring_row_at_cap_zero():
    _assert_front_end_matches_oracle(PipelineConfig(scoring_max_points=0))


def _assert_front_end_matches_oracle(cfg):
    """Corners bit for bit, and each scoring set equal to the oracle's
    `_subsample` of the masked rows: thinned to the cap when it has more
    rows, every row at a cap of 0."""
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
    segments = ref.patch_segments(walls)
    segments = ref.merge_refit(segments, cfg.endpoint_tol_m, cfg.angle_tol_deg)
    corners = ref.extract_corners(segments, cfg.extend_m, cfg.nms_radius_m, cfg.min_angle_deg)

    assert len(corners) >= 4
    _assert_corners_match(feats.corners, corners)
    cap = cfg.scoring_max_points or None
    for got, rows in ((feats.q_g_xy, mask), (feats.q_ng_xy, ~mask)):
        assert _bits(got) == _bits(_subsample(pts[rows][:, :2], cap))
        assert got.shape[0] == min(int(rows.sum()), cap or pts.shape[0])
    # the scene is large enough that the default cap thins
    assert max(int(mask.sum()), int((~mask).sum())) > PipelineConfig().scoring_max_points
