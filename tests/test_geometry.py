"""Tests for planar poses and the closed-form alignment solver."""

import numpy as np
import pytest
import scalar_backend as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from scan2plan.geometry import (
    Se2Pose,
    normalize_angle,
    pose_errors,
    registration_success,
    solve_se2_batch,
)


def random_pose(rng) -> Se2Pose:
    return Se2Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-np.pi, np.pi))


# ---------------------------------------------------------------------------
# Se2Pose.apply
# ---------------------------------------------------------------------------

def test_apply_identity():
    p = Se2Pose(0.0, 0.0, 0.0).apply(np.array([3.0, 4.0]))
    assert np.allclose(p, [3.0, 4.0])


def test_apply_quarter_turn():
    pose = Se2Pose(1.0, 0.0, np.pi / 2)
    p = pose.apply(np.array([1.0, 0.0]))
    assert np.allclose(p, [1.0, 1.0])


def test_apply_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pose = random_pose(rng)
        p = rng.uniform(-20, 20, size=2)
        m = np.eye(3)
        m[:2, :2] = pose.rotation()
        m[:2, 2] = (pose.x, pose.y)
        expected = (m @ np.array([p[0], p[1], 1.0]))[:2]
        assert np.allclose(pose.apply(p), expected, atol=1e-12)


def test_compose_apply_consistency():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = random_pose(rng), random_pose(rng)
        p = rng.uniform(-30, 30, size=2)
        lhs = a.compose(b).apply(p)
        rhs = a.apply(b.apply(p))
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize(
    "xyyaw", [(0.0, 0.0, np.inf), (np.nan, 0.0, 0.0), (0.0, -np.inf, 1.0)], ids=["inf_yaw", "nan_x", "minus_inf_y"]
)
def test_non_finite_pose_rejected(xyyaw):
    # np.mod would take an infinite yaw to NaN with only a RuntimeWarning
    with pytest.raises(ValueError, match="pose must be finite"):
        Se2Pose(*xyyaw)


def test_inverse_and_yaw_normalization():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = Se2Pose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-10, 10))
        assert -np.pi <= a.yaw < np.pi
        roundtrip = a.compose(a.inverse())
        assert abs(roundtrip.x) < 1e-9 and abs(roundtrip.y) < 1e-9
        assert abs(normalize_angle(roundtrip.yaw)) < 1e-12


# ---------------------------------------------------------------------------
# solve_se2_batch
# ---------------------------------------------------------------------------

TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])


def test_solve_identity_on_equal_sets():
    x, y, yaw, rms = solve_se2_batch(TRIANGLE[None], TRIANGLE[None])
    assert abs(x[0]) < 1e-12 and abs(y[0]) < 1e-12 and abs(yaw[0]) < 1e-12
    assert rms[0] < 1e-12


def test_solve_recovers_known_pose():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pose = random_pose(rng)
        src = rng.uniform(-10, 10, size=(rng.integers(2, 8), 2))
        x, y, yaw, rms = solve_se2_batch(src[None], pose.apply(src)[None])
        assert abs(x[0] - pose.x) < 1e-9
        assert abs(y[0] - pose.y) < 1e-9
        assert abs(normalize_angle(yaw[0] - pose.yaw)) < 1e-9
        assert rms[0] < 1e-9


def _best_proper_rotation_rms(src, dst):
    """Brute-force oracle: scan yaw finely, translation from centroids."""
    best = np.inf
    s_mean, d_mean = src.mean(axis=0), dst.mean(axis=0)
    for yaw in np.linspace(-np.pi, np.pi, 72001):
        c, s = np.cos(yaw), np.sin(yaw)
        r = np.array([[c, -s], [s, c]])
        res = (src - s_mean) @ r.T - (dst - d_mean)
        best = min(best, float(np.sqrt(np.mean(np.sum(res**2, axis=1)))))
    return best


def test_solve_rejects_reflection_via_residual():
    mirrored = TRIANGLE * np.array([-1.0, 1.0])
    scale = np.max(np.linalg.norm(TRIANGLE - TRIANGLE.mean(axis=0), axis=1))
    _, _, yaw, rms = solve_se2_batch(TRIANGLE[None], mirrored[None])
    oracle = _best_proper_rotation_rms(TRIANGLE, mirrored)
    assert rms[0] > 0.1 * scale
    assert abs(rms[0] - oracle) < 1e-4
    assert np.isclose(np.linalg.det(Se2Pose(0.0, 0.0, yaw[0]).rotation()), 1.0)


def test_solve_determinant_always_positive():
    rng = np.random.default_rng(4)
    for i in range(1000):
        n = int(rng.integers(2, 6))
        src = rng.uniform(-5, 5, size=(n, 2))
        if i % 3 == 0:
            # near-degenerate: almost collinear / almost coincident
            src[1:] = src[0] + rng.normal(scale=1e-6, size=(n - 1, 2))
        dst = rng.uniform(-5, 5, size=(n, 2))
        _, _, yaw, _ = solve_se2_batch(src[None], dst[None])
        assert np.linalg.det(Se2Pose(0.0, 0.0, yaw[0]).rotation()) > 0.0


def test_solve_batch_degenerate_rows():
    # coincident sources: yaw 0, the centroids fix the translation and
    # the residual is the spread of dst, which the vote gate then reads
    src = np.stack([np.full((3, 2), 7.25), TRIANGLE[:1].repeat(3, axis=0)])
    dst = TRIANGLE + np.array([2.0, -1.0])
    x, y, yaw, rms = solve_se2_batch(src, np.stack([dst, dst]))
    centre = dst.mean(axis=0)
    assert np.array_equal(yaw, [0.0, 0.0])
    assert np.allclose(np.column_stack([x, y]), centre - src[:, 0], rtol=0.0, atol=1e-12)
    spread = np.sqrt(np.mean(np.sum((dst - centre) ** 2, axis=1)))
    assert np.allclose(rms, spread, rtol=1e-12, atol=0.0)
    # a one-point row: the translation takes the point onto its match exactly
    x, y, yaw, rms = solve_se2_batch(TRIANGLE[None, 1:2], dst[None, 2:3])
    assert (yaw[0], rms[0]) == (0.0, 0.0)
    assert np.allclose([x[0], y[0]], dst[2] - TRIANGLE[1], rtol=0.0, atol=1e-12)


def test_solve_batch_matches_scalar():
    rng = np.random.default_rng(5)
    src = rng.uniform(-10, 10, size=(250, 3, 2))
    dst = rng.uniform(-10, 10, size=(250, 3, 2))
    xs, ys, yaws, rmss = solve_se2_batch(src, dst)
    for i in range(src.shape[0]):
        pose, rms = ref.solve_se2(src[i], dst[i])
        assert abs(xs[i] - pose.x) < 1e-9
        assert abs(ys[i] - pose.y) < 1e-9
        assert abs(normalize_angle(yaws[i] - pose.yaw)) < 1e-9
        assert abs(rmss[i] - rms) < 1e-9


GATE_M = 0.3  # the default residual_max_m


@st.composite
def matched_sets(draw):
    """(M, K, 2) source rows and their noisy rigid or mirrored images."""
    k = draw(st.integers(2, 6))
    m = draw(st.integers(1, 40))
    offset = draw(st.sampled_from([0.0, 1.0, 30.0, 1e3]))
    sigma = draw(st.sampled_from([0.0, 1e-6, 0.05, 0.2, 0.3, 1.0]))
    flip = np.array([-1.0, 1.0]) if draw(st.booleans()) else np.ones(2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.uniform(-10.0, 10.0, (m, k, 2)) + rng.uniform(-offset, offset, (m, 1, 2))
    yaw = rng.uniform(-np.pi, np.pi, m)
    c, s = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
    mx, my = (src * flip).transpose(2, 0, 1)
    dst = np.stack([c * mx - s * my, s * mx + c * my], axis=2)
    dst += rng.uniform(-offset, offset, (m, 1, 2)) + rng.normal(0.0, sigma, (m, k, 2))
    return src, dst


@settings(max_examples=300)
@given(matched_sets())
def test_solve_batch_matches_svd_oracle_on_rigid_and_mirrored_sets(sets):
    src, dst = sets
    got = solve_se2_batch(src, dst)
    want = ref.solve_se2_batch(src, dst)
    scale = 1.0 + np.maximum(np.abs(src).max(axis=(1, 2)), np.abs(dst).max(axis=(1, 2)))
    # yaw is fixed only up to rounding / |sum(conj(s) d)|; that sum vanishes
    # when a mirrored set's cross-covariance has equal singular values
    sc = (src - src.mean(axis=1, keepdims=True)) @ [1.0, 1j]
    dc = (dst - dst.mean(axis=1, keepdims=True)) @ [1.0, 1j]
    posed = np.abs(np.sum(sc.conj() * dc, axis=1)) >= 1e-2 * np.sum(np.abs(sc) * np.abs(dc), axis=1)
    assert np.all(np.abs(got[0] - want[0])[posed] <= 1e-12 * scale[posed])
    assert np.all(np.abs(got[1] - want[1])[posed] <= 1e-12 * scale[posed])
    assert np.all(np.abs(normalize_angle(got[2] - want[2]))[posed] <= 1e-12)
    assert np.all(np.abs(got[3] - want[3]) <= 1e-12 * scale)
    clear = np.abs(want[3] - GATE_M) > 1e-9
    assert np.array_equal((got[3] <= GATE_M)[clear], (want[3] <= GATE_M)[clear])


@st.composite
def triangle_rows(draw):
    """(M, 3, 2) source rows and their rigid, mirrored or unrelated
    partners, up to 1e6 m out, with coincident vertices and signed zeros."""
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    src = rng.uniform(-10.0, 10.0, (m, 3, 2)) * 10.0 ** rng.uniform(-3, 1, (m, 1, 1))
    src += rng.uniform(-offset, offset, (m, 1, 2))
    kind = draw(st.sampled_from(["rigid", "mirrored", "unrelated"]))
    if kind == "unrelated":
        dst = rng.uniform(-offset - 10.0, offset + 10.0, (m, 3, 2))
    else:
        yaw = rng.uniform(-np.pi, np.pi, m)
        c, s = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
        mx, my = (src * ([-1.0, 1.0] if kind == "mirrored" else 1.0)).transpose(2, 0, 1)
        dst = np.stack([c * mx - s * my, s * mx + c * my], axis=2) + rng.uniform(-offset, offset, (m, 1, 2))
    for a in (src, dst):
        same = rng.uniform(size=m) < 0.15
        a[same, 1:] = a[same, :1]  # every vertex on the first
        pair = rng.uniform(size=m) < 0.15
        a[pair, 2] = a[pair, 0]  # C on A
        a[rng.uniform(size=a.shape) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    return src, dst


@settings(max_examples=300)
@given(triangle_rows())
def test_solve_batch_matches_strided_solver_bit_for_bit(rows):
    # the component-major solver against the (M, K, 2) strided-view one
    # it replaced: for K = 3 both add the vertices first to last
    src, dst = rows
    got = solve_se2_batch(src, dst)
    want = ref.closed_form_se2_batch(src, dst)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == (src.shape[0],)
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()


@pytest.mark.parametrize(
    "src, dst, match",
    [
        (np.zeros((4, 0, 2)), np.zeros((4, 0, 2)), "K = 0"),
        (np.zeros((4, 3)), np.zeros((4, 3)), r"\(M, K, 2\)"),
        (np.zeros((4, 3, 3)), np.zeros((4, 3, 3)), r"\(M, K, 2\)"),
        (np.zeros((3, 2)), np.zeros((3, 2)), r"\(M, K, 2\)"),
        (np.zeros((4, 3, 2)), np.zeros((4, 2, 2)), r"\(M, K, 2\)"),
        (np.zeros((4, 3, 2)), np.zeros((1, 3, 2)), r"\(M, K, 2\)"),
    ],
)
def test_solve_batch_rejects_bad_shapes(src, dst, match):
    with pytest.raises(ValueError, match=match):
        solve_se2_batch(src, dst)


# ---------------------------------------------------------------------------
# pose_errors / registration_success
# ---------------------------------------------------------------------------

def test_pose_errors_of_a_pose_with_itself_are_zero():
    # the 3-D trace formula read 1.2074e-06 deg here: arccos near 1
    # loses half the digits
    p = Se2Pose(72.24565656844365, 52.04443128097466, -0.9571946764186721)
    assert pose_errors(p, p) == (0.0, 0.0)
    rng = np.random.default_rng(8)
    for _ in range(2000):
        q = random_pose(rng)
        assert pose_errors(q, q) == (0.0, 0.0)


def _lifted_errors(est: Se2Pose, gt: Se2Pose):
    """The errors of both poses lifted to 3-D with zero roll, pitch and z:
    the geodesic angle from arccos((trace(R_est^T R_gt) - 1) / 2) and the
    translation error in the estimate's body frame."""
    r_est, r_gt = np.eye(3), np.eye(3)
    r_est[:2, :2], r_gt[:2, :2] = est.rotation(), gt.rotation()
    cos_arg = np.clip((np.trace(r_est.T @ r_gt) - 1.0) / 2.0, -1.0, 1.0)
    dt = np.array([gt.x - est.x, gt.y - est.y, 0.0])
    return float(np.degrees(np.arccos(cos_arg))), float(np.linalg.norm(r_est.T @ dt))


def test_pose_errors_match_the_lifted_formula():
    rng = np.random.default_rng(9)
    for _ in range(20000):
        est, gt = random_pose(rng), random_pose(rng)
        rot, trans = pose_errors(est, gt)
        want_rot, want_trans = _lifted_errors(est, gt)
        assert abs(rot - want_rot) <= 2e-9
        assert abs(trans - want_trans) <= 1e-14 * max(1.0, want_trans)

def test_success_exact_match():
    pose = Se2Pose(2.0, -3.0, 0.7)
    assert registration_success(pose, pose, 5.0, 3.0)


def test_success_just_inside_thresholds():
    gt = Se2Pose(0.0, 0.0, 0.0)
    est = Se2Pose(2.9, 0.0, np.radians(4.9))
    assert registration_success(est, gt, 5.0, 3.0)


def test_success_rotation_bound_exceeded():
    gt = Se2Pose(0.0, 0.0, 0.0)
    est = Se2Pose(0.0, 0.0, np.radians(5.1))
    assert not registration_success(est, gt, 5.0, 3.0)


def test_success_left_composition_invariance():
    rng = np.random.default_rng(6)
    for _ in range(300):
        est, gt, t = random_pose(rng), random_pose(rng), random_pose(rng)
        before = registration_success(est, gt, 5.0, 3.0)
        after = registration_success(t.compose(est), t.compose(gt), 5.0, 3.0)
        assert before == after


# ---------------------------------------------------------------------------
# SE(2) group laws (property tests)
# ---------------------------------------------------------------------------

GROUP_SETTINGS = settings(max_examples=200)
coords = st.floats(-1e3, 1e3, allow_nan=False)
yaws = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2]))
poses = st.builds(Se2Pose, coords, coords, yaws)
point_sets = st.lists(st.tuples(coords, coords), min_size=1, max_size=8).map(np.array)
TOL = 1e-9


def _close(a: Se2Pose, b: Se2Pose) -> bool:
    return (
        abs(a.x - b.x) <= TOL
        and abs(a.y - b.y) <= TOL
        and abs(normalize_angle(a.yaw - b.yaw)) <= 1e-12
    )


@GROUP_SETTINGS
@given(poses, point_sets)
def test_group_identity(a, pts):
    e = Se2Pose(0.0, 0.0, 0.0)
    assert _close(e.compose(a), a)
    assert _close(a.compose(e), a)
    assert np.array_equal(e.apply(pts), pts)


@GROUP_SETTINGS
@given(poses, point_sets)
def test_group_inverse(a, pts):
    e = Se2Pose(0.0, 0.0, 0.0)
    assert _close(a.compose(a.inverse()), e)
    assert _close(a.inverse().compose(a), e)
    assert np.allclose(a.inverse().apply(a.apply(pts)), pts, rtol=0.0, atol=TOL)


@GROUP_SETTINGS
@given(poses, poses, poses)
def test_group_compose_is_associative(a, b, c):
    assert _close(a.compose(b).compose(c), a.compose(b.compose(c)))


@GROUP_SETTINGS
@given(poses, poses, point_sets)
def test_apply_is_a_group_action(a, b, pts):
    lhs = a.compose(b).apply(pts)
    rhs = a.apply(b.apply(pts))
    assert np.allclose(lhs, rhs, rtol=0.0, atol=TOL)
