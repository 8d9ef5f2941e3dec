"""End-to-end acceptance gates, one printed verdict line per criterion."""

import functools
import math
import time

import numpy as np
import scalar_backend as ref

from scan2plan.config import PipelineConfig
from scan2plan.descriptors import (
    DescriptorDB,
    canonical_triplets,
    query_correspondences,
)
from scan2plan.errors import EmptyGrid, EmptySubmap, NoCandidates
from scan2plan.geometry import (
    LineSegment2,
    Se2Pose,
    normalize_angle,
    pose_errors,
    registration_success,
    solve_se2_batch,
)
from scan2plan.ingest import WallModel
from scan2plan.pipeline import build_floor_index, extract_submap_features, register_submap
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap
from scan2plan.verify import build_score_field, reliability_curve, score_candidate, select_best
from scan2plan.voting import Candidate, cast_votes, hierarchical_vote, vanilla_vote


def _verdict(label, ok, detail):
    print("%s: %s (%s)" % (label, "PASS" if ok else "FAIL", detail))
    return ok


def _random_triangle(rng, span=15.0, min_area=0.5, min_side=0.8):
    while True:
        p = rng.uniform(-span, span, size=(3, 2))
        a, b, c = p[1] - p[0], p[2] - p[0], p[2] - p[1]
        area = 0.5 * abs(a[0] * b[1] - a[1] * b[0])
        sides = (np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(c))
        if area >= min_area and min(sides) >= min_side:
            return p


def _random_pose(rng, span=30.0):
    return Se2Pose(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-np.pi, np.pi))


def _stack(pairs):
    """(src, dst) vertex arrays of a list of (src, dst) triangle pairs."""
    return np.array([s for s, _ in pairs]), np.array([d for _, d in pairs])


# --- A1: closed-form alignment recovers exact poses ---


def test_a1_solver_exactness():
    rng = np.random.default_rng(11)
    worst_rot, worst_trans, worst_resid = 0.0, 0.0, 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        src = _random_triangle(rng)
        pose = _random_pose(rng)
        dst = pose.apply(src)
        x, y, yaw, _ = solve_se2_batch(src[None], dst[None])
        est = Se2Pose(x[0], y[0], yaw[0])
        worst_rot = max(worst_rot, abs(normalize_angle(est.yaw - pose.yaw)))
        worst_trans = max(worst_trans, float(np.hypot(est.x - pose.x, est.y - pose.y)))
        worst_resid = max(worst_resid, float(np.abs(est.apply(src) - dst).max()))
        c, s = math.cos(est.yaw), math.sin(est.yaw)
        assert c * c + s * s > 0.0  # rotation built from an angle is always proper
    elapsed = time.perf_counter() - t0
    ok = worst_rot < 1e-7 and worst_trans < 1e-7 and worst_resid < 1e-7 and elapsed < 1.0
    assert _verdict(
        "A1 closed-form solver exactness",
        ok,
        "max rot %.2e rad, max trans %.2e m, max resid %.2e m, %.3f s"
        % (worst_rot, worst_trans, worst_resid, elapsed),
    )


# --- A2: descriptors are rigid invariants ---


def _bin_safe(values, width, eps=1e-6):
    frac = np.mod(np.asarray(values, float), width)
    return bool(np.all(frac > eps) and np.all(frac < width - eps))


def test_a2_descriptor_invariance():
    rng = np.random.default_rng(13)
    n_done, n_safe, n_degenerate = 0, 0, 0
    worst = 0.0
    keys_match = True
    while n_done < 1000:
        p = _random_triangle(rng)
        ang = rng.uniform(0.0, np.pi, size=(3, 2))
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        base = canonical_triplets(p, dirs)
        if len(base) == 0:
            n_degenerate += 1
            continue
        sides = np.sort(base.sides[0])
        if np.diff(sides).min() < 1e-6:
            continue  # near-tied sides can legally reorder the vertices
        pose = _random_pose(rng)
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        rot = np.array([[c, -s], [s, c]])
        moved = canonical_triplets(pose.apply(p), dirs @ rot.T)
        worst = max(
            worst,
            float(np.abs(np.subtract(base.sides[0], moved.sides[0])).max()),
            float(np.abs(np.subtract(base.angles[0], moved.angles[0])).max()),
        )
        if _bin_safe(base.sides[0], base.r_s) and _bin_safe(base.angles[0], base.r_a):
            n_safe += 1
            keys_match = keys_match and tuple(base.bins[0].tolist()) == tuple(moved.bins[0].tolist())
        n_done += 1
    ok = worst <= 1e-9 and keys_match and n_safe >= 900
    assert _verdict(
        "A2 descriptor rigid invariance",
        ok,
        "max component drift %.2e, %d/%d bin-safe keys identical, %d degenerate resampled"
        % (worst, n_safe, n_done, n_degenerate),
    )


# --- A3: voting survives 95% outliers ---


def test_a3_voting_outlier_robustness():
    cfg = PipelineConfig()
    n_ok = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        truth = _random_pose(rng, span=20.0)
        corrs = []
        for _ in range(6):
            src = _random_triangle(rng)
            dst = truth.apply(src) + rng.uniform(-0.035, 0.035, size=(3, 2))
            corrs.append((src, dst))
        for _ in range(114):
            src = _random_triangle(rng)
            corrs.append((src, _random_pose(rng, span=20.0).apply(src)))
        grid = cast_votes(_stack(corrs), cfg.r_xy, cfg.r_yaw_deg, cfg.residual_max_m)
        cands = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
        in_top = any(
            np.hypot(c.pose.x - truth.x, c.pose.y - truth.y) <= cfg.r_xy
            and abs(math.degrees(normalize_angle(c.pose.yaw - truth.yaw))) <= 2.0 * cfg.r_yaw_deg
            for c in cands
        )
        peak = cands[0].pose
        peak_close = (
            np.hypot(peak.x - truth.x, peak.y - truth.y) <= 2.0 * cfg.r_xy
            and abs(math.degrees(normalize_angle(peak.yaw - truth.yaw))) <= 2.0 * cfg.r_yaw_deg
        )
        n_ok += in_top and peak_close
    assert _verdict(
        "A3 voting robustness at 95% outliers", n_ok >= 99, "truth recovered in %d/100 seeds" % n_ok
    )


# --- A4: end-to-end recall and speed ---


def test_a4_end_to_end_recall_and_speed():
    cfg = PipelineConfig()
    layout = generate_layout(seed=21, n_rooms=12, corridor=True, extent_m=48.0)
    floor = build_floor_index(layout.wall_model, cfg)
    n_hit, times_ms = 0, []
    for k in range(100):
        rng = np.random.default_rng(9000 + k)
        gt = random_interior_pose(layout, rng)
        scene = synthesize_submap(
            layout.wall_model, gt, radius_m=15.0, noise_sigma_m=0.03,
            drop_wall_frac=0.2, clutter_frac=0.1, seed=9000 + k,
        )
        t0 = time.perf_counter()
        best, _ = register_submap(scene.submap, [floor], cfg)
        times_ms.append((time.perf_counter() - t0) * 1e3)
        if best.pose is not None and registration_success(best.pose, gt):
            n_hit += 1
    mean_ms = float(np.mean(times_ms))
    ok = n_hit >= 95 and mean_ms < 1000.0
    assert _verdict(
        "A4 end-to-end recall and speed",
        ok,
        "recall %d/100 at (5 deg, 3 m), mean %.1f ms, max %.1f ms"
        % (n_hit, mean_ms, max(times_ms)),
    )


# --- A5: confidence calibration at the extremes ---


def test_a5_confidence_extremes():
    layout = generate_layout(seed=3, n_rooms=1, corridor=False, extent_m=10.0)
    x0, y0, x1, y1 = layout.rooms[0]
    gt = Se2Pose((x0 + x1) / 2, (y0 + y1) / 2, 0.9)
    scene = synthesize_submap(layout.wall_model, gt, radius_m=30.0)
    n_wall = scene.deviation_log["n_wall_points"]
    q_ng = scene.submap.points[:n_wall, :2]
    q_g = scene.submap.points[n_wall:, :2]
    field = build_score_field(layout.wall_model.endpoints())
    at_gt = score_candidate(field, gt, q_ng, q_g).confidence
    # offset larger than the building, so scanned walls land on open floor
    misplaced = Se2Pose(gt.x + 8.0, gt.y, gt.yaw + 0.2)
    off = score_candidate(field, misplaced, q_ng, q_g).confidence
    ok = abs(at_gt - 1.0) <= 0.02 and off <= 0.0
    assert _verdict(
        "A5 perfect-alignment confidence",
        ok,
        "gt confidence %.4f, misplaced confidence %.4f" % (at_gt, off),
    )


# --- A6/A8: aliasing corridor suite ---


def _periodic_corridor(n_periods=9, pitch=4.0, cor_w=2.6, depth=5.0, door_w=1.4):
    """Corridor with identical rooms at a fixed pitch on both sides.

    The corner lattice repeats exactly under a one-pitch shift, so vote
    counts alone cannot separate the true pose from its translated twin;
    only the end caps and the off-pitch door gaps break the symmetry.
    """
    segs = []
    length = n_periods * pitch
    def seg(a, b):
        segs.append(LineSegment2(np.array(a, float), np.array(b, float)))
    for yw, yout, off in ((cor_w, cor_w + depth, 0.8), (0.0, -depth, 2.4)):
        for i in range(n_periods):
            x0 = i * pitch
            seg((x0, yw), (x0 + off, yw))
            seg((x0 + off + door_w, yw), (x0 + pitch, yw))
            seg((x0, yw), (x0, yout))
        seg((length, yw), (length, yout))
        seg((0.0, yout), (length, yout))
    seg((0.0, -depth), (0.0, cor_w + depth))
    seg((length, -depth), (length, cor_w + depth))
    return WallModel("corridor", segs)


def _near(p, q, trans_m, rot_deg):
    rot, trans = pose_errors(p, q)
    return rot < rot_deg and trans < trans_m


@functools.lru_cache(maxsize=1)
def _corridor_suite(n_seeds=100):
    """Per-seed corridor runs: vanilla pick, plain pick, vote-boosted alias pick."""
    cfg = PipelineConfig()
    floor = build_floor_index(_periodic_corridor(), cfg)
    rng = np.random.default_rng(42)
    rows = []
    for k in range(n_seeds):
        gt = Se2Pose(rng.uniform(8.0, 11.0), rng.uniform(0.5, 2.1), rng.uniform(-np.pi, np.pi))
        scene = synthesize_submap(floor.model, gt, 12.0, noise_sigma_m=0.02, seed=500 + k)
        feats = extract_submap_features(scene.submap, cfg)
        corr = query_correspondences(floor.db, feats.triplets)
        grid = cast_votes(corr, cfg.r_xy, cfg.r_yaw_deg, cfg.residual_max_m)
        cands = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
        vote_pose, _ = vanilla_vote(grid)
        truth_votes = max((c.votes for c in cands if _near(c.pose, gt, 0.5, 5.0)), default=0)
        alias = [(c.votes, i) for i, c in enumerate(cands) if not _near(c.pose, gt, 2.0, 30.0)]
        alias_votes, ai = max(alias, default=(0, -1))
        best, _ = select_best(
            floor.field, cands, feats.q_ng_xy, feats.q_g_xy,
            cfg.lam, max_points=cfg.scoring_max_points,
        )
        # hand the alias strictly more votes than truth; selection must
        # still pick the true pose on confidence alone
        a = cands[ai]
        boosted = list(cands)
        boosted[ai] = Candidate(a.pose, truth_votes + 10, a.merged_score, a.n_cells)
        best_b, _ = select_best(
            floor.field, boosted, feats.q_ng_xy, feats.q_g_xy,
            cfg.lam, max_points=cfg.scoring_max_points,
        )
        rows.append(
            dict(
                vanilla_ok=registration_success(vote_pose, gt),
                plain_ok=registration_success(cands[best].pose, gt),
                boosted_ok=registration_success(boosted[best_b].pose, gt),
                outvoted=boosted[ai].votes > truth_votes,
                alias_found=ai >= 0 and alias_votes > 0,
            )
        )
    return rows


def test_a6_aliasing_resolved_by_confidence():
    rows = _corridor_suite()
    n_ok = sum(r["boosted_ok"] and r["outvoted"] for r in rows)
    n_alias = sum(r["alias_found"] for r in rows)
    assert n_alias == len(rows)
    assert _verdict(
        "A6 corridor aliasing resolution",
        n_ok >= 95,
        "true pose chosen over a higher-vote alias in %d/%d seeds" % (n_ok, len(rows)),
    )


# --- A7: confidence separates registrable from cross-floor pairs ---


def _confidence_pair(floor, scene, cfg):
    """Best-candidate confidence with the ground penalty and award-only
    (lam = 0), -inf when stuck."""
    try:
        feats = extract_submap_features(scene.submap, cfg)
        corr = query_correspondences(floor.db, feats.triplets)
        grid = cast_votes(corr, cfg.r_xy, cfg.r_yaw_deg, cfg.residual_max_m)
        cands = hierarchical_vote(grid, cfg.l_cells, cfg.k_cells, cfg.j_candidates)
        pts = (floor.field, cands, feats.q_ng_xy, feats.q_g_xy)
        _, osc = select_best(*pts, cfg.lam, max_points=cfg.scoring_max_points)
        i, award = select_best(*pts, 0.0, max_points=cfg.scoring_max_points)
        # award-only is lam = 0: the exhaustive s_a / n_ng ranking agrees
        want, want_conf = ref.select_award_only(floor.field, cands, feats.q_ng_xy, cfg.scoring_max_points)
        assert (i, np.float64(award.confidence).tobytes()) == (want, np.float64(want_conf[want]).tobytes())
        return [osc.confidence, award.confidence]
    except (EmptyGrid, EmptySubmap, NoCandidates):
        return [float("-inf"), float("-inf")]


def test_a7_reliability_auc():
    cfg = PipelineConfig()
    home = generate_layout(seed=7, n_rooms=8, corridor=True, extent_m=40.0)
    away = generate_layout(seed=31, n_rooms=8, corridor=True, extent_m=40.0)
    floor = build_floor_index(home.wall_model, cfg)
    labels, scores_osc, scores_award = [], [], []
    for k in range(100):
        rng = np.random.default_rng(7000 + k)
        layout, label = (home, 1) if k < 50 else (away, 0)
        gt = random_interior_pose(layout, rng)
        scene = synthesize_submap(
            layout.wall_model, gt, radius_m=12.0, noise_sigma_m=0.03,
            drop_wall_frac=0.1, clutter_frac=0.05, seed=7000 + k,
        )
        conf_osc, conf_award = _confidence_pair(floor, scene, cfg)
        labels.append(label)
        scores_osc.append(conf_osc)
        scores_award.append(conf_award)
    auc_osc = reliability_curve(labels, scores_osc)[3]
    auc_award = reliability_curve(labels, scores_award)[3]
    ok = auc_osc >= 0.9 and auc_osc >= auc_award
    assert _verdict(
        "A7 reliability separation",
        ok,
        "auc %.4f with ground penalty vs %.4f award-only" % (auc_osc, auc_award),
    )


# --- A8: hierarchical+verification beats vanilla voting ---


def test_a8_hierarchical_beats_vanilla():
    rows = _corridor_suite()
    vanilla = sum(r["vanilla_ok"] for r in rows)
    full = sum(r["plain_ok"] for r in rows)
    assert _verdict(
        "A8 hierarchical vs vanilla recall",
        full > vanilla,
        "full system %d/%d, vanilla argmax %d/%d" % (full, len(rows), vanilla, len(rows)),
    )


# --- A9: unlimited extraction equals a full-grid clustering oracle ---


def _grid_oracle(poses, r_xy=0.15, r_yaw_deg=1.0):
    """Dict-and-BFS reimplementation of merge, cluster, and ranking."""
    import collections

    n_yaw = 360
    cells = collections.defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
    for x, y, yaw in poses:
        yaw = normalize_angle(yaw)
        key = (
            math.floor(x / r_xy),
            math.floor(y / r_xy),
            min(math.floor((yaw + math.pi) / math.radians(r_yaw_deg)), n_yaw - 1),
        )
        c = cells[key]
        c[0] += 1
        c[1] += x
        c[2] += y
        c[3] += math.cos(yaw)
        c[4] += math.sin(yaw)

    def neighbors(key):
        ix, iy, iyaw = key
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dyaw in (-1, 0, 1):
                    yield (ix + dx, iy + dy, (iyaw + dyaw) % n_yaw)

    merged = {k: sum(cells[n][0] for n in neighbors(k) if n in cells) for k in cells}
    unvisited = set(cells)
    clusters = []
    while unvisited:
        comp, stack = {next(iter(unvisited))}, [next(iter(unvisited))]
        unvisited.discard(stack[0])
        while stack:
            for n in neighbors(stack.pop()):
                if n in unvisited:
                    unvisited.remove(n)
                    comp.add(n)
                    stack.append(n)
        clusters.append(comp)
    out = []
    for comp in clusters:
        votes = sum(cells[k][0] for k in comp)
        sx, sy = (sum(cells[k][i] for k in comp) for i in (1, 2))
        sc, ss = (sum(cells[k][i] for k in comp) for i in (3, 4))
        out.append(
            dict(
                votes=votes,
                n_cells=len(comp),
                merged=max(merged[k] for k in comp),
                anchor=min(comp),
                pose=(sx / votes, sy / votes, math.atan2(ss, sc)),
            )
        )
    out.sort(key=lambda d: (-d["merged"], d["anchor"]))
    return out


def test_a9_oracle_equivalence():
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    n_checked, n_cells_max = 0, 0
    for seed in (17, 18, 19):
        rng = np.random.default_rng(seed)
        poses = []
        for _ in range(rng.integers(3, 6)):
            cx, cy = rng.uniform(-25, 25, size=2)
            cyaw = rng.uniform(-np.pi, np.pi)
            for _ in range(rng.integers(4, 30)):
                poses.append(
                    (
                        cx + rng.uniform(-0.3, 0.3),
                        cy + rng.uniform(-0.3, 0.3),
                        cyaw + rng.uniform(-0.04, 0.04),
                    )
                )
        for _ in range(400):
            poses.append(
                (rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-np.pi, np.pi))
            )
        corrs = [(tri, Se2Pose(*p).apply(tri)) for p in poses]
        grid = cast_votes(_stack(corrs), residual_max_m=1e9)
        n_cells = grid.packed.shape[0]
        assert n_cells <= 10_000
        n_cells_max = max(n_cells_max, n_cells)
        got = hierarchical_vote(grid, l_cells=None, k_cells=None, j_candidates=None)
        capped = hierarchical_vote(grid, l_cells=n_cells, k_cells=n_cells, j_candidates=n_cells)
        want = _grid_oracle(poses)
        assert len(got) == len(want) == len(capped)
        for g, e, w in zip(got, capped, want):
            assert g.votes == e.votes == w["votes"]
            assert g.n_cells == e.n_cells == w["n_cells"]
            assert g.merged_score == e.merged_score == w["merged"]
            wx, wy, wyaw = w["pose"]
            assert abs(g.pose.x - wx) < 1e-9 and g.pose.x == e.pose.x
            assert abs(g.pose.y - wy) < 1e-9 and g.pose.y == e.pose.y
            assert abs(normalize_angle(g.pose.yaw - wyaw)) < 1e-9
            n_checked += 1
    assert _verdict(
        "A9 clustering oracle equivalence",
        True,
        "%d candidates identical over 3 grids, largest %d cells" % (n_checked, n_cells_max),
    )


# --- A10: retrieval latency is flat in table size ---


def _padded_db(queries, n_keys):
    """The queries' own rows plus one-row filler keys up to n_keys keys."""
    i = np.arange(n_keys - np.unique(queries.bins, axis=0).shape[0])
    # side bins of 100+ mean 50 m sides, out of reach of any real query
    filler = np.stack(
        [100 + i % 50, 100 + (i // 50) % 50, 100 + (i // 2500) % 50]
        + [np.full_like(i, b) for b in (3, 7, 11)],
        axis=1,
    )
    first = np.zeros(i.shape[0], dtype=int)
    return DescriptorDB.from_entries(
        np.concatenate([queries.bins, filler]),
        np.concatenate([queries.verts, queries.verts[first]]),
        np.concatenate([queries.dirs, queries.dirs[first]]),
        0.5,
        3.0,
    )


def test_a10_hash_scalability():
    rng = np.random.default_rng(23)
    tris, tri_dirs = [], []
    while len(tris) < 400:
        ang = rng.uniform(0.0, np.pi, size=(3, 2))
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        p = _random_triangle(rng)
        if len(canonical_triplets(p, dirs)) == 0:
            continue
        tris.append(p)
        tri_dirs.append(dirs)
    queries = canonical_triplets(np.array(tris), np.array(tri_dirs))
    assert len(queries) == 400
    small = _padded_db(queries, 1_000)
    large = _padded_db(queries, 100_000)

    def best_of(db, reps=7):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            out = query_correspondences(db, queries)
            best = min(best, time.perf_counter() - t0)
        return best, out[0].shape[0]

    t_small, n_small = best_of(small)
    t_large, n_large = best_of(large)
    assert n_small == n_large  # padding keys must never match a real query
    ratio = t_large / t_small
    assert _verdict(
        "A10 hash retrieval scalability",
        ratio < 3.0,
        "1e3 keys %.3f ms vs 1e5 keys %.3f ms, ratio %.2f"
        % (t_small * 1e3, t_large * 1e3, ratio),
    )
