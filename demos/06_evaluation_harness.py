"""
Batch evaluation and reliability curve
======================================

Writes a small scene directory to disk, evaluates recall and timing over
it, then uses scenes from a second floor to trace how well confidence
separates registrable submaps from hopeless ones.
"""

import tempfile
from pathlib import Path

import numpy as np

from scan2plan.config import PipelineConfig
from scan2plan.ingest import save_pose, save_submap
from scan2plan.pipeline import (
    build_floor_index,
    evaluate_scenes,
    pr_from_directories,
    write_eval_csv,
    write_pr_csv,
)
from scan2plan.synthetic import generate_layout, random_interior_pose, synthesize_submap

cfg = PipelineConfig()
home = generate_layout(seed=7, n_rooms=8, corridor=True, extent_m=40.0)
away = generate_layout(seed=31, n_rooms=8, corridor=True, extent_m=40.0)
floor = build_floor_index(home.wall_model, cfg)

# the scenes and CSV reports live only as long as this block
with tempfile.TemporaryDirectory(prefix="scan2plan_demo_") as tmp:
    root = Path(tmp)
    for name, layout in (("home", home), ("away", away)):
        d = root / name
        d.mkdir()
        for k in range(6):
            rng = np.random.default_rng(100 * (name == "away") + k)
            gt = random_interior_pose(layout, rng)
            scene = synthesize_submap(layout.wall_model, gt, radius_m=12.0,
                                      noise_sigma_m=0.03, drop_wall_frac=0.1, seed=k)
            save_submap(scene.submap, d / ("scene_%02d.submap" % k))
            save_pose(gt, d / ("scene_%02d.pose" % k))
    print("wrote 2x6 scenes under %s" % root)

    # recall and latency over the on-floor directory
    summary = evaluate_scenes(root / "home", [floor], cfg)
    print("recall %.2f over %d scenes, mean %.0f ms, p95 %.0f ms" % (
        summary.recall, len(summary.outcomes), summary.mean_ms, summary.p95_ms))
    write_eval_csv(summary.outcomes, root / "eval.csv")

    # confidence should rank every home scene above every away scene
    precision, recall, thresholds, auc = pr_from_directories(root / "home", root / "away", [floor], cfg)
    print("reliability auc %.3f over %d thresholds" % (auc, len(thresholds)))
    write_pr_csv(precision, recall, thresholds, root / "pr.csv")
    print("csv reports: %s, %s" % (root / "eval.csv", root / "pr.csv"))
