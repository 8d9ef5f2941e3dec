"""Smoke test of the benchmark itself at a tiny size (4 scenes per workload).

    python3 bench/smoke.py

Not part of the tier-1 suite: it takes about two minutes, most of it the
building set-up. It checks that every workload, untraced and traced,
exits 0 with a last stdout line of the agreed shape, that the metric
names match BENCHMARK.json, that traced and untraced runs of one seed
return the same poses and confidences, that scans synthesized from the
walls near the sensor equal those from the whole floor, and that the
command fails without printing a result in a directory holding only the
benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 9000


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/bench.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--scenes", "4"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_near_walls(problems) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import numpy as np

    import workloads as wl
    from scan2plan.synthetic import random_interior_pose, synthesize_submap

    for name, spec in wl.SPECS.items():
        floors, _ = wl.layouts(spec)
        for k, layout in enumerate(floors):
            gt = random_interior_pose(layout, np.random.default_rng(wl.POSE_SEED + k))
            whole = synthesize_submap(layout.wall_model, gt, seed=k, **wl.SCENE_ARGS).submap.points
            near = wl.near_walls(layout.wall_model, gt.translation)
            if not np.array_equal(whole, synthesize_submap(near, gt, seed=k, **wl.SCENE_ARGS).submap.points):
                problems.append("%s floor %s: near-wall scan differs" % (name, layout.wall_model.floor_id))
    print("ok: near-wall scans equal whole-floor scans", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    _check_near_walls(problems)
    for w in spec["workloads"]:
        digests = {}
        for trace in (0, 1):
            proc = _run(ROOT, w["name"], trace)
            label = "%s trace %d" % (w["name"], trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(out)))
            if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
                problems.append("%s: not correct: %s" % (label, out))
            if set(out["metrics"]) != wanted[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (label, sorted(set(out["metrics"]) ^ wanted[trace])))
            result = BENCH_DIR / "results" / ("%s-seed%d-trace%d.json" % (w["name"], SEED, trace))
            digests[trace] = json.loads(result.read_text())["fingerprints"]["results_digest"]
            print("ok: %s" % label, flush=True)
        if len(set(digests.values())) != 1:
            problems.append("%s: traced and untraced results differ" % w["name"])

    # a directory with only the benchmark in it must fail without a result
    bare = BENCH_DIR / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH_DIR.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        problems.append("bare checkout: exit %d, stdout %r" % (proc.returncode, last[0]))
    else:
        print("ok: bare checkout fails with exit %d" % proc.returncode)

    for p in problems:
        print("FAIL: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
