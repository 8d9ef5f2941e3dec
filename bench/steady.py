"""Steadiness mode: run one workload n times and report each metric's spread.

    python3 bench/steady.py --workload a4 --runs 10 [--base 1000] [--traced]

Run i uses seed base + 1000 * i, so no two runs share a scene seed. For
every end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and
that spread as a share of the metric's bound in BENCHMARK.json. With
--traced each seed is also run with --trace 1; the tracing overhead is
the traced run's first-pass latency p50 (`trace.op_ms_p50`) against the
untraced run's, and the traced run must return the same poses and
confidences (the result files' `results_digest`) as the untraced one.
Runs are sequential, one process at a time. Exits 1 when a run fails or
a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED_STEP = 1000


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    out = json.loads(lines[-1])
    result_file = BENCH_DIR / "results" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    result = json.loads(result_file.read_text())
    out["digest"] = result["fingerprints"]["results_digest"]
    out["pass1_p50"] = result["info"]["pass1_latency_ms_p50"]
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--base", type=int, default=1000)
    p.add_argument("--traced", action="store_true", help="also run --trace 1 per seed")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [args.base + i * SEED_STEP for i in range(args.runs)]
    runs, traced = [], []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, bench["run_seconds"], 0))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in runs[-1]["metrics"].items())), flush=True)
        if args.traced:
            traced.append(run_once(args.workload, seed, bench["run_seconds"], 1))

    ok = all(r["correct"] for r in runs + traced)
    print("\n%-18s %12s %12s %12s %8s %7s %9s" % ("metric", "median", "q1", "q3", "spread", "bound", "spr/bnd"))
    summary = {}
    for name, bound in bounds.items():
        if name not in runs[0]["metrics"]:
            continue
        q1, med, q3, spr = spread([r["metrics"][name]["value"] for r in runs])
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spr, "bound": bound}
        print("%-18s %12.6g %12.6g %12.6g %8.4f %7.3f %9.3f" % (name, med, q1, q3, spr, bound, spr / bound))
        if name != "setup_s" and spr > bound:
            ok = False
    if traced:
        ratios = [t["pass1_p50"] / r["pass1_p50"] for r, t in zip(runs, traced)]
        same = all(r["digest"] == t["digest"] for r, t in zip(runs, traced))
        summary["trace_overhead"] = {"median_ratio": statistics.median(ratios), "digests_equal": same}
        print("tracing overhead: traced / untraced first-pass latency p50 = %.4f (median of %d)"
              % (statistics.median(ratios), len(ratios)))
        print("traced results identical to untraced: %s" % same)
        ok = ok and same
    out = BENCH_DIR / "results" / ("steady-%s-base%d.json" % (args.workload, args.base))
    out.write_text(json.dumps({"seeds": seeds, "summary": summary, "runs": runs, "traced": traced},
                              indent=1, sort_keys=True) + "\n")
    print("all runs correct and every spread within its bound: %s" % ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
