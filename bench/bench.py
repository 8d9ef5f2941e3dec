"""scan2plan benchmark: seeded, single-process, closed-loop registration.

    python3 bench/bench.py --workload {a4,building} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`. `--trace 0` measures the end-to-end metrics with no tracing.
`--trace 1` wraps the pipeline's stages in spans and reports per-layer
metrics instead. Either way the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`, and a result file
with a reproducibility header lands in `bench/results/`. The exit code
is 0 when every correctness gate passes, 1 when one fails and 2 when
the checkout has no package to measure. See bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

BLAS_THREADS = 1  # pinned below nproc; the pipeline runs threads = 1
DEFAULT_SEED = 9000  # with --workload a4 these are the tier-1 A4 scenes
TAIL_PCT = 75  # highest percentile with >= 10 ops beyond it at 40 ops
PEAK_SCENES = 4  # ops run under tracemalloc (~4x slower), outside the timed passes
CHECK_SCENES = 2  # traced ops re-run untraced and compared byte for byte

# correctness gates: the tier-1 A4 floor, and building levels measured at
# the commit that introduced this benchmark (recall 1.0, no false accept)
GATES = {
    "a4": {"recall_min": 0.95},
    "building": {"recall_min": 0.9, "false_accept_max": 0.0},
}


def _pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _hd_pct(values, q: float) -> float:
    """Harrell-Davis quantile: a beta-weighted mean of all order statistics.

    Op times cluster by floor in `building`, and a single order statistic
    jumps across the gaps between clusters from run to run; this estimator
    moves smoothly.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q / 100.0])[0])


def _header(args, spec, cfg) -> dict:
    import numpy
    import scipy

    import workloads as wl

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": spec.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "seeds": {
            # run seeds draw the a4 scans / the building submap frames;
            # fixed seeds draw the poses (and the building scans)
            "base": args.seed,
            "run_seeds": [args.seed, args.seed + spec.n_scenes - 1],
            "fixed_seeds": [wl.POSE_SEED, wl.POSE_SEED + spec.n_scenes - 1],
            "floor_layouts": [list(f) for f in spec.floors],
            "absent_layout": list(spec.absent) if spec.absent else None,
        },
        "config": dict(cfg.__dict__),
    }


def _setup(floor_layouts, cfg, speed, tracer=None):
    """Build every floor once; returns (floors, raw s, host-scaled s).

    A traced set-up is one root span and is not scaled.
    """
    from scan2plan import pipeline

    gc.collect()
    if tracer is not None:
        t0 = time.perf_counter()
        floors = tracer.root(
            "setup", lambda: [pipeline.build_floor_index(l.wall_model, cfg) for l in floor_layouts]
        )
        raw = time.perf_counter() - t0
        return floors, raw, raw
    floors, raw, scaled = [], 0.0, 0.0
    for layout in floor_layouts:
        floor, r, s = speed.time(pipeline.build_floor_index, layout.wall_model, cfg)
        floors.append(floor)
        raw += r
        scaled += s
    return floors, raw, scaled


def _time_op(op, scene, floors, cfg, speed, call=None):
    """(host-scaled ms, raw ms, best report, all reports), or None if it raised."""
    try:
        if call is None:
            (best, reports), raw, scaled = speed.time(op, scene.op_input, floors, cfg)
        else:
            (best, reports), raw, scaled = speed.time(call, "op", op, scene.op_input, floors, cfg)
    except Exception as exc:  # a failed op is counted, not fatal
        print("scene %d: %s: %s" % (scene.k, type(exc).__name__, exc), file=sys.stderr)
        return None
    return scaled * 1e3, raw * 1e3, best, reports


def run(args) -> int:
    import spans
    import workloads as wl
    from hostspeed import REF_MS, HostSpeed
    from scan2plan import pipeline
    from scan2plan.config import PipelineConfig

    spec = wl.SPECS[args.workload]
    if args.scenes:
        spec = wl.Spec(**{**spec.__dict__, "n_scenes": args.scenes})
    cfg = PipelineConfig()
    RESULTS.mkdir(exist_ok=True)
    header = _header(args, spec, cfg)
    floor_layouts, absent = wl.layouts(spec)
    op = wl.op_for(spec)
    traced = bool(args.trace)
    speed = HostSpeed()

    tracer = originals = setup_unit = None
    if traced:
        tracer = spans.Tracer()
        originals = spans.install(tracer, pipeline)
        tracer.unit = setup_unit = spans.Unit("setup")
    floors, raw_s, setup_s = _setup(floor_layouts, cfg, speed, tracer)
    setup_times, setup_raw = [setup_s], [raw_s]
    db_digests = {f.model.floor_id: wl.db_digest(f.db, RESULTS) for f in floors}

    def another_setup():
        _, raw_s, setup_s = _setup(floor_layouts, cfg, speed)
        setup_times.append(setup_s)
        setup_raw.append(raw_s)

    # pass 1: scenes are made one at a time, untimed, then timed and judged;
    # untraced runs set up again at even steps through the pass and once at
    # the end, so the set-up reps are spread over the run
    scenes, units, first = [], [], []
    mid_setups = {spec.n_scenes * j // (spec.setup_reps - 1) for j in range(1, spec.setup_reps - 1)}
    for k in range(spec.n_scenes):
        if not traced and k in mid_setups:
            another_setup()
        if traced:
            tracer.unit = spans.Unit("scene %d" % k)
            units.append(tracer.unit)
            scene = tracer.root("prep", wl.make_scene, spec, floor_layouts, absent, args.seed, k, cfg)
        else:
            scene = wl.make_scene(spec, floor_layouts, absent, args.seed, k, cfg)
        scenes.append(scene)
        first.append(_time_op(op, scene, floors, cfg, speed, tracer.root if traced else None))
    keys = [None if r is None else wl.result_key(r[3]) for r in first]
    failed = sum(r is None for r in first)
    attempted = len(first)
    ok_idx = [i for i, r in enumerate(first) if r is not None]
    lat_ms = [first[i][0] for i in ok_idx]
    raw_ms = [first[i][1] for i in ok_idx]
    pass1_p50 = _hd_pct(lat_ms, 50) if lat_ms else None

    trace_mismatch = mismatched = 0
    if traced:
        # a few ops again with the wrappers removed, compared byte for byte
        spans.uninstall(pipeline, originals)
        checked = ok_idx[:CHECK_SCENES]
        for i in checked:
            r = _time_op(op, scenes[i], floors, cfg, speed)
            attempted += 1
            trace_mismatch += r is None or wl.result_key(r[3]) != keys[i]
        failed += trace_mismatch
    else:
        # time the same inputs again until the workload's passes are done and
        # the ops have taken --seconds; every repeat must reproduce pass 1
        # exactly
        passes = 1
        while ok_idx and (passes < spec.passes or sum(raw_ms) / 1e3 < args.seconds):
            for i in ok_idx:
                r = _time_op(op, scenes[i], floors, cfg, speed)
                attempted += 1
                if r is None or wl.result_key(r[3]) != keys[i]:
                    mismatched += 1
                    continue
                lat_ms.append(r[0])
                raw_ms.append(r[1])
            passes += 1
        another_setup()
        failed += mismatched

    # each op's allocation high-water mark, measured apart from the timed
    # passes; the mean over the ops is steadier than their maximum, which
    # one heavy scene sets
    peaks_mb = []
    if not traced:
        tracemalloc.start()
        for i in ok_idx[:PEAK_SCENES]:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op(scenes[i].op_input, floors, cfg)
            peaks_mb.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        tracemalloc.stop()

    # accuracy over pass 1
    bests = [None if r is None else r[2] for r in first]
    registrable = [(s, b) for s, b in zip(scenes, bests) if s.truth_floor is not None]
    absent_scenes = [b for s, b in zip(scenes, bests) if s.truth_floor is None]
    hits = [b is not None and wl.is_hit(s, b.pose, b.floor_id) for s, b in registrable]
    recall = sum(hits) / max(1, len(registrable))
    accepted_recall = sum(h and b.accepted for h, (s, b) in zip(hits, registrable)) / max(1, len(registrable))
    false_accept_rate = None
    if absent_scenes:
        false_accept_rate = sum(b is not None and b.accepted for b in absent_scenes) / len(absent_scenes)
    error_rate = failed / attempted

    gate = GATES[spec.name]
    gates = {
        "recall": {"value": recall, "min": gate["recall_min"], "ok": recall >= gate["recall_min"]},
        "error_rate": {"value": error_rate, "max": 0.0, "ok": failed == 0},
    }
    if "false_accept_max" in gate:
        gates["false_accept_rate"] = {
            "value": false_accept_rate, "max": gate["false_accept_max"],
            "ok": false_accept_rate <= gate["false_accept_max"],
        }
    if traced:
        gates["traced_equals_untraced"] = {"checked": len(checked), "ok": trace_mismatch == 0}
    else:
        gates["repeat_determinism"] = {"mismatched": mismatched, "ok": mismatched == 0}
    correct = all(g["ok"] for g in gates.values())

    results_digest = hashlib.sha256("\n".join(k or "error" for k in keys).encode()).hexdigest()
    per_scene = [
        {"k": s.k, "truth_floor": s.truth_floor, "best_floor": b and b.floor_id,
         "confidence": b and b.confidence, "accepted": b and b.accepted}
        for s, b in zip(scenes, bests)
    ]
    fingerprints = {"results_digest": results_digest, "db_digests": db_digests}
    info = {
        "n_scenes": spec.n_scenes,
        "n_registrable": len(registrable),
        "n_absent": len(absent_scenes),
        "error_rate": error_rate,
        "false_accept_rate": false_accept_rate,
        "pass1_latency_ms_p50": pass1_p50,
        "setup_s_reps": setup_times,
        "setup_s_raw_reps": setup_raw,
        "scenes": per_scene,
    }

    if traced:
        metrics, counts = _layer_metrics(setup_unit, units, scenes)
        metrics["trace.op_ms_p50"] = (info["pass1_latency_ms_p50"], "ms")
        fingerprints["counts"] = counts
        fingerprints["counts_digest"] = hashlib.sha256(
            json.dumps([u.counts for u in units], sort_keys=True).encode()
        ).hexdigest()
        info["absent_spans"] = tracer.absent
        _write_spans(args, setup_unit, units)
    else:
        lat_ms = lat_ms or [float("nan")]
        metrics = {
            "latency_ms_p50": (_hd_pct(lat_ms, 50), "ms"),
            "latency_ms_p%d" % TAIL_PCT: (_hd_pct(lat_ms, TAIL_PCT), "ms"),
            "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_alloc_mb": (statistics.mean(peaks_mb) if peaks_mb else float("nan"), "MB"),
            "recall": (recall, "ratio"),
            "accepted_recall": (accepted_recall, "ratio"),
        }
        info.update(passes=passes, timed_s=sum(raw_ms) / 1e3, latency_ms=lat_ms, raw_latency_ms=raw_ms,
                    raw_latency_ms_p50=_pct(raw_ms, 50) if raw_ms else None, peak_alloc_mb_per_op=peaks_mb)
    info["host_reference_ms"] = {"median": statistics.median(speed.ref_samples_ms), "scale_to": REF_MS}

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out = {"header": header, "metrics": metrics, "gates": gates, "fingerprints": fingerprints, "info": info}
    path = RESULTS / ("%s-seed%d-trace%d.json" % (spec.name, args.seed, args.trace))
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, g in gates.items():
        print("gate %-35s %s" % (name, "PASS" if g["ok"] else "FAIL"))
    print("error_rate %.4f, false_accept_rate %s, result file %s" % (
        error_rate, "n/a" if false_accept_rate is None else "%.4f" % false_accept_rate, path.relative_to(ROOT)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# span name -> per-layer metric holding its self time
SELF_MS = {
    "planes.segment": "planes.segment_ms",
    "planes.merge": "planes.merge_ms",
    "planes.classify": "planes.classify_ms",
    "lines.rasterize": "lines.rasterize_ms",
    "lines.hough": "lines.hough_ms",
    "lines.merge": "lines.merge_ms",
    "lines.corners": "lines.corners_ms",
    "descriptors.triplets": "descriptors.triplets_ms",
    "descriptors.query": "descriptors.query_ms",
    "voting.cast": "voting.cast_ms",
    "voting.cluster": "voting.cluster_ms",
    "verify.select": "verify.select_ms",
    "pipeline.extract": "pipeline.extract_self_ms",
    "pipeline.register_features": "pipeline.register_features_self_ms",
}
SETUP_MS = {
    "lines.model_corners": "lines.model_corners_ms",
    "descriptors.build_db": "descriptors.build_db_ms",
    "verify.field": "verify.field_ms",
}
PER_OP_COUNTS = (
    "pipeline.n_ground_pts", "pipeline.n_nonground_pts",
    "planes.n_patches", "planes.n_merged", "planes.n_walls", "planes.n_ground",
    "lines.raster_px", "lines.occupied_px", "lines.n_segments_raw", "lines.n_segments", "lines.n_corners",
    "descriptors.n_triplets", "descriptors.n_correspondences",
    "voting.n_cells", "voting.n_candidates", "verify.n_scored",
)
SETUP_COUNTS = ("descriptors.db_keys", "descriptors.db_entries")
FRONTEND = ("planes.", "lines.", "descriptors.triplets", "pipeline.extract")
BACKEND = ("descriptors.query", "voting.", "verify.select")


def _layer_metrics(setup_unit, units, scenes):
    """Per-layer metrics from the traced units, plus the count totals."""
    from scan2plan.geometry import registration_success

    metrics = {}

    def self_ms(unit, name):
        return sum(per_root.get(name, 0.0) for per_root in unit.self_ms.values())

    for name, key in SELF_MS.items():
        metrics[key] = (_pct([self_ms(u, name) for u in units], 50), "ms")
    for name, key in SETUP_MS.items():
        metrics[key] = (self_ms(setup_unit, name), "ms")
    for key in PER_OP_COUNTS:
        metrics[key] = (_pct([u.counts.get(key, 0) for u in units], 50), "count")
    for key in SETUP_COUNTS:
        metrics[key] = (setup_unit.counts.get(key, 0), "count")

    totals = {}
    for u in [setup_unit] + units:
        for k, v in u.counts.items():
            totals[k] = totals.get(k, 0) + v
    metrics["planes.unassigned_ratio"] = (
        totals.get("planes.n_unassigned", 0) / max(1, totals.get("planes.n_points", 0)), "ratio")
    kept = totals.get("voting.n_kept", 0)
    metrics["voting.accept_ratio"] = (kept / max(1, kept + totals.get("voting.n_rejected", 0)), "ratio")

    truth = [
        any(registration_success(p, s.gt) for p in u.candidates.get(s.truth_floor, ()))
        for u, s in zip(units, scenes) if s.truth_floor is not None
    ]
    metrics["voting.truth_candidate_rate"] = (sum(truth) / max(1, len(truth)), "ratio")

    # shares of op time, from spans under the "op" root only
    op_ms = [u.root_ms.get("op", 0.0) for u in units]
    op_total = max(sum(op_ms), 1e-9)
    op_self = {}
    for u in units:
        for name, v in u.self_ms.get("op", {}).items():
            op_self[name] = op_self.get(name, 0.0) + v

    def share(prefixes):
        return sum(v for n, v in op_self.items() if n.startswith(prefixes)) / op_total

    for layer in ("planes", "lines", "descriptors", "voting", "verify"):
        metrics["share." + layer] = (share(layer + "."), "ratio")
    metrics["share.pipeline"] = (share(("pipeline.", "op")), "ratio")
    metrics["share.frontend"] = (share(FRONTEND), "ratio")
    metrics["share.backend"] = (share(BACKEND), "ratio")
    setup_total = max(setup_unit.root_ms.get("setup", 0.0), 1e-9)
    metrics["share.build_db_of_setup"] = (self_ms(setup_unit, "descriptors.build_db") / setup_total, "ratio")
    metrics["trace.coverage"] = (sum(op_self.values()) / op_total, "ratio")
    return metrics, totals


def _write_spans(args, setup_unit, units) -> None:
    path = RESULTS / ("%s-seed%d-spans.jsonl" % (args.workload, args.seed))
    with open(path, "w") as fh:
        for u in [setup_unit] + units:
            for span_id, parent, name, t0, t1 in u.spans:
                fh.write(json.dumps({
                    "unit": u.label, "id": span_id, "parent": parent, "name": name,
                    "start": t0, "end": t1,
                }) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("a4", "building"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed; scene k uses seed + k")
    p.add_argument("--seconds", type=float, default=5.0,
                   help="least total op time of an untraced run; passes repeat until it is reached")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scenes", type=int, default=0, help="scene count override, for smoke tests")
    args = p.parse_args(argv)

    if not (SRC / "scan2plan" / "__init__.py").is_file():
        print("bench: no scan2plan package under %s" % SRC, file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import scan2plan

    if Path(scan2plan.__file__).resolve().parent != (SRC / "scan2plan").resolve():
        print("bench: imported scan2plan from %s, not %s" % (scan2plan.__file__, SRC), file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
