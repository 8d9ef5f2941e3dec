"""In-memory span tracer that wraps the names `scan2plan.pipeline` imports.

`install(tracer, pipeline)` replaces each wrapped name in the pipeline
module's namespace with a timing wrapper, so spans nest inside
`register_submap`, `register_features` and `build_floor_index` without
any change to the package. A name the module no longer has is recorded
as absent.

Each wrapper also pulls a few counts out of the call's arguments or
result. Counting runs after the span's end time is taken, and its cost
is charged to no layer: it shows only as tracing overhead.
"""

import time
from typing import Callable, Dict, List, Optional, Tuple

# pipeline-module name -> span name ("<layer>.<step>")
SPANS = {
    "segment_planes": "planes.segment",
    "merge_patches": "planes.merge",
    "classify_patches": "planes.classify",
    "rasterize_points": "lines.rasterize",
    "detect_segments": "lines.hough",
    "merge_refit": "lines.merge",
    "extract_corners": "lines.corners",
    "model_corners": "lines.model_corners",
    "build_triplets": "descriptors.triplets",
    "query_correspondences": "descriptors.query",
    "build_db": "descriptors.build_db",
    "cast_votes": "voting.cast",
    "hierarchical_vote": "voting.cluster",
    "select_best": "verify.select",
    "build_score_field": "verify.field",
    "extract_submap_features": "pipeline.extract",
    "register_features": "pipeline.register_features",
    "register_submap": "pipeline.register_submap",
    "build_floor_index": "pipeline.build_floor_index",
}


def _count_segment(args, res, counts):
    counts["planes.n_patches"] = len(res.patches)
    counts["planes.n_points"] = res.n_points
    counts["planes.n_unassigned"] = res.n_unassigned


def _count_classify(args, res, counts):
    counts["planes.n_walls"] = len(res[0])
    counts["planes.n_ground"] = len(res[1])


def _count_raster(args, res, counts):
    counts["lines.raster_px"] = int(res.grid.size)
    counts["lines.occupied_px"] = int(res.grid.sum())


def _count_build_db(args, res, counts):
    counts["descriptors.db_keys"] = len(res.buckets)
    counts["descriptors.db_entries"] = res.n_triplets


def _count_cast(args, res, counts):
    counts["voting.n_cells"] = int(res.packed.shape[0])
    counts["voting.n_kept"] = int(res.counts.sum())
    counts["voting.n_rejected"] = int(res.n_rejected)


def _count_extract(args, res, counts):
    counts["pipeline.n_ground_pts"] = int(res.q_g_xy.shape[0])
    counts["pipeline.n_nonground_pts"] = int(res.q_ng_xy.shape[0])


def _count_select(args, res, counts):
    counts["verify.n_scored"] = len(args[1])


def _count_report(args, res, counts):
    counts["descriptors.n_correspondences"] = res.n_correspondences


def _count_len(key):
    def count(args, res, counts):
        counts[key] = len(res)
    return count


COUNTERS = {
    "planes.segment": _count_segment,
    "planes.merge": _count_len("planes.n_merged"),
    "planes.classify": _count_classify,
    "lines.rasterize": _count_raster,
    "lines.hough": _count_len("lines.n_segments_raw"),
    "lines.merge": _count_len("lines.n_segments"),
    "lines.corners": _count_len("lines.n_corners"),
    "descriptors.triplets": _count_len("descriptors.n_triplets"),
    "descriptors.build_db": _count_build_db,
    "voting.cast": _count_cast,
    "voting.cluster": _count_len("voting.n_candidates"),
    "verify.select": _count_select,
    "pipeline.extract": _count_extract,
    "pipeline.register_features": _count_report,
}


class Unit:
    """Spans and counts of one scene (or one set-up), summed per name."""

    def __init__(self, label: str):
        self.label = label
        self.self_ms: Dict[str, Dict[str, float]] = {}  # root -> span -> ms
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        # candidate poses per floor id, for truth-candidate checks
        self.candidates: Dict[str, list] = {}
        self.root_ms: Dict[str, float] = {}  # root span name -> duration

    def add_count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Span stack plus the current unit that finished spans land in."""

    def __init__(self):
        self.unit: Optional[Unit] = None
        self._stack: List[list] = []  # [span id, name, t0, child time]
        self._next_id = 0
        self._floor: Optional[str] = None
        self.absent: List[str] = []

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, t_end: float, t_after: float) -> None:
        """End the innermost span at t_end; charge its parent up to t_after."""
        span_id, name, t0, child = self._stack.pop()
        dur = (t_end - t0) * 1e3
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += (t_after - t0) * 1e3
        u = self.unit
        per_root = u.self_ms.setdefault(self._stack[0][1] if parent else name, {})
        per_root[name] = per_root.get(name, 0.0) + dur - child
        u.spans.append((span_id, parent[0] if parent else None, name, t0, t_end))
        if parent is None:
            u.root_ms[name] = u.root_ms.get(name, 0.0) + dur

    def root(self, name: str, fn: Callable, *args):
        """Run fn(*args) as a root span of the current unit."""
        self._open(name)
        try:
            return fn(*args)
        finally:
            t = time.perf_counter()
            self._close(t, t)

    def wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            prev_floor = tracer._floor
            if name == "pipeline.register_features":
                tracer._floor = args[1].model.floor_id
            tracer._open(name)
            res = done = None
            try:
                res = fn(*args, **kwargs)
                done = True
                return res
            finally:
                t_end = time.perf_counter()
                tracer._floor = prev_floor
                if done:
                    tracer._count(name, counter, args, res)
                tracer._close(t_end, time.perf_counter())

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, counter, args, res) -> None:
        local: Dict[str, float] = {}
        try:
            if counter is not None:
                counter(args, res, local)
            if name == "voting.cluster":
                poses = [c.pose for c in res]
                self.unit.candidates.setdefault(self._floor, []).extend(poses)
        except (AttributeError, TypeError, IndexError):
            # the layer changed shape; its counts are simply missing
            local = {}
        for k, v in local.items():
            self.unit.add_count(k, v)


def install(tracer: Tracer, module) -> Dict[str, Callable]:
    """Wrap every name of SPANS in `module`; returns the originals."""
    originals = {}
    for attr, name in SPANS.items():
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.absent.append(attr)
            continue
        originals[attr] = fn
        setattr(module, attr, tracer.wrap(fn, name))
    return originals


def uninstall(module, originals: Dict[str, Callable]) -> None:
    for attr, fn in originals.items():
        setattr(module, attr, fn)
