"""Command-line surface: scene generation, registration, evaluation.

Exit codes: 0 success, 1 usage or bad parameter, 2 data error,
3 registration finished but below the confidence threshold.
"""

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .config import PipelineConfig, echo_config, make_config
from .errors import EmptyScene, Scan2PlanError
from .ingest import load_submap, load_wall_models, save_pose, save_submap, save_wall_models
from .pipeline import (
    build_floor_index,
    evaluate_scenes,
    pr_from_directories,
    register_submap,
    write_eval_csv,
    write_pr_csv,
)
from .synthetic import generate_layout, random_interior_pose, synthesize_submap


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % (message,))
        sys.exit(1)


class _Once(argparse.Action):
    """Stores a flag's value, and rejects the flag given a second time
    (argparse would keep only the last)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error("argument %s: given more than once" % (option_string,))
        setattr(namespace, self.dest, values)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("pipeline parameters")
    g.add_argument("--config", metavar="FILE", help="flat key = value parameter file")
    for f in dataclasses.fields(PipelineConfig):
        g.add_argument("--%s" % f.name, metavar="V", dest="cfg_%s" % f.name)


def _config_of(args) -> PipelineConfig:
    overrides = {}
    for f in dataclasses.fields(PipelineConfig):
        v = getattr(args, "cfg_%s" % f.name, None)
        if v is not None:
            overrides[f.name] = v
    return make_config(file_path=args.config, overrides=overrides)


def _echo(cfg: PipelineConfig, out) -> None:
    for line in echo_config(cfg).splitlines():
        out.write("# %s\n" % (line,))


def _load_floors(model_path, cfg):
    return [build_floor_index(m, cfg) for m in load_wall_models(model_path)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_floorplan(args) -> int:
    if args.floors < 1:
        raise ValueError("--floors must be >= 1, got %d" % (args.floors,))
    models = [
        generate_layout(args.seed + i, args.n_rooms, args.corridor, args.extent).wall_model
        for i in range(args.floors)
    ]
    save_wall_models(models, args.out)
    n_walls = sum(len(m.walls) for m in models)
    print("wrote %d floor(s), %d walls to %s" % (len(models), n_walls, args.out))
    return 0


# sensor draws that see no wall before gen-scene gives up on a scene,
# as random_interior_pose gives up after 1000 placements
MAX_EMPTY_DRAWS = 1000


def _draw_scene(layout, master, args):
    for _ in range(MAX_EMPTY_DRAWS):
        pose = random_interior_pose(layout, master)
        synth_seed = int(master.integers(2**31))
        try:
            return synthesize_submap(
                layout.wall_model, pose, args.radius, args.noise_sigma,
                args.drop_frac, args.clutter_frac, seed=synth_seed,
            )
        except EmptyScene:
            continue
    raise EmptyScene("no wall within --radius %g of %d sensor draws" % (args.radius, MAX_EMPTY_DRAWS))


def cmd_gen_scene(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1, got %d" % (args.count,))
    layout = generate_layout(args.layout_seed, args.n_rooms, args.corridor, args.extent)
    out = Path(args.out)
    master = np.random.default_rng(args.seed)
    for k in range(args.count):
        scene = _draw_scene(layout, master, args)
        if k == 0:  # nothing is written before a scene could be drawn
            out.mkdir(parents=True, exist_ok=True)
            save_wall_models([layout.wall_model], out / "floorplan.txt")
        save_submap(scene.submap, out / ("scene_%04d.submap" % k))
        save_pose(scene.gt_pose, out / ("scene_%04d.pose" % k))
    print("wrote %d scene(s) and floorplan.txt to %s" % (args.count, out))
    return 0


def cmd_register(args) -> int:
    cfg = _config_of(args)
    floors = _load_floors(args.model, cfg)
    submap = load_submap(args.submap)
    best, reports = register_submap(submap, floors, cfg)
    _echo(cfg, sys.stdout)
    for r in reports:
        pose = (
            (r.pose.x, r.pose.y, r.pose.yaw)
            if r.pose is not None
            else (float("nan"),) * 3
        )
        print(
            "floor %s confidence %.6f votes %d pose %.6f %.6f %.6f"
            % ((r.floor_id, r.confidence, r.votes) + pose)
        )
    bp = (best.pose.x, best.pose.y, best.pose.yaw) if best.pose is not None else (float("nan"),) * 3
    print(
        "best %s pose %.6f %.6f %.6f confidence %.6f accepted %d"
        % ((best.floor_id,) + bp + (best.confidence, int(best.accepted)))
    )
    for stage, ms in best.timings_ms.items():
        sys.stderr.write("time %s %.3f ms\n" % (stage, ms))
    return 0 if best.accepted else 3


def cmd_evaluate(args) -> int:
    cfg = _config_of(args)
    floors = _load_floors(args.model, cfg)
    summary = evaluate_scenes(args.scenes, floors, cfg)
    if args.csv:
        write_eval_csv(summary.outcomes, args.csv)
    _echo(cfg, sys.stdout)
    judged = [o for o in summary.outcomes if o.success is not None]
    print("scenes %d judged %d" % (len(summary.outcomes), len(judged)))
    print("recall %.4f" % (summary.recall,))
    print(
        "time mean %.1f ms p50 %.1f ms p95 %.1f ms"
        % (summary.mean_ms, summary.p50_ms, summary.p95_ms)
    )
    return 0


def cmd_pr_curve(args) -> int:
    cfg = _config_of(args)
    floors = _load_floors(args.model, cfg)
    precision, recall, thresholds, auc = pr_from_directories(
        args.pos, args.neg, floors, cfg
    )
    if args.csv:
        write_pr_csv(precision, recall, thresholds, args.csv)
    _echo(cfg, sys.stdout)
    print("points %d" % (len(thresholds),))
    print("auc %.4f" % (auc,))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="scan2plan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-floorplan", help="write a synthetic wall-model file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-rooms", type=int, default=8)
    p.add_argument("--corridor", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--extent", type=float, default=40.0)
    p.add_argument("--floors", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_floorplan)

    p = sub.add_parser("gen-scene", help="write submap/pose scene files")
    p.add_argument("--layout-seed", type=int, default=0)
    p.add_argument("--n-rooms", type=int, default=8)
    p.add_argument("--corridor", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--extent", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--radius", type=float, default=15.0)
    p.add_argument("--noise-sigma", type=float, default=0.03)
    p.add_argument("--drop-frac", type=float, default=0.0)
    p.add_argument("--clutter-frac", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("register", help="register one submap against floor model(s)")
    p.add_argument("--submap", required=True)
    p.add_argument("--model", required=True, action=_Once)
    _add_config_flags(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("evaluate", help="registration recall over a scene directory")
    p.add_argument("--scenes", required=True)
    p.add_argument("--model", required=True, action=_Once)
    p.add_argument("--csv", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pr-curve", help="confidence precision/recall sweep")
    p.add_argument("--pos", required=True)
    p.add_argument("--neg", required=True)
    p.add_argument("--model", required=True, action=_Once)
    p.add_argument("--csv", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_pr_curve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        sys.stderr.write("error: %s\n" % (e,))
        return 1
    except OSError as e:
        sys.stderr.write("error: %s\n" % (e,))
        return 2
    except Scan2PlanError as e:
        sys.stderr.write("error: %s\n" % (e,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
