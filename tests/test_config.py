"""Config defaults, file parsing, override precedence, validation."""

import ast
import dataclasses
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import scan2plan
from scan2plan.config import PipelineConfig, echo_config, make_config
from scan2plan.errors import ParseError


# --- defaults -------------------------------------------------------------


def test_default_parameter_values():
    cfg = PipelineConfig()
    assert cfg.sigma_lambda == 10.0
    assert cfg.r_s == 0.5
    assert cfg.r_a == 3.0
    assert cfg.l_max == 30.0
    assert cfg.r_xy == 0.15
    assert cfg.r_yaw_deg == 1.0
    assert (cfg.l_cells, cfg.k_cells, cfg.j_candidates) == (10000, 5000, 16)
    assert len(dataclasses.fields(PipelineConfig)) == 23
    cfg.validate()


# --- file parsing and precedence -------------------------------------------


def test_config_file_sets_values(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "r_xy = 0.3\n"
        "\n"
        "# full comment line\n"
        "l_cells = 20000  # inline comment\n"
    )
    cfg = make_config(file_path=p)
    assert cfg.r_xy == 0.3
    assert cfg.l_cells == 20000
    assert cfg.r_s == 0.5  # untouched default


def test_flag_overrides_beat_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("r_xy = 0.3\nk_d = 7\n")
    cfg = make_config(file_path=p, overrides={"r_xy": "0.6"})
    assert cfg.r_xy == 0.6
    assert cfg.k_d == 7


def test_unknown_key_rejected(tmp_path):
    # removed knobs are unknown too, not silently ignored
    p = tmp_path / "run.cfg"
    for key in ("r_xz", "threads", "r_v", "d_s", "variant", "s_i", "l_min_px", "gap_px", "band_px", "theta_bins"):
        p.write_text("%s = 1\n" % (key,))
        with pytest.raises(ParseError, match="unknown config key"):
            make_config(file_path=p)
        with pytest.raises(ValueError, match="unknown config key"):
            make_config(overrides={key: "1"})


def test_key_given_twice_in_a_file_rejected(tmp_path):
    # the second value used to win silently
    p = tmp_path / "run.cfg"
    p.write_text("s_v = 1.5\n# comment\ns_v = 3.0\n")
    with pytest.raises(ParseError, match=r"run.cfg:3: s_v is already set at line 1"):
        make_config(file_path=p)


def test_malformed_line_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("r_xy 0.3\n")
    with pytest.raises(ParseError):
        make_config(file_path=p)


def test_bad_value_rejected(tmp_path):
    # a bad flag is the caller's fault, a bad file line is the file's
    with pytest.raises(ValueError):
        make_config(overrides={"r_xy": "wide"})
    p = tmp_path / "run.cfg"
    p.write_text("r_xy = wide\n")
    with pytest.raises(ParseError):
        make_config(file_path=p)
    p.write_text("r_xz = 0.3\n")
    with pytest.raises(ValueError):
        make_config(file_path=None, overrides={"r_xz": "0.3"})


# --- validation -------------------------------------------------------------


def test_limits_must_be_ordered():
    with pytest.raises(ValueError):
        make_config(overrides={"k_cells": "20000"})


def test_positive_required():
    with pytest.raises(ValueError):
        make_config(overrides={"s_r": "-0.2"})
    with pytest.raises(ValueError):
        make_config(overrides={"s_v": "0"})
    with pytest.raises(ValueError, match="k_d"):
        make_config(overrides={"k_d": "0"})
    with pytest.raises(ValueError, match="lam"):
        make_config(overrides={"lam": "-0.1"})


@pytest.mark.parametrize(
    "key, text",
    [("s_v", "nan"), ("lam", "nan"), ("min_confidence", "nan"), ("min_confidence", "-inf"),
     ("dist_tol_m", "inf"), ("s_r", "nan"), ("residual_max_m", "inf")],
)
def test_non_finite_rejected(tmp_path, key, text):
    with pytest.raises(ValueError, match=key):
        make_config(overrides={key: text})
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("%s = %s\n" % (key, text))
    with pytest.raises(ValueError, match=key):
        make_config(cfgf)


@pytest.mark.parametrize("r_yaw_deg", ["180", "200", "360", "1000"])
def test_fewer_than_three_yaw_bins_rejected(r_yaw_deg):
    # with one or two yaw bins the -1 and +1 yaw neighbours are one cell,
    # which the 3x3x3 neighbourhood sum would count more than once
    with pytest.raises(ValueError, match="r_yaw_deg"):
        make_config(overrides={"r_yaw_deg": r_yaw_deg})


def test_three_yaw_bins_allowed():
    assert make_config(overrides={"r_yaw_deg": "120"}).r_yaw_deg == 120.0
    assert make_config(overrides={"r_yaw_deg": "179.9"}).r_yaw_deg == 179.9


def test_zero_lam_and_negative_threshold_allowed():
    # lam = 0 is award-only scoring, which select_best takes as well
    cfg = make_config(overrides={"min_confidence": "-1.0", "lam": "0"})
    assert cfg.lam == 0.0
    assert cfg.min_confidence == -1.0


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig) if type(f.default) is int])
def test_integer_fields_reject_floats(name):
    # a float limit used to pass, then die in a slice with TypeError, and
    # a float k_d reached the raster as a float pad
    default = getattr(PipelineConfig(), name)
    with pytest.raises(ValueError, match="%s must be an integer" % (name,)):
        PipelineConfig(**{name: float(default)}).validate()
    PipelineConfig(**{name: np.int64(default)}).validate()  # a numpy integer is one


# --- echo -------------------------------------------------------------------


def test_echo_round_trip(tmp_path):
    cfg = make_config(overrides={"r_xy": "0.45", "lam": "0", "l_max": "40.0"})
    p = tmp_path / "echo.cfg"
    p.write_text(echo_config(cfg) + "\n")
    assert make_config(file_path=p) == cfg


def test_echo_covers_every_field_in_order():
    lines = echo_config(PipelineConfig()).splitlines()
    names = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert [ln.split("=")[0].strip() for ln in lines] == names


# --- package surface --------------------------------------------------------


def test_package_root_imports_nothing():
    # each public name has one import path, its defining module; a root
    # that re-imports names is a second export list that drifts from the
    # modules' __all__
    tree = ast.parse((Path(scan2plan.__file__).parent / "__init__.py").read_text())
    imports = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


# --- reachability -----------------------------------------------------------


def test_every_field_is_read_by_the_package():
    # a knob no stage reads is dead weight in every config file and echo
    read = set()
    for path in Path(scan2plan.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(PipelineConfig) if f.name not in read]
    assert unread == []


def test_stage_defaults_equal_config_defaults():
    # a direct call of a stage function must run at the config's defaults,
    # and a stage parameter that shares a field's name means that field
    from scan2plan import descriptors, lines, planes, verify, voting

    defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
    checked, wrong = [], []
    for mod in (planes, lines, descriptors, voting, verify):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ != mod.__name__:
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.default is inspect.Parameter.empty or p.name not in defaults:
                    continue
                checked.append((name, p.name))
                if p.default != defaults[p.name]:
                    wrong.append((mod.__name__, name, p.name, p.default, defaults[p.name]))
    assert wrong == []
    assert ("classify_patches", "gravity_tol_deg") in checked


def _callee(mod, func):
    """The object a call's `f` or `a.f` names in `mod`, else None."""
    if isinstance(func, ast.Name):
        return getattr(mod, func.id, None)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return getattr(getattr(mod, func.value.id, None), func.attr, None)
    return None


def test_each_field_reaches_the_stage_parameter_of_its_name():
    # a field handed to a tunable (defaulted) stage parameter of another
    # name is an alias that hides which knob the stage reads
    from scan2plan import cli, pipeline

    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    checked, wrong = 0, []
    for mod in (pipeline, cli):
        for node in ast.walk(ast.parse(Path(mod.__file__).read_text())):
            fn = _callee(mod, node.func) if isinstance(node, ast.Call) else None
            if not (inspect.isfunction(fn) or inspect.ismethod(fn)):
                continue
            if not fn.__module__.startswith("scan2plan.") or fn.__module__ == mod.__name__:
                continue
            params = inspect.signature(fn).parameters
            passed = list(zip(params.values(), node.args)) + [(params[k.arg], k.value) for k in node.keywords]
            for p, arg in passed:
                if not (isinstance(arg, ast.Attribute) and arg.attr in fields):
                    continue
                if p.default is inspect.Parameter.empty:
                    continue
                checked += 1
                if p.name != arg.attr:
                    wrong.append((mod.__name__, fn.__name__, p.name, arg.attr))
    assert wrong == []
    assert checked >= 20


# --- stage guards -------------------------------------------------------------

# (module, function, numeric parameter): each stage function rejects NaN
# in that parameter with a ValueError that names it, as the config does
STAGE_GUARDS = [
    ("planes", "segment_planes", "s_v"),
    ("planes", "segment_planes", "sigma_lambda"),
    ("planes", "merge_patches", "normal_tol_deg"),
    ("planes", "merge_patches", "dist_tol_m"),
    ("planes", "classify_patches", "gravity_tol_deg"),
    ("lines", "merge_refit", "endpoint_tol_m"),
    ("lines", "merge_refit", "angle_tol_deg"),
    ("lines", "extract_corners", "extend_m"),
    ("lines", "extract_corners", "nms_radius_m"),
    ("lines", "extract_corners", "min_angle_deg"),
    ("descriptors", "clique_triplets", "l_max"),
    ("descriptors", "canonical_triplets", "r_s"),
    ("descriptors", "canonical_triplets", "r_a"),
    ("descriptors", "canonical_triplets", "min_angle_deg"),
    ("descriptors", "build_triplets", "l_max"),
    ("descriptors", "build_triplets", "r_s"),
    ("descriptors", "build_triplets", "r_a"),
    ("descriptors", "build_db", "l_max"),
    ("descriptors", "build_db", "r_s"),
    ("descriptors", "build_db", "r_a"),
    ("voting", "cast_votes", "r_xy"),
    ("voting", "cast_votes", "r_yaw_deg"),
    ("voting", "cast_votes", "residual_max_m"),
    ("voting", "hierarchical_vote", "l_cells"),
    ("voting", "hierarchical_vote", "k_cells"),
    ("voting", "hierarchical_vote", "j_candidates"),
    ("verify", "build_score_field", "s_r"),
    ("verify", "build_score_field", "k_d"),
    ("verify", "select_best", "lam"),
]


def _stage_inputs():
    """Valid leading arguments of each function in STAGE_GUARDS."""
    from scan2plan import lines, planes, verify, voting

    rng = np.random.default_rng(1)
    # a wall in the plane y = 0 that the octree cuts into two patches
    wall = np.column_stack([rng.uniform(0.0, 4.0, 64), np.zeros(64), rng.uniform(0.0, 2.0, 64)])
    patches = planes.segment_planes(wall).patches
    xy = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    corners = lines.Corners(xy, np.tile(np.eye(2), (3, 1, 1)), np.ones(3))
    verts, dirs = xy[None], np.tile(np.eye(2), (1, 3, 1, 1))
    grid = voting.cast_votes((verts, verts))
    walls = np.array([[[0.0, 0.0], [4.0, 0.0]]])
    one = voting.Candidates(np.zeros((1, 3)), *(np.ones(1, dtype=np.int64) for _ in range(3)))
    return {
        "segment_planes": (np.random.default_rng(0).uniform(0.0, 4.0, (64, 3)),),
        "merge_patches": (patches,),
        "classify_patches": (patches, np.array([0.0, 0.0, -1.0])),
        "merge_refit": (walls,),
        "extract_corners": (walls,),
        "clique_triplets": (corners,),
        "canonical_triplets": (verts, dirs),
        "build_triplets": (corners,),
        "build_db": (corners,),
        "cast_votes": ((verts, verts),),
        "hierarchical_vote": (grid,),
        "build_score_field": (walls,),
        "select_best": (verify.build_score_field(walls), one, verify.prepare_scoring(xy, xy, 0.2)),
    }


@pytest.mark.parametrize("module, function, name", STAGE_GUARDS)
def test_stage_functions_reject_nan_parameters(module, function, name):
    # a stage called directly must guard its knobs as validate() does:
    # NaN passes every `<` test, so a check written as `value < 1` lets
    # it through to a cast error, an empty result or a silent miss
    fn = getattr(importlib.import_module("scan2plan." + module), function)
    args = _stage_inputs()[function]
    fn(*args, **{name: getattr(PipelineConfig(), name, 1.0)})  # valid at the config's value
    with pytest.raises(ValueError, match=name):
        fn(*args, **{name: float("nan")})


def _accepts(call) -> bool:
    """False when `call()` raises ValueError, True when it returns."""
    try:
        call()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("value", [0, -1, math.inf, math.nan])
@pytest.mark.parametrize("module, function, name", STAGE_GUARDS)
def test_stage_accepts_a_value_exactly_when_the_config_does(module, function, name, value):
    # --extend_m 0 exited 1 though extract_corners takes 0, and
    # segment_planes took a sigma_lambda <= 0 that the config rejects
    fn = getattr(importlib.import_module("scan2plan." + module), function)
    args = _stage_inputs()[function]
    in_config = _accepts(lambda: PipelineConfig(**{name: value}).validate())
    assert _accepts(lambda: fn(*args, **{name: value})) == in_config


@pytest.mark.parametrize(
    "module, function, name", [("planes", "merge_patches", "dist_tol_m"), ("lines", "merge_refit", "endpoint_tol_m")]
)
def test_stage_guards_come_before_the_empty_input_return(module, function, name):
    # an empty input returns early, only after the knobs are checked
    from scan2plan import planes

    no_patches = planes.segment_planes(np.zeros((0, 3))).patches
    empty = no_patches if function == "merge_patches" else np.zeros((0, 2, 2))
    fn = getattr(importlib.import_module("scan2plan." + module), function)
    assert len(fn(empty)) == 0
    with pytest.raises(ValueError, match=name):
        fn(empty, **{name: float("nan")})
