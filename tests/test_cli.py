"""CLI subcommands, exit codes, and artifact round trips."""

import csv
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scan2plan.cli import main
from scan2plan.config import PipelineConfig, make_config
from scan2plan.geometry import Se2Pose, registration_success
from scan2plan.ingest import Submap, load_pose, load_wall_models
from scan2plan.pipeline import extract_submap_features

UNIT_SQUARE = "0 0 1 0\n1 0 1 1\n1 1 0 1\n0 1 0 0\n"


def _gen(tmp_path, capsys):
    """Small floorplan + 2 scenes, shared CLI fixture."""
    plan = tmp_path / "plan.txt"
    scenes = tmp_path / "scenes"
    assert main(["gen-floorplan", "--seed", "7", "--n-rooms", "6",
                 "--extent", "30", "--out", str(plan)]) == 0
    assert main(["gen-scene", "--layout-seed", "7", "--n-rooms", "6",
                 "--extent", "30", "--seed", "3", "--count", "2",
                 "--radius", "10", "--noise-sigma", "0.02",
                 "--out", str(scenes)]) == 0
    capsys.readouterr()
    return plan, scenes


# ---------------------------------------------------------------------------
# gen-floorplan / gen-scene
# ---------------------------------------------------------------------------

def test_gen_floorplan_deterministic_and_parseable(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen-floorplan", "--seed", "5", "--n-rooms", "6", "--extent", "30"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    models = load_wall_models(a)
    assert len(models) == 1
    assert len(models[0].walls) >= 4


def test_gen_floorplan_multi_floor(tmp_path, capsys):
    out = tmp_path / "multi.txt"
    assert main(["gen-floorplan", "--seed", "5", "--n-rooms", "6",
                 "--extent", "30", "--floors", "2", "--out", str(out)]) == 0
    models = load_wall_models(out)
    assert len(models) == 2
    assert models[0].floor_id != models[1].floor_id


def test_gen_scene_writes_requested_count(tmp_path, capsys):
    _, scenes = _gen(tmp_path, capsys)
    assert sorted(p.name for p in scenes.glob("*.submap")) == [
        "scene_0000.submap", "scene_0001.submap",
    ]
    assert len(list(scenes.glob("*.pose"))) == 2
    pose = load_pose(scenes / "scene_0000.pose")
    assert isinstance(pose, Se2Pose)
    assert (scenes / "floorplan.txt").exists()


def test_gen_scene_deterministic(tmp_path, capsys):
    args = ["gen-scene", "--layout-seed", "7", "--n-rooms", "6", "--extent", "30",
            "--seed", "3", "--count", "1", "--radius", "10"]
    assert main(args + ["--out", str(tmp_path / "x")]) == 0
    assert main(args + ["--out", str(tmp_path / "y")]) == 0
    assert (tmp_path / "x" / "scene_0000.submap").read_bytes() == \
           (tmp_path / "y" / "scene_0000.submap").read_bytes()


@pytest.mark.parametrize(
    "flag, value, name",
    [("--noise-sigma", "-1", "noise_sigma_m"), ("--noise-sigma", "nan", "noise_sigma_m"),
     ("--clutter-frac", "-1", "clutter_frac"), ("--drop-frac", "1.5", "drop_wall_frac"),
     ("--drop-frac", "-0.5", "drop_wall_frac"), ("--radius", "nan", "radius_m"),
     ("--extent", "nan", "extent_m")],
)
def test_gen_scene_bad_parameter_exit_code(tmp_path, capsys, flag, value, name):
    args = ["gen-scene", "--layout-seed", "7", "--n-rooms", "6", "--seed", "3", "--radius", "10"]
    assert main(args + [flag, value, "--out", str(tmp_path / "x")]) == 1
    assert name in capsys.readouterr().err
    assert list(tmp_path.glob("x/*")) == []


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gen_scene_count_below_one_rejected(tmp_path, capsys, count):
    args = ["gen-scene", "--layout-seed", "7", "--n-rooms", "6", "--seed", "3", "--radius", "10"]
    assert main(args + ["--count", count, "--out", str(tmp_path / "x")]) == 1
    assert "--count" in capsys.readouterr().err
    assert list(tmp_path.glob("x/*")) == []


def test_gen_scene_gives_up_when_no_draw_sees_a_wall(tmp_path, capsys):
    # every sensor keeps 0.8 m from the walls, so a 0.5 m radius sees none
    args = ["gen-scene", "--layout-seed", "7", "--n-rooms", "6", "--seed", "3", "--radius", "0.5"]
    assert main(args + ["--count", "1", "--out", str(tmp_path / "x")]) == 2
    assert "--radius" in capsys.readouterr().err
    assert list(tmp_path.glob("x/*")) == []


@pytest.mark.parametrize("args, name", [(["--floors", "0"], "floors"), (["--extent", "nan"], "extent_m")])
def test_gen_floorplan_bad_parameter_exit_code(tmp_path, capsys, args, name):
    out = tmp_path / "plan.txt"
    assert main(["gen-floorplan", "--n-rooms", "6"] + args + ["--out", str(out)]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def test_register_accepted_and_close_to_gt(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    code = main(["register", "--submap", str(scenes / "scene_0000.submap"),
                 "--model", str(plan)])
    out = capsys.readouterr().out
    assert code == 0
    best = [ln for ln in out.splitlines() if ln.startswith("best ")][0]
    parts = best.split()
    est = Se2Pose(float(parts[3]), float(parts[4]), float(parts[5]))
    gt = load_pose(scenes / "scene_0000.pose")
    assert registration_success(est, gt)
    assert parts[-1] == "1"
    assert "# r_xy = 0.15" in out  # config echo header


def test_register_wrong_floor_exit_code(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    other = tmp_path / "other.txt"
    assert main(["gen-floorplan", "--seed", "41", "--n-rooms", "6",
                 "--extent", "30", "--out", str(other)]) == 0
    code = main(["register", "--submap", str(scenes / "scene_0000.submap"),
                 "--model", str(other)])
    assert code == 3
    out = capsys.readouterr().out
    assert "accepted 0" in out


def test_register_deterministic_stdout(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    args = ["register", "--submap", str(scenes / "scene_0000.submap"),
            "--model", str(plan)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second  # timings go to stderr, stdout is reproducible


# ---------------------------------------------------------------------------
# evaluate / pr-curve
# ---------------------------------------------------------------------------

def test_evaluate_directory(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    csv = tmp_path / "eval.csv"
    code = main(["evaluate", "--scenes", str(scenes), "--model", str(plan),
                 "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "recall 1.0000" in out
    assert csv.exists()
    assert len(csv.read_text().strip().splitlines()) == 3


def test_evaluate_csv_quotes_names_with_commas(tmp_path, capsys):
    # a floor id and a scene name with a comma each stay one CSV field
    plan, scenes = _gen(tmp_path, capsys)
    plan.write_text(plan.read_text().replace("floor 7\n", "floor a,b\n", 1))
    for ext in (".submap", ".pose"):
        (scenes / ("scene_0000" + ext)).rename(scenes / ("x,y" + ext))
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--scenes", str(scenes), "--model", str(plan), "--csv", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert [len(r) for r in rows] == [8, 8, 8]
    assert [(r[0], r[6]) for r in rows[1:]] == [("scene_0001", "a,b"), ("x,y", "a,b")]
    assert out.read_text().splitlines()[2].startswith('"x,y",1,')


def test_evaluate_non_finite_pose_exit_code(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    (scenes / "scene_0001.pose").write_text("nan 1 inf\n")
    code = main(["evaluate", "--scenes", str(scenes), "--model", str(plan)])
    assert code == 2
    assert "scene_0001.pose" in capsys.readouterr().err


def test_evaluate_empty_dir(tmp_path, capsys):
    plan, _ = _gen(tmp_path, capsys)
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["evaluate", "--scenes", str(empty), "--model", str(plan)]) == 2


def test_pr_curve_outputs(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    negs = tmp_path / "negs"
    assert main(["gen-scene", "--layout-seed", "41", "--n-rooms", "6",
                 "--extent", "30", "--seed", "9", "--count", "1",
                 "--radius", "10", "--noise-sigma", "0.02",
                 "--out", str(negs)]) == 0
    csv = tmp_path / "pr.csv"
    code = main(["pr-curve", "--pos", str(scenes), "--neg", str(negs),
                 "--model", str(plan), "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert any(ln.startswith("auc ") for ln in out.splitlines())
    assert csv.read_text().startswith("threshold,precision,recall\n")


# ---------------------------------------------------------------------------
# usage and parameter errors
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as e:
        main(["register"])  # missing required flags
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["build-db", "--model", "plan.txt", "--out", "f.db"])
    assert e.value.code == 1
    assert "invalid choice: 'build-db'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        # floors are built from the model; no subcommand reads a DB file
        main(["register", "--submap", "x.submap", "--model", "plan.txt", "--db", "f.db"])
    assert e.value.code == 1
    assert "unrecognized arguments: --db f.db" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["register", "--submap", "s.submap"],
        ["evaluate", "--scenes", "scenes"],
        ["pr-curve", "--pos", "pos", "--neg", "neg"],
    ],
    ids=lambda argv: argv[0],
)
def test_repeated_model_exits_one(tmp_path, capsys, argv):
    # a second --model used to replace the first silently; a model file
    # holds every floor, so two are an error
    plan, _ = _gen(tmp_path, capsys)
    with pytest.raises(SystemExit) as e:
        main(argv + ["--model", str(plan), "--model", str(plan)])
    assert e.value.code == 1
    assert "argument --model: given more than once" in capsys.readouterr().err


def _register_unread(tmp_path, plan, *flags):
    """`register` on a submap path that is never read: the config and the
    model are checked first, so their errors decide the exit code."""
    return main(["register", "--submap", str(tmp_path / "none.submap"), "--model", str(plan), *flags])


def test_bad_parameter_value(tmp_path, capsys):
    plan = tmp_path / "sq.txt"
    plan.write_text(UNIT_SQUARE)
    assert _register_unread(tmp_path, plan, "--r_s", "banana") == 1  # unparseable flag value is a usage error
    assert _register_unread(tmp_path, plan, "--k_cells", "20000") == 1  # violates l >= k >= j
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("r_s = banana\n")
    code = _register_unread(tmp_path, plan, "--config", str(cfgf))
    assert code == 2  # the same mistake inside a config file is bad data


def test_non_finite_parameter_exit_code(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    scene = sorted(scenes.glob("*.submap"))[0]
    code = main(["register", "--submap", str(scene), "--model", str(plan), "--s_v", "nan"])
    assert code == 1
    assert "s_v" in capsys.readouterr().err


def test_too_coarse_yaw_bins_exit_code(tmp_path, capsys):
    plan = tmp_path / "sq.txt"
    plan.write_text(UNIT_SQUARE)
    assert _register_unread(tmp_path, plan, "--r_yaw_deg", "180") == 1
    assert "r_yaw_deg" in capsys.readouterr().err


def test_config_file_flag(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("l_max = 20.0\n")
    assert main(["register", "--submap", str(scenes / "scene_0000.submap"), "--model", str(plan),
                 "--config", str(cfgf)]) == 0
    assert "# l_max = 20.0\n" in capsys.readouterr().out


def test_config_file_with_removed_key_exit_code(tmp_path, capsys):
    # the config is read before any input file, so the key alone decides
    plan = tmp_path / "sq.txt"
    plan.write_text(UNIT_SQUARE)
    cfgf = tmp_path / "run.cfg"
    removed = ("threads = 1", "variant = osc", "s_i = 60.0", "l_min_px = 30", "gap_px = 5.0", "band_px = 5.0",
               "theta_bins = 180")
    for line in removed:
        cfgf.write_text(line + "\n")
        assert _register_unread(tmp_path, plan, "--config", str(cfgf)) == 2
        assert "unknown config key '%s'" % line.split()[0] in capsys.readouterr().err


def test_lam_zero_is_accepted_and_echoed(tmp_path, capsys):
    # award-only scoring is --lam 0; its echo is a config file that reads back
    plan, scenes = _gen(tmp_path, capsys)
    args = ["register", "--submap", str(scenes / "scene_0000.submap"), "--model", str(plan)]
    assert main(args + ["--lam", "0"]) == 0
    out = capsys.readouterr().out
    assert "# lam = 0.0\n" in out
    cfgf = tmp_path / "echo.cfg"
    cfgf.write_text("".join(ln[2:] + "\n" for ln in out.splitlines() if ln.startswith("# ")))
    assert make_config(file_path=cfgf) == make_config(overrides={"lam": "0"})
    for bad in ("-0.1", "nan"):
        assert main(args + ["--lam", bad]) == 1
        assert "lam" in capsys.readouterr().err


def _write_submap(path, gravity, points):
    pts = np.asarray(points, dtype="<f4")
    path.write_bytes(
        b"L2B1" + np.asarray(gravity, dtype="<f4").tobytes()
        + len(pts).to_bytes(4, "little") + pts.tobytes()
    )


def test_register_non_finite_point_exit_code(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    raw = (scenes / "scene_0000.submap").read_bytes()
    pts = np.frombuffer(raw, dtype="<f4", offset=20).reshape(-1, 3).copy()
    pts[len(pts) // 2, 0] = np.nan
    bad = tmp_path / "nan.submap"
    _write_submap(bad, np.frombuffer(raw, dtype="<f4", count=3, offset=4), pts)
    code = main(["register", "--submap", str(bad), "--model", str(plan)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_register_zero_gravity_exit_code(tmp_path, capsys):
    plan, scenes = _gen(tmp_path, capsys)
    raw = (scenes / "scene_0000.submap").read_bytes()
    bad = tmp_path / "zero_g.submap"
    bad.write_bytes(raw[:4] + bytes(12) + raw[16:])
    code = main(["register", "--submap", str(bad), "--model", str(plan)])
    assert code == 2
    assert "gravity" in capsys.readouterr().err


def test_register_far_point_exit_code(tmp_path, capsys):
    # one finite point at 1e20 m puts octree cells past int64
    plan, scenes = _gen(tmp_path, capsys)
    raw = (scenes / "scene_0000.submap").read_bytes()
    pts = np.frombuffer(raw, dtype="<f4", offset=20).reshape(-1, 3)
    far = np.vstack([pts, [[1e20, 0.0, 0.0]]])
    bad = tmp_path / "far.submap"
    _write_submap(bad, np.frombuffer(raw, dtype="<f4", count=3, offset=4), far)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["register", "--submap", str(bad), "--model", str(plan)])
    assert code == 2
    assert "int64" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_register_far_copy_exit_code(tmp_path, capsys):
    # a copy of the scan shifted by (1e5, 1e5) m: no stage allocates by
    # the points' extent, so it registers like any scan
    plan, scenes = _gen(tmp_path, capsys)
    raw = (scenes / "scene_0000.submap").read_bytes()
    gravity = np.frombuffer(raw, dtype="<f4", count=3, offset=4)
    pts = np.frombuffer(raw, dtype="<f4", offset=20).reshape(-1, 3)
    bad = tmp_path / "far_copy.submap"
    _write_submap(bad, gravity, np.vstack([pts, pts + np.array([1e5, 1e5, 0.0], dtype="<f4")]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["register", "--submap", str(bad), "--model", str(plan)])
    assert code in (0, 3)
    assert "best " in capsys.readouterr().out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the front end's memory does not grow with the distance between the copies
    peaks = []
    for shift in (1e3, 1e5):
        far = np.vstack([pts, pts + np.array([shift, shift, 0.0], dtype="<f4")]).astype(float)
        tracemalloc.start()
        extract_submap_features(Submap(far, gravity.astype(float)), PipelineConfig())
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("tilt_deg, codes", [(20.0, (2,)), (10.0, (0, 3))], ids=["20deg", "10deg"])
def test_register_tilted_gravity_exit_code(tmp_path, capsys, tilt_deg, codes):
    # the bird's-eye front end looks down z: gravity past gravity_tol_deg
    # (15 degrees) from it is rejected, a smaller tilt still registers
    plan, scenes = _gen(tmp_path, capsys)
    raw = (scenes / "scene_0000.submap").read_bytes()
    a = np.radians(tilt_deg)
    bad = tmp_path / "tilted.submap"
    bad.write_bytes(raw[:4] + np.array([np.sin(a), 0.0, -np.cos(a)], dtype="<f4").tobytes() + raw[16:])
    code = main(["register", "--submap", str(bad), "--model", str(plan)])
    assert code in codes
    if code == 2:
        err = capsys.readouterr().err
        assert "gravity [" in err and "gravity_tol_deg = 15 degrees" in err


@pytest.mark.parametrize(
    "walls",
    [
        # a box with one corner at 1e20 m: raster bounds past int64
        "0 0 10 0\n10 0 1e20 1e20\n1e20 1e20 0 10\n0 10 0 0\n",
        # a 1e7 m square: finite bounds, but 2.5e15 score-field cells
        "0 0 1e7 0\n1e7 0 1e7 1e7\n1e7 1e7 0 1e7\n0 1e7 0 0\n",
    ],
    ids=["corner_1e20", "square_1e7"],
)
def test_register_far_model_exit_code(tmp_path, capsys, walls):
    _, scenes = _gen(tmp_path, capsys)
    far = tmp_path / "far.txt"
    far.write_text("floor far\n" + walls)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["register", "--submap", str(scenes / "scene_0000.submap"), "--model", str(far)])
    assert code == 2
    err = capsys.readouterr().err
    assert "floor far" in err and "raster" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# rejected input files: exit 2, and stderr names the file and line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "line",
    ["floor", "floor a b", "0 0 1", "0 0 1 0 1", "1 1 1 1", "0 0 nan 1", "0 0 1 inf"],
    ids=["floor_no_id", "floor_two_ids", "three_tokens", "five_tokens", "zero_length", "nan", "inf"],
)
def test_wall_model_bad_line_exit_code(tmp_path, capsys, line):
    plan = tmp_path / "bad.txt"
    plan.write_text("floor a\n0 0 1 0\n%s\n0 1 0 0\n" % line)
    assert _register_unread(tmp_path, plan) == 2
    assert "%s:3:" % plan in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("floor a\n" + UNIT_SQUARE + "floor empty\n", 6, "floor 'empty' has no walls"),
        ("floor a\n" + UNIT_SQUARE + "floor a\n" + UNIT_SQUARE, 6, "floor 'a' repeats the section opened at line 1"),
    ],
    ids=["empty", "repeated"],
)
def test_wall_model_bad_floor_section_exit_code(tmp_path, capsys, text, line, message):
    plan = tmp_path / "plan.txt"
    plan.write_text(text)
    assert _register_unread(tmp_path, plan) == 2
    assert "%s:%d: %s" % (plan, line, message) in capsys.readouterr().err


def test_build_db_empty_model_fails(tmp_path, capsys):
    plan = tmp_path / "empty.txt"
    plan.write_text("# no walls\n")
    assert _register_unread(tmp_path, plan) == 2
    assert "no walls" in capsys.readouterr().err


def test_missing_model_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "none.txt"
    assert _register_unread(tmp_path, missing) == 2
    assert str(missing) in capsys.readouterr().err


def test_register_truncated_submap_header_exit_code(tmp_path, capsys):
    plan = tmp_path / "sq.txt"
    plan.write_text(UNIT_SQUARE)
    short = tmp_path / "short.submap"
    short.write_bytes(b"L2B1" + bytes(15))  # one byte short of the 20-byte header
    assert main(["register", "--submap", str(short), "--model", str(plan)]) == 2
    assert "%s: truncated header" % short in capsys.readouterr().err


def test_config_line_without_value_exit_code(tmp_path, capsys):
    plan = tmp_path / "sq.txt"
    plan.write_text(UNIT_SQUARE)
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("l_max = 20.0\nr_s =\n")
    assert _register_unread(tmp_path, plan, "--config", str(cfgf)) == 2
    assert "%s:2: expected key = value" % cfgf in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzed input files
# ---------------------------------------------------------------------------

FUZZ_SETTINGS = settings(max_examples=40)

# (offset, replacement bytes); offsets wrap modulo the file size. The
# submap format keeps every field 4-byte aligned, so a multiple-of-4 offset
# puts an f32 on a coordinate, gravity component or count.
_EDITS = st.one_of(
    st.tuples(st.integers(0, 2**20), st.binary(min_size=1, max_size=8)),
    st.tuples(
        st.integers(0, 2**18).map(lambda i: 4 * i),
        st.floats(width=32, allow_nan=False, allow_infinity=False).map(lambda v: struct.pack("<f", v)),
    ),
)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A small registrable floor: its plan and one scene's submap bytes."""
    d = tmp_path_factory.mktemp("fuzz")
    plan, scenes = d / "plan.txt", d / "scenes"
    floor = ["--n-rooms", "4", "--extent", "20"]
    assert main(["gen-floorplan", "--seed", "7", *floor, "--out", str(plan)]) == 0
    assert main(["gen-scene", "--layout-seed", "7", *floor, "--seed", "3", "--count", "1",
                 "--radius", "10", "--noise-sigma", "0.02", "--out", str(scenes)]) == 0
    return d, plan, (scenes / "scene_0000.submap").read_bytes()


@FUZZ_SETTINGS
@given(
    edits=st.lists(_EDITS, max_size=4),
    cut=st.none() | st.integers(0, 2**20),
)
def test_register_fuzzed_files_exit_codes(fuzz_base, edits, cut):
    d, plan, base = fuzz_base
    data = bytearray(base)
    for off, new in edits:
        off %= len(data)
        data[off : off + len(new)] = new[: len(data) - off]
    if cut is not None:
        data = data[: cut % len(data)]
    fuzzed = d / "fuzzed.submap"
    fuzzed.write_bytes(bytes(data))
    code = main(["register", "--submap", str(fuzzed), "--model", str(plan)])
    assert code in (0, 2, 3)
