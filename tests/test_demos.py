"""Every script under demos/ and the README's quick start run to
completion against this source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    """Run python with `args`, this tree's src/ first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    res = _run([str(demo)], tmp_path)
    assert res.returncode == 0, res.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    # the python block under the README's Quick start, run as written
    readme = (ROOT / "README.md").read_text()
    quick = readme[readme.index("## Quick start") :]
    code = re.search(r"```python\n(.*?)```", quick, re.S).group(1)
    res = _run(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.split()[-1] == "True"  # the scene registers and is accepted
