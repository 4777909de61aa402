"""Every demo script runs to completion in a fresh interpreter, silent on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twowayqkd

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SRC = Path(twowayqkd.__file__).parents[1]


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout
