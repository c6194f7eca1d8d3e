"""The demo scripts still run against the current API."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import signedperms
from signedperms import load_cache

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(script):
    src = str(Path(signedperms.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "name",
    [
        "01_first_steps.py",
        "02_symmetry_orbits.py",
        "03_engines_race.py",
        "04_famous_sequences.py",
    ],
)
def test_demo_runs(name):
    done = run_demo(DEMOS / name)
    assert done.returncode == 0, done.stderr


def test_full_census_demo_writes_its_table(tmp_path):
    # run a copy, since the demo writes census6.json next to itself
    script = tmp_path / "05_full_census.py"
    shutil.copy(DEMOS / script.name, script)
    done = run_demo(script)
    assert done.returncode == 0, done.stderr
    assert load_cache(tmp_path / "census6.json").n_max == 6
