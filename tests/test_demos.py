"""The demo scripts still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedperms

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# 05_full_census.py is left out: it writes census6.json next to itself
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
    src = str(Path(signedperms.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
