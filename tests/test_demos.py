"""The demo scripts and the README quickstart still run against the current API."""

import ast
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import signedperms
from signedperms import load_cache
from signedperms.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
GOLDEN = ROOT / "tests" / "golden"


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
    # each demo's output is pinned, but 03's, which prints timings
    if name != "03_engines_race.py":
        assert done.stdout == (GOLDEN / f"demo_{name[:-3]}.txt").read_text()


def test_full_census_demo_writes_its_table(tmp_path):
    # run a copy, since the demo writes census6.json next to itself
    script = tmp_path / "05_full_census.py"
    shutil.copy(DEMOS / script.name, script)
    done = run_demo(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "demo_05_full_census.txt").read_text()
    assert load_cache(tmp_path / "census6.json").n_max == 6


def test_readme_quickstart_gives_its_commented_results():
    # run the README's python block statement by statement, keeping the
    # value of each bare expression, whose result the README gives in a
    # comment
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [132, 132, 13327, (1, 2, 7, 34, 209, 1546, 13327)]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # run each command of the README's CLI block in a fresh directory,
    # since the census line writes census.json there
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    lines = [l for l in block.splitlines() if l.strip() and not l.startswith("#")]
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "signedperms", line
        assert cli_main(argv[1:]) == 0, line
        capsys.readouterr()
    assert load_cache(tmp_path / "census.json").n_max == 6


def test_readme_gives_the_package_line_count():
    # the README's count is `wc -l src/signedperms/*.py`: newlines, summed
    text = (ROOT / "README.md").read_text()
    claimed = int(re.search(r"The package is (\d+) lines of Python", text)[1])
    files = sorted((ROOT / "src" / "signedperms").glob("*.py"))
    assert claimed == sum(path.read_bytes().count(b"\n") for path in files)
