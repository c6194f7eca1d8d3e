"""Benchmark of the signedperms CLI: end-to-end runs and traced per-layer runs.

    python3 bench/run.py --workload census|census-cached \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is not installed: every command
is `python -m signedperms.cli ...` with src/ on PYTHONPATH, started as a
subprocess by this one process.  Load is a closed loop with one client: the
next command starts only after the previous one has exited.  Default CLI
flags are kept, so `census` uses one worker process per core.

With --trace 0 it times commands for S seconds and reports the
end-to-end metrics.  With --trace 1 it spends the S seconds on pairs of
in-process runs of the same command (bench/traced.py), one plain and one
traced, and reports per-layer metrics from the spans.  Every output is
checked against the golden table (bench/golden.json).

Both workloads run `census --n-max 8`, whose only input is the order, so
--seed draws nothing; it is recorded with the run.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is a record of the run: environment, CLI
invocation, sample counts and the tail of command wall time (op_s_tail and
its percentile), which is recorded but not a gated metric because the host's
bursts of stolen CPU time move it by more than any bound allows.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import golden

N_MAX = 8
SETUP_RUNS = 7
COMMAND_TIMEOUT_S = 60
TAIL_BEYOND = 10
SETUP_SNIPPET = (
    "import signedperms.cli\n"
    "from signedperms import formulas, symmetry\n"
    "print(len(symmetry.all_orbits()), len(formulas.registry()))\n"
)
TRACED = Path(__file__).with_name("traced.py")


class SetupError(RuntimeError):
    """The workload could not be set up, so nothing was measured."""


@dataclass
class Finished:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def spawn(argv: list[str], env: dict[str, str]) -> Finished:
    """Run argv to completion; wall time, and CPU and peak RSS from wait4.

    wait4 reports the child together with the descendants it waited for,
    so pool workers and numpy's threads are included.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        rc=proc.returncode,
        stdout=out.decode(errors="replace"),
        stderr=b"".join(err).decode(errors="replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
    )


WORKLOADS = ("census", "census-cached")


class Runner:
    """Runs one workload's commands and checks each output against the golden table."""

    def __init__(self, root: Path, workload: str, table, workdir: Path):
        self.workload = workload
        self.table = table
        self.cache = workdir / "census-cache.json"
        self.args = ["census", "--n-max", str(N_MAX)]
        if workload == "census-cached":
            self.args += ["--cache", str(self.cache)]
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.cli = [sys.executable, "-m", "signedperms.cli"]
        self.attempted = 0
        self.last_argv: list[str] = []
        self.failures: list[str] = []

    def run_checked(self, argv: list[str], in_process: bool = False):
        """Run one command and check its census output against the golden table.

        Returns the finished process, the JSON line of an in-process worker
        (None for a CLI subprocess) and whether the output was correct.
        """
        self.attempted += 1
        self.last_argv = argv
        done = spawn(argv, self.env)
        doc = None
        if done.rc != 0:
            problem = f"exit {done.rc}: {done.stderr[-300:]!r}"
        elif in_process:
            doc = json.loads(done.stdout.splitlines()[-1])
            problem = (golden.check_census(doc["stdout"], self.table) if doc["rc"] == 0
                       else f"cli.main returned {doc['rc']}: {done.stderr[-300:]!r}")
        else:
            problem = golden.check_census(done.stdout, self.table)
        if problem is not None:
            self.failures.append(f"{' '.join(argv[-len(self.args):])}: {problem}")
        return done, doc, problem is None

    def prepare(self) -> None:
        """census-cached: write the cache with orders 0..8 and validate it."""
        if self.workload != "census-cached":
            return
        _, _, ok = self.run_checked(self.cli + self.args)
        problem = golden.check_census(self.cache.read_text(), self.table) if ok else "failed"
        if problem is not None:
            raise SetupError(f"cache set-up: {problem}; {self.failures}")


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples no percentile qualifies; the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(root: Path) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit,
        "platform": platform.platform(),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of this machine, when /proc/stat has them.

    On a virtual machine, time stolen by the host stretches wall time but not
    CPU time; the record keeps the stolen share of each run to explain that.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def measure_setup(runner: Runner) -> float:
    done = spawn([sys.executable, "-c", SETUP_SNIPPET], runner.env)
    if done.rc != 0 or done.stdout.split()[:1] != ["58"]:
        raise SetupError(f"set-up run failed: {done.stdout!r} {done.stderr[-300:]!r}")
    return done.wall_s


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.prepare()
    runner.run_checked(runner.cli + runner.args)
    setup, walls, cpus, rss = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while (now := time.perf_counter()) < deadline or len(setup) < SETUP_RUNS or not walls:
        # set-up runs are spread over the run, so slow drift of the machine's
        # speed reaches set-up time and command time alike
        if len(setup) < SETUP_RUNS and now >= start + len(setup) * seconds / SETUP_RUNS:
            setup.append(measure_setup(runner))
            continue
        done, _, _ = runner.run_checked(runner.cli + runner.args)
        walls.append(done.wall_s)
        cpus.append(done.cpu_s)
        rss.append(done.maxrss_mb)
    tail_value, tail_pct = tail(walls)
    failed = len(runner.failures)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "cpu_s_p50": (statistics.median(cpus), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_ratio": (1 - failed / runner.attempted, "ratio"),
    }
    record = {
        "samples": len(walls),
        "op_s_tail": tail_value,
        "tail_percentile": tail_pct,
        "fail_ratio": failed / runner.attempted,
        "setup_samples_s": setup,
        "op_s_samples": walls,
    }
    return metrics, record


def _span_summary(doc: dict) -> dict[str, float]:
    """Per-layer numbers of one traced command."""
    spans = doc["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name, self_time=False):
        return sum(dur[i] - (child[i] if self_time else 0) for i in named(name))

    hist = named("enumeration.mask_histogram")
    orbits = named("symmetry.all_orbits")
    registry = named("formulas.registry")
    censuses = named("census.run_census")
    computed = len(named("enumeration.counts_all_subsets"))
    top = max(hist, key=lambda i: spans[i][4]["n"], default=None)
    out = {
        "symmetry.all_orbits_s": dur[orbits[0]],
        "formulas.registry_s": dur[registry[0]],
        "symmetry.orbits": spans[orbits[0]][4]["orbits"],
        "formulas.eval_s": total("formulas.eval_formula"),
        "formulas.evals": len(named("formulas.eval_formula")),
        "enumeration.mask_histogram_s": total("enumeration.mask_histogram"),
        "enumeration.words": sum(
            2 ** spans[i][4]["n"] * math.factorial(spans[i][4]["n"]) for i in hist
        ),
        "enumeration.masks_realized": spans[top][4]["masks"] if top is not None else 0,
        "enumeration.zeta_s": total("enumeration.counts_all_subsets", self_time=True),
        "census.run_census_s": total("census.run_census", self_time=True),
        "census.orders_computed": computed,
        "census.orders_reused": sum(spans[i][4]["n_max"] + 1 for i in censuses) - computed,
        "census.load_cache_s": total("census.load_cache"),
        "census.export_s": total("census.export"),
        "census.export_bytes": sum(spans[i][4]["bytes"] for i in named("census.export")),
        "cli.main_s": doc["main_s"],
    }
    for n in (6, 7, 8):
        out[f"enumeration.mask_histogram_s.n{n}"] = sum(
            dur[i] for i in hist if spans[i][4]["n"] == n
        )
    return out


PER_LAYER_UNITS = {
    "symmetry.all_orbits_s": "s",
    "formulas.registry_s": "s",
    "symmetry.orbits": "count",
    "formulas.eval_s": "s",
    "formulas.evals": "count",
    "enumeration.mask_histogram_s": "s",
    "enumeration.mask_histogram_s.n6": "s",
    "enumeration.mask_histogram_s.n7": "s",
    "enumeration.mask_histogram_s.n8": "s",
    "enumeration.words": "count",
    "enumeration.words_per_s": "1/s",
    "enumeration.masks_realized": "count",
    "enumeration.zeta_s": "s",
    "census.run_census_s": "s",
    "census.orders_computed": "count",
    "census.orders_reused": "count",
    "census.load_cache_s": "s",
    "census.export_s": "s",
    "census.export_bytes": "bytes",
    "cli.main_s": "s",
    "cli.main_untraced_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.prepare()
    worker = [sys.executable, str(TRACED), "--trace"]
    runner.run_checked(worker + ["0", "--", *runner.args], in_process=True)
    plain, traced, overhead, span_names = [], [], [], set()
    deadline = time.perf_counter() + seconds
    while True:
        # alternate which mode runs first, so neither always follows the other
        modes = ("0", "1") if len(overhead) % 2 == 0 else ("1", "0")
        main_s = {}
        for mode in modes:
            _, doc, ok = runner.run_checked(worker + [mode, "--", *runner.args], in_process=True)
            if ok:
                main_s[mode] = doc["main_s"]
            if ok and mode == "1":
                traced.append(_span_summary(doc))
                span_names.update(span[0] for span in doc["spans"])
            elif ok:
                plain.append(doc["main_s"])
        if len(main_s) == 2:
            overhead.append(main_s["1"] - main_s["0"])
        if time.perf_counter() >= deadline:
            break
    if not overhead:
        raise SetupError(f"no traced command succeeded: {runner.failures[:3]}")
    metrics = {
        key: (statistics.median(row[key] for row in traced), unit)
        for key, unit in PER_LAYER_UNITS.items()
        if key in traced[0]
    }
    hist_s = sum(row["enumeration.mask_histogram_s"] for row in traced)
    words = sum(row["enumeration.words"] for row in traced)
    metrics["enumeration.words_per_s"] = (words / hist_s if hist_s else 0.0, "1/s")
    metrics["cli.main_untraced_s"] = (statistics.median(plain), "s")
    # paired: traced minus plain cli.main_s of the same command
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    record = {
        "samples": len(traced),
        "spans_seen": sorted(span_names),
    }
    return {key: metrics[key] for key in PER_LAYER_UNITS}, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "signedperms" / "cli.py").is_file():
        print("error: run from the repository root; src/signedperms/cli.py not found",
              file=sys.stderr)
        return 2
    table = golden.load()
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(root, opts.workload, table, workdir)
        measure = per_layer if opts.trace else end_to_end
        ticks = cpu_ticks()
        try:
            metrics, record = measure(runner, opts.seconds)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failed = len(runner.failures)
    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        record["steal_share"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
    record.update(
        workload=opts.workload,
        seed=opts.seed,
        seconds=opts.seconds,
        trace=opts.trace,
        environment=environment(root),
        invocation={"argv": runner.last_argv, "PYTHONPATH": runner.env["PYTHONPATH"]},
        failures=runner.failures[:20],
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
