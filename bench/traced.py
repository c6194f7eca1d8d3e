"""Run one signedperms CLI command in-process, with or without span tracing.

    PYTHONPATH=src python3 bench/traced.py --trace 0|1 -- <cli arguments>

In a fresh interpreter this imports signedperms.cli, makes the first calls
to symmetry.all_orbits() and formulas.registry() (the set-up every command
pays), then calls cli.main(argv) with stdout captured.  It prints one JSON
line: the exit code, the captured output, the wall time of cli.main and,
with --trace 1, the recorded spans.

Tracing wraps the layers' public functions from outside, including the names
other modules imported (census.counts_all_subsets, cli.run_census, ...), so
nothing under src/ is edited.  Each span records its name, start, end, the
index of its parent span and a few counters taken from its arguments and
result.  Spans stay in memory until the command ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[4] = note(args, kwargs, result)
            return result

        return traced


def _targets():
    """(module, public name, counters from (args, kwargs, result)) per span."""
    from signedperms import census, enumeration, formulas, symmetry

    def arg(args, kwargs, name, pos):
        return args[pos] if len(args) > pos else kwargs[name]

    return (
        (symmetry, "all_orbits", lambda a, k, r: {"orbits": len(r)}),
        (formulas, "registry", None),
        (formulas, "eval_formula", None),
        (enumeration, "mask_histogram",
         lambda a, k, r: {"n": arg(a, k, "n", 0), "masks": len(r.counts)}),
        (enumeration, "counts_all_subsets", lambda a, k, r: {"n": arg(a, k, "n", 0)}),
        (census, "run_census", lambda a, k, r: {"n_max": arg(a, k, "n_max", 0)}),
        (census, "load_cache", None),
        (census, "export", lambda a, k, r: {"bytes": len(r)}),
    )


def install(tracer: Tracer) -> None:
    """Replace every module-level reference to each target with a wrapper."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "signedperms"]
    for module, attr, note in _targets():
        original = getattr(module, attr)
        wrapper = tracer.wrap(f"{module.__name__.split('.')[-1]}.{attr}", original, note)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    from signedperms import cli, formulas, symmetry

    tracer = Tracer()
    if opts.trace:
        install(tracer)
    symmetry.all_orbits()
    formulas.registry()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        if opts.trace:
            with tracer.span("cli.main"):
                rc = cli.main(argv)
        else:
            rc = cli.main(argv)
        main_s = time.perf_counter() - start
    json.dump(
        {"rc": rc, "stdout": out.getvalue(), "main_s": main_s, "spans": tracer.spans},
        sys.stdout,
    )
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
