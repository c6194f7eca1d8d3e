"""Command line interface.

Subcommands: count, sequence, orbits, census, verify.  Each writes its
output to stdout; census keeps a --cache file, the only file left behind,
which must equal a fresh census at its own order, and replaces it only with a
deeper census.  Output is byte identical across runs for the same inputs; the
whole subcommand's elapsed time goes to stderr, and only under --timing.
Exit codes: 0 success, 1 verification found a mismatch, 2 usage or input
error, 141 (128 + SIGPIPE) with nothing on stderr when stdout is closed
before the output is written.
"""

import argparse
import json
import os
import sys
import time
import warnings
from pathlib import Path

from .census import (
    MISMATCH, UNCHECKED, VERIFIED, _check_cache, export, run_census, verify_registry,
    write_cache,
)
from .core import PatternSet
from .enumeration import METHODS, TRANSFER, count, transfer_all_orders
from .symmetry import all_orbits


def _parse_patterns(text: str) -> PatternSet:
    # surface duplicate warnings deterministically on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tset = PatternSet.parse(text)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return tset


def _cmd_count(args: argparse.Namespace) -> int:
    tset = _parse_patterns(args.patterns)
    result = count(args.n, tset, method=args.method)
    if args.format == "json":
        print(json.dumps({"n": result.n, "patterns": tset.text(),
                          "method": result.method, "value": str(result.value)}))
    else:
        print(result.value)
    return 0


def _cmd_sequence(args: argparse.Namespace) -> int:
    tset = _parse_patterns(args.patterns)
    if args.method == TRANSFER:
        values = [c[0] for c in transfer_all_orders(args.n_max, [tset.mask])]
    else:
        # an oracle's work grows with n, so counting order n_max first
        # refuses the order range before any order is counted
        last = count(args.n_max, tset, method=args.method).value
        values = [count(n, tset, method=args.method).value for n in range(args.n_max)]
        values.append(last)
    if args.format == "json":
        doc = {
            "patterns": tset.text(),
            "method": args.method,
            "n_max": args.n_max,
            "values": [str(v) for v in values],
        }
        print(json.dumps(doc))
    elif args.format == "csv":
        print(",".join(str(v) for v in values))
    else:
        for n, v in enumerate(values):
            print(n, v)
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    fields = ("orbit_id", "size", "orbit_size", "representative")
    rows = [
        (orbit_id, len(orb.representative), len(orb.members), orb.representative.text())
        for orbit_id, orb in enumerate(all_orbits())
        if args.size in (None, len(orb.representative))
    ]
    if args.format == "json":
        print(json.dumps([dict(zip(fields, row)) for row in rows], indent=2))
    elif args.format == "csv":
        print(",".join(fields))
        for orbit_id, size, members, rep in rows:
            print(f'{orbit_id},{size},{members},"{rep}"')
    else:
        for row in rows:
            print(*row, sep="\t")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    if args.cache == "":
        raise ValueError("--cache needs a file name")
    table = run_census(args.n_max)
    data = export(table, args.format)
    if args.cache is not None:
        path = Path(args.cache)
        fresh = data if args.format == "json" else export(table, "json")
        old = path.read_bytes() if path.exists() else None
        # keep an up-to-date cache; check any other, and replace it only with a deeper census
        if old != fresh and (old is None or _check_cache(old).n_max < table.n_max):
            write_cache(table, path)
    sys.stdout.write(data.decode())
    return 1 if any(rec.verification == MISMATCH for rec in table.records) else 0


_VERDICTS = {VERIFIED: "PASS", UNCHECKED: "SKIP", MISMATCH: "FAIL"}


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_registry(args.n_max)
    if args.format == "json":
        doc = {
            "n_max": report.n_max,
            "checks": [
                {
                    "name": c.entry.name,
                    "patterns": c.entry.patterns.text(),
                    "formula": c.entry.formula,
                    "first_n": c.entry.min_n,
                    "last_n": report.n_max,
                    "status": c.status,
                    "mismatches": list(c.mismatches),
                    "also_holds_at": list(c.holds_below),
                }
                for c in report.checks
            ],
            "superseded": [
                {
                    "patterns": s.patterns.text(),
                    "claimed_formula": s.description,
                    "n": s.n,
                    "claimed": str(s.claimed),
                    "enumerated": str(s.enumerated),
                }
                for s in report.superseded
            ],
            "mismatch_count": report.mismatch_count,
        }
        print(json.dumps(doc, indent=2))
    else:
        for c in report.checks:
            line = (
                f"{_VERDICTS[c.status]} "
                f"{c.entry.name} [{c.entry.formula}] n={c.entry.min_n}..{report.n_max}"
            )
            if c.mismatches:
                line += " | " + "; ".join(c.mismatches)
            print(line)
            if c.holds_below:
                spots = ",".join(str(n) for n in c.holds_below)
                print(f"INFO {c.entry.name} also matches below its range at n={spots}")
        for s in report.superseded:
            print(
                f"SUPERSEDED {{{s.patterns.text()}}}: claimed {s.description} "
                f"gives {s.claimed} at n={s.n}, enumeration gives {s.enumerated}"
            )
        print(f"checks: {len(report.checks)}, mismatches: {report.mismatch_count}")
    return 1 if report.mismatch_count else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedperms",
        description="Count signed permutations avoiding 2-letter signed patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--timing", action="store_true",
                       help="print the subcommand's elapsed seconds to stderr")
        p.add_argument("--format", choices=formats, default=formats[0],
                       help="output format (default %(default)s)")

    patterns_help = 'comma-separated patterns, e.g. "1 2, -2 1"'
    method_help = ("transfer (default) is the counting core; naive, backtrack and "
                   "mask are oracles that refuse jobs over 2^9 9! words or prefixes")

    p_count = sub.add_parser("count", help="count avoiders of a pattern set at one order")
    p_count.add_argument("--patterns", required=True, help=patterns_help)
    p_count.add_argument("--n", type=int, required=True, help="order to count at")
    p_count.add_argument("--method", choices=METHODS, default=TRANSFER, help=method_help)
    common(p_count, ("plain", "json"))
    p_count.set_defaults(func=_cmd_count)

    p_seq = sub.add_parser("sequence", help="count avoiders for all orders 0..n-max")
    p_seq.add_argument("--patterns", required=True, help=patterns_help)
    p_seq.add_argument("--n-max", type=int, required=True, help="last order to count at")
    p_seq.add_argument("--method", choices=METHODS, default=TRANSFER, help=method_help)
    common(p_seq, ("plain", "json", "csv"))
    p_seq.set_defaults(func=_cmd_sequence)

    p_orb = sub.add_parser("orbits", help="list symmetry orbits of pattern sets")
    p_orb.add_argument("--size", type=int, choices=range(9), default=None,
                       help="only orbits whose sets have this many patterns")
    # orbits counts nothing, so it takes neither --method nor --timing
    p_orb.add_argument("--format", choices=("plain", "json", "csv"), default="plain",
                       help="output format (default %(default)s)")
    p_orb.set_defaults(func=_cmd_orbits)

    p_cen = sub.add_parser("census", help="sequences and verification for all orbits")
    p_cen.add_argument("--n-max", type=int, required=True,
                       help="last order to count every orbit at")
    p_cen.add_argument("--cache", help="JSON census, refused unless it is its order's census, "
                       "replaced by a deeper one; the only file written, output goes to stdout")
    common(p_cen, ("json", "csv"))
    p_cen.set_defaults(func=_cmd_census)

    p_ver = sub.add_parser("verify", help="check all registered formulas by enumeration")
    p_ver.add_argument("--n-max", type=int, default=6,
                       help="last order to check formulas at (default %(default)s)")
    common(p_ver, ("plain", "json"))
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: as the signal docs advise, the exit flush hits devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "timing", False):  # orbits has no --timing
        print(f"timing_seconds: {time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
