"""Orbit census: sequences, formula verification, Wilf classes, and files.

run_census computes b_0..b_{n_max} for every orbit of pattern sets, checks
each registered closed form against the enumerated values on its claimed
range, and groups orbits whose sequences agree into Wilf classes.
verify_registry reports the check of every registry entry.  Each takes all
its counts from one call to the transfer engine, run_census over the 256
sets and verify_registry over the 59 distinct sets that the registry names,
guarded by its memory and work budgets, of which memory binds first.  All four
counting subcommands (census, verify, count, sequence) check formulas in one
loop, _check_registry.  export writes a table as JSON or CSV.  A census file
is valid only if its bytes are export of a fresh census at its own n_max:
_check_cache applies this one rule for load_cache and census --cache,
counting that census only for a file that begins as its export does and is
as long as any census of its order, and raises ValueError.
"""

import json
import os
import re
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .core import PatternSet
from .enumeration import _check_budget, transfer_all_orders
from .formulas import RegistryEntry, eval_formula, registry
from .symmetry import all_orbits

__all__ = [
    "CensusRecord", "CensusTable", "EntryCheck", "SupersededClaim", "VerificationReport",
    "export", "load_cache", "run_census", "verify_registry", "write_cache",
]


VERIFIED = "verified"
MISMATCH = "mismatch"
UNCHECKED = "unchecked"


class CensusRecord(NamedTuple):
    """One orbit's row: membership, counts, and verification outcome.

    sequence[k] is the number of order-k signed permutations avoiding any
    (equivalently every) member of the orbit.  Every orbit has a registered
    formula, and verification is "verified" when every attached formula
    matches the sequence on [min_n, n_max] and one such range is not empty,
    "unchecked" when all are empty, and "mismatch" with details when a
    formula disagrees.
    """

    orbit_id: int
    representative: PatternSet
    paper_names: tuple[str, ...]
    members: tuple[PatternSet, ...]
    sequence: tuple[int, ...]
    formula_ids: tuple[str, ...]
    verification: str
    wilf_class: int
    verification_details: tuple[str, ...] = ()


class CensusTable(NamedTuple):
    """A census: n_max, one record per orbit, and a metadata object."""

    n_max: int
    records: list[CensusRecord]
    metadata: dict


class EntryCheck(NamedTuple):
    """Outcome of checking one registry entry against enumeration."""

    entry: RegistryEntry
    status: str
    mismatches: tuple[str, ...]
    holds_below: tuple[int, ...]


def _check_registry(per_order: dict[int, list[int] | dict[int, int]],
                    entries: tuple[RegistryEntry, ...] | None = None) -> tuple[EntryCheck, ...]:
    # the one place formulas meet counts: each entry (all of registry() in
    # order by default) against per_order[n][mask] for every order n listed;
    # each formula id is evaluated once per listed order and call
    entries = registry() if entries is None else entries
    ids = dict.fromkeys(entry.formula for entry in entries)
    values = {f: {n: eval_formula(f, n) for n in per_order} for f in ids}
    checks = []
    for entry in entries:
        mismatches = []
        holds_below = []
        for n, counts in per_order.items():
            enumerated = counts[entry.patterns.mask]
            expected = values[entry.formula][n]
            if n < entry.min_n:
                if expected == enumerated:
                    holds_below.append(n)
            elif expected != enumerated:
                mismatches.append(
                    f"n={n}: formula {expected}, enumerated {enumerated}"
                )
        checks.append(
            EntryCheck(
                entry=entry,
                status=MISMATCH if mismatches
                else VERIFIED if any(n >= entry.min_n for n in per_order) else UNCHECKED,
                mismatches=tuple(mismatches),
                holds_below=tuple(holds_below),
            )
        )
    return tuple(checks)


def run_census(n_max: int) -> CensusTable:
    """Count, verify, and classify all orbits up to order n_max.

    All orders come from one transfer-engine pass over the 256 sets, whose
    memory budget admits n_max up to 33.
    """
    per_order = transfer_all_orders(n_max, range(256))
    orbits = all_orbits()
    orbit_ids = {member.mask: i for i, orb in enumerate(orbits) for member in orb.members}
    by_orbit: dict[int, list[EntryCheck]] = {}
    for check in _check_registry(dict(enumerate(per_order))):
        by_orbit.setdefault(orbit_ids[check.entry.patterns.mask], []).append(check)
    class_ids: dict[tuple[int, ...], int] = {}
    records = []
    for orbit_id, orb in enumerate(orbits):
        rep_mask = orb.representative.mask
        seq = tuple(counts[rep_mask] for counts in per_order)
        for n, counts in enumerate(per_order):
            if any(counts[member.mask] != seq[n] for member in orb.members):
                raise RuntimeError(
                    f"orbit of {orb.representative} has unequal counts at order {n}"
                )
        checks = by_orbit[orbit_id]
        details = tuple(
            f"{c.entry.name}/{c.entry.formula} at {m}"
            for c in checks
            for m in c.mismatches
        )
        # one mismatch fails an orbit, and one checked range verifies it
        verification = min((c.status for c in checks),
                           key=(MISMATCH, VERIFIED, UNCHECKED).index)
        records.append(
            CensusRecord(
                orbit_id=orbit_id,
                representative=orb.representative,
                paper_names=tuple(c.entry.name for c in checks),
                members=tuple(sorted(orb.members, key=lambda s: s.mask)),
                sequence=seq,
                formula_ids=tuple(dict.fromkeys(c.entry.formula for c in checks)),
                verification=verification,
                wilf_class=class_ids.setdefault(seq, len(class_ids)),
                verification_details=details,
            )
        )
    return CensusTable(n_max, records, {"version": __version__})


class SupersededClaim(NamedTuple):
    """A historically claimed count shown wrong by direct enumeration."""

    patterns: PatternSet
    description: str
    n: int
    claimed: int
    enumerated: int


class VerificationReport(NamedTuple):
    n_max: int
    checks: tuple[EntryCheck, ...]
    superseded: tuple[SupersededClaim, ...]

    @property
    def mismatch_count(self) -> int:
        return sum(1 for c in self.checks if c.status == MISMATCH)


# Counts once claimed in the earlier literature for these two sets, kept
# here as negative controls: the report demonstrates each is wrong at the
# given order.
_SUPERSEDED = (
    (PatternSet.parse("1 2, 2 1"), "2 n!", lambda n: 2 * eval_formula("TH6_3", n), 2),
    (PatternSet.parse("1 -2, -1 2"), "(n+1)!", lambda n: eval_formula("EQ2", n), 3),
)


def verify_registry(n_max: int) -> VerificationReport:
    """Check every registered closed form against enumerated counts.

    Each entry is checked on [min_n, n_max].  Orders below min_n where the
    formula happens to match anyway are reported as informational notes.
    The superseded historical claims are recomputed and shown to disagree
    with enumeration at their witness orders.  All counts come from one
    transfer-engine pass over the 59 distinct sets that the entries name,
    whose memory budget admits n_max up to 42.
    """
    masks = sorted({entry.patterns.mask for entry in registry()})
    per_order = [dict(zip(masks, row)) for row in transfer_all_orders(n_max, masks)]
    superseded = tuple(
        SupersededClaim(ps, description, n, value_fn(n), per_order[n][ps.mask])
        for ps, description, value_fn, n in _SUPERSEDED
        if n <= n_max
    )
    return VerificationReport(n_max, _check_registry(dict(enumerate(per_order))), superseded)


def export(table: CensusTable, format: str = "json") -> bytes:
    """Serialize a census deterministically, as JSON or CSV."""
    if format == "json":
        records = []
        for rec in table.records:
            fields = rec._asdict()
            fields["representative"] = [p.letters for p in rec.representative]
            fields["members"] = [[p.letters for p in m] for m in rec.members]
            fields["sequence"] = [str(v) for v in rec.sequence]
            if not rec.verification_details:
                del fields["verification_details"]
            records.append(fields)
        doc = dict(table._asdict(), records=records)
        return (json.dumps(doc, indent=2) + "\n").encode()
    if format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = (
            ["orbit_id", "representative", "size"]
            + [f"b_{k}" for k in range(table.n_max + 1)]
            + ["formula_ids", "verification", "wilf_class"]
        )
        writer.writerow(header)
        for rec in table.records:
            writer.writerow(
                [rec.orbit_id, rec.representative.text(), len(rec.representative)]
                + [str(v) for v in rec.sequence]
                + [";".join(rec.formula_ids), rec.verification, rec.wilf_class]
            )
        return buf.getvalue().encode()
    raise ValueError(f"unknown export format {format!r}")


def _first_difference(got: bytes, want: bytes) -> str:
    # the first line where got parts from want, and the field it is in; commas
    # at line ends are dropped, since a field added after a line adds one there
    ours, theirs = ((text.replace(b",\n", b"\n") + b"\nend of file").split(b"\n")
                    for text in (got, want))
    i = len(os.path.commonprefix([ours, theirs]))
    keys = (re.match(rb'\s*"(\w+)": ', line) for line in reversed(ours[: i + 1]))
    key = next((m[1].decode() for m in keys if m), "")
    line = ours[i][:99].decode(errors="replace")
    return f"line {i + 1} ({key}) is {line!r}, not {theirs[i].decode()!r}"


def _check_cache(data: bytes) -> CensusTable:
    # data must be export of a fresh census at its own n_max, which is returned
    try:
        n_max = json.loads(data)["n_max"]  # JSON is UTF-8 in any locale
        _check_budget(n_max, 256)  # a deep order is refused before anything is counted
    except (ValueError, LookupError, TypeError, RecursionError) as exc:
        raise ValueError(f"cache needs JSON with a valid n_max: {exc}") from None
    # a file is counted only if it begins with export's first lines and is as
    # long as any census of its order: each order adds a line of 13 bytes or
    # more to each record, and from order 0 only verification can get shorter,
    # by one byte ("unchecked" to "verified")
    want = b'{\n  "n_max": %d,\n  "records": [\n' % n_max
    if data.startswith(want):
        least = len(export(run_census(0))) + 12 * len(all_orbits()) * n_max
        if len(data) < least:
            raise ValueError(f"cache is not the census of order {n_max}: it has "
                             f"{len(data)} bytes, and that census at least {least}")
        want = export(table := run_census(n_max))
    if data != want:
        raise ValueError(f"cache is not the census of order {n_max}: "
                         f"{_first_difference(data, want)}")
    return table


def load_cache(path: str | Path) -> CensusTable:
    """Read a census file: ValueError unless it is export of a fresh census at its order."""
    path = Path(path)
    if path.exists() and not path.is_file():  # a device or a pipe may never end
        raise ValueError(f"{path} is not a regular file")
    return _check_cache(path.read_bytes())


def write_cache(table: CensusTable, path: str | Path) -> None:
    # write a sibling of path's target, not of a symlink, and rename it over the
    # target, so a write that fails partway leaves the old file whole; an error
    # that names a file names the cache, not the temporary file
    target = Path(path).resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(export(table))
        os.replace(tmp, target)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        tmp.unlink(missing_ok=True)
