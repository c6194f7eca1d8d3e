"""Orbit census: sequences, formula verification, Wilf classes, and files.

run_census computes b_0..b_{n_max} for every orbit of pattern sets, checks
each registered closed form against the enumerated values on its claimed
range, and groups orbits whose sequences agree into Wilf classes.
verify_registry reports the check of every registry entry.  Both take all
their counts from one call to the transfer engine over the 256 sets,
guarded by its memory budget, not by the oracles' work budget, and their
formula checks from one loop, _check_registry.  Tables round-trip through
JSON: export writes the fields of CensusTable and CensusRecord, and
load_cache reads each field back as CensusRecord declares it, raising
SchemaError for any malformed one.  A cached table is checked against
re-derived counts, never trusted, before a census extends it.
"""

import json
import os
import reprlib
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .core import PatternSet
from .enumeration import transfer_all_orders
from .formulas import RegistryEntry, eval_formula, registry
from .symmetry import all_orbits

__all__ = [
    "CensusRecord", "CensusTable", "EntryCheck", "SchemaError", "SupersededClaim",
    "VerificationReport", "export", "load_cache", "run_census", "verify_registry",
    "wilf_classes", "write_cache",
]


class SchemaError(ValueError):
    """A census file does not match the expected structure."""


VERIFIED = "verified"
MISMATCH = "mismatch"
UNCHECKED = "unchecked"
ENUMERATION_ONLY = "enumeration_only"


class CensusRecord(NamedTuple):
    """One orbit's row: membership, counts, and verification outcome.

    sequence[k] is the number of order-k signed permutations avoiding any
    (equivalently every) member of the orbit.  verification is "verified"
    when every attached formula matches the sequence on [min_n, n_max] and
    one such range is not empty, "unchecked" when all are empty, "mismatch"
    with details when a formula disagrees, and "enumeration_only" when no
    formula is registered for the orbit.
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


def _check_registry(per_order: list[list[int]]) -> tuple[EntryCheck, ...]:
    # the one place formulas meet counts: each registry entry, in registry
    # order, against per_order[n][mask] for every order n listed; each formula
    # id is evaluated once per order and call, however many entries share it
    n_max = len(per_order) - 1
    ids = dict.fromkeys(entry.formula for entry in registry())
    values = {f: [eval_formula(f, n) for n in range(n_max + 1)] for f in ids}
    checks = []
    for entry in registry():
        mismatches = []
        holds_below = []
        for n in range(n_max + 1):
            enumerated = per_order[n][entry.patterns.mask]
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
                else VERIFIED if entry.min_n <= n_max else UNCHECKED,
                mismatches=tuple(mismatches),
                holds_below=tuple(holds_below),
            )
        )
    return tuple(checks)


def run_census(n_max: int, cache: CensusTable | None = None) -> CensusTable:
    """Count, verify, and classify all orbits up to order n_max.

    All orders come from one transfer-engine pass over the 256 sets, whose
    memory budget admits n_max up to 33.  Each orbit's sequence is read
    from its representative and checked against every member.  A cache is
    never trusted: SchemaError is raised unless it is from this version (if
    it says), holds one record per orbit, in orbit order, with its id,
    members and cache.n_max + 1 counts, and equals the recount at every
    cached order up to n_max.
    """
    per_order = transfer_all_orders(n_max, range(256))
    by_rep: dict[int, list[EntryCheck]] = {}
    for check in _check_registry(per_order):
        by_rep.setdefault(check.entry.canonical.mask, []).append(check)
    class_ids: dict[tuple[int, ...], int] = {}
    records = []
    for orbit_id, orb in enumerate(all_orbits()):
        rep_mask = orb.representative.mask
        seq = tuple(counts[rep_mask] for counts in per_order)
        for n, counts in enumerate(per_order):
            if any(counts[member.mask] != seq[n] for member in orb.members):
                raise RuntimeError(
                    f"orbit of {orb.representative} has unequal counts at order {n}"
                )
        checks = by_rep.get(rep_mask, [])
        details = tuple(
            f"{c.entry.name}/{c.entry.formula} at {m}"
            for c in checks
            for m in c.mismatches
        )
        # one mismatch fails an orbit, and one checked range verifies it
        statuses = {c.status for c in checks}
        verification = next(
            (s for s in (MISMATCH, VERIFIED, UNCHECKED) if s in statuses),
            ENUMERATION_ONLY,
        )
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

    if cache is not None:
        version = cache.metadata.get("version", __version__)
        if version != __version__:
            raise SchemaError(f"cache is from version {version}, not {__version__}")
        identity = [(r.orbit_id, r.representative, r.members) for r in records]
        if [(r.orbit_id, r.representative, r.members) for r in cache.records] != identity:
            raise SchemaError(
                "cache does not hold one record per orbit, in orbit order, with "
                "that orbit's id, representative and members"
            )
        for rec, fresh in zip(cache.records, records):
            _require(len(rec.sequence) == cache.n_max + 1,
                     f"cache orbit {rec.orbit_id} does not hold n_max + 1 counts")
            for n in range(min(cache.n_max, n_max) + 1):
                got, want = rec.sequence[n], fresh.sequence[n]
                if got != want:
                    raise SchemaError(
                        f"cache disagrees with enumeration for orbit {rec.orbit_id} "
                        f"{{{rec.representative.text()}}} at order {n}: cached {got}, "
                        f"enumerated {want}"
                    )

    return CensusTable(n_max, records, {"version": __version__})


def wilf_classes(table: CensusTable) -> tuple[tuple[int, ...], ...]:
    """Orbit ids grouped by equal sequences, in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for rec in sorted(table.records, key=lambda r: r.orbit_id):
        groups.setdefault(rec.sequence, []).append(rec.orbit_id)
    return tuple(tuple(ids) for ids in groups.values())


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
    ("1 2, 2 1", "2 n!", lambda n: 2 * eval_formula("TH6_3", n), 2),
    ("1 -2, -1 2", "(n+1)!", lambda n: eval_formula("EQ2", n), 3),
)


def verify_registry(n_max: int) -> VerificationReport:
    """Check every registered closed form against enumerated counts.

    Each entry is checked on [min_n, n_max].  Orders below min_n where the
    formula happens to match anyway are reported as informational notes.
    The superseded historical claims are recomputed and shown to disagree
    with enumeration at their witness orders.
    """
    per_order = transfer_all_orders(n_max, range(256))
    checks = _check_registry(per_order)

    superseded = []
    for text, description, value_fn, witness_n in _SUPERSEDED:
        if witness_n > n_max:
            continue
        ps = PatternSet.parse(text)
        superseded.append(
            SupersededClaim(
                patterns=ps,
                description=description,
                n=witness_n,
                claimed=value_fn(witness_n),
                enumerated=per_order[witness_n][ps.mask],
            )
        )

    return VerificationReport(n_max, checks, tuple(superseded))


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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _read(value, kind, key: str):
    # a parsed JSON value as the type kind that CensusRecord declares for
    # field key: the inverse of export, which writes counts as digit strings
    try:
        if kind in (int, str):
            if type(value) is not kind:  # a bool or a float compares equal to an int
                raise TypeError(f"not {kind.__name__}")
            return value
        if type(value) is not list:
            raise TypeError("not a list")
        if kind is PatternSet:  # a list of [first, second] letters
            if any(type(x) is not int for p in value for x in p):
                raise TypeError("letters must be ints")
            return PatternSet.from_patterns(map(tuple, value))
        if kind == tuple[int, ...]:
            if not all(type(s) is str and s.isascii() and s.isdigit() for s in value):
                raise ValueError("counts must be decimal digit strings")
            return tuple(map(int, value))
    except (TypeError, ValueError) as exc:  # int()'s digit limit among them
        raise SchemaError(f"bad {key} {reprlib.repr(value)}: {exc}") from None
    # any other kind is tuple[X, ...], whose items are read as X
    return tuple(_read(v, kind.__args__[0], key) for v in value)


def load_cache(path: str | Path) -> CensusTable:
    """Load a JSON census written by export, validating its structure."""
    try:
        doc = json.loads(Path(path).read_bytes())  # JSON is UTF-8 in any locale
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    _require("n_max" in doc and "records" in doc, "top level needs n_max and records")
    n_max = doc["n_max"]
    _require(type(n_max) is int and n_max >= 0, "n_max must be a nonnegative int")
    raw_records = doc["records"]
    _require(isinstance(raw_records, list), "records must be a list")
    kinds = CensusRecord.__annotations__
    records = []
    for raw in raw_records:
        _require(isinstance(raw, dict), "each record must be an object")
        missing = [k for k in kinds if k not in raw and k not in CensusRecord._field_defaults]
        _require(not missing, f"record missing keys {missing}")
        rec = CensusRecord(**{k: _read(raw[k], kinds[k], k) for k in kinds if k in raw})
        _require(len(rec.sequence) == n_max + 1,
                 f"sequence must list exactly n_max + 1 counts, not {len(rec.sequence)}")
        _require(rec.verification in (VERIFIED, MISMATCH, UNCHECKED, ENUMERATION_ONLY),
                 f"unknown verification value {rec.verification!r}")
        records.append(rec)
    metadata = doc.get("metadata", {})
    _require(isinstance(metadata, dict), "metadata must be an object")
    return CensusTable(n_max, records, metadata)


def _replace(path: Path, data: bytes) -> None:
    # write a sibling of path's target, not of a symlink, and rename it over the
    # target, so a write that fails partway leaves the old file whole
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_cache(table: CensusTable, path: str | Path) -> None:
    _replace(Path(path), export(table, "json"))
