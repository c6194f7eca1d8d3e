"""Orbit census: sequences, formula verification, Wilf classes, and files.

run_census computes b_0..b_{n_max} for every orbit of pattern sets, checks
each registered closed form against the enumerated values on its claimed
range, and groups orbits whose sequences agree into Wilf classes.
verify_registry reports the check of every registry entry.  Both take all
their counts from one call to the transfer engine over the 256 sets,
guarded by its memory budget, not by the oracles' work budget, and their
formula checks from one loop, _check_registry.  Tables round-trip through
a JSON schema (export / load_cache); a cached table is checked against
re-derived counts, never trusted, before a census extends it.
"""

import json
from json.encoder import encode_basestring_ascii as _str
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
    first_n: int
    last_n: int
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
                first_n=entry.min_n,
                last_n=n_max,
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
    it says), holds one record per orbit, in orbit order, with its id and
    members, and equals the recount at every cached order up to n_max.
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

    def ok(self) -> bool:
        return self.mismatch_count == 0


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


def _pattern_set(data, key: str) -> PatternSet:
    try:
        # letters must be ints: a bool or a float compares equal to one
        if type(data) is not list or any(type(x) is not int for p in data for x in p):
            raise TypeError("a pattern set is a list of lists of int letters")
        return PatternSet.from_patterns(map(tuple, data))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad pattern set in {key} {data!r}: {exc}") from None


def _json(obj, pad: str = "") -> str:
    # the text of json.dumps(obj, indent=2) with every line after the first
    # indented by pad more, a PatternSet as its list of [first, second]
    # letters: with an indent, json.dumps runs its slow pure-Python encoder
    if type(obj) is int:  # as json.dumps writes it, and much faster
        return str(obj)
    if isinstance(obj, str):
        return _str(obj)
    inner = pad + "  "
    if isinstance(obj, PatternSet):
        obj = [p.letters for p in obj]
    if isinstance(obj, dict):
        items = [f"{_json(k if isinstance(k, str) else json.dumps(k))}: {_json(v, inner)}"
                 for k, v in obj.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json(v, inner) for v in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]" if items else "[]"
    return json.dumps(obj)


def export(table: CensusTable, format: str = "json") -> bytes:
    """Serialize a census deterministically, as JSON or CSV."""
    if format == "json":
        records = []
        for rec in table.records:
            fields = rec._asdict()
            fields["sequence"] = [str(v) for v in rec.sequence]
            if not rec.verification_details:
                del fields["verification_details"]
            records.append(fields)
        return (_json(dict(table._asdict(), records=records)) + "\n").encode()
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


def _strings(raw: dict, key: str) -> tuple[str, ...]:
    # a record's list of strings; verification_details alone may be absent
    items = raw.get(key, [])
    _require(
        type(items) is list and all(type(s) is str for s in items),
        f"{key} must be a list of strings",
    )
    return tuple(items)


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
    records = []
    for raw in raw_records:
        _require(isinstance(raw, dict), "each record must be an object")
        for key in CensusRecord._fields[:-1]:  # verification_details is optional
            _require(key in raw, f"record missing key {key!r}")
        sequence = raw["sequence"]
        _require(
            type(sequence) is list and len(sequence) == n_max + 1
            and all(type(s) is str and s.isascii() and s.isdigit() for s in sequence),
            f"sequence must list exactly n_max + 1 decimal digit strings: {sequence!r}",
        )
        _require(
            raw["verification"] in (VERIFIED, MISMATCH, UNCHECKED, ENUMERATION_ONLY),
            f"unknown verification value {raw['verification']!r}",
        )
        _require(
            type(raw["orbit_id"]) is int and type(raw["wilf_class"]) is int,
            "orbit_id and wilf_class must be ints",
        )
        _require(type(raw["members"]) is list, "members must be a list")
        records.append(
            CensusRecord(
                orbit_id=raw["orbit_id"],
                representative=_pattern_set(raw["representative"], "representative"),
                paper_names=_strings(raw, "paper_names"),
                members=tuple(_pattern_set(m, "members") for m in raw["members"]),
                sequence=tuple(map(int, sequence)),
                formula_ids=_strings(raw, "formula_ids"),
                verification=raw["verification"],
                wilf_class=raw["wilf_class"],
                verification_details=_strings(raw, "verification_details"),
            )
        )
    metadata = doc.get("metadata", {})
    _require(isinstance(metadata, dict), "metadata must be an object")
    return CensusTable(n_max, records, metadata)


def write_cache(table: CensusTable, path: str | Path) -> None:
    Path(path).write_bytes(export(table, "json"))
