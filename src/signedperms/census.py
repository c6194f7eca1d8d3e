"""Orbit census: sequences, formula verification, Wilf classes, and files.

run_census computes b_0..b_{n_max} for every orbit of pattern sets, checks
each registered closed form against the enumerated values on its claimed
range, and groups orbits whose sequences agree into Wilf classes.
verify_registry reports the check of every registry entry.  Both take all
their counts from one call to the transfer engine and their formula checks
from one loop, _check_registry.  Tables round-trip
through a JSON schema (export / load_cache); a cached table is checked
against re-derived counts, never trusted, before a census extends it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .core import DEFAULT_CAP, PatternSet
from .enumeration import transfer_all_orders
from .formulas import RegistryEntry, eval_formula, registry
from .symmetry import all_orbits


class SchemaError(ValueError):
    """A census file does not match the expected structure."""


VERIFIED = "verified"
MISMATCH = "mismatch"
ENUMERATION_ONLY = "enumeration_only"


@dataclass(frozen=True)
class CensusRecord:
    """One orbit's row: membership, counts, and verification outcome.

    sequence[k] is the number of order-k signed permutations avoiding any
    (equivalently every) member of the orbit.  verification is "verified"
    when every attached formula matches the sequence on [min_n, n_max],
    "mismatch" with details otherwise, and "enumeration_only" when no
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


@dataclass
class CensusTable:
    n_max: int
    records: list[CensusRecord]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EntryCheck:
    """Outcome of checking one registry entry against enumeration."""

    entry: RegistryEntry
    first_n: int
    last_n: int
    status: str
    mismatches: tuple[str, ...]
    holds_below: tuple[int, ...]


def _check_registry(
    per_order: list[dict[PatternSet, int]], n_max: int
) -> tuple[EntryCheck, ...]:
    # the one place formulas meet counts: each registry entry, in registry
    # order, against per_order[n] for n = 0..n_max
    checks = []
    for entry in registry():
        mismatches = []
        holds_below = []
        for n in range(n_max + 1):
            enumerated = per_order[n][entry.patterns]
            expected = eval_formula(entry.formula, n)
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
                status=MISMATCH if mismatches else VERIFIED,
                mismatches=tuple(mismatches),
                holds_below=tuple(holds_below),
            )
        )
    return tuple(checks)


def run_census(
    n_max: int,
    cap: int = DEFAULT_CAP,
    cache: CensusTable | None = None,
) -> CensusTable:
    """Count, verify, and classify all orbits up to order n_max.

    All orders come from one transfer-engine pass.  Sequences are checked
    for agreement across each orbit before being recorded.  A cache is
    never trusted: every cached order up to n_max must equal the
    re-derived count, or SchemaError names the first orbit and order
    that disagree.
    """
    per_order = transfer_all_orders(n_max, cap=cap)
    orbits = all_orbits()
    sequences: dict[int, list[int]] = {o.representative.mask: [] for o in orbits}
    for n, counts in enumerate(per_order):
        for orb in orbits:
            values = {counts[member] for member in orb.members}
            if len(values) != 1:
                raise RuntimeError(
                    f"orbit of {orb.representative} has unequal counts at order {n}"
                )
            sequences[orb.representative.mask].append(values.pop())

    if cache is not None:
        cached = {rec.representative.mask: rec.sequence for rec in cache.records}
        if set(cached) != set(sequences):
            raise SchemaError("cache does not list the expected orbit representatives")
        for orbit_id, orb in enumerate(orbits):
            rep = orb.representative
            for n in range(min(cache.n_max, n_max) + 1):
                got, want = cached[rep.mask][n], sequences[rep.mask][n]
                if got != want:
                    raise SchemaError(
                        f"cache disagrees with enumeration for orbit {orbit_id} "
                        f"{{{rep.text()}}} at order {n}: cached {got}, "
                        f"enumerated {want}"
                    )

    by_rep: dict[int, list[EntryCheck]] = {}
    for check in _check_registry(per_order, n_max):
        by_rep.setdefault(check.entry.canonical.mask, []).append(check)
    class_ids: dict[tuple[int, ...], int] = {}
    records = []
    for orbit_id, orb in enumerate(orbits):
        rep_mask = orb.representative.mask
        seq = tuple(sequences[rep_mask])
        checks = by_rep.get(rep_mask, [])
        details = tuple(
            f"{c.entry.name}/{c.entry.formula} at {m}"
            for c in checks
            for m in c.mismatches
        )
        if not checks:
            verification = ENUMERATION_ONLY
        elif details:
            verification = MISMATCH
        else:
            verification = VERIFIED
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


def wilf_classes(table: CensusTable) -> tuple[tuple[int, ...], ...]:
    """Orbit ids grouped by equal sequences, in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for rec in sorted(table.records, key=lambda r: r.orbit_id):
        groups.setdefault(rec.sequence, []).append(rec.orbit_id)
    return tuple(tuple(ids) for ids in groups.values())


@dataclass(frozen=True)
class SupersededClaim:
    """A historically claimed count shown wrong by direct enumeration."""

    patterns: PatternSet
    description: str
    n: int
    claimed: int
    enumerated: int


@dataclass
class VerificationReport:
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


def verify_registry(n_max: int, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check every registered closed form against enumerated counts.

    Each entry is checked on [min_n, n_max].  Orders below min_n where the
    formula happens to match anyway are reported as informational notes.
    The superseded historical claims are recomputed and shown to disagree
    with enumeration at their witness orders.
    """
    per_order = transfer_all_orders(n_max, cap=cap)
    checks = _check_registry(per_order, n_max)

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
                enumerated=per_order[witness_n][ps],
            )
        )

    return VerificationReport(n_max, checks, tuple(superseded))


def _pattern_set_to_json(ps: PatternSet) -> list[list[int]]:
    return [list(p.letters) for p in ps]


def _pattern_set_from_json(data) -> PatternSet:
    if not isinstance(data, list):
        raise SchemaError(f"pattern set must be a list, got {type(data).__name__}")
    try:
        return PatternSet.from_patterns(tuple(pair) for pair in data)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad pattern set {data!r}: {exc}") from None


def _record_to_json(rec: CensusRecord) -> dict:
    out = {
        "orbit_id": rec.orbit_id,
        "representative": _pattern_set_to_json(rec.representative),
        "paper_names": list(rec.paper_names),
        "members": [_pattern_set_to_json(m) for m in rec.members],
        "sequence": [str(v) for v in rec.sequence],
        "formula_ids": list(rec.formula_ids),
        "verification": rec.verification,
        "wilf_class": rec.wilf_class,
    }
    if rec.verification_details:
        out["verification_details"] = list(rec.verification_details)
    return out


def export(table: CensusTable, format: str = "json") -> bytes:
    """Serialize a census deterministically, as JSON or CSV."""
    if format == "json":
        doc = {
            "n_max": table.n_max,
            "records": [_record_to_json(r) for r in table.records],
            "metadata": table.metadata,
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    if format == "csv":
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


def load_cache(path: str | Path) -> CensusTable:
    """Load a JSON census written by export, validating its structure."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    _require("n_max" in doc and "records" in doc, "top level needs n_max and records")
    n_max = doc["n_max"]
    _require(isinstance(n_max, int) and n_max >= 0, "n_max must be a nonnegative int")
    raw_records = doc["records"]
    _require(isinstance(raw_records, list), "records must be a list")
    records = []
    for raw in raw_records:
        _require(isinstance(raw, dict), "each record must be an object")
        for key in (
            "orbit_id",
            "representative",
            "paper_names",
            "members",
            "sequence",
            "formula_ids",
            "verification",
            "wilf_class",
        ):
            _require(key in raw, f"record missing key {key!r}")
        sequence = raw["sequence"]
        _require(
            isinstance(sequence, list) and len(sequence) == n_max + 1,
            "sequence must list exactly n_max + 1 values",
        )
        try:
            seq = tuple(int(s) for s in sequence)
        except (TypeError, ValueError):
            raise SchemaError(f"non-integer sequence entry in {sequence!r}") from None
        _require(
            raw["verification"] in (VERIFIED, MISMATCH, ENUMERATION_ONLY),
            f"unknown verification value {raw['verification']!r}",
        )
        _require(
            isinstance(raw["orbit_id"], int) and isinstance(raw["wilf_class"], int),
            "orbit_id and wilf_class must be ints",
        )
        records.append(
            CensusRecord(
                orbit_id=raw["orbit_id"],
                representative=_pattern_set_from_json(raw["representative"]),
                paper_names=tuple(str(s) for s in raw["paper_names"]),
                members=tuple(
                    _pattern_set_from_json(m) for m in raw["members"]
                ),
                sequence=seq,
                formula_ids=tuple(str(s) for s in raw["formula_ids"]),
                verification=raw["verification"],
                wilf_class=raw["wilf_class"],
                verification_details=tuple(raw.get("verification_details", ())),
            )
        )
    metadata = doc.get("metadata", {})
    _require(isinstance(metadata, dict), "metadata must be an object")
    return CensusTable(n_max, records, metadata)


def write_cache(table: CensusTable, path: str | Path) -> None:
    Path(path).write_bytes(export(table, "json"))
