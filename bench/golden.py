"""Golden table of avoider counts b_0..b_8 for all 256 pattern sets.

The table lives beside this file in golden.json and is what the benchmark
checks every CLI output against.  Sets are keyed by their patterns written
as letter pairs, so checking an output needs nothing from the package under
test.  Values are compared as integers, never as bytes, so metadata added to
the CLI's outputs does not count as a failure.

Rebuild (from the repository root, a few minutes on one core):

    PYTHONPATH=src python3 bench/golden.py

The build counts with the histogram engine and cross-checks the result
against the naive filter for n <= 6, against b_n(empty set) = 2^n n! and
against Catalan C_{n+1} for T_2 = {1 2, 1 -2, -1 -2}.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
N_MAX = 8
NAIVE_N_MAX = 6
T_2 = frozenset({(1, 2), (1, -2), (-1, -2)})

Key = frozenset  # frozenset of (int, int) letter pairs


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def pattern_text(key: Key) -> str:
    return ", ".join(f"{a} {b}" for a, b in sorted(key))


def _check_closed_forms(table: dict[Key, tuple[int, ...]]) -> None:
    for n, value in enumerate(table[frozenset()]):
        if value != 2**n * math.factorial(n):
            raise ValueError(f"b_{n}(empty set) is {value}, not 2^n n!")
    for n, value in enumerate(table[T_2]):
        if value != catalan(n + 1):
            raise ValueError(f"b_{n}(T_2) is {value}, not Catalan C_{n + 1}")


def load(path: Path = GOLDEN_PATH) -> dict[Key, tuple[int, ...]]:
    """Read the table and check its shape and its two closed forms."""
    doc = json.loads(path.read_text())
    table = {
        frozenset(tuple(p) for p in row["patterns"]): tuple(row["counts"])
        for row in doc["sets"]
    }
    if doc["n_max"] != N_MAX or len(table) != 256:
        raise ValueError(f"{path} must list 256 sets up to n = {N_MAX}")
    if any(len(seq) != N_MAX + 1 for seq in table.values()):
        raise ValueError(f"{path} has a sequence of the wrong length")
    _check_closed_forms(table)
    return table


def check_census(stdout: str, table: dict[Key, tuple[int, ...]]) -> str | None:
    """Compare `census --format json` output; None when it matches.

    Every orbit's sequence must equal the golden sequence of every one of
    its members, the members must cover all 256 sets once, and no record
    may report a formula mismatch.
    """
    try:
        doc = json.loads(stdout)
        records = doc["records"]
    except (ValueError, KeyError, TypeError):
        return f"unparsable census output: {stdout[:200]!r}"
    if doc.get("n_max") != N_MAX:
        return f"census n_max is {doc.get('n_max')!r}, not {N_MAX}"
    seen: set[Key] = set()
    for rec in records:
        if rec.get("verification") == "mismatch":
            return f"orbit {rec.get('orbit_id')} reports a mismatch"
        try:
            seq = tuple(int(v) for v in rec["sequence"])
            members = [frozenset(tuple(p) for p in m) for m in rec["members"]]
            rep = frozenset(tuple(p) for p in rec["representative"])
        except (KeyError, TypeError, ValueError):
            return f"malformed census record {str(rec)[:200]!r}"
        if rep not in members:
            return f"orbit {rec.get('orbit_id')} does not list its representative"
        for key in members:
            if key in seen:
                return f"set {{{pattern_text(key)}}} appears in two orbits"
            seen.add(key)
            if table.get(key) != seq:
                return (
                    f"orbit {rec.get('orbit_id')}: sequence {list(seq)} but "
                    f"{{{pattern_text(key)}}} has {list(table.get(key, ()))}"
                )
    if len(seen) != 256:
        return f"census covers {len(seen)} sets, not 256"
    return None


def build() -> dict:
    """Count all 256 sets with the histogram engine and cross-check."""
    from signedperms import PATTERNS, PatternSet, count_naive, counts_all_subsets

    per_order = [counts_all_subsets(n, workers=1) for n in range(N_MAX + 1)]
    rows = []
    table = {}
    for mask in range(256):
        ps = PatternSet(mask)
        pairs = [tuple(PATTERNS[i].letters) for i in range(8) if mask >> i & 1]
        counts = tuple(per_order[n][ps] for n in range(N_MAX + 1))
        for n in range(NAIVE_N_MAX + 1):
            naive = count_naive(n, ps).value
            if naive != counts[n]:
                raise ValueError(f"{ps} at n={n}: histogram {counts[n]}, naive {naive}")
        table[frozenset(pairs)] = counts
        rows.append({"patterns": [list(p) for p in pairs], "counts": list(counts)})
    _check_closed_forms(table)
    return {"n_max": N_MAX, "engine": "mask_histogram", "sets": rows}


def main() -> None:
    doc = build()
    lines = ",\n".join("  " + json.dumps(row) for row in doc["sets"])
    GOLDEN_PATH.write_text(
        f'{{"n_max": {doc["n_max"]}, "engine": "{doc["engine"]}", "sets": [\n{lines}\n]}}\n'
    )
    load()
    print(f"wrote {GOLDEN_PATH} ({len(doc['sets'])} sets)")


if __name__ == "__main__":
    main()
