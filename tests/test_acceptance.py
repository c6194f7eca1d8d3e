"""Acceptance gate: the nine binding criteria, one pass/fail line each.

Run with -s (or read the captured output) to see the per-criterion lines.
Every check is exact; the two performance criteria also enforce wall-clock
budgets.
"""

import contextlib
import json
import random
import time
from collections import Counter

import pytest

from signedperms import (
    PATTERNS,
    PatternSet,
    all_orbits,
    apply,
    apply_to_set,
    containment_mask,
    count_backtrack,
    count_naive,
    counts_all_subsets,
    eval_formula,
    export,
    group_elements,
    iterate_Bn,
    load_cache,
    pattern_of,
    registry,
    run_census,
    verify_registry,
    write_cache,
)
from signedperms import formulas
from signedperms.cli import main as cli_main
from conftest import NAMED_TRIPLES


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def test_criterion_1_remark_reproduction():
    with criterion(1, "corrected counts reproduced, superseded claims refuted"):
        pair_a = PatternSet.parse("1 2, 2 1")
        pair_b = PatternSet.parse("1 -2, -1 2")
        assert count_naive(2, pair_a).value == 6
        assert count_backtrack(2, pair_a).value == 6
        assert count_naive(3, pair_b).value == 22
        assert count_backtrack(3, pair_b).value == 22
        # the superseded closed forms disagree with enumeration
        assert 2 * formulas.factorial(2) == 4 != 6
        assert formulas.factorial(3 + 1) == 24 != 22
        report = verify_registry(3)
        shown = {(s.claimed, s.enumerated) for s in report.superseded}
        assert shown == {(4, 6), (24, 22)}


def test_criterion_2_three_engines_agree():
    with criterion(2, "naive, backtrack, and mask engines agree (n<=5 all "
                      "256 sets; n=6 seeded sample) within 1 minute"):
        start = time.perf_counter()
        for n in range(6):
            per_mask = counts_all_subsets(n)
            for mask in range(256):
                tset = PatternSet(mask)
                naive = count_naive(n, tset).value
                backtrack = count_backtrack(n, tset).value
                assert naive == backtrack == per_mask[tset], (n, mask)
        rng = random.Random(20260819)
        per_mask6 = counts_all_subsets(6)
        for mask in rng.sample(range(256), 20):
            tset = PatternSet(mask)
            naive = count_naive(6, tset).value
            backtrack = count_backtrack(6, tset).value
            assert naive == backtrack == per_mask6[tset], mask
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_3_master_registry_verification():
    with criterion(3, "every registered formula matches enumeration on "
                      "[min_n, 7] by two independent routes within 5 minutes"):
        start = time.perf_counter()
        # route one: pruned backtracking, entry by entry
        for entry in registry():
            for n in range(entry.min_n, 8):
                expected = eval_formula(entry.formula, n)
                enumerated = count_backtrack(n, entry.patterns).value
                assert expected == enumerated, (entry.name, n, expected, enumerated)
        # route two: transfer engine, all entries at once
        report = verify_registry(7)
        assert report.mismatch_count == 0
        assert len(report.checks) == 67
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_4_orbit_reduction():
    with criterion(4, "256 pattern sets reduce to 58 orbits with the "
                      "expected size profile"):
        census = Counter(len(o.representative) for o in all_orbits())
        assert census[1] == 2
        assert census[2] == 8
        assert census[3] == 10
        assert census[4] == 16
        assert census[5] == 10
        assert census[6] == 8
        assert census[7] + census[8] == 3
        assert len(all_orbits()) == 58
        assert sum(len(orb.members) for orb in all_orbits()) == 256


def test_criterion_5_named_sequences():
    with criterion(5, "landmark sequences: squared-binomial sum, Catalan, "
                      "bisected Fibonacci, n^2+1, 2^{n+1}-(n+1)"):
        single = PatternSet.parse("1 2")
        values = [count_backtrack(n, single).value for n in range(6)]
        assert values == [1, 2, 7, 34, 209, 1546]
        assert values == [eval_formula("EQ1", n) for n in range(6)]

        t2 = PatternSet.parse(NAMED_TRIPLES["T_2"])
        for n in range(8):
            assert count_backtrack(n, t2).value == eval_formula("EQ7", n)

        t6 = PatternSet.parse(NAMED_TRIPLES["T_6"])
        fib_route = [count_backtrack(n, t6).value for n in range(8)]
        assert fib_route == [eval_formula("EQ10", n) for n in range(8)]
        for n in range(2, 8):
            assert fib_route[n] == 3 * fib_route[n - 1] - fib_route[n - 2]

        t7 = PatternSet.parse(NAMED_TRIPLES["T_7"])
        t8 = PatternSet.parse(NAMED_TRIPLES["T_8"])
        for n in range(8):
            assert count_backtrack(n, t7).value == n * n + 1
            assert count_backtrack(n, t8).value == 2 ** (n + 1) - (n + 1)


def test_criterion_6_symmetry_properties():
    with criterion(6, "group of order 8; equivariance exhaustive over B_4; "
                      "counts constant on orbits for all 256 sets, n<=5"):
        assert len(group_elements()) == 8
        elements = sorted(
            group_elements(),
            key=lambda g: (g.use_reversal, g.use_barring, g.use_complement),
        )
        for w in iterate_Bn(4):
            for g in elements:
                gw = apply(g, w)
                for p in PATTERNS:
                    gp = pattern_of(apply(g, p.letters))
                    assert (p in containment_mask(w)) == (gp in containment_mask(gw))
        for n in range(6):
            per_mask = counts_all_subsets(n)
            for mask in range(256):
                tset = PatternSet(mask)
                for g in elements:
                    assert per_mask[tset] == per_mask[apply_to_set(g, tset)]


def test_criterion_7_structural_invariants():
    with criterion(7, "b_0 = 1, b_1 = 2, b_2 = 8 - |T| for all 256 sets; "
                      "adding a pattern never increases a count, n<=5"):
        per0 = counts_all_subsets(0)
        per1 = counts_all_subsets(1)
        per2 = counts_all_subsets(2)
        for mask in range(256):
            tset = PatternSet(mask)
            assert per0[tset] == 1
            assert per1[tset] == 2
            assert per2[tset] == 8 - len(tset)
        for n in range(6):
            per = counts_all_subsets(n)
            for mask in range(256):
                base = per[PatternSet(mask)]
                for i in range(8):
                    if not mask >> i & 1:
                        assert per[PatternSet(mask | 1 << i)] <= base


def test_criterion_8_performance():
    with criterion(8, "census to n=8 under 60 s; census to n=7 "
                      "single-threaded under 30 s"):
        start = time.perf_counter()
        table8 = run_census(8)
        elapsed8 = time.perf_counter() - start
        assert elapsed8 < 60, f"n=8 census took {elapsed8:.1f}s"
        assert len(table8.records) == 58
        assert all(rec.verification == "verified" for rec in table8.records)

        start = time.perf_counter()
        table7 = run_census(7)
        elapsed7 = time.perf_counter() - start
        assert elapsed7 < 30, f"n=7 census took {elapsed7:.1f}s"
        assert all(rec.verification == "verified" for rec in table7.records)


def test_criterion_9_persistence_and_mutation(tmp_path, monkeypatch, capsys):
    with criterion(9, "export/load round trip lossless at n_max=6; seeded "
                      "formula mutation flips verify to exit 1"):
        table = run_census(6)
        path = tmp_path / "census6.json"
        write_cache(table, path)
        loaded = load_cache(path)
        assert loaded.n_max == table.n_max
        assert loaded.records == table.records
        assert export(loaded) == export(table)

        assert cli_main(["verify", "--n-max", "3"]) == 0
        capsys.readouterr()

        rng = random.Random(97)
        victim = rng.choice(sorted(formulas._EVALUATORS))
        claim, original = formulas._EVALUATORS[victim]
        monkeypatch.setitem(
            formulas._EVALUATORS, victim, (claim, lambda n: original(n) + 1)
        )
        assert cli_main(["verify", "--n-max", "4"]) == 1
        capsys.readouterr()


def test_acceptance_summary():
    # all criteria above ran; nine pass lines precede this summary
    print("acceptance suite complete: criteria 1-9 evaluated")
