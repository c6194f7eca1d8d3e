"""Agreement and correctness of the counting engines."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedperms import (
    EMPTY_SET,
    PATTERNS,
    FULL_SET,
    CapExceededError,
    PatternSet,
    containment_mask,
    count,
    count_backtrack,
    count_mask,
    count_naive,
    counts_all_subsets,
    iterate_Bn,
    mask_histogram,
    transfer_all_orders,
)
from signedperms import enumeration
from conftest import NAMED_TRIPLES, oracle_count, oracle_pair_matches

pattern_sets = st.integers(0, 255).map(PatternSet)


@functools.cache
def transfer_to(n_max: int) -> list[dict[PatternSet, int]]:
    return transfer_all_orders(n_max, cap=n_max)


def brute_histogram(n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in iterate_Bn(n):
        m = containment_mask(w).mask
        counts[m] = counts.get(m, 0) + 1
    return counts


class TestNaive:
    def test_remark_values(self):
        assert count_naive(2, PatternSet.parse("1 2, 2 1")).value == 6
        assert count_naive(3, PatternSet.parse("1 -2, -1 2")).value == 22

    def test_empty_set_counts_everything(self):
        for n in range(5):
            assert count_naive(n, EMPTY_SET).value == 2**n * math.factorial(n)

    def test_result_fields(self):
        r = count_naive(3, FULL_SET)
        assert (r.n, r.patterns, r.method) == (3, FULL_SET, "naive")
        assert r.value == 0

    def test_matches_definitional_oracle(self):
        for n in range(4):
            for mask in range(0, 256, 17):
                tset = PatternSet(mask)
                assert count_naive(n, tset).value == oracle_count(n, tset)


class TestBacktrack:
    def test_fibonacci_triple(self):
        t6 = PatternSet.parse(NAMED_TRIPLES["T_6"])
        assert count_backtrack(4, t6).value == 34
        # and the same number is the 9th Fibonacci term
        fib = [1, 1]
        while len(fib) < 9:
            fib.append(fib[-1] + fib[-2])
        assert fib[8] == 34

    def test_near_miss_of_the_fibonacci_set(self):
        # adding "-1 -2" to T_6's first two patterns lands in a different
        # orbit with a quadratic count, not the Fibonacci one
        other = PatternSet.parse("1 2, 1 -2, -1 -2, -2 -1")
        assert count_backtrack(4, other).value == 11
        assert count_naive(4, other).value == 11

    def test_order_zero_and_one(self):
        assert count_backtrack(0, FULL_SET).value == 1
        assert count_backtrack(1, FULL_SET).value == 2
        assert count_backtrack(0, EMPTY_SET).value == 1

    def test_agrees_with_naive_exhaustively(self):
        for n in range(4):
            for mask in range(256):
                tset = PatternSet(mask)
                assert (
                    count_backtrack(n, tset).value == count_naive(n, tset).value
                ), (n, mask)

    @pytest.mark.parametrize(
        "new, table",
        [(4, enumeration._EXTEND_UNBARRED), (-4, enumeration._EXTEND_BARRED)],
    )
    def test_extension_tables_match_definition(self, new, table):
        # summary bit b says the prefix holds an old letter like olds[b]:
        # unbarred below the new letter, unbarred above, barred below,
        # barred above; the new letter's pairs with those olds add exactly
        # the patterns they match by definition
        olds = (1, 7, -2, -6)
        expected = [
            sum(
                1 << p.index
                for p in PATTERNS
                if any(
                    s >> b & 1 and oracle_pair_matches(x, new, tuple(p.letters))
                    for b, x in enumerate(olds)
                )
            )
            for s in range(16)
        ]
        assert list(table) == expected

    @settings(max_examples=60)
    @given(st.integers(0, 4), pattern_sets)
    def test_agrees_with_naive_random(self, n, tset):
        assert count_backtrack(n, tset).value == count_naive(n, tset).value


class TestMaskHistogram:
    def test_small_orders(self):
        assert mask_histogram(0) == {0: 1}
        assert mask_histogram(1) == {0: 2}
        # each order-2 word realizes exactly its own pattern
        assert mask_histogram(2) == {1 << i: 1 for i in range(8)}

    def test_totals(self):
        for n in range(6):
            assert sum(mask_histogram(n).values()) == 2**n * math.factorial(n)

    def test_matches_per_word_scan(self):
        for n in range(5):
            assert mask_histogram(n) == brute_histogram(n)


class TestCountsAllSubsets:
    def test_against_naive_exhaustively(self):
        for n in range(4):
            per = counts_all_subsets(n)
            assert len(per) == 256
            for mask in range(256):
                tset = PatternSet(mask)
                assert per[tset] == count_naive(n, tset).value, (n, mask)

    def test_known_values(self):
        per3 = counts_all_subsets(3)
        assert per3[EMPTY_SET] == 48
        assert per3[PatternSet.parse("1 2")] == 34
        assert per3[FULL_SET] == 0

    def test_structure_at_order_two(self):
        per2 = counts_all_subsets(2)
        for tset, value in per2.items():
            assert value == 8 - len(tset)

    def test_adding_patterns_never_helps(self):
        for n in range(5):
            per = counts_all_subsets(n)
            for mask in range(256):
                for i in range(8):
                    if not mask >> i & 1:
                        assert per[PatternSet(mask | 1 << i)] <= per[PatternSet(mask)]


class TestTransfer:
    # every check compares against an engine or a closed form that shares
    # no code with the transfer engine's gap-state logic

    def test_matches_histogram_through_order_8(self):
        per_order = transfer_to(8)
        assert len(per_order) == 9
        for n in range(9):
            assert per_order[n] == counts_all_subsets(n), n

    def test_matches_naive_exhaustively(self):
        per_order = transfer_to(5)
        for n in range(6):
            for mask in range(256):
                tset = PatternSet(mask)
                assert per_order[n][tset] == count_naive(n, tset).value, (n, mask)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 6), pattern_sets)
    def test_matches_naive_random(self, n, tset):
        assert transfer_to(6)[n][tset] == count_naive(n, tset).value

    def test_closed_forms_at_order_12(self):
        per12 = transfer_to(12)[12]
        t2 = PatternSet.parse(NAMED_TRIPLES["T_2"])
        assert per12[EMPTY_SET] == 2**12 * math.factorial(12)
        assert per12[t2] == math.comb(26, 13) // 14
        assert all(type(v) is int for v in per12.values())

    def test_independent_of_field_width(self):
        # counts are packed into fields whose width depends on n_max; the
        # same orders must come out of every width
        wide = transfer_to(14)
        for m in range(9):
            narrow = transfer_all_orders(m)
            assert narrow == transfer_all_orders(m + 3, cap=m + 3)[: m + 1], m
            assert narrow == wide[: m + 1], m

    def test_extreme_fields_at_order_14(self):
        per_order = transfer_to(14)
        # field 0 holds the largest value the width must fit, the top field
        # is where a carry out of a lower field would land
        assert per_order[14][EMPTY_SET] == 2**14 * math.factorial(14)
        assert [per_order[n][FULL_SET] for n in range(15)] == [1, 2] + [0] * 13
        assert all(type(v) is int for per in per_order for v in per.values())

    def test_adding_patterns_never_helps_at_order_10(self):
        per = transfer_to(12)[10]
        for mask in range(256):
            for i in range(8):
                if not mask >> i & 1:
                    assert per[PatternSet(mask | 1 << i)] <= per[PatternSet(mask)]

    def test_order_range(self):
        assert transfer_all_orders(5, n_min=3) == transfer_to(5)[3:]
        assert transfer_all_orders(2, n_min=3) == []
        with pytest.raises(CapExceededError):
            transfer_all_orders(12)
        with pytest.raises(ValueError):
            transfer_all_orders(3, n_min=-1)


class TestDispatch:
    def test_methods_agree(self):
        tset = PatternSet.parse("1 2, -2 1")
        values = {
            count(4, tset, method=m).value
            for m in ("transfer", "naive", "backtrack", "mask")
        }
        assert len(values) == 1

    def test_count_mask_result(self):
        r = count_mask(3, PatternSet.parse("1 2"))
        assert (r.value, r.method) == (34, "mask")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            count(2, EMPTY_SET, method="magic")

    def test_caps_everywhere(self):
        big = 12
        for fn in (count_naive, count_backtrack):
            with pytest.raises(CapExceededError):
                fn(big, EMPTY_SET)
        with pytest.raises(CapExceededError):
            mask_histogram(big)
        with pytest.raises(CapExceededError):
            counts_all_subsets(big)
        with pytest.raises(ValueError):
            count_backtrack(-1, EMPTY_SET)
