"""Agreement and correctness of the counting engines."""

import collections
import contextlib
import functools
import gc
import itertools
import math
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedperms import (
    PATTERNS,
    CapExceededError,
    PatternSet,
    avoids,
    containment_mask,
    count,
    count_backtrack,
    count_mask,
    count_naive,
    counts_all_subsets,
    eval_formula,
    iterate_Bn,
    mask_histogram,
    run_census,
    transfer_all_orders,
    verify_registry,
)
from signedperms import core, enumeration
from conftest import NAMED_TRIPLES, oracle_count, oracle_pair_matches

pattern_sets = st.integers(0, 255).map(PatternSet)


ALL_SETS = [PatternSet(m) for m in range(256)]


def budget_estimate(n_max: int, sets: int) -> float:
    # transfer_all_orders' memory estimate in bytes, restated: an 8-byte slot
    # per pair of halves of layers n - 1 and n, and per reached state of
    # layers n - 5 and n - 4 its fields of log2(2^n n!) bits and 64 bytes
    n = max(n_max, 11)
    h5, h4, h1, h0 = (1 + (k + 1) * (k + 2) // 2 for k in (n - 5, n - 4, n - 1, n))
    bits = math.log2((1 << n) * math.factorial(n))
    return 8 * (h1 * h1 + h0 * h0) + (h5 * h5 + h4 * h4) * (sets * bits / 8 + 64)


@functools.cache
def transfer_to(n_max: int) -> list[dict[PatternSet, int]]:
    # all 256 sets' counts at orders 0..n_max, keyed by set in mask order
    return [dict(zip(ALL_SETS, c)) for c in transfer_all_orders(n_max, range(256))]


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
            assert count_naive(n, PatternSet(0)).value == 2**n * math.factorial(n)

    def test_result_fields(self):
        r = count_naive(3, PatternSet(0xFF))
        assert (r.n, r.patterns, r.method) == (3, PatternSet(0xFF), "naive")
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
        assert count_backtrack(0, PatternSet(0xFF)).value == 1
        assert count_backtrack(1, PatternSet(0xFF)).value == 2
        assert count_backtrack(0, PatternSet(0)).value == 1

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
        assert per3[PatternSet(0)] == 48
        assert per3[PatternSet.parse("1 2")] == 34
        assert per3[PatternSet(0xFF)] == 0

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
        assert per12[PatternSet(0)] == 2**12 * math.factorial(12)
        assert per12[t2] == math.comb(26, 13) // 14
        assert all(type(v) is int for v in per12.values())

    def test_independent_of_field_width(self):
        # counts are packed into fields whose width depends on n_max; the
        # same orders must come out of every width
        wide = [list(per.values()) for per in transfer_to(14)]
        for m in range(9):
            narrow = transfer_all_orders(m, range(256))
            assert narrow == transfer_all_orders(m + 3, range(256))[: m + 1], m
            assert narrow == wide[: m + 1], m

    def test_extreme_fields_at_order_14(self):
        per_order = transfer_to(14)
        # field 0 holds the largest value the width must fit, the top field
        # is where a carry out of a lower field would land
        assert per_order[14][PatternSet(0)] == 2**14 * math.factorial(14)
        assert [per_order[n][PatternSet(0xFF)] for n in range(15)] == [1, 2] + [0] * 13
        assert all(type(v) is int for per in per_order for v in per.values())

    def test_adding_patterns_never_helps_at_order_10(self):
        per = transfer_to(12)[10]
        for mask in range(256):
            for i in range(8):
                if not mask >> i & 1:
                    assert per[PatternSet(mask | 1 << i)] <= per[PatternSet(mask)]

    def test_order_range(self):
        # order 33 is the census's last within the memory budget
        assert transfer_all_orders(0, range(256)) == [[1] * 256]
        with pytest.raises(CapExceededError):
            transfer_all_orders(34, range(256))
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            transfer_all_orders(-1, range(256))

    @pytest.mark.parametrize("masks, bad", [
        ([256], 256), ([-1], -1), ([0, 300], 300), ([1.5], 1.5), ([True], True),
        ([0, 2.0], 2.0),
    ])
    def test_rejects_masks_outside_a_byte(self, masks, bad):
        # a mask past 8 bits would be read as a different set, and True as 1
        with pytest.raises(ValueError, match=f"mask {bad} is not a pattern-set mask"):
            transfer_all_orders(3, masks)

    def test_over_budget_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            transfer_all_orders(10**400, [0])  # too large for a float
        with pytest.raises(CapExceededError) as info:
            transfer_all_orders(100, [0])
        assert time.perf_counter() - start < 1
        estimate = budget_estimate(100, 1) / 2**20
        stated = re.search(r"order 100 on 1 set\(s\) needs an estimated (\d+) MB, "
                           r"over the budget of 2048 MB", str(info.value))
        assert stated, str(info.value)
        assert abs(int(stated[1]) - estimate) < estimate / 1000
        # the census runs to order 33 and one set to order 78
        assert budget_estimate(33, 256) <= 2**31 < budget_estimate(34, 256)
        assert budget_estimate(78, 1) <= 2**31 < budget_estimate(79, 1)

    def test_layer_sizes_in_closed_form(self, monkeypatch):
        # the estimate's premise: layer k has 1 + (k + 1)(k + 2)/2 halves,
        # every pair of layer k <= n_max - 4 is reached, and from order 11 on
        # layers n_max - 5 and n_max - 4 hold the most reached states, so the
        # estimate bounds two adjacent layers' slots and ints at every order;
        # through order 16 the engine's own estimate is checked, by refusal
        halves = [len(enumeration._halves(k)) for k in range(61)]
        needs = [collections.Counter(h[2] for h in enumeration._halves(k)) for k in range(61)]
        assert halves[1:] == [1 + (k + 1) * (k + 2) // 2 for k in range(1, 61)]
        for n_max in range(61):
            reached = [sum(c[i] * c[j] for i in c for j in c if i + j <= n_max - k)
                       for k, c in enumerate(needs[: n_max + 1])]
            full = max(n_max - 3, 0)
            assert reached[:full] == [h * h for h in halves[:full]], n_max
            held = [sum(reached[max(k - 1, 0): k + 1]) for k in range(n_max + 1)]
            if n_max >= 11:
                assert held.index(max(held)) == n_max - 4, n_max
            bits = math.log2((1 << n_max) * math.factorial(n_max))
            for sets in (1, 58, 256):
                model = max(8 * sum(h * h for h in halves[max(k - 1, 0): k + 1])
                            + held[k] * (sets * bits / 8 + 64) for k in range(n_max + 1))
                assert budget_estimate(n_max, sets) >= model, (n_max, sets)
                if n_max <= 16:
                    monkeypatch.setattr(enumeration, "_BUDGET_BYTES", math.ceil(model) - 1)
                    with pytest.raises(CapExceededError):
                        transfer_all_orders(n_max, [0] * sets)

    def test_layers_are_the_reachable_states(self):
        # a prefix's gap state depends only on which magnitudes it uses,
        # unbarred or barred, so the 3^n role assignments stand for every
        # signed prefix of order n; shorter orders add their start states
        def listed(k, n_max):
            return [(lu, hu, lb, hb) for lu, hu, need_u in enumeration._halves(k)
                    for lb, hb, need_b in enumeration._halves(k)
                    if need_u + need_b <= n_max - k]

        for n_max, size in ((4, 48), (5, 106), (6, 221)):
            reached = {(k, k, 0, k, 0) for k in range(n_max)}
            for roles in itertools.product((None, 1, -1), repeat=n_max):
                unused = [m for m, r in enumerate(roles) if r is None]
                k = len(unused)
                state = [k]
                for bar in (1, -1):
                    used = [m for m, r in enumerate(roles) if r == bar]
                    gaps = [sum(u < m for u in unused) for m in used]
                    state += [min(gaps, default=k), max(gaps, default=0)]
                reached.add(tuple(state))
            states = [(k, *s) for k in range(n_max + 1) for s in listed(k, n_max)]
            assert len(states) == len(reached) == size, n_max
            assert set(states) == reached, n_max
        for n_max, total, largest in ((12, 6644, 2116), (16, 31038, 8464)):
            sizes = [len(listed(k, n_max)) for k in range(n_max + 1)]
            assert (sum(sizes), max(sizes)) == (total, largest), n_max

    def test_one_pass_to_order_22(self):
        # half indices pass the small-int cache from layer 22 (H = 277 halves);
        # {1 2} has sum_k C(n,k)^2 k! avoiders (EQ1) and T_2 Catalan C(n+1) (EQ7)
        t2 = PatternSet.parse(NAMED_TRIPLES["T_2"])
        per_order = transfer_all_orders(22, [PatternSet.parse("1 2").mask, t2.mask])
        assert per_order == [
            [sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1)),
             math.comb(2 * n + 2, n + 1) // (n + 2)]
            for n in range(23)
        ]

    def test_returns_without_keeping_its_states(self):
        # the layers must be freed when the call returns, not left for the
        # cyclic collector
        gc.disable()
        tracemalloc.start()
        try:
            transfer_all_orders(10, range(256))
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 1 << 20


class TestPackedKernel:
    # transfer_all_orders packs one field per listed mask, in list order

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10), st.lists(st.integers(0, 255), max_size=12))
    def test_fields_follow_the_list(self, n, masks):
        packed = transfer_all_orders(n, masks)
        assert len(packed) == n + 1
        for k, per in enumerate(transfer_to(n)):
            assert packed[k] == [per[PatternSet(m)] for m in masks], k

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 6), pattern_sets)
    def test_one_set_matches_naive(self, n, tset):
        assert transfer_all_orders(n, [tset.mask])[n] == [count_naive(n, tset).value]

    @pytest.mark.parametrize("name", sorted(NAMED_TRIPLES))
    def test_one_set_matches_backtrack_through_order_8(self, name):
        tset = PatternSet.parse(NAMED_TRIPLES[name])
        sequence = [c[0] for c in transfer_all_orders(8, [tset.mask])]
        assert sequence == [count_backtrack(n, tset).value for n in range(9)]


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
            count(2, PatternSet(0), method="magic")

    def test_caps_everywhere(self):
        # naive and mask visit all 2^n n! words, over the budget from order 10;
        # backtracking on {1 2} would visit about 260 million prefixes there
        for fn in (count_naive, count_backtrack, count_mask):
            with pytest.raises(CapExceededError, match="work budget"):
                fn(10, PatternSet.parse("1 2"))
        with pytest.raises(CapExceededError):
            mask_histogram(10)
        with pytest.raises(CapExceededError):
            counts_all_subsets(10)
        for fn in (count_naive, count_backtrack, count_mask):
            with pytest.raises(ValueError):
                fn(-1, PatternSet(0))

    @pytest.mark.parametrize("n", [True, 2.0, 1.5])
    @pytest.mark.parametrize("call", [
        lambda n: transfer_all_orders(n, [0]),
        lambda n: count_naive(n, PatternSet(0)),
        lambda n: count_backtrack(n, PatternSet(0)),
        lambda n: count_mask(n, PatternSet(0)),
        iterate_Bn,
        run_census,
        verify_registry,
        lambda n: eval_formula("TH4_2", n),
    ], ids=["transfer", "naive", "backtrack", "mask", "iterate_Bn", "run_census",
            "verify_registry", "eval_formula"])
    def test_orders_must_be_ints(self, call, n):
        # True and 2.0 equal ints, yet an order that is not an int is refused
        # before anything is counted, not read as 1 or failing further on
        with pytest.raises(ValueError, match=re.escape(f"order must be nonnegative, got {n!r}")):
            call(n)


@contextlib.contextmanager
def prefix_visits():
    # counts the calls of count_backtrack's inner grow, one per prefix visited
    visits = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "grow":
            visits[0] += 1

    sys.setprofile(profile)
    try:
        yield visits
    finally:
        sys.setprofile(None)


def backtrack_total(n: int, tset: PatternSet) -> int:
    # the work count_backtrack's guard computes: its last running total
    return max(enumeration._backtrack_work(n, tset.mask), default=0)


class TestWorkBudget:
    PREMISE_SETS = [PatternSet(0), PatternSet.parse("1 2"),
                    PatternSet.parse(NAMED_TRIPLES["T_2"]), PatternSet(0xFF)]

    def test_budget_is_order_9(self):
        assert core._WORK_BUDGET == 2**9 * math.factorial(9) == 185_794_560

    @pytest.mark.parametrize("tset", PREMISE_SETS, ids=str)
    def test_prefixes_are_the_shorter_avoiders(self, tset):
        # the prefixes of length k are the k-letter signed words on distinct
        # magnitudes from 1..n that avoid tset: C(n, k) b_k of them, as each
        # standardizes to an order-k avoider; backtracking visits those of
        # every length k < n, and the guard's total says so in advance
        for n in range(6):
            words = [
                sum(
                    avoids([s * m for s, m in zip(signs, mags)], tset)
                    for mags in itertools.permutations(range(1, n + 1), k)
                    for signs in itertools.product((1, -1), repeat=k)
                )
                for k in range(n)
            ]
            assert words == [math.comb(n, k) * count_naive(k, tset).value
                             for k in range(n)]
            with prefix_visits() as visits:
                count_backtrack(n, tset)
            assert visits[0] == sum(words) == backtrack_total(n, tset), n

    def test_a_count_of_0_ends_the_work(self):
        # no two letters avoid all eight patterns, so the only prefixes are
        # the empty one and the 2 * 78 single letters
        assert list(enumeration._backtrack_work(78, 0xFF)) == [1, 1 + 2 * 78]
        with prefix_visits() as visits:
            assert count_backtrack(78, PatternSet(0xFF)).value == 0
        assert visits[0] == 1 + 2 * 78

    def test_refusal_makes_short_passes(self, monkeypatch):
        # {1 2} at order 60 is over the budget by order 5 already, so the
        # passes stop at order 8 and no prefix is visited
        orders = []

        def recorded(n_max, masks):
            orders.append(n_max)
            return transfer(n_max, masks)

        transfer = enumeration.transfer_all_orders
        monkeypatch.setattr(enumeration, "transfer_all_orders", recorded)
        with prefix_visits() as visits, pytest.raises(CapExceededError):
            count_backtrack(60, PatternSet.parse("1 2"))
        assert visits[0] == 0
        assert orders and max(orders) <= 16

    def test_order_9_is_admitted_for_every_set(self):
        # on the guards alone: nothing is counted
        core._check_group(9)
        for tset in ALL_SETS:
            core._check_work(9, enumeration._backtrack_work(9, tset.mask))
        # the empty set is the most work
        assert backtrack_total(9, PatternSet(0)) == 120_528_883

    @pytest.mark.parametrize("text, reach", [
        (NAMED_TRIPLES["T_2"], 13),
        ("1 2, 1 -2, -1 -2, 2 1", 21),
        ("1 2, 2 1", 10),
    ])
    def test_backtracking_reach(self, text, reach):
        mask = PatternSet.parse(text).mask
        core._check_work(reach, enumeration._backtrack_work(reach, mask))
        with pytest.raises(CapExceededError):
            core._check_work(reach + 1, enumeration._backtrack_work(reach + 1, mask))
