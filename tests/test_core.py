"""Core types: letters, patterns, containment, iteration."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedperms import (
    PATTERNS,
    CapExceededError,
    DuplicateMagnitudeError,
    EqualMagnitudesError,
    MagnitudeOutOfRangeError,
    Pattern,
    PatternSet,
    SignedPermutation,
    ZeroLetterError,
    avoids,
    containment_mask,
    iterate_Bn,
    pair_index,
    pattern_of,
    validate_permutation,
)
from conftest import all_signed_perms, oracle_containment_mask, oracle_pair_matches

signed_perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).flatmap(
        lambda base: st.lists(
            st.sampled_from((1, -1)), min_size=n, max_size=n
        ).map(lambda signs: SignedPermutation(s * m for s, m in zip(signs, base)))
    )
)

pattern_sets = st.integers(0, 255).map(PatternSet)


class TestValidation:
    def test_valid_words(self):
        assert validate_permutation([2, -1, 3]) == (2, -1, 3)
        assert validate_permutation(()) == ()
        assert validate_permutation([-1]) == (-1,)
        assert isinstance(validate_permutation([1, 2]), SignedPermutation)

    @pytest.mark.parametrize("raw", [[True], [1, 2.0], ["1"]])
    def test_letter_not_an_int(self, raw):
        # a bool or a float compares equal to an int, and a str has no abs()
        with pytest.raises(TypeError, match="letter must be an int"):
            validate_permutation(raw)

    def test_zero_letter(self):
        with pytest.raises(ZeroLetterError):
            validate_permutation([0, 1])

    def test_duplicate_magnitude(self):
        with pytest.raises(DuplicateMagnitudeError):
            validate_permutation([1, 1])
        with pytest.raises(DuplicateMagnitudeError):
            validate_permutation([2, 1, -2])

    def test_magnitude_out_of_range(self):
        with pytest.raises(MagnitudeOutOfRangeError):
            validate_permutation([3, 1])
        with pytest.raises(MagnitudeOutOfRangeError):
            validate_permutation([1, 2, 4])

    def test_order_and_oneline(self):
        w = validate_permutation([2, -1, -3])
        assert w.oneline() == "2 -1 -3"
        assert repr(w) == "SignedPermutation([2, -1, -3])"


class TestPatterns:
    def test_fixed_ordering(self):
        # index assignments are a frozen contract for all mask encodings
        expected = [
            (1, 2), (2, 1), (-1, 2), (1, -2),
            (-1, -2), (2, -1), (-2, 1), (-2, -1),
        ]
        assert [tuple(p.letters) for p in PATTERNS] == expected
        assert [p.index for p in PATTERNS] == list(range(8))

    def test_pattern_of(self):
        assert pattern_of((2, -1)).index == 5
        with pytest.raises(ValueError):
            pattern_of((1, 3))
        with pytest.raises(ValueError):
            pattern_of((1, 1))

    @pytest.mark.parametrize("letters", [[True, 2], [1.0, 2], [1, "2"]])
    def test_pattern_of_refuses_a_letter_not_an_int(self, letters):
        # a bool or a float compares equal to an int, and was looked up as one
        with pytest.raises(TypeError, match="letters must be ints"):
            pattern_of(letters)

    def test_pair_pattern_examples(self):
        assert str(PATTERNS[pair_index(4, 7)]) == "1 2"
        assert str(PATTERNS[pair_index(7, 4)]) == "2 1"
        assert str(PATTERNS[pair_index(-4, 7)]) == "-1 2"
        assert str(PATTERNS[pair_index(4, -7)]) == "1 -2"
        assert str(PATTERNS[pair_index(-4, -7)]) == "-1 -2"
        assert str(PATTERNS[pair_index(7, -4)]) == "2 -1"
        assert str(PATTERNS[pair_index(-7, 4)]) == "-2 1"
        assert str(PATTERNS[pair_index(-7, -4)]) == "-2 -1"

    def test_equal_magnitudes_rejected(self):
        with pytest.raises(EqualMagnitudesError):
            pair_index(2, -2)
        with pytest.raises(EqualMagnitudesError):
            pair_index(3, 3)

    def test_pair_pattern_matches_definition(self):
        # definitional oracle: bars positionwise, magnitudes order-isomorphic
        letters = [x for x in range(-5, 6) if x != 0]
        for x, y in itertools.permutations(letters, 2):
            if abs(x) == abs(y):
                continue
            matches = [
                p.index
                for p in PATTERNS
                if oracle_pair_matches(x, y, tuple(p.letters))
            ]
            assert matches == [pair_index(x, y)]

    def test_b2_bijection(self):
        # each order-2 word realizes exactly its own pattern
        seen = set()
        for w in all_signed_perms(2):
            mask = containment_mask(w)
            assert len(mask) == 1
            seen.add(mask.mask)
        assert len(seen) == 8


class TestPatternSet:
    def test_parse_and_text_round_trip(self):
        ps = PatternSet.parse("1 2, -2 1")
        assert ps.mask == (1 << 0) | (1 << 6)
        assert PatternSet.parse("1 2, 2 -1").mask == (1 << 0) | (1 << 5)
        assert PatternSet.parse(ps.text()) == ps
        assert PatternSet.parse("") == PatternSet(0)
        assert PatternSet.parse("  ") == PatternSet(0)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            PatternSet.parse("1 2 3")
        with pytest.raises(ValueError):
            PatternSet.parse("1 3")
        with pytest.raises(ValueError):
            PatternSet.parse("a b")
        with pytest.raises(ValueError):
            PatternSet.parse("1")

    def test_parse_duplicates_warn(self):
        with pytest.warns(UserWarning, match="duplicate pattern"):
            ps = PatternSet.parse("1 2, 1 2")
        assert ps == PatternSet.parse("1 2")

    def test_set_protocol(self):
        ps = PatternSet.parse("1 2, 2 1, -2 -1")
        assert len(ps) == 3
        assert PATTERNS[1] in ps
        assert PATTERNS[4] not in ps
        assert [p.index for p in ps] == [0, 1, 7]
        # only a Pattern can be in a set, and the error names what was asked
        for foreign in (5, (1, 2), None, "1 2"):
            with pytest.raises(TypeError, match=re.escape(repr(foreign))):
                foreign in ps

    def test_operators(self):
        a = PatternSet.parse("1 2")
        b = PatternSet.parse("2 1")
        assert (a | b).mask == 0b11
        assert (a & b) == PatternSet(0)
        assert len(PatternSet(0xFF)) == 8
        # a foreign operand is not a set of patterns: TypeError, as for <
        for foreign in (4, None, a.mask, {PATTERNS[0]}):
            with pytest.raises(TypeError, match="unsupported operand"):
                a | foreign
            with pytest.raises(TypeError, match="unsupported operand"):
                a & foreign

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            PatternSet(256)
        with pytest.raises(ValueError):
            PatternSet(-1)
        # 3.5 would break len(), 2.0 equal PatternSet(2), True print as a mask
        for bad in (3.5, 2.0, True):
            with pytest.raises(TypeError, match="mask must be an int"):
                PatternSet(bad)
        ps = PatternSet(5)
        with pytest.raises(AttributeError):
            ps.mask = 6
        assert ps.mask == 5
        assert repr(ps) == "PatternSet(mask=5)"
        assert ps == PatternSet(mask=5) and hash(ps) == hash(PatternSet(5))
        assert PatternSet(1) != 1 and not PatternSet(1) == 1

    def test_ordering_by_mask(self):
        assert PatternSet(3) < PatternSet(4)
        assert PatternSet(3) <= PatternSet(3) <= PatternSet(4)
        assert PatternSet(4) > PatternSet(3)
        assert PatternSet(4) >= PatternSet(4) >= PatternSet(3)
        assert not PatternSet(4) < PatternSet(3)
        assert sorted([PatternSet(9), PatternSet(2)])[0].mask == 2
        for compare in (
            lambda a, b: a < b,
            lambda a, b: a <= b,
            lambda a, b: a > b,
            lambda a, b: a >= b,
        ):
            with pytest.raises(TypeError):
                compare(PatternSet(3), 4)


class TestContainment:
    def test_empty_set_always_avoided(self):
        for w in all_signed_perms(3):
            assert avoids(w, PatternSet(0))

    def test_short_words_avoid_everything(self):
        assert avoids(SignedPermutation(()), PatternSet(0xFF))
        assert avoids(SignedPermutation((-1,)), PatternSet(0xFF))
        assert containment_mask(SignedPermutation((1,))) == PatternSet(0)

    def test_specific_mask(self):
        w = validate_permutation([2, 1, -3, -4])
        expected = oracle_containment_mask(w)
        assert containment_mask(w).mask == expected
        # pairs: (2,1) -> "2 1"; unbarred before barred-larger -> "1 -2";
        # (-3,-4) -> "-1 -2"
        assert containment_mask(w) == PatternSet.parse("2 1, 1 -2, -1 -2")

    def test_contains_matches_mask(self):
        # w contains p when it does not avoid the singleton {p}
        for w in all_signed_perms(3):
            mask = containment_mask(w)
            for p in PATTERNS:
                assert (not avoids(w, PatternSet(1 << p.index))) == (p in mask)

    def test_mask_matches_oracle_exhaustively(self):
        for n in range(5):
            for w in all_signed_perms(n):
                assert containment_mask(w).mask == oracle_containment_mask(w)

    @given(signed_perms, pattern_sets)
    def test_avoids_is_mask_disjointness(self, w, tset):
        assert avoids(w, tset) == (containment_mask(w).mask & tset.mask == 0)

    @given(signed_perms, pattern_sets, pattern_sets)
    def test_avoids_union(self, w, a, b):
        assert avoids(w, a | b) == (avoids(w, a) and avoids(w, b))

    @given(signed_perms)
    def test_mask_monotone_under_extension(self, w):
        # dropping the last letter can only lose patterns
        if len(w) > 1:
            prefix = SignedPermutation(w[:-1])
            assert containment_mask(prefix).mask & ~containment_mask(w).mask == 0


class TestIteration:
    def test_group_sizes(self):
        import math

        for n in range(6):
            words = list(iterate_Bn(n))
            assert len(words) == 2**n * math.factorial(n)
            assert len(set(words)) == len(words)
            assert all(len(w) == n for w in words)

    def test_words_are_valid(self):
        for w in iterate_Bn(4):
            validate_permutation(w)

    def test_matches_oracle_generation(self):
        for n in range(5):
            assert set(iterate_Bn(n)) == set(all_signed_perms(n))

    def test_cap(self):
        # the budget is all 2^9 9! words of order 9: order 9 is admitted (the
        # iterator is lazy, so nothing is visited) and order 10 is refused
        assert iterate_Bn(9) is not None
        for n in (10, 10**9):
            with pytest.raises(CapExceededError, match="budget"):
                iterate_Bn(n)
        with pytest.raises(ValueError):
            iterate_Bn(-1)
