"""The order-8 symmetry group and its orbits on pattern sets."""

import itertools
from collections import Counter

import pytest

from signedperms import symmetry
from signedperms import (
    PATTERNS,
    PatternSet,
    SymmetryElement,
    all_orbits,
    apply,
    apply_to_set,
    barring,
    complement,
    containment_mask,
    group_elements,
    orbit_of_set,
    pattern_of,
    reversal,
    validate_permutation,
)
from conftest import all_signed_perms

ALL_FLAGS = [
    SymmetryElement(r, b, c)
    for r in (False, True)
    for b in (False, True)
    for c in (False, True)
]


def oracle_pattern_image(g: SymmetryElement, letters: tuple[int, int]) -> int:
    # act on the two-letter word by hand, then find which pattern it is
    x, y = letters
    if g.use_complement:
        x = (3 - x) if x > 0 else -(3 + x)
        y = (3 - y) if y > 0 else -(3 + y)
    if g.use_barring:
        x, y = -x, -y
    if g.use_reversal:
        x, y = y, x
    return next(i for i, p in enumerate(PATTERNS) if tuple(p.letters) == (x, y))


class TestGenerators:
    def test_examples(self):
        w = validate_permutation([2, -1, 3])
        assert reversal(w) == (3, -1, 2)
        assert barring(w) == (-2, 1, -3)
        assert complement(w) == (2, -3, 1)

    def test_complement_keeps_bars(self):
        w = validate_permutation([-4, 1, -3, 2])
        assert complement(w) == (-1, 4, -2, 3)

    def test_results_are_valid_words(self):
        for w in all_signed_perms(4):
            for f in (reversal, barring, complement):
                validate_permutation(f(w))

    def test_involutions(self):
        for n in range(6):
            for w in all_signed_perms(n):
                assert reversal(reversal(w)) == w
                assert barring(barring(w)) == w
                assert complement(complement(w)) == w

    def test_pairwise_commuting(self):
        fns = (reversal, barring, complement)
        for n in range(5):
            for w in all_signed_perms(n):
                for f, g in itertools.combinations(fns, 2):
                    assert f(g(w)) == g(f(w))


class TestGroup:
    def test_closure_has_eight_elements(self):
        elems = group_elements()
        assert len(elems) == 8
        assert set(elems) == set(ALL_FLAGS)
        assert SymmetryElement() in elems

    def test_identity_action(self):
        w = validate_permutation([2, -1])
        assert apply(SymmetryElement(), w) == w

    def test_apply_composes_generators(self):
        g = SymmetryElement(use_reversal=True, use_barring=True, use_complement=True)
        for w in all_signed_perms(3):
            assert apply(g, w) == reversal(barring(complement(w)))

    def test_every_element_is_an_involution(self):
        for g in group_elements():
            for w in all_signed_perms(3):
                assert apply(g, apply(g, w)) == w

    def test_action_tables_close_under_composition(self):
        tables = {
            tuple(pattern_of(apply(g, p.letters)).index for p in PATTERNS): g
            for g in group_elements()
        }
        assert len(tables) == 8
        for s, t in itertools.product(tables, repeat=2):
            composed = tuple(s[t[i]] for i in range(8))
            assert composed in tables

    def test_set_action_composes_as_xor_of_flags(self):
        for g, h in itertools.product(group_elements(), repeat=2):
            gh = SymmetryElement(*(x ^ y for x, y in zip(g, h)))
            for mask in range(256):
                tset = PatternSet(mask)
                assert apply_to_set(g, apply_to_set(h, tset)) == apply_to_set(gh, tset)

    @pytest.mark.parametrize(
        "relabel",
        [
            # every element acts as the identity: the tables are not distinct
            {g: SymmetryElement() for g in ALL_FLAGS},
            # reversal and reversal-barring trade actions: the tables stay
            # distinct, but reversal then complement no longer acts as their XOR
            {SymmetryElement(True): SymmetryElement(True, True),
             SymmetryElement(True, True): SymmetryElement(True)},
        ],
        ids=["collapse", "swap"],
    )
    def test_unfaithful_flags_raise(self, monkeypatch, relabel):
        action = symmetry._action_table
        monkeypatch.setattr(symmetry, "_action_table", lambda g: action(relabel.get(g, g)))
        group_elements.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not label pattern actions faithfully"):
                group_elements()
        finally:
            group_elements.cache_clear()


class TestPatternAction:
    def test_matches_letter_level_oracle(self):
        for g in ALL_FLAGS:
            for p in PATTERNS:
                assert pattern_of(apply(g, p.letters)).index == oracle_pattern_image(
                    g, tuple(p.letters)
                )

    def test_set_action_is_per_pattern(self):
        for g in ALL_FLAGS:
            for mask in range(256):
                tset = PatternSet(mask)
                image = apply_to_set(g, tset)
                assert image.mask == sum(
                    1 << pattern_of(apply(g, p.letters)).index for p in tset
                )

    def test_equivariance(self):
        # alpha contains tau iff g(alpha) contains g(tau), exhaustive B_3
        for w in all_signed_perms(3):
            for g in ALL_FLAGS:
                gw = apply(g, w)
                for p in PATTERNS:
                    gp = pattern_of(apply(g, p.letters))
                    assert (p in containment_mask(w)) == (gp in containment_mask(gw))

    def test_mask_equivariance(self):
        for w in all_signed_perms(4):
            for g in ALL_FLAGS:
                assert containment_mask(apply(g, w)) == apply_to_set(
                    g, containment_mask(w)
                )


class TestOrbits:
    def test_singleton_orbit(self):
        orb = orbit_of_set(PatternSet.parse("1 2"))
        expected = {
            PatternSet.parse(t) for t in ("1 2", "2 1", "-1 -2", "-2 -1")
        }
        assert orb.members == frozenset(expected)
        assert orb.representative == PatternSet.parse("1 2")
        assert len(orb.members) == 4

    def test_fixed_points(self):
        assert len(orbit_of_set(PatternSet(0)).members) == 1
        assert len(orbit_of_set(PatternSet(255)).members) == 1

    def test_canonical_representative(self):
        rep = orbit_of_set(PatternSet.parse("2 1")).representative
        assert rep == PatternSet.parse("1 2")
        for mask in range(256):
            orb = orbit_of_set(PatternSet(mask))
            rep = orb.representative
            assert rep in orb.members
            assert all(rep.mask <= m.mask for m in orb.members)

    def test_partition(self):
        orbits = all_orbits()
        assert len(orbits) == 58
        covered = [m.mask for o in orbits for m in o.members]
        assert sorted(covered) == list(range(256))
        for o in orbits:
            assert 8 % len(o.members) == 0

    def test_orbit_ids_sorted(self):
        orbits = all_orbits()
        keys = [(len(o.representative), o.representative.mask) for o in orbits]
        assert keys == sorted(keys)

    def test_census_by_size(self):
        assert Counter(len(o.representative) for o in all_orbits()) == {
            0: 1, 1: 2, 2: 8, 3: 10, 4: 16, 5: 10, 6: 8, 7: 2, 8: 1,
        }

    def test_census_matches_independent_partition(self):
        # regroup the 256 masks using only the letter-level oracle action
        def image(g, mask):
            out = 0
            for i in range(8):
                if mask >> i & 1:
                    out |= 1 << oracle_pattern_image(g, tuple(PATTERNS[i].letters))
            return out

        seen = set()
        sizes = {k: 0 for k in range(9)}
        for mask in range(256):
            if mask in seen:
                continue
            orbit = {image(g, mask) for g in ALL_FLAGS}
            seen |= orbit
            sizes[bin(mask).count("1")] += 1
        assert sizes == Counter(len(o.representative) for o in all_orbits())
