"""Closed forms: evaluators and the registry."""

import math
from fractions import Fraction
from math import comb, factorial

import pytest

from signedperms import (
    PatternSet,
    all_orbits,
    count_naive,
    eval_formula,
    orbit_of_set,
    registry,
    RegistryEntry,
)
from signedperms import formulas
from conftest import NAMED_TRIPLES


def brute_compositions(n, min_part, num_parts=None):
    """Enumerate compositions outright and sum the factorial products."""
    def parts_of(total, remaining_parts):
        if remaining_parts == 0:
            if total == 0:
                yield ()
            return
        for head in range(min_part, total + 1):
            for tail in parts_of(total - head, remaining_parts - 1):
                yield (head,) + tail

    if num_parts is None:
        tuples = []
        for k in range(n + 1):
            tuples.extend(parts_of(n, k))
    else:
        tuples = list(parts_of(n, num_parts))
    return sum(math.prod(factorial(i) for i in t) for t in tuples)


class TestHelpers:
    def test_catalan(self):
        # EQ7 is C_{n+1}, checked against the convolution C_m = sum_j C_j
        # C_{m-1-j} from C_0 = 1, not the closed form it uses
        c = [1]
        for m in range(1, 31):
            c.append(sum(c[j] * c[m - 1 - j] for j in range(m)))
        assert c[:9] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        assert [eval_formula("EQ7", m - 1) for m in range(1, 31)] == c[1:]
        with pytest.raises(ValueError):
            eval_formula("EQ7", -1)
        with pytest.raises(ValueError):
            eval_formula("EQ7", True)  # a bool is not an order, though it equals 1

    def test_fibonacci(self):
        # EQ10 is F_{2n+1}, checked against F_m = F_{m-1} + F_{m-2} from F_1 = F_2 = 1
        f = [0, 1, 1]
        while len(f) < 42:
            f.append(f[-1] + f[-2])
        assert f[1:9] == [1, 1, 2, 3, 5, 8, 13, 21]
        assert [eval_formula("EQ10", m) for m in range(20)] == f[1:41:2]
        with pytest.raises(ValueError):
            eval_formula("EQ10", -1)
        with pytest.raises(ValueError):
            eval_formula("EQ10", True)  # a bool is not an order, though it equals 1


class TestEvaluators:
    def test_totality(self):
        for fid in formulas._EVALUATORS:
            for n in range(101):
                v = eval_formula(fid, n)
                assert isinstance(v, int) and v >= 0

    def test_unknown_and_negative(self):
        with pytest.raises(ValueError, match="unknown formula id 'EQ99'"):
            eval_formula("EQ99", 2)
        with pytest.raises(ValueError):
            eval_formula("EQ1", -1)

    def test_eq1_prefix(self):
        assert [eval_formula("EQ1", n) for n in range(6)] == [1, 2, 7, 34, 209, 1546]
        for n in range(9):
            direct = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
            assert eval_formula("EQ1", n) == direct

    def test_simple_closed_forms(self):
        assert eval_formula("EQ2", 3) == 24
        assert eval_formula("EQ3", 3) == 20
        assert eval_formula("EQ7", 4) == 42
        assert eval_formula("EQ11", 4) == 17
        assert eval_formula("EQ12", 2) == 5
        assert [eval_formula("EQ10", n) for n in range(5)] == [1, 2, 5, 13, 34]

    def test_eq4_prefix_and_oracle(self):
        assert [eval_formula("EQ4", n) for n in range(6)] == [1, 2, 6, 23, 108, 605]
        tset = PatternSet.parse("1 2, -2 1")
        for n in range(5):
            assert eval_formula("EQ4", n) == count_naive(n, tset).value

    def test_eq5_values(self):
        assert eval_formula("EQ5", 0) == 1
        assert eval_formula("EQ5", 3) == 22
        for n in range(1, 7):
            assert eval_formula("EQ5", n) == 2 * brute_compositions(n, 1)

    def test_eq6_values(self):
        assert [eval_formula("EQ6", n) for n in range(5)] == [1, 2, 5, 15, 54]
        tset = PatternSet.parse(NAMED_TRIPLES["T_1"])
        for n in range(5):
            assert eval_formula("EQ6", n) == count_naive(n, tset).value
        for n in range(11):
            assert eval_formula("EQ6", n) == sum(
                brute_compositions(n - d, 0, d + 1) for d in range(n + 1)
            )

    def test_eq8_rational_form(self):
        assert eval_formula("EQ8", 2) == 5
        assert eval_formula("EQ8", 3) == 17
        for n in range(13):
            rational = factorial(n) * (1 + sum(Fraction(1, j) for j in range(1, n + 1)))
            assert rational.denominator == 1
            assert eval_formula("EQ8", n) == rational

    def test_eq9_rational_form(self):
        assert eval_formula("EQ9", 3) == 16
        for n in range(13):
            rational = factorial(n) * sum(Fraction(1, factorial(j)) for j in range(n + 1))
            assert rational.denominator == 1
            assert eval_formula("EQ9", n) == rational

    def test_eq13_and_eq13a(self):
        assert [eval_formula("EQ13", n) for n in range(5)] == [1, 2, 5, 14, 48]
        assert [eval_formula("EQ13A", n) for n in range(5)] == [1, 2, 5, 16, 64]
        for n in range(10):
            direct = sum(factorial(j) * factorial(n - j) for j in range(n + 1))
            assert eval_formula("EQ13A", n) == direct
        # the two sequences agree through n = 3, then split at n = 4
        assert eval_formula("EQ13", 3) == eval_formula("EQ7", 3) == 14
        assert eval_formula("EQ13", 4) == 48
        assert eval_formula("EQ7", 4) == 42

    def test_fibonacci_recurrence_for_eq10(self):
        values = [eval_formula("EQ10", n) for n in range(10)]
        for n in range(2, 10):
            assert values[n] == 3 * values[n - 1] - values[n - 2]

    def test_th4_7_two_case_sum(self):
        for n in range(8):
            by_cases = factorial(n) + sum(
                factorial(j) * factorial(n - 1 - j) for j in range(n)
            )
            assert eval_formula("TH4_7", n) == by_cases

    def test_th5_5_total_at_zero(self):
        assert eval_formula("TH5_5", 0) == 1
        assert eval_formula("TH5_5", 3) == 8
        assert eval_formula("TH5_5", 5) == 144

    def test_constant_families(self):
        for n in range(3, 7):
            assert eval_formula("TH4_1", n) == 0
            assert eval_formula("TH5_1", n) == 0
            assert eval_formula("TH5_2", n) == 3
            assert eval_formula("TH6_1", n) == 0
            assert eval_formula("TH6_2", n) == 2
            assert eval_formula("TH7_1", n) == 0
            assert eval_formula("TH7_2", n) == 1

    def test_emptyset(self):
        assert [eval_formula("EMPTYSET", n) for n in range(5)] == [1, 2, 8, 48, 384]

    def test_each_closed_form_is_written_once(self):
        # two ids hold the same (claim, evaluator) entry exactly when their
        # values agree at every order 0..40: 37 ids, 29 closed forms
        entries = formulas._EVALUATORS
        values = {f: [eval_formula(f, n) for n in range(41)] for f in entries}
        for a in entries:
            for b in entries:
                assert (entries[a] is entries[b]) == (values[a] == values[b]), (a, b)
        assert len(entries) == 37
        assert len({id(entry) for entry in entries.values()}) == 29

    def test_patching_one_id_leaves_those_sharing_its_entry(self, monkeypatch):
        # the seeded mutations replace one id's entry, not the ids sharing it
        claim = formulas._EVALUATORS["TH4_4"][0]
        monkeypatch.setitem(formulas._EVALUATORS, "TH4_4", (claim, lambda n: 2**n + 1))
        assert eval_formula("TH4_4", 5) == 33
        assert eval_formula("COR_EXTU2", 5) == eval_formula("COR_EXTU5", 5) == 32


class TestRegistry:
    def test_size_and_unique_names(self):
        entries = registry()
        assert len(entries) == 67
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)

    def test_canonical_is_orbit_minimum(self):
        # an entry's orbit is found from its patterns alone, led by the
        # member of least mask
        reps = {o.representative for o in all_orbits()}
        for e in registry():
            orbit = orbit_of_set(e.patterns)
            assert e.patterns in orbit.members
            assert orbit.representative in reps
            assert orbit.representative.mask == min(m.mask for m in orbit.members)

    def test_formula_ids_known(self):
        # each entry cites an id, whose claim is written once, in _EVALUATORS
        assert RegistryEntry._fields == ("name", "patterns", "formula", "min_n")
        for e in registry():
            assert e.formula in formulas._EVALUATORS
            assert e.min_n >= 0
            assert formulas._EVALUATORS[e.formula][0].startswith("b_n")

    def test_every_orbit_is_covered(self):
        covered = {orbit_of_set(e.patterns).representative for e in registry()}
        assert covered == {o.representative for o in all_orbits()}

    def test_named_triples_present(self):
        by_name = {e.name: e for e in registry()}
        for name, text in NAMED_TRIPLES.items():
            assert by_name[name].patterns == PatternSet.parse(text)

    def test_family_counts(self):
        entries = registry()
        assert sum(1 for e in entries if e.name.startswith("U4_")) == 16
        assert sum(1 for e in entries if e.name.startswith("W_")) == 10
        assert sum(1 for e in entries if e.name.startswith("V_")) == 8
        assert sum(1 for e in entries if e.name.startswith("U78_")) == 3
        assert sum(1 for e in entries if "+" in e.name) == 9

    def test_specific_bindings(self):
        by_name = {e.name: e for e in registry()}
        assert by_name["T_2"].formula == "EQ7"
        assert by_name["T_6"].formula == "EQ10"
        assert by_name["T_7"].formula == "EQ11"
        assert by_name["T_8"].formula == "EQ12"
        assert by_name["U4_14"].formula == "TH4_1"
        assert by_name["U78_3"].formula == "TH7_2"
        assert by_name["empty"].formula == "EMPTYSET"
        assert by_name["{1 2}"].min_n == 0
        assert by_name["V_2"].min_n == 3
        assert by_name["V_1"].min_n == 2

    def test_entries_for_orbit_mates(self):
        def names_for(tset):
            rep = orbit_of_set(tset).representative
            return {e.name for e in registry() if orbit_of_set(e.patterns).representative == rep}

        t6 = PatternSet.parse(NAMED_TRIPLES["T_6"])
        assert names_for(t6) == {"T_6"}
        # a transformed set finds the same entry
        from signedperms import SymmetryElement, apply_to_set

        moved = apply_to_set(SymmetryElement(use_barring=True), t6)
        assert moved != t6
        assert names_for(moved) == {"T_6"}

    def test_extension_entries_share_orbits_with_u_sets(self):
        rep = {e.name: orbit_of_set(e.patterns).representative for e in registry()}
        assert rep["T_1+{-1 -2}"] == rep["U4_1"]
        assert rep["T_3+{-1 -2}"] == rep["U4_5"]
        assert rep["T_8+{-2 1}"] == rep["U4_15"]
