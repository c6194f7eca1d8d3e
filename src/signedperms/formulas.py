"""Closed forms for avoider counts, and the registry tying them to sets.

Every formula is an exact integer function of the order n, total for
n >= 0.  Formula ids are short stable strings; eval_formula dispatches on
them.  The registry lists classically named pattern sets together with the
formula each satisfies and the first order min_n from which the identity
is claimed.  Identities that also happen to hold below min_n are surfaced
by verification as informational notes, never as failures.
"""

from functools import cache
from math import comb as binomial
from math import factorial
from typing import NamedTuple

from .core import PatternSet, _check_order
from .symmetry import canonical_representative

__all__ = [
    "FORMULA_IDS", "RegistryEntry", "UnknownFormulaError", "binomial", "catalan",
    "compositions_sum", "entries_for", "eval_formula", "factorial", "fibonacci",
    "registry",
]


class UnknownFormulaError(ValueError):
    """No formula is registered under that id."""


def catalan(m: int) -> int:
    """Catalan number C_m, by the convolution C_m = sum C_j C_{m-1-j}."""
    if m < 0:
        raise ValueError("catalan index must be nonnegative")
    cats = [1]
    for k in range(1, m + 1):
        cats.append(sum(cats[j] * cats[k - 1 - j] for j in range(k)))
    return cats[m]


def fibonacci(m: int) -> int:
    """Fibonacci number F_m with F_1 = F_2 = 1."""
    if m < 1:
        raise ValueError("fibonacci index starts at 1")
    a, b = 1, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return a


def compositions_sum(n: int, min_part: int = 1, num_parts: int | None = None) -> int:
    """Sum of prod(part!) over compositions of n.

    With num_parts=None: compositions into any number of parts, each at
    least min_part (which must then be >= 1 for the sum to be finite);
    n = 0 contributes the empty composition, worth 1.  With num_parts=d:
    ordered tuples of exactly d parts, each >= min_part (min_part = 0
    allows zero parts, 0! = 1).
    """
    if n < 0:
        raise ValueError("composition target must be nonnegative")
    if num_parts is None:
        if min_part < 1:
            raise ValueError("open-ended compositions need min_part >= 1")
        sums = [0] * (n + 1)
        sums[0] = 1
        for k in range(1, n + 1):
            sums[k] = sum(
                factorial(i) * sums[k - i] for i in range(min_part, k + 1)
            )
        return sums[n]
    if num_parts < 0:
        raise ValueError("number of parts must be nonnegative")
    if min_part < 0:
        raise ValueError("minimum part must be nonnegative")
    prev = [1] + [0] * n
    for _ in range(num_parts):
        cur = [0] * (n + 1)
        for k in range(n + 1):
            cur[k] = sum(
                factorial(i) * prev[k - i] for i in range(min_part, k + 1)
            )
        prev = cur
    return prev[n]


def _eq1(n: int) -> int:
    return sum(binomial(n, k) ** 2 * factorial(k) for k in range(n + 1))


def _eq2(n: int) -> int:
    return factorial(n + 1)


def _eq3(n: int) -> int:
    return binomial(2 * n, n)


def _eq4(n: int) -> int:
    # b_m = m b_{m-1} + sum_i C(m-1, i) i!
    b = 1
    for m in range(1, n + 1):
        b = m * b + sum(binomial(m - 1, i) * factorial(i) for i in range(m))
    return b


def _eq5(n: int) -> int:
    if n == 0:
        return 1
    return 2 * compositions_sum(n, min_part=1)


def _eq6(n: int) -> int:
    return sum(
        compositions_sum(n - d, min_part=0, num_parts=d + 1) for d in range(n + 1)
    )


def _eq7(n: int) -> int:
    return catalan(n + 1)


def _eq8(n: int) -> int:
    f = factorial(n)
    return f + sum(f // j for j in range(1, n + 1))


def _eq9(n: int) -> int:
    f = factorial(n)
    return sum(f // factorial(j) for j in range(n + 1))


def _eq10(n: int) -> int:
    return fibonacci(2 * n + 1)


def _eq11(n: int) -> int:
    return n * n + 1


def _eq12(n: int) -> int:
    return 2 ** (n + 1) - (n + 1)


def _eq13(n: int) -> int:
    return factorial(n) + sum(
        factorial(p) * factorial(n - j - p)
        for j in range(1, n + 1)
        for p in range(n - j + 1)
    )


def _eq13a(n: int) -> int:
    return sum(factorial(j) * factorial(n - j) for j in range(n + 1))


def _th5_5(n: int) -> int:
    # (n + 1) (n - 1)! needs n >= 1; the order-0 count is always 1
    if n == 0:
        return 1
    return (n + 1) * factorial(n - 1)


# each id maps to (claim, evaluator); the claim restates the identity
# b_n = formula(n) for human readers and fills every registry entry's claim
_EVALUATORS = {
    "EQ1": ("b_n = sum_k C(n,k)^2 k!", _eq1),
    "EQ2": ("b_n = (n+1)!", _eq2),
    "EQ3": ("b_n = C(2n, n)", _eq3),
    "EQ4": ("b_n = n b_{n-1} + sum_i C(n-1,i) i!", _eq4),
    "EQ5": ("b_n = 2 sum over compositions of n of prod(part!)", _eq5),
    "EQ6": (
        "b_n = sum_d sum over weak compositions of n-d into d+1 parts of prod(part!)",
        _eq6,
    ),
    "EQ7": ("b_n = catalan(n+1)", _eq7),
    "EQ8": ("b_n = n! + sum_{j=1..n} n!/j", _eq8),
    "EQ9": ("b_n = sum_{j=0..n} n!/j!", _eq9),
    "EQ10": ("b_n = fibonacci(2n+1)", _eq10),
    "EQ11": ("b_n = n^2 + 1", _eq11),
    "EQ12": ("b_n = 2^{n+1} - (n+1)", _eq12),
    "EQ13": ("b_n = n! + sum_{j=1..n} sum_{p+q=n-j} p! q!", _eq13),
    "EQ13A": ("b_n = sum_j j! (n-j)!", _eq13a),
    "TH4_1": ("b_n = 0", lambda n: 0),
    "TH4_2": ("b_n = 2n", lambda n: 2 * n),
    "TH4_3": ("b_n = 1 + C(n+1, 2)", lambda n: 1 + binomial(n + 1, 2)),
    "TH4_4": ("b_n = 2^n", lambda n: 2**n),
    "TH4_5": ("b_n = 2 n!", lambda n: 2 * factorial(n)),
    "TH4_6": ("b_n = sum_{j=0..n} j!", lambda n: sum(factorial(j) for j in range(n + 1))),
    # two disjoint cases, added: all letters barred (n! words), or exactly
    # one unbarred letter with larger magnitudes before it and smaller after
    "TH4_7": (
        "b_n = n! + sum_{j<n} j! (n-1-j)!",
        lambda n: factorial(n)
        + sum(factorial(j) * factorial(n - 1 - j) for j in range(n)),
    ),
    "TH5_1": ("b_n = 0", lambda n: 0),
    "TH5_2": ("b_n = 3", lambda n: 3),
    "TH5_3": ("b_n = n + 1", lambda n: n + 1),
    "TH5_4": ("b_n = 1 + n!", lambda n: 1 + factorial(n)),
    "TH5_5": ("b_n = (n+1)(n-1)!", _th5_5),
    "TH6_1": ("b_n = 0", lambda n: 0),
    "TH6_2": ("b_n = 2", lambda n: 2),
    "TH6_3": ("b_n = n!", lambda n: factorial(n)),
    "TH7_1": ("b_n = 0", lambda n: 0),
    "TH7_2": ("b_n = 1", lambda n: 1),
    "COR_EXTU1": ("b_n = 2n", lambda n: 2 * n),
    "COR_EXTU2": ("b_n = 2^n", lambda n: 2**n),
    "COR_EXTU3": ("b_n = 1 + C(n+1, 2)", lambda n: 1 + binomial(n + 1, 2)),
    "COR_EXTU4": ("b_n = 2 n!", lambda n: 2 * factorial(n)),
    "COR_EXTU5": ("b_n = 2^n", lambda n: 2**n),
    "EMPTYSET": ("b_n = 2^n n!", lambda n: 2**n * factorial(n)),
}

FORMULA_IDS: tuple[str, ...] = tuple(_EVALUATORS)


def eval_formula(formula_id: str, n: int) -> int:
    """Exact value of the named closed form at order n (total for n >= 0)."""
    _check_order(n)
    try:
        _, fn = _EVALUATORS[formula_id]
    except KeyError:
        raise UnknownFormulaError(f"unknown formula id {formula_id!r}") from None
    return fn(n)


class RegistryEntry(NamedTuple):
    """One claimed identity: a named pattern set and its closed form.

    patterns is the set as classically written; canonical is its orbit
    representative.  The identity b_n(patterns) = formula(n) is claimed for
    all n >= min_n, and claim restates it for human readers.
    """

    name: str
    patterns: PatternSet
    canonical: PatternSet
    formula: str
    min_n: int
    claim: str


def _entry(name: str, text: str, formula: str, min_n: int) -> RegistryEntry:
    ps = PatternSet.parse(text)
    claim = _EVALUATORS[formula][0]
    return RegistryEntry(name, ps, canonical_representative(ps), formula, min_n, claim)


@cache
def registry() -> tuple[RegistryEntry, ...]:
    """All claimed identities, one entry per named set.

    Singleton and pair sets are named by their members.  Sets written with
    a union sign extend a three-letter named set by one pattern; their
    identities restate the base identity after adding a pattern that the
    base avoiders can never realize, so they serve as cross-checks landing
    in other orbits.
    """
    e = _entry
    return (
        e("empty", "", "EMPTYSET", 0),
        # one orbit per singleton class
        e("{1 2}", "1 2", "EQ1", 0),
        e("{1 -2}", "1 -2", "EQ1", 0),
        # pair classes
        e("{1 2, 2 1}", "1 2, 2 1", "EQ2", 0),
        e("{1 2, 1 -2}", "1 2, 1 -2", "EQ2", 0),
        e("{1 -2, 2 -1}", "1 -2, 2 -1", "EQ2", 0),
        e("{-1 2, 2 -1}", "-1 2, 2 -1", "EQ2", 0),
        e("{1 2, -1 -2}", "1 2, -1 -2", "EQ3", 0),
        e("{1 2, -2 -1}", "1 2, -2 -1", "EQ3", 0),
        e("{1 2, -2 1}", "1 2, -2 1", "EQ4", 0),
        e("{1 -2, -1 2}", "1 -2, -1 2", "EQ5", 0),
        # triple sets
        e("T_1", "1 2, 1 -2, -1 2", "EQ6", 0),
        e("T_2", "1 2, 1 -2, -1 -2", "EQ7", 0),
        e("T_3", "1 2, 1 -2, 2 1", "EQ8", 0),
        e("T_4", "1 2, 1 -2, 2 -1", "EQ9", 0),
        e("T_5", "1 2, 1 -2, -2 1", "EQ9", 0),
        e("T_6", "1 2, 1 -2, -2 -1", "EQ10", 0),
        e("T_7", "1 2, -1 -2, 2 1", "EQ11", 0),
        e("T_8", "1 2, -1 -2, 2 -1", "EQ12", 0),
        e("T_9", "1 2, 2 -1, -2 1", "EQ13", 0),
        e("T_10", "1 -2, -1 2, 2 -1", "EQ13A", 0),
        # quadruple sets
        e("U4_1", "1 2, 1 -2, -1 2, -1 -2", "TH4_4", 3),
        e("U4_2", "1 2, 1 -2, -1 2, 2 1", "TH4_7", 3),
        e("U4_3", "1 2, 1 -2, -1 2, 2 -1", "TH4_6", 3),
        e("U4_4", "1 2, 1 -2, -1 2, -2 -1", "TH4_3", 3),
        e("U4_5", "1 2, 1 -2, -1 -2, 2 1", "TH4_3", 3),
        e("U4_6", "1 2, 1 -2, -1 -2, 2 -1", "TH4_4", 3),
        e("U4_7", "1 2, 1 -2, -1 -2, -2 1", "TH4_4", 3),
        e("U4_8", "1 2, 1 -2, 2 1, 2 -1", "TH4_5", 3),
        e("U4_9", "1 2, 1 -2, 2 1, -2 1", "TH4_5", 3),
        e("U4_10", "1 2, 1 -2, 2 1, -2 -1", "TH4_2", 3),
        e("U4_11", "1 2, 1 -2, 2 -1, -2 1", "TH4_6", 3),
        e("U4_12", "1 2, 1 -2, 2 -1, -2 -1", "TH4_4", 3),
        e("U4_13", "1 2, 1 -2, -2 1, -2 -1", "TH4_4", 3),
        e("U4_14", "1 2, -1 -2, 2 1, -2 -1", "TH4_1", 3),
        e("U4_15", "1 2, -1 -2, 2 -1, -2 1", "TH4_2", 3),
        e("U4_16", "1 -2, -1 2, 2 -1, -2 1", "TH4_5", 3),
        # quintuple sets
        e("W_1", "1 2, 1 -2, -1 2, -1 -2, 2 1", "TH5_3", 3),
        e("W_2", "1 2, 1 -2, -1 2, -1 -2, 2 -1", "TH5_3", 3),
        e("W_3", "1 2, 1 -2, -1 2, 2 1, 2 -1", "TH5_5", 3),
        e("W_4", "1 2, 1 -2, -1 2, 2 1, -2 -1", "TH5_2", 3),
        e("W_5", "1 2, 1 -2, -1 2, 2 -1, -2 1", "TH5_4", 3),
        e("W_6", "1 2, 1 -2, -1 2, 2 -1, -2 -1", "TH5_3", 3),
        e("W_7", "1 2, 1 -2, -1 -2, 2 1, 2 -1", "TH5_3", 3),
        e("W_8", "1 2, 1 -2, -1 -2, 2 1, -2 1", "TH5_3", 3),
        e("W_9", "1 2, 1 -2, -1 -2, 2 1, -2 -1", "TH5_1", 3),
        e("W_10", "1 2, 1 -2, -1 -2, 2 -1, -2 1", "TH5_3", 3),
        # sextuple sets; the zero identities start at n = 3 because at
        # n = 2 the two patterns outside the set are still realized, so
        # b_2 = 2 there, not 0
        e("V_1", "1 2, 1 -2, -1 2, -1 -2, 2 1, 2 -1", "TH6_2", 2),
        e("V_2", "1 2, 1 -2, -1 2, -1 -2, 2 1, -2 -1", "TH6_1", 3),
        e("V_3", "1 2, 1 -2, -1 2, -1 -2, 2 -1, -2 1", "TH6_2", 2),
        e("V_4", "1 2, 1 -2, -1 2, 2 1, 2 -1, -2 1", "TH6_3", 2),
        e("V_5", "1 2, 1 -2, -1 2, 2 1, 2 -1, -2 -1", "TH6_2", 2),
        e("V_6", "1 2, 1 -2, -1 2, 2 -1, -2 1, -2 -1", "TH6_2", 2),
        e("V_7", "1 2, 1 -2, -1 -2, 2 1, 2 -1, -2 -1", "TH6_1", 3),
        e("V_8", "1 2, 1 -2, -1 -2, 2 1, -2 1, -2 -1", "TH6_1", 3),
        # seven and eight patterns
        e("U78_1", "1 2, 2 1, -1 2, 1 -2, -1 -2, 2 -1, -2 1, -2 -1", "TH7_1", 3),
        e("U78_2", "1 2, 1 -2, -1 2, -1 -2, 2 1, 2 -1, -2 -1", "TH7_1", 3),
        e("U78_3", "1 2, 1 -2, -1 2, -1 -2, 2 1, 2 -1, -2 1", "TH7_2", 3),
        # extensions of the triple sets by one never-realized pattern
        e("T_8+{2 1}", "1 2, -1 -2, 2 -1, 2 1", "COR_EXTU1", 1),
        e("T_8+{-2 1}", "1 2, -1 -2, 2 -1, -2 1", "COR_EXTU1", 1),
        e("T_1+{-1 -2}", "1 2, 1 -2, -1 2, -1 -2", "COR_EXTU2", 0),
        e("T_1+{-2 -1}", "1 2, 1 -2, -1 2, -2 -1", "COR_EXTU3", 2),
        e("T_3+{-1 -2}", "1 2, 1 -2, 2 1, -1 -2", "COR_EXTU3", 0),
        e("T_4+{-1 -2}", "1 2, 1 -2, 2 -1, -1 -2", "COR_EXTU5", 1),
        e("T_4+{-2 -1}", "1 2, 1 -2, 2 -1, -2 -1", "COR_EXTU5", 1),
        e("T_4+{2 1}", "1 2, 1 -2, 2 -1, 2 1", "COR_EXTU4", 1),
        e("T_5+{-2 -1}", "1 2, 1 -2, -2 1, -2 -1", "COR_EXTU5", 0),
    )


def entries_for(tset: PatternSet) -> tuple[RegistryEntry, ...]:
    """Registry entries whose set lies in the same orbit as tset."""
    rep = canonical_representative(tset)
    return tuple(e for e in registry() if e.canonical == rep)
