"""Famous sequences hiding in avoidance counts.

Single patterns and small sets produce classical sequences: a squared
binomial sum, factorials, central binomials, Catalan numbers, bisected
Fibonacci numbers, and simple polynomials.  Each row below is enumerated
by backtracking and compared against its closed form from the registry.
"""

from signedperms import count_backtrack, eval_formula, orbit_of_set, PatternSet, registry

SHOWCASE = [
    ("1 2", "squared binomial sum"),
    ("1 2, 2 1", "(n+1)!"),
    ("1 2, -1 -2", "central binomial C(2n,n)"),
    ("1 2, 1 -2, -1 -2", "Catalan C_{n+1}"),
    ("1 2, 1 -2, -2 -1", "Fibonacci F_{2n+1}"),
    ("1 2, -1 -2, 2 1", "n^2 + 1"),
    ("1 2, -1 -2, 2 -1", "2^{n+1} - (n+1)"),
]

N_MAX = 7


def main() -> None:
    for text, nickname in SHOWCASE:
        tset = PatternSet.parse(text)
        members = orbit_of_set(tset).members
        entry = next(e for e in registry() if e.patterns in members)
        enumerated = [count_backtrack(n, tset).value for n in range(N_MAX + 1)]
        closed = [eval_formula(entry.formula, n) for n in range(N_MAX + 1)]
        status = "ok" if enumerated == closed else "MISMATCH"
        print(f"{str(tset):<28} {nickname}")
        print(f"  enumerated: {enumerated}")
        print(f"  closed form: {closed}   [{status}]")
        print()


if __name__ == "__main__":
    main()
