"""Four counting engines, one answer.

The transfer engine, the default, never visits a word: it builds gap
states layer by layer and counts all 256 pattern sets at every order in
one pass.
The other three are oracles.  The naive engine filters all 2^n n! words.
The backtracking engine extends prefixes a letter at a time, merging
those that use the same magnitudes.  The mask engine makes one
vectorized pass over the whole group, histograms containment masks, and
answers every one of the 256 pattern sets at once by summing, for each,
the buckets disjoint from it.  They agree everywhere; they just take very
different times.
"""

import time

from signedperms import PatternSet, count, counts_all_subsets


def main() -> None:
    tset = PatternSet.parse("1 2, -2 1")
    n = 6

    print(f"counting order-{n} avoiders of {tset}\n")
    for method in ("transfer", "naive", "backtrack", "mask"):
        start = time.perf_counter()
        result = count(n, tset, method=method)
        elapsed = time.perf_counter() - start
        print(f"  {method:>9}: {result.value:>8}   ({elapsed*1000:7.1f} ms)")
    print()

    start = time.perf_counter()
    per_set = counts_all_subsets(7)
    elapsed = time.perf_counter() - start
    print(f"all 256 sets at order 7 via one mask pass: {elapsed*1000:.1f} ms")
    sample = [
        "",
        "1 2",
        "1 2, -1 -2",
        "1 2, 1 -2, -1 -2",
        "1 2, 1 -2, -1 2, -1 -2",
    ]
    for text in sample:
        tset = PatternSet.parse(text)
        label = str(tset) if len(tset) else "{} (avoid nothing)"
        print(f"  b_7({label}) = {per_set[tset]}")


if __name__ == "__main__":
    main()
