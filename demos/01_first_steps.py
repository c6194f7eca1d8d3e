"""First steps: signed letters, patterns, and containment.

A signed permutation of order n arranges 1..n with optional bars, written
here as nonzero integers (negative = barred).  Any two positions whose
letters we read left to right realize one of eight patterns, and a word
"contains" a pattern if some pair realizes it.  This script builds a few
words, inspects what they contain, and counts a tiny avoidance class by
hand.
"""

from signedperms import (
    PATTERNS,
    PatternSet,
    avoids,
    containment_mask,
    iterate_Bn,
    pair_index,
    validate_permutation,
)


def main() -> None:
    print("the eight patterns, in their fixed order:")
    for p in PATTERNS:
        print(f"  index {p.index}: {p}")
    print()

    w = validate_permutation([2, -1, 3])
    print(f"word: {' '.join(map(str, w))}")
    print(f"  pair (positions 0,1): {PATTERNS[pair_index(w[0], w[1])]}")
    print(f"  pair (positions 0,2): {PATTERNS[pair_index(w[0], w[2])]}")
    print(f"  pair (positions 1,2): {PATTERNS[pair_index(w[1], w[2])]}")
    print(f"  all patterns realized: {containment_mask(w)}")
    print()

    tset = PatternSet.parse("1 2, -1 2")
    print(f"does {' '.join(map(str, w))} avoid {tset}?", avoids(w, tset))
    print(f"does it contain '2 1'?", PATTERNS[1] in containment_mask(w))
    print()

    print(f"order-3 words avoiding {tset}:")
    hits = [v for v in iterate_Bn(3) if avoids(v, tset)]
    for v in hits:
        print(f"  {' '.join(map(str, v))}")
    print(f"total: {len(hits)} of {2**3 * 6}")


if __name__ == "__main__":
    main()
