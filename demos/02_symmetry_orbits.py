"""The order-8 symmetry group and its 58 orbits.

Reversal, barring, and complement each preserve avoidance counts, and
together they generate a group of order 8 acting on the 256 pattern sets.
This script prints the group, shows one orbit in full, and tabulates how
the 256 sets collapse to 58 orbits by set size.
"""

from collections import Counter

from signedperms import (
    PatternSet,
    all_orbits,
    apply,
    apply_to_set,
    group_elements,
    orbit_of_set,
    validate_permutation,
)


def flags(g) -> str:
    parts = []
    if g.use_reversal:
        parts.append("reversal")
    if g.use_barring:
        parts.append("barring")
    if g.use_complement:
        parts.append("complement")
    return " o ".join(parts) if parts else "identity"


def main() -> None:
    w = validate_permutation([2, -1, 3])
    print(f"the group, acting on {' '.join(map(str, w))}:")
    for g in sorted(
        group_elements(),
        key=lambda g: (g.use_complement, g.use_barring, g.use_reversal),
    ):
        print(f"  {' '.join(map(str, apply(g, w))):>10}   ({flags(g)})")
    print()

    tset = PatternSet.parse("1 2, 1 -2, -2 -1")
    orb = orbit_of_set(tset)
    print(f"orbit of {tset}:")
    for member in sorted(orb.members, key=lambda s: s.mask):
        marker = " <- representative" if member == orb.representative else ""
        print(f"  {member}{marker}")
    print()

    print("orbits by set size (256 sets -> 58 orbits):")
    census = Counter(len(o.representative) for o in all_orbits())
    for size, orbits in census.items():
        sets = sum(len(o.members) for o in all_orbits() if len(o.representative) == size)
        print(f"  {size} patterns: {orbits:2d} orbits covering {sets:2d} sets")
    print(f"  total: {sum(census.values())} orbits")
    print()

    g = next(e for e in group_elements() if e.use_barring and not e.use_reversal
             and not e.use_complement)
    print(f"barring sends {tset} to {apply_to_set(g, tset)}")


if __name__ == "__main__":
    main()
