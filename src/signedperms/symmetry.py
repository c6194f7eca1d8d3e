"""Symmetries that preserve pattern-avoidance counts.

Three involutions act on signed permutations:

    reversal    read the word right to left
    barring     flip the bar on every letter
    complement  replace each magnitude m by n + 1 - m, keeping bars

Each commutes with the others, so they generate a group of order 8.  The
same operations act on patterns (length-2 words) and hence on pattern sets,
and the count of permutations avoiding a set T is constant on the orbit of
T under this action.  Orbits of the 256 pattern sets are the natural unit
of study: one representative per orbit suffices.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple, Sequence

from .core import PATTERNS, Pattern, PatternSet, SignedPermutation, pattern_of

__all__ = [
    "IDENTITY", "Orbit", "SymmetryElement", "all_orbits", "apply",
    "apply_to_pattern", "apply_to_set", "barring", "canonical_representative",
    "complement", "group_elements", "orbit_census_by_size", "orbit_of_set",
    "reversal",
]


def reversal(alpha: Sequence[int]) -> SignedPermutation:
    return SignedPermutation(reversed(tuple(alpha)))


def barring(alpha: Sequence[int]) -> SignedPermutation:
    return SignedPermutation(-x for x in alpha)


def complement(alpha: Sequence[int]) -> SignedPermutation:
    """Send each magnitude m to n + 1 - m; bars stay where they are."""
    letters = tuple(alpha)
    n = len(letters)
    return SignedPermutation(
        (n + 1 - x) if x > 0 else -(n + 1 + x) for x in letters
    )


class SymmetryElement(NamedTuple):
    """A group element, recorded by which generators it applies."""

    use_reversal: bool = False
    use_barring: bool = False
    use_complement: bool = False


IDENTITY = SymmetryElement()


def apply(g: SymmetryElement, alpha: Sequence[int]) -> SignedPermutation:
    """Act on a signed permutation: complement, then barring, then reversal.

    The three generators commute, so the application order is immaterial.
    """
    beta = SignedPermutation(tuple(alpha))
    if g.use_complement:
        beta = complement(beta)
    if g.use_barring:
        beta = barring(beta)
    if g.use_reversal:
        beta = reversal(beta)
    return beta


@cache
def _action_table(g: SymmetryElement) -> tuple[int, ...]:
    # how g permutes the eight pattern indices
    return tuple(pattern_of(apply(g, p.letters)).index for p in PATTERNS)


def apply_to_pattern(g: SymmetryElement, p: Pattern) -> Pattern:
    return PATTERNS[_action_table(g)[p.index]]


@cache
def _set_images(g: SymmetryElement) -> tuple[int, ...]:
    # the image mask of each of the 256 sets under g: after step i, img
    # covers the masks below 2^(i+1), and adding pattern i adds its image
    img = [0]
    for i in _action_table(g):
        img += [m | 1 << i for m in img]
    return tuple(img)


def apply_to_set(g: SymmetryElement, tset: PatternSet) -> PatternSet:
    return PatternSet(_set_images(g)[tset.mask])


@cache
def group_elements() -> frozenset[SymmetryElement]:
    """The eight flag triples: the generators are commuting involutions.

    That claim is checked, not assumed: the eight elements must act on the
    patterns in eight distinct ways, and applying h then g must act as the
    element whose flags are the XOR of theirs.  Otherwise the flag triple
    is not a faithful name for the action, and this raises.
    """
    flags = itertools.product((False, True), repeat=3)
    elements = [SymmetryElement(*f) for f in flags]
    tables = {g: _action_table(g) for g in elements}
    faithful = len(set(tables.values())) == 8 and all(
        tables[SymmetryElement(*(x ^ y for x, y in zip(g, h)))]
        == tuple(tables[g][i] for i in tables[h])
        for g, h in itertools.product(elements, repeat=2)
    )
    if not faithful:
        raise RuntimeError("generator flags do not label pattern actions faithfully")
    return frozenset(elements)


class Orbit(NamedTuple):
    """An orbit of pattern sets under the symmetry group."""

    representative: PatternSet
    members: frozenset[PatternSet]

    @property
    def size(self) -> int:
        return len(self.members)


@cache
def _group_images() -> tuple[tuple[int, ...], ...]:
    return tuple(_set_images(g) for g in group_elements())


def orbit_of_set(tset: PatternSet) -> Orbit:
    m = tset.mask
    images = {img[m] for img in _group_images()}
    return Orbit(PatternSet(min(images)), frozenset(map(PatternSet, images)))


def canonical_representative(tset: PatternSet) -> PatternSet:
    """The orbit member with the smallest mask."""
    m = tset.mask
    return PatternSet(min(img[m] for img in _group_images()))


@cache
def all_orbits() -> tuple[Orbit, ...]:
    """All orbits of the 256 pattern sets, sorted by (set size, rep mask).

    The position of an orbit in this tuple is its orbit id.
    """
    seen: set[int] = set()
    orbits = []
    for mask in range(256):
        if mask in seen:
            continue
        orb = orbit_of_set(PatternSet(mask))
        seen.update(s.mask for s in orb.members)
        orbits.append(orb)
    orbits.sort(key=lambda o: (len(o.representative), o.representative.mask))
    return tuple(orbits)


def orbit_census_by_size() -> dict[int, int]:
    """How many orbits have representatives of each set size 0..8."""
    counts = {k: 0 for k in range(9)}
    for orb in all_orbits():
        counts[len(orb.representative)] += 1
    return counts
