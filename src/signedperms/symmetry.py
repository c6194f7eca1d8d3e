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

import itertools
from functools import cache
from typing import NamedTuple, Sequence

from .core import PATTERNS, PatternSet, pattern_of

__all__ = [
    "Orbit", "SymmetryElement", "all_orbits", "apply", "apply_to_set", "barring",
    "complement", "group_elements", "orbit_of_set", "reversal",
]


def reversal(alpha: Sequence[int]) -> tuple[int, ...]:
    return tuple(alpha)[::-1]


def barring(alpha: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in alpha)


def complement(alpha: Sequence[int]) -> tuple[int, ...]:
    """Send each magnitude m to n + 1 - m; bars stay where they are."""
    letters = tuple(alpha)
    n = len(letters)
    return tuple((n + 1 - x) if x > 0 else -(n + 1 + x) for x in letters)


class SymmetryElement(NamedTuple):
    """A group element, recorded by which generators it applies."""

    use_reversal: bool = False
    use_barring: bool = False
    use_complement: bool = False


def apply(g: SymmetryElement, alpha: Sequence[int]) -> tuple[int, ...]:
    """Act on a signed permutation: complement, then barring, then reversal.

    The three generators commute, so the application order is immaterial.
    """
    beta = tuple(alpha)
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

    representative: PatternSet  # the member with the smallest mask
    members: frozenset[PatternSet]


def orbit_of_set(tset: PatternSet) -> Orbit:
    m = tset.mask
    images = {_set_images(g)[m] for g in group_elements()}
    return Orbit(PatternSet(min(images)), frozenset(map(PatternSet, images)))


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
