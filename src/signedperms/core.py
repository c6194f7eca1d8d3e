"""Signed permutations and containment of 2-letter signed patterns.

A signed permutation of order n arranges the symbols 1..n in a row, each
symbol optionally barred.  Letters are encoded as nonzero integers whose
magnitude is the symbol and whose sign records the bar (negative = barred).
The group of all such arrangements has 2^n * n! elements.

A pattern is a signed permutation of length 2.  A permutation contains a
pattern when some pair of positions i < j matches it: the magnitudes of the
two letters compare the same way as the pattern's magnitudes, and each
letter is barred exactly when the corresponding pattern letter is barred.
Exactly eight patterns exist, and every ordered pair of letters with
distinct magnitudes realizes exactly one of them.

The eight patterns carry a fixed index 0..7 used everywhere downstream
(bitmask encodings, histogram buckets, table lookups):

    0: 1 2      1: 2 1      2: -1 2     3: 1 -2
    4: -1 -2    5: 2 -1     6: -2 1     7: -2 -1
"""

import itertools
import math
import warnings
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "PATTERNS", "Pattern", "PatternSet", "avoids", "containment_mask", "iterate_Bn",
    "pair_index", "pattern_of", "validate_permutation",
]

# the most words or prefixes an oracle visits: all 2^9 9! words of order 9
_WORK_BUDGET = (1 << 9) * math.factorial(9)


def _check_order(n: int) -> None:
    # an order is a nonnegative int: a bool or a float compares equal to one
    if type(n) is not int or n < 0:
        raise ValueError(f"order must be nonnegative, got {n!r}")


def _check_work(n: int, work: int, who: str = "the oracles'",
                unit: str = "words or prefixes") -> None:
    # refuse an order-n job of more than _WORK_BUDGET units of work: words or
    # prefixes an oracle visits, or steps of a transfer pass; callers check
    # the order before they reckon its work
    if work > _WORK_BUDGET:
        raise ValueError(f"order {n} is over {who} work budget of {_WORK_BUDGET} {unit}")


def _check_group(n: int) -> None:
    # visiting all 2^n n! words of B_n; order 10 is over, and bounds n
    _check_order(n)
    m = min(n, 10)
    _check_work(n, (1 << m) * math.factorial(m))


def validate_permutation(raw: Sequence[int]) -> tuple[int, ...]:
    """Check that raw encodes a signed permutation and return its letters.

    Raises TypeError for a letter that is not an int, and ValueError for a
    letter 0, a magnitude past the length, or a magnitude seen twice.
    """
    letters = tuple(raw)
    n = len(letters)
    seen = 0
    for x in letters:
        if type(x) is not int:  # a bool or a float compares equal to an int
            raise TypeError(f"letter must be an int, got {x!r}")
        if x == 0:
            raise ValueError("letter 0 names no symbol")
        m = abs(x)
        if m > n:
            raise ValueError(f"magnitude {m} out of range for order {n}")
        bit = 1 << m
        if seen & bit:
            raise ValueError(f"magnitude {m} appears twice")
        seen |= bit
    return letters


_PATTERN_LETTERS = (
    (1, 2),
    (2, 1),
    (-1, 2),
    (1, -2),
    (-1, -2),
    (2, -1),
    (-2, 1),
    (-2, -1),
)


class Pattern(NamedTuple):
    """One of the eight length-2 signed patterns, with its fixed index."""

    index: int
    letters: tuple[int, int]

    def __str__(self) -> str:
        return " ".join(map(str, self.letters))


PATTERNS: tuple[Pattern, ...] = tuple(Pattern(i, p) for i, p in enumerate(_PATTERN_LETTERS))

_PATTERN_BY_LETTERS = {p.letters: p for p in PATTERNS}

# pair type -> pattern index, keyed by (first barred)<<2 | (second barred)<<1
# | (magnitudes ascending)
_PAIR_INDEX = (1, 0, 5, 3, 6, 2, 7, 4)


def pair_index(x: int, y: int) -> int:
    """Index of the pattern realized by the letter pair (x, y), in order."""
    mx, my = abs(x), abs(y)
    if mx == my:
        raise ValueError(f"letters {x} and {y} share a magnitude")
    return _PAIR_INDEX[((x < 0) << 2) | ((y < 0) << 1) | (mx < my)]


def pattern_of(letters: Sequence[int]) -> Pattern:
    """Look up the pattern with exactly these letters (magnitudes {1, 2})."""
    letters = tuple(letters)
    if any(type(x) is not int for x in letters):  # a bool or a float equals an int
        raise TypeError(f"letters must be ints, got {letters!r}")
    p = _PATTERN_BY_LETTERS.get(letters)
    if p is None:
        raise ValueError(
            f"{letters} is not a pattern; magnitudes must be exactly 1 and 2"
        )
    return p


class PatternSet:
    """A subset of the eight patterns, stored as an 8-bit mask.

    Bit i is set when the pattern with index i belongs to the set.  The
    integer mask doubles as a canonical encoding: histogram buckets and
    the transfer engine's count lists are indexed by it.  Instances are
    immutable and compare and hash by mask; they neither order nor combine,
    so a sort passes key=lambda s: s.mask.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0) -> None:
        if type(mask) is not int:
            raise TypeError(f"mask must be an int, got {mask!r}")
        if not 0 <= mask <= 0xFF:
            raise ValueError(f"mask out of range: {mask}")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"PatternSet is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # the default reduction restores slots through __setattr__
        return self.__class__, (self.mask,)

    def __repr__(self) -> str:
        return f"PatternSet(mask={self.mask!r})"

    def __hash__(self) -> int:
        return hash(self.mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.mask == other.mask
        return NotImplemented

    @classmethod
    def parse(cls, text: str) -> "PatternSet":
        """Parse a comma-separated list of patterns, e.g. "1 2, -2 1".

        Each pattern is two signed integers with magnitudes exactly {1, 2}.
        Duplicates are tolerated, deduplicated, and warned about.  Empty or
        blank text parses as the empty set.
        """
        mask = 0
        if text.strip() == "":
            return cls(0)
        for token in text.split(","):
            parts = token.split()
            if len(parts) != 2:
                raise ValueError(f"pattern needs exactly two letters: {token!r}")
            try:
                letters = tuple(int(s) for s in parts)
            except ValueError:
                raise ValueError(f"pattern letters must be integers: {token!r}")
            p = pattern_of(letters)
            bit = 1 << p.index
            if mask & bit:
                warnings.warn(f"duplicate pattern ignored: {p}", stacklevel=2)
            mask |= bit
        return cls(mask)

    def text(self) -> str:
        """Inverse of parse (up to whitespace): "1 2, -1 2"."""
        return ", ".join(str(p) for p in self)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[Pattern]:
        return (PATTERNS[i] for i in range(8) if self.mask >> i & 1)

    def __contains__(self, p: Pattern) -> bool:
        if not isinstance(p, Pattern):
            raise TypeError(f"a PatternSet holds Patterns, not {p!r}")
        return bool(self.mask >> p.index & 1)

    def __str__(self) -> str:
        return "{" + self.text() + "}"


def containment_mask(alpha: Sequence[int]) -> PatternSet:
    """The set of all patterns realized by some position pair of alpha."""
    letters = tuple(alpha)
    table = _PAIR_INDEX
    mask = 0
    for i in range(len(letters) - 1):
        x = letters[i]
        xs = (x < 0) << 2
        mx = abs(x)
        for y in letters[i + 1 :]:
            mask |= 1 << table[xs | ((y < 0) << 1) | (mx < abs(y))]
        if mask == 0xFF:
            break
    return PatternSet(mask)


def avoids(alpha: Sequence[int], tset: PatternSet) -> bool:
    """Does alpha realize no pattern from tset?  Exits on first witness."""
    t = tset.mask
    if t == 0:
        return True
    letters = tuple(alpha)
    table = _PAIR_INDEX
    for i in range(len(letters) - 1):
        x = letters[i]
        xs = (x < 0) << 2
        mx = abs(x)
        for y in letters[i + 1 :]:
            if t >> table[xs | ((y < 0) << 1) | (mx < abs(y))] & 1:
                return False
    return True


def iterate_Bn(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n * n! signed permutations of order n.

    Order: magnitude words lexicographically, and for each word all 2^n
    sign choices with position 0 flipping fastest.  The work budget is
    checked before the iterator is returned: past order 9 it refuses.
    """
    _check_group(n)
    return (
        tuple(-m if signs >> i & 1 else m for i, m in enumerate(base))
        for base in itertools.permutations(range(1, n + 1))
        for signs in range(1 << n)
    )
