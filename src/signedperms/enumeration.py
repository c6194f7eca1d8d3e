"""Engines for counting pattern-avoiding signed permutations.

    transfer   memoized gap-state generating tree: b_n(T) for all 256 sets
               and every order up to n_max in one pass, in time polynomial
               in n_max; the core behind census and verify.  Each state's
               256 counts are packed into fields of one Python int, wide
               enough for 2^n_max n_max!, the most any count or partial
               sum can reach, so fields never carry into each other
    naive      filter the full group through avoids(); the reference
    backtrack  depth-first search over prefixes with O(1) extension tests
    mask       vectorized histogram of containment masks over all of B_n,
               then a subset-lattice (zeta) transform that answers all 256
               pattern sets at one order

naive, backtrack and mask are kept as independent oracles and answer count
and sequence.  naive and mask share nothing with transfer but the fixed
pattern indexing, so agreement with them is strong evidence of correctness;
backtrack and transfer share the extension tables.  Only mask uses numpy,
imported when it first runs, and it runs in a single process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    DEFAULT_CAP,
    CapExceededError,
    PatternSet,
    avoids,
    check_cap,
    iterate_Bn,
    pair_index,
)

NAIVE = "naive"
BACKTRACK = "backtrack"
MASK = "mask"
METHODS = (NAIVE, BACKTRACK, MASK)


@dataclass(frozen=True)
class CountResult:
    n: int
    patterns: PatternSet
    value: int
    method: str


def count_naive(n: int, tset: PatternSet, cap: int = DEFAULT_CAP) -> CountResult:
    """Count avoiders by filtering the full group, one word at a time."""
    total = sum(1 for alpha in iterate_Bn(n, cap) if avoids(alpha, tset))
    return CountResult(n, tset, total, NAIVE)


def _extension_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Appending a letter to a prefix creates new pattern occurrences only
    # between old letters and the new one, and which patterns appear depends
    # only on four bits of the prefix: does it hold an unbarred magnitude
    # below the new one, an unbarred one above, a barred one below, a barred
    # one above.  Tabulate the added-pattern mask for all 16 summaries, for
    # an unbarred and for a barred new letter.  Representative magnitudes
    # 1 < 3 < 5 stand in for below < new < above.
    unbarred = []
    barred = []
    for s in range(16):
        add_u = 0
        add_b = 0
        if s & 1:
            add_u |= 1 << pair_index(1, 3)
            add_b |= 1 << pair_index(1, -3)
        if s & 2:
            add_u |= 1 << pair_index(5, 3)
            add_b |= 1 << pair_index(5, -3)
        if s & 4:
            add_u |= 1 << pair_index(-1, 3)
            add_b |= 1 << pair_index(-1, -3)
        if s & 8:
            add_u |= 1 << pair_index(-5, 3)
            add_b |= 1 << pair_index(-5, -3)
        unbarred.append(add_u)
        barred.append(add_b)
    return tuple(unbarred), tuple(barred)


_EXTEND_UNBARRED, _EXTEND_BARRED = _extension_tables()


def count_backtrack(n: int, tset: PatternSet, cap: int = DEFAULT_CAP) -> CountResult:
    """Count avoiders by extending prefixes left to right.

    A prefix is summarized by two bitmasks of used magnitudes, unbarred and
    barred.  Each candidate letter is admitted iff the patterns it would
    add are disjoint from the forbidden set; candidates are tried in
    ascending letter order (-n .. -1, then 1 .. n).  Subtrees below a
    rejected letter are never visited.
    """
    check_cap(n, cap)
    if n == 0:
        return CountResult(0, tset, 1, BACKTRACK)
    forbidden = tset.mask
    ext_u = _EXTEND_UNBARRED
    ext_b = _EXTEND_BARRED
    last = n - 1

    def grow(used_u: int, used_b: int, depth: int) -> int:
        used = used_u | used_b
        cnt = 0
        for m in range(n, 0, -1):
            bit = 1 << m
            if used & bit:
                continue
            below = bit - 1
            above = ~(bit | below)
            s = (
                (1 if used_u & below else 0)
                | (2 if used_u & above else 0)
                | (4 if used_b & below else 0)
                | (8 if used_b & above else 0)
            )
            if not ext_b[s] & forbidden:
                if depth == last:
                    cnt += 1
                else:
                    cnt += grow(used_u, used_b | bit, depth + 1)
        for m in range(1, n + 1):
            bit = 1 << m
            if used & bit:
                continue
            below = bit - 1
            above = ~(bit | below)
            s = (
                (1 if used_u & below else 0)
                | (2 if used_u & above else 0)
                | (4 if used_b & below else 0)
                | (8 if used_b & above else 0)
            )
            if not ext_u[s] & forbidden:
                if depth == last:
                    cnt += 1
                else:
                    cnt += grow(used_u | bit, used_b, depth + 1)
        return cnt

    return CountResult(n, tset, grow(0, 0, 0), BACKTRACK)


def transfer_all_orders(
    n_max: int, cap: int = DEFAULT_CAP, n_min: int = 0
) -> list[dict[PatternSet, int]]:
    """Avoider counts for all 256 pattern sets at orders n_min..n_max.

    Entry i of the result holds order n_min + i; an empty range gives [].

    Which patterns the next letter adds depends only on the four bits of
    _extension_tables, so a prefix's future depends only on k, the number
    of unused magnitudes, and on four gap indices in 0..k placing the min
    and max used unbarred magnitudes and the min and max used barred ones
    among the unused magnitudes (gap g holds used magnitudes with exactly
    g unused ones below them; an absent min is gap k, an absent max gap
    0).  Each state maps to the counts of its completions avoiding each of
    the 256 sets T, memoized across orders, since order k starts at
    (k; k, 0, k, 0).  The state count grows polynomially in n_max, not as
    2^n n!.

    The 256 counts of a state are packed into one Python int, the count
    for T in bits [W*T, W*(T+1)) with W the bit length of 2^n_max n_max!.
    A state with k unused magnitudes has 2^k k! completions in all, and
    every count, and every partial sum of its successors' counts, is at
    most that, so no field ever overflows into the next: summing
    successors is one integer addition, and dropping the sets a move
    violates is one AND with a mask of all-ones fields.  Unpacked counts
    are exact Python integers.
    """
    check_cap(n_max, cap)
    if n_min < 0:
        raise ValueError(f"order must be nonnegative, got {n_min}")
    ext_u = _EXTEND_UNBARRED
    ext_b = _EXTEND_BARRED
    width = ((1 << n_max) * math.factorial(n_max)).bit_length()
    field = (1 << width) - 1

    def ones(added: int) -> int:
        # a 1 in the field of every T disjoint from added: the product of
        # 1 + 2^(width 2^i) over the bits i not in added, carry-free since
        # every coefficient of the product is 0 or 1
        total = 1
        for i in range(8):
            if not added >> i & 1:
                total *= 1 + (1 << (width << i))
        return total

    done = ones(0)
    # added mask -> all-ones fields of the sets that a move adding it avoids
    keep = {added: ones(added) * field for added in {*ext_u, *ext_b}}
    memo: dict[tuple[int, int, int, int, int], int] = {}

    def completions(state: tuple[int, int, int, int, int]) -> int:
        vec = memo.get(state)
        if vec is not None:
            return vec
        k, lu, hu, lb, hb = state
        if k == 0:
            memo[state] = done
            return done
        # sum the successors by added mask first, so each mask is applied
        # once per state, not once per move
        by_added: dict[int, int] = {}
        for j in range(k):
            s = (lu <= j) | (hu > j) << 1 | (lb <= j) << 2 | (hb > j) << 3
            # taking the j-th unused magnitude merges gaps j and j + 1
            lu2, hu2 = lu - (lu > j), hu - (hu > j)
            lb2, hb2 = lb - (lb > j), hb - (hb > j)
            for nxt, added in (
                ((k - 1, min(lu2, j), max(hu2, j), lb2, hb2), ext_u[s]),
                ((k - 1, lu2, hu2, min(lb2, j), max(hb2, j)), ext_b[s]),
            ):
                by_added[added] = by_added.get(added, 0) + completions(nxt)
        vec = 0
        for added, acc in by_added.items():
            vec += acc & keep[added]
        memo[state] = vec
        return vec

    sets = [PatternSet(t) for t in range(256)]
    out = []
    for n in range(n_min, n_max + 1):
        vec = completions((n, n, 0, n, 0))
        out.append({ps: vec >> (width * ps.mask) & field for ps in sets})
    return out


@dataclass(frozen=True)
class MaskHistogram:
    """Frequencies of containment masks over all of B_n.

    counts maps an 8-bit mask to how many order-n signed permutations
    realize exactly that set of patterns; zero entries are omitted.
    """

    n: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def count_for(self, mask: int | PatternSet) -> int:
        if isinstance(mask, PatternSet):
            mask = mask.mask
        return self.counts.get(mask, 0)


# np.bincount accumulates in int64; keep the group size well inside it
_INT64_LIMIT = 1 << 62


@lru_cache(maxsize=None)
def _pair_tables(n: int) -> tuple[tuple[int, int, np.ndarray, np.ndarray], ...]:
    # For each position pair (i, j), i < j, and every sign vector in 2^n,
    # the single-bit pattern contribution of that pair: one array for
    # descending magnitudes, one for ascending.  Sign bit i of the vector
    # bars position i.
    import numpy as np

    size = 1 << n
    lut = np.zeros((2, 2, 2), dtype=np.uint8)
    for si in (0, 1):
        for sj in (0, 1):
            for asc in (0, 1):
                x = (1 if asc else 2) * (-1 if si else 1)
                y = (2 if asc else 1) * (-1 if sj else 1)
                lut[si, sj, asc] = 1 << pair_index(x, y)
    sel = [
        ((np.arange(size, dtype=np.uint32) >> i) & 1).astype(np.intp)
        for i in range(n)
    ]
    tables = []
    for i in range(n):
        for j in range(i + 1, n):
            desc = lut[sel[i], sel[j], 0]
            asc = lut[sel[i], sel[j], 1]
            tables.append((i, j, desc, asc))
    return tuple(tables)


def _histogram_block(
    perms: np.ndarray, n: int, tables
) -> np.ndarray:
    # containment masks for a block of magnitude words crossed with all
    # 2^n sign vectors at once
    import numpy as np

    size = 1 << n
    masks = np.zeros((perms.shape[0], size), dtype=np.uint8)
    for i, j, desc, asc in tables:
        up = perms[:, i] < perms[:, j]
        np.bitwise_or(masks, np.where(up[:, None], asc[None, :], desc[None, :]), out=masks)
    return np.bincount(masks.reshape(-1), minlength=256)


def mask_histogram(
    n: int,
    cap: int = DEFAULT_CAP,
    chunk_size: int | None = None,
) -> MaskHistogram:
    """One vectorized pass over B_n, bucketing words by containment mask.

    Magnitude words stream in lexicographic chunks, in this one process;
    each chunk is crossed with all 2^n sign vectors in numpy, or-ing
    per-pair pattern bits into a mask per word, then histogrammed.
    """
    import numpy as np

    check_cap(n, cap)
    if n < 2:
        return MaskHistogram(n, {0: (1 << n) * math.factorial(n)})
    if (1 << n) * math.factorial(n) >= _INT64_LIMIT:
        raise CapExceededError(f"order {n} overflows the histogram accumulator")
    if chunk_size is None:
        # keep each boolean mask block around a few MB
        chunk_size = max(64, (1 << 22) >> n)
    hist = np.zeros(256, dtype=np.int64)
    tables = _pair_tables(n)
    stream = itertools.permutations(range(1, n + 1))
    while True:
        block = list(itertools.islice(stream, chunk_size))
        if not block:
            break
        hist += _histogram_block(np.array(block, dtype=np.int8), n, tables)
    counts = {m: int(c) for m, c in enumerate(hist.tolist()) if c}
    return MaskHistogram(n, counts)


def counts_all_subsets(
    n: int,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
    histogram: MaskHistogram | None = None,
) -> dict[PatternSet, int]:
    """Avoider counts for every one of the 256 pattern sets at order n.

    A word avoids T exactly when its containment mask is disjoint from T,
    so summing histogram buckets over subsets of the complement of T gives
    the count.  The sum-over-subsets transform does this for all T in
    8 * 256 additions on exact Python integers.

    workers is accepted and ignored: the histogram runs in one process,
    and the parameter stays only so that callers still passing it, such
    as bench/golden.py, keep working.
    """
    hist = histogram if histogram is not None else mask_histogram(n, cap)
    if hist.n != n:
        raise ValueError(f"histogram is for order {hist.n}, not {n}")
    f = [0] * 256
    for mask, c in hist.counts.items():
        f[mask] = c
    for i in range(8):
        bit = 1 << i
        for s in range(256):
            if s & bit:
                f[s] += f[s ^ bit]
    return {PatternSet(t): f[0xFF ^ t] for t in range(256)}


def count_mask(n: int, tset: PatternSet, cap: int = DEFAULT_CAP) -> CountResult:
    """Count avoiders of one set via the histogram route."""
    value = counts_all_subsets(n, cap)[tset]
    return CountResult(n, tset, value, MASK)


def count(
    n: int,
    tset: PatternSet,
    method: str = BACKTRACK,
    cap: int = DEFAULT_CAP,
) -> CountResult:
    """Dispatch to one of the three engines by name."""
    if method == NAIVE:
        return count_naive(n, tset, cap)
    if method == BACKTRACK:
        return count_backtrack(n, tset, cap)
    if method == MASK:
        return count_mask(n, tset, cap)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
