"""Engines for counting pattern-avoiding signed permutations.

    transfer   gap-state layer recurrence: b_n(T) for any list of sets T
               and every order up to n_max in one pass, in time polynomial
               in n_max, each state's counts packed into one Python int;
               the core behind every command that counts, guarded by an
               estimate of its memory
    naive      filter the full group through avoids(); the reference
    backtrack  depth-first search over prefixes with O(1) extension tests
    mask       vectorized histogram of containment masks over all of B_n;
               b_n(T) sums the buckets disjoint from T, for one set or
               all 256 at one order

naive, backtrack and mask are oracles.  Each refuses, before it counts, a
job that visits over 2^9 9! words or prefixes: naive and mask visit all
2^n n! words, backtrack sum_{k<n} C(n,k) b_k(T) prefixes, its b_k from
transfer.  count and sequence run them only by name, and the tests check
transfer against them.  naive and mask share nothing with transfer but the
fixed pattern indexing, so agreement with them is strong evidence of
correctness; backtrack and transfer share the extension tables.  Only mask
uses numpy, imported when it first runs, in a single process.
"""

import bisect
import itertools
import math
from typing import Iterator, NamedTuple, Sequence

from .core import (
    _PAIR_INDEX, CapExceededError, PatternSet, _check_group, _check_order, _check_work,
    avoids, iterate_Bn, pair_index,
)

__all__ = [
    "BACKTRACK", "MASK", "METHODS", "NAIVE", "TRANSFER", "CountResult", "count",
    "count_backtrack", "count_mask", "count_naive", "counts_all_subsets",
    "mask_histogram", "transfer_all_orders",
]

TRANSFER = "transfer"
NAIVE = "naive"
BACKTRACK = "backtrack"
MASK = "mask"
METHODS = (TRANSFER, NAIVE, BACKTRACK, MASK)


class CountResult(NamedTuple):
    n: int
    patterns: PatternSet
    value: int
    method: str


def count_naive(n: int, tset: PatternSet) -> CountResult:
    """Count avoiders by filtering the full group, one word at a time."""
    return CountResult(n, tset, sum(avoids(a, tset) for a in iterate_Bn(n)), NAIVE)


def _added(s: int, new: int) -> int:
    # Appending a letter to a prefix creates new pattern occurrences only
    # between old letters and the new one, and which patterns appear depends
    # only on four bits of the prefix: does it hold an unbarred magnitude
    # below the new one, an unbarred one above, a barred one below, a barred
    # one above.  The tables below hold the added-pattern mask for all 16
    # summaries, for an unbarred and for a barred new letter.
    # Representative magnitudes 1 < 3 < 5 stand in for below < new <
    # above; the four pairs realize four distinct patterns, so summing
    # their bits ors them.
    return sum(1 << pair_index(x, new) for b, x in enumerate((1, 5, -1, -5)) if s >> b & 1)


_EXTEND_UNBARRED, _EXTEND_BARRED = (
    tuple(_added(s, new) for s in range(16)) for new in (3, -3)
)


def _backtrack_work(n: int, mask: int) -> Iterator[int]:
    # Running totals of the prefixes count_backtrack visits at order n: the
    # C(n, k) b_k avoiders of each length k < n on magnitudes from 1..n, with
    # b_k from transfer passes to orders 1, 2, 4, ..., n - 1, each made only
    # once the totals before it are read.  A b_k of 0 ends the totals: an
    # avoider's first k letters standardize to an avoider of order k.
    work, k, m = 0, 0, 1
    while k < n:
        for (b,) in transfer_all_orders(min(m, n - 1), [mask])[k:]:
            if b == 0:
                return
            work += math.comb(n, k) * b
            yield work
            k += 1
        m *= 2


def count_backtrack(n: int, tset: PatternSet) -> CountResult:
    """Count avoiders by extending prefixes left to right.

    A prefix is summarized by two bitmasks of used magnitudes, unbarred and
    barred.  Each candidate letter is admitted iff the patterns it would
    add are disjoint from the forbidden set.  Unused magnitudes are taken
    in ascending order; each is summarized once and tried unbarred, then
    barred.  Subtrees below a rejected letter are never visited.
    """
    _check_work(n, _backtrack_work(n, tset.mask))
    if n == 0:
        return CountResult(0, tset, 1, BACKTRACK)
    forbidden = tset.mask
    ext_u = _EXTEND_UNBARRED
    ext_b = _EXTEND_BARRED
    last = n - 1

    def grow(used_u: int, used_b: int, depth: int) -> int:
        used = used_u | used_b
        cnt = 0
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
                cnt += 1 if depth == last else grow(used_u | bit, used_b, depth + 1)
            if not ext_b[s] & forbidden:
                cnt += 1 if depth == last else grow(used_u, used_b | bit, depth + 1)
        return cnt

    return CountResult(n, tset, grow(0, 0, 0), BACKTRACK)


def _halves(k: int) -> list[tuple[int, int, int]]:
    # (lo, hi, need) of layer k's halves, by need: absent, gaps (k, 0), first;
    # then, if k > 0, spans of gaps lo <= hi by width, needing 1 + (lo < hi)
    spans = [(lo, lo + d, 1 + (d > 0)) for d in range(k + 1) for lo in range(k + 1 - d)]
    return [(k, 0, 0)] + (spans if k else [])


# the most memory, in bytes, that transfer_all_orders plans to use
_BUDGET_BYTES = 2**31


def transfer_all_orders(n_max: int, masks: Sequence[int]) -> list[list[int]]:
    """Avoider counts of the listed sets at orders 0..n_max.

    Entry n of the result lists the order-n counts in the order of masks,
    a sequence of 8-bit pattern-set masks (repeats allowed).  A negative
    n_max or a mask outside 0..255 raises ValueError, and an n_max whose
    estimated memory for these masks is over _BUDGET_BYTES raises
    CapExceededError, before counting.

    Which patterns the next letter adds depends only on the four summary
    bits of _added, so a prefix's future depends only on k, the number
    of unused magnitudes, and on four gap indices in 0..k placing the min
    and max used unbarred magnitudes and the min and max used barred ones
    among the unused magnitudes (gap g holds used magnitudes with exactly
    g unused ones below them; an absent min is gap k, an absent max gap
    0).  Each state maps to the counts of its completions avoiding each
    listed set by a layer recurrence: layer k, the states with k unused
    magnitudes, comes from layer k - 1 alone, and order k is (k; k, 0, k, 0).
    The state count grows polynomially in n_max, not as 2^n n!.

    A state is a pair of halves, unbarred (lu, hu) and barred (lb, hb); layer
    k is one list, the pair iu, ib of its H halves at iu * H + ib.  A move at
    the j-th unused magnitude maps each half on its own, through two tables
    of indices into layer k - 1's halves: take (the half it joins) and shift.

    A state's counts are packed into one Python int, the count for
    masks[i] in bits [W*i, W*(i+1)) with W the bit length of 2^n_max
    n_max!.  A state with k unused magnitudes has 2^k k! completions in
    all, and every count, and every partial sum of its successors' counts,
    is at most that, so no field ever overflows into the next: successors
    are summed by integer addition, and the sets that moves violate are
    dropped by one AND with a mask of all-ones fields per run of moves
    sharing a summary and bar.  Unpacked counts are exact Python integers.
    """
    _check_order(n_max)
    for t in masks:
        if type(t) is not int or not 0 <= t < 256:
            raise ValueError(f"mask {t} is not a pattern-set mask in 0..255")
    # Two adjacent layers are held at once: an 8-byte slot per pair of halves,
    # and per reached state an int of fields of about log2(2^n_max n_max!)
    # bits (lgamma, not factorial, answers any order at once) and 64 bytes, a
    # term that keeps the estimate 1.3-1.5x over measured peak RSS growth.
    # Layer k has H(k) = 1 + (k + 1)(k + 2)/2 halves: layers n - 1 and n hold
    # the most slots, and from order 11 on the full layers n - 5 and n - 4 the
    # most states, so order 11 bounds smaller orders.  Past order 2^20 the
    # estimate only grows, far over any budget; there its floats stay finite.
    n = min(max(n_max, 11), 1 << 20)
    h5, h4, h1, h0 = (1 + (k + 1) * (k + 2) // 2 for k in (n - 5, n - 4, n - 1, n))
    bits = n + math.lgamma(n + 1) / math.log(2)
    estimate = 8 * (h1 * h1 + h0 * h0) + (h5 * h5 + h4 * h4) * (len(masks) * bits / 8 + 64)
    if estimate > _BUDGET_BYTES:
        raise CapExceededError(
            f"order {n_max} on {len(masks)} set(s) needs an estimated "
            f"{estimate / 2**20:.0f} MB, over the budget of {_BUDGET_BYTES >> 20} MB"
        )
    width = ((1 << n_max) * math.factorial(n_max)).bit_length()
    field = (1 << width) - 1
    units = [1 << width * i for i in range(len(masks))]
    # keep[s] (unbarred move) and keep[16 + s] (barred move): all-ones
    # fields of the listed sets that a move with summary s avoids
    keep = [sum(unit for unit, t in zip(units, masks) if not t & added) * field
            for added in _EXTEND_UNBARRED + _EXTEND_BARRED]
    out, layer, halves = [], [], []
    for k in range(n_max + 1):
        index = {(lo, hi): i for i, (lo, hi, _) in enumerate(halves)}
        prev, P, layer, halves = layer, len(halves), [], _halves(k)
        # taking the j-th unused magnitude merges gaps j and j + 1
        take = [[index[min(j, lo), hi - 1 if j < hi else j] for j in range(k)]
                for lo, hi, _ in halves]
        shift = [[index[lo - (j < lo), hi - (j < hi)] for j in range(k)]
                 for lo, hi, _ in halves]
        for (lu, hu, need_u), tu, su in zip(halves, take, shift):
            # halves come by need, so the pairs reached with this one come first
            m = bisect.bisect_right(halves, n_max - k - need_u, key=lambda h: h[2])
            for (lb, hb, _), tb, sb in zip(halves[:m], take, shift):
                vec = 0 if k else sum(units)  # the empty completion avoids every set
                # the four gap indices cut the unused magnitudes j = 0..k-1
                # into intervals [a, b) on which j compares with each index as
                # a does, so the summary s is fixed there: sum an interval's
                # successors first and apply its two keep masks once; fields
                # never carry, so (x + y) & K == (x & K) + (y & K)
                cuts = sorted({0, k, lu, hu, lb, hb})
                for a, b in zip(cuts, cuts[1:]):
                    s = (a >= lu) | (a < hu) << 1 | (a >= lb) << 2 | (a < hb) << 3
                    acc_u = acc_b = 0
                    for j in range(a, b):
                        acc_u += prev[tu[j] * P + sb[j]]
                        acc_b += prev[su[j] * P + tb[j]]
                    vec += (acc_u & keep[s]) + (acc_b & keep[s | 16])
                layer.append(vec)
            layer += [0] * (len(halves) - m)  # pairs never reached
        out.append([layer[0] >> width * i & field for i in range(len(masks))])
    return out


def mask_histogram(n: int) -> dict[int, int]:
    """Frequencies of containment masks over all of B_n, in one numpy pass.

    Returns {mask: count}: how many order-n signed permutations realize
    exactly the 8-bit set of patterns mask; zero buckets are omitted.
    Magnitude words stream in lexicographic blocks of a fixed size, in
    this one process; each block is crossed with all 2^n sign vectors in
    numpy, or-ing per-pair pattern bits into a mask per word, then
    histogrammed.  The blocks' bucket counts are added up in exact Python
    integers, so no total can overflow.
    """
    _check_group(n)
    import numpy as np

    # keep each boolean mask block around a few MB; order 9 in one block
    # would hold about 186 MB of masks
    block_size = max(64, (1 << 22) >> n)
    # For each position pair (i, j), i < j, the pattern bit it contributes
    # under every sign vector, whose bit i bars position i: one array for
    # descending magnitudes, one for ascending.  kind is the pair type that
    # keys _PAIR_INDEX, less its magnitudes-ascending bit.
    pattern_bit = np.array([1 << p for p in _PAIR_INDEX], dtype=np.uint8)
    signs = np.arange(1 << n)
    pairs = []
    for i, j in itertools.combinations(range(n), 2):
        kind = (signs >> i & 1) << 2 | (signs >> j & 1) << 1
        pairs.append((i, j, pattern_bit[kind], pattern_bit[kind | 1]))
    hist = [0] * 256
    stream = itertools.permutations(range(1, n + 1))
    while block := list(itertools.islice(stream, block_size)):
        perms = np.array(block, dtype=np.int8)
        masks = np.zeros((len(block), 1 << n), dtype=np.uint8)
        for i, j, desc, asc in pairs:
            up = perms[:, i] < perms[:, j]
            masks |= np.where(up[:, None], asc, desc)
        counts = np.bincount(masks.reshape(-1), minlength=256).tolist()
        hist = [h + c for h, c in zip(hist, counts)]
    return {m: c for m, c in enumerate(hist) if c}


def counts_all_subsets(n: int, workers: int = 1) -> dict[PatternSet, int]:
    """Avoider counts for every one of the 256 pattern sets at order n.

    A word avoids T exactly when its containment mask is disjoint from T,
    so b_n(T) is the sum of the histogram buckets disjoint from T.

    workers is accepted and ignored: the histogram runs in one process,
    and the parameter stays only so that callers still passing it, such
    as bench/golden.py, keep working.
    """
    hist = mask_histogram(n)
    return {PatternSet(t): sum(c for m, c in hist.items() if not m & t) for t in range(256)}


def count_mask(n: int, tset: PatternSet) -> CountResult:
    """Count avoiders of one set: the histogram buckets disjoint from it."""
    value = sum(c for m, c in mask_histogram(n).items() if not m & tset.mask)
    return CountResult(n, tset, value, MASK)


_ORACLES = {NAIVE: count_naive, BACKTRACK: count_backtrack, MASK: count_mask}


def count(n: int, tset: PatternSet, method: str = TRANSFER) -> CountResult:
    """Count order-n avoiders of tset with the engine named by method.

    The default, transfer, reads order n from one pass of the transfer
    engine over tset alone, guarded by its memory estimate; naive,
    backtrack and mask are the oracles, each guarded by its work.
    """
    if method == TRANSFER:
        return CountResult(n, tset, transfer_all_orders(n, [tset.mask])[n][0], TRANSFER)
    oracle = _ORACLES.get(method)
    if oracle is None:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return oracle(n, tset)
