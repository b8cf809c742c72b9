"""Residue-class statistics of consecutive E-elements.

N(x;q,a), the pair matrix N(x;q,(a,b)), r-tuple counts N(x;q,avec) and gap
histograms come from one mergeable reducer over the windows of r consecutive
E-elements that start at or below x.  Successors may exceed x: for r > 1 the
sieve runs to x + w, where (x, x + w] holds 5 elements of E by the x^(1/4) gap
bound (`sieve._successor_window`), enough for every r <= 6.  w depends on x
alone, so every statistic of one x reads the same segments, each cut into the
same marking windows (`sieve._window_size` of its end) and cache files.  Each
segment is reduced one window at a time, a window in blocks of BLOCK entries,
in the pool workers when threads > 1; the parent merges the states in segment
order.  A process holds one window, never a segment: 128 KB of packed words
up to hi = 2^28 (about 2.7 * 10^8), plus the 1 MB marking buffer when it
sieves; the window grows with sqrt(hi) to 2 MB of words and a 16 MB buffer
above 2^34.

The residue statistics never form an E-element.  The class counts (r = 1)
have no windows to key, so they take no residue code either: each block's
bits are summed by column in rows of a multiple of q entries, folded into
the q classes and added to the reducer's table
(`SieveSegment._add_residue_counts`, the path of `residue_counts`).  For
r >= 2 each block's residues mod q come straight from the segment's packed
bits (`SieveSegment.residues`, uint8 codes for q <= 256, uint16 up to
65,536), and a window's key is built in the smallest unsigned dtype that
holds q^r cells.  Only the gap histogram reads int64 values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import pairwise

import numpy as np

from . import sieve
from .characters import check_modulus
from .errors import ArgumentError, ResourceError

DENSE_CELLS_LIMIT = 5 * 10**7  # refuse q^r tables larger than this
# Bitset entries per values(), residues() or class-count read of a window.  Each
# block's temporaries are freed before the next; with no large array left on the
# heap glibc trims it and faults them back every block.  The four stats-cache
# passes in one process, three runs each: 2^16, 2^17 and 2^18 cost the same CPU
# within noise (0.65-0.79 / 0.60-0.85 / 0.65-0.71 s) and peak at 40.7 / 41.1 /
# 42.5 MB; 2^20 takes twice the minor faults of 2^17 (7.3k against 3.4k) and
# peaks at 48.3 MB.
BLOCK = 1 << 17


@dataclass
class ResidueCountMatrix:
    q: int
    r: int
    x: int
    counts: np.ndarray  # shape (q,)*r, int64

    def cell(self, *a) -> int:
        return int(self.counts[tuple(ai % self.q for ai in a)])

    def total(self) -> int:
        return int(self.counts.sum())


class _Reducer:
    """Counts of the windows of r consecutive fed elements whose first element is <= x.

    Keyed by residues mod q (q^r cells) or, with q None and r = 2, by gap.  With q,
    the reducer is fed residue codes (`SieveSegment.residues`), never values, and
    builds each window's key in the smallest unsigned dtype that holds q^r cells
    (at r = 1 `_reduce_segment` adds class counts to `counts` instead of feeding);
    with q None it is fed values.  Each run comes with the number of its elements
    that are <= x: those elements form a prefix of the stream, so x itself is not
    needed.  The first and the last r-1 elements fed (all, if fewer) are kept with
    their counts <= x, so adjacent runs merge exactly.
    """

    def __init__(self, r: int, q: int | None):
        self.r, self.q = r, q
        self.counts = np.zeros(0 if q is None else q**r, dtype=np.int64)
        self.head = self.tail = np.empty(0, dtype=np.int64 if q is None else sieve._code_dtype(q))
        self.head_le = self.tail_le = 0

    def _add(self, counts: np.ndarray) -> None:  # the gap histogram grows to the largest gap
        if counts.size > self.counts.size:
            self.counts, counts = counts, self.counts
        self.counts[: counts.size] += counts

    def feed(self, codes: np.ndarray, le: int) -> None:
        """Count the windows that end in `codes`, the run that follows everything fed so far.

        Its first `le` elements are <= x and the rest are not.
        """
        r = self.r
        if self.head.size < r - 1:
            new = codes[: r - 1 - self.head.size]
            self.head = np.concatenate([self.head, new])
            self.head_le += min(le, new.size)
        seq = np.concatenate([self.tail, codes]) if self.tail.size else codes
        le += self.tail_le
        m = min(le, seq.size - r + 1)
        if m > 0:
            if self.q is None:
                keys = seq[1 : m + 1] - seq[:m]
            else:
                keys = seq[:m].astype(sieve._code_dtype(self.counts.size))
                for i in range(1, r):
                    keys *= self.q
                    keys += seq[i : i + m]
            if self.q is not None and keys.size < self.counts.size:
                np.add.at(self.counts, keys, 1)  # a large table: touch only the cells hit
            else:
                self._add(np.bincount(keys, minlength=self.counts.size))
        cut = max(seq.size - r + 1, 0)
        self.tail, self.tail_le = seq[cut:], max(le - cut, 0)

    def merge(self, other: "_Reducer") -> None:
        """Append the state of the run that directly follows this one."""
        self.feed(other.head, other.head_le)  # the windows that straddle the boundary
        self._add(other.counts)
        if other.head.size == self.r - 1:  # else other.tail == other.head, already fed
            self.tail, self.tail_le = other.tail, other.tail_le


def _reduce_segment(x: int, r: int, q: int | None, lo: int, hi: int, segment_budget: int,
                    cache_dir: str | None) -> _Reducer:
    """Reducer state of E cap [lo, hi]; in a pool worker only this state travels back.

    The segment is taken one marking window at a time, the windows `sieve_segment`
    marks, each sieved or read from its own cache file and fed before the next, so
    one window is held at a time, never the segment.  A window is read in blocks of
    BLOCK entries, and the block that holds x is cut after x, so each run fed is
    wholly <= x or wholly above it.  At r = 1 a block <= x adds its class counts
    (`SieveSegment._add_residue_counts`) and nothing is fed.
    """
    red = _Reducer(r, q)
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)  # once here, not once per window file
    for a, b in sieve._segment_ranges(lo, hi, sieve._window_size(hi)):
        window = sieve._cached_segment(a, b, segment_budget, cache_dir)
        n, cut = b - a + 1, x - a + 1  # the entries below cut are <= x
        edges = sorted({*range(0, n, BLOCK), n, min(max(cut, 0), n)})
        for start, stop in pairwise(edges):
            if r == 1:  # no windows to key: each block's class counts, and none above x
                if stop <= cut:
                    window._add_residue_counts(red.counts, start, stop)
                continue
            run = window.values(start, stop) if q is None else window.residues(q, start, stop)
            red.feed(run, run.size if stop <= cut else 0)
    return red


def _reduce(x: int, r: int, q: int | None, segment_budget: int = sieve.DEFAULT_SEGMENT_BITS,
            cache_dir: str | None = None, threads: int = 1) -> _Reducer:
    """Reduce E cap [1, x], each window of r with its successors past x."""
    if x < 1:
        raise ArgumentError("x must be >= 1")
    total = _Reducer(r, q)
    hi = x + sieve._successor_window(x) if r > 1 else x
    for part in sieve._map_segments(partial(_reduce_segment, x, r, q), 1, hi, segment_budget,
                                    cache_dir, threads):
        total.merge(part)
    return total


def count_by_residue(x: int, q: int, **sieve_kw) -> ResidueCountMatrix:
    """cell a = #{n <= x : n in E, n = a mod q}."""
    check_modulus(q)
    return ResidueCountMatrix(q=q, r=1, x=x, counts=_reduce(x, 1, q, **sieve_kw).counts)


def count_consecutive_tuples(x: int, q: int, r: int, **sieve_kw) -> ResidueCountMatrix:
    """cell (a_1..a_r) = #{E_n <= x : E_{n+i-1} = a_i mod q for 1 <= i <= r}."""
    check_modulus(q)
    if not 1 <= r <= 6:
        raise ArgumentError(f"r={r} outside [1, 6]")
    if q**r > DENSE_CELLS_LIMIT:
        raise ResourceError(f"q^r = {q**r} cells exceeds {DENSE_CELLS_LIMIT}")
    counts = _reduce(x, r, q, **sieve_kw).counts
    return ResidueCountMatrix(q=q, r=r, x=x, counts=counts.reshape((q,) * r))


def count_consecutive_pairs(x: int, q: int, **sieve_kw) -> ResidueCountMatrix:
    return count_consecutive_tuples(x, q, r=2, **sieve_kw)


def residue_pair_stats(x: int, q: int, **sieve_kw):
    """(singles, pairs) in one sieve pass; each E_n <= x starts one pair, so singles = row sums."""
    check_modulus(q)
    pairs = _reduce(x, 2, q, **sieve_kw).counts.reshape(q, q)
    return (ResidueCountMatrix(q=q, r=1, x=x, counts=pairs.sum(axis=1)),
            ResidueCountMatrix(q=q, r=2, x=x, counts=pairs))


def gap_histogram(x: int, **sieve_kw) -> dict[int, int]:
    """Histogram of E_{n+1} - E_n over E_n <= x."""
    if x < 2:
        raise ArgumentError("x must be >= 2")
    return {int(g): int(c) for g, c in enumerate(_reduce(x, 2, None, **sieve_kw).counts) if c}
