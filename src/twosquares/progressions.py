"""Residue-class statistics of consecutive E-elements.

N(x;q,a), the pair matrix N(x;q,(a,b)), r-tuple counts N(x;q,avec) and gap
histograms come from one mergeable reducer over the windows of r consecutive
E-elements that start at or below x (successors may exceed x; they come from the
sieve overshoot window).  Each segment is reduced in blocks of BLOCK entries, in
the pool workers when threads > 1; the parent merges the states in segment order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sieve
from .characters import check_modulus
from .errors import ArgumentError, ResourceError, TruncatedStreamError

DENSE_CELLS_LIMIT = 5 * 10**7  # refuse q^r tables larger than this
# Bitset entries per values() call.  Each block's temporaries (about 1.5 MB at
# 2^20) are freed before the next; with no large array left on the heap glibc
# trims it and faults them back every block: stats-cache took 51k minor faults
# and 0.11-0.13 s of system CPU at 2^20, against 3.4-3.9k and 0.02 s at 2^17.
# 2^16, 2^17 and 2^18 cost the same CPU within noise (1.04 / 1.01 / 0.99 s),
# and 2^18 peaks 1.6 MB higher.
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

    def as_dict(self) -> dict:
        out = {}
        it = np.nditer(self.counts, flags=["multi_index"])
        for v in it:
            out[it.multi_index if self.r > 1 else it.multi_index[0]] = int(v)
        return out


class _Reducer:
    """Counts of the windows of r consecutive fed elements whose first element is <= x.

    Keyed by residues mod q (q^r cells) or, with q None and r = 2, by gap.  The first
    and the last r-1 elements fed (all, if fewer) are kept so adjacent runs merge exactly.
    """

    def __init__(self, x: int, r: int, q: int | None):
        self.x, self.r, self.q = x, r, q
        self.counts = np.zeros(0 if q is None else q**r, dtype=np.int64)
        self.head = self.tail = np.empty(0, dtype=np.int64)

    def _add(self, counts: np.ndarray) -> None:  # the gap histogram grows to the largest gap
        if counts.size > self.counts.size:
            self.counts, counts = counts, self.counts
        self.counts[: counts.size] += counts

    def feed(self, v: np.ndarray) -> None:
        """Count the windows that end in v, an ascending run that follows everything fed so far."""
        r = self.r
        if self.head.size < r - 1:
            self.head = np.concatenate([self.head, v[: r - 1 - self.head.size]])
        seq = np.concatenate([self.tail, v]) if self.tail.size else v
        m = min(int(np.searchsorted(seq, self.x, side="right")), seq.size - r + 1)
        if m > 0:
            if self.q is None:
                keys = seq[1 : m + 1] - seq[:m]
            else:
                res = seq[: m + r - 1] % self.q
                keys = res[:m]
                for i in range(1, r):
                    keys = keys * self.q + res[i : i + m]
            if self.q is not None and keys.size < self.counts.size:
                np.add.at(self.counts, keys, 1)  # a large table: touch only the cells hit
            else:
                self._add(np.bincount(keys, minlength=self.counts.size))
        self.tail = seq[max(seq.size - r + 1, 0) :]

    def merge(self, other: "_Reducer") -> None:
        """Append the state of the run that directly follows this one."""
        self.feed(other.head)  # the windows that straddle the boundary
        self._add(other.counts)
        if other.head.size == self.r - 1:  # else other.tail == other.head, already fed
            self.tail = other.tail


def _reduce_segment(x: int, r: int, q: int | None, lo: int, hi: int, segment_budget: int,
                    cache_dir: str | None) -> _Reducer:
    """Reducer state of E cap [lo, hi]; in a pool worker only this state travels back."""
    red = _Reducer(x, r, q)
    seg = sieve._cached_segment(lo, hi, segment_budget, cache_dir)
    for start in range(0, hi - lo + 1, BLOCK):
        red.feed(seg.values(start, start + BLOCK))
    return red


def _reduce(x: int, r: int, q: int | None, overshoot: int = sieve.DEFAULT_OVERSHOOT,
            segment_budget: int = sieve.DEFAULT_SEGMENT_BITS, cache_dir: str | None = None,
            threads: int = 1) -> _Reducer:
    """Reduce E cap [1, x]; TruncatedStreamError if (x, x + overshoot] lacks r-1 successors."""
    if x < 1:
        raise ArgumentError("x must be >= 1")
    total = _Reducer(x, r, q)
    hi = x + overshoot if r > 1 else x
    for part in sieve._map_segments(partial(_reduce_segment, x, r, q), 1, hi, segment_budget,
                                    cache_dir, threads):
        total.merge(part)
        if r > 1 and total.tail.size == r - 1 and total.tail[0] > x:
            return total  # every E_n <= x has its r-1 successors
    if r > 1:
        raise TruncatedStreamError(f"fewer than {r - 1} successors of x={x} within overshoot",
                                   last_resolved=int(total.tail[-1]) if total.tail.size else None)
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
