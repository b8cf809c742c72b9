"""Segmented sieve for E = {a^2 + b^2 : a, b >= 0}, and exact counts without one.

Membership is generated directly: every a^2 + b^2 with 0 <= a <= b that falls
inside a segment is marked, about pi/8 writes per entry.  No factorization
tables are needed, and distinct segments are independent, so segments can be
sieved concurrently and merged.

Marking is vectorized, so no Python loop runs per row and the cost per entry
grows slowly with height: on one core of a 2-vCPU Xeon VM a 2^26 segment takes
about 1.2 ns per entry near 0, 1.6 near 10^10, 2.4 near 10^11, 3.4 near 10^12
and 5.6 near 10^13 (min of 9 runs).  It is marked in windows of the least
power of two >= 64 sqrt(hi) entries, at least 2^20 and at most 2^23, each into
one reused bool buffer then packed into the segment's words 2^20 entries at a
time: 8 MB per 2^26 entries plus the buffer (1 MB up to hi = 2^28, 8 MB from
just above 2^32).  The cap keeps the buffer on the fast side of the scatter's
cache cliff: 6.5M random marks take 52 / 74 / 141 ms into 2^22 / 2^23 / 2^24
bools.  A window is marked by rows in blocks of _ROW_BLOCK (`_mark`): below
hi = 2^36 the rows are the 0.71 sqrt(hi) values of a, from there on the
0.29 sqrt(hi) values of b.  Each row's count of marks is computed first; a row
with more than _DENSE_ROW marks is marked by one arange, and the block's other
rows are sorted by their count, so the rows still marking at column step j are
a suffix of the block: a step costs a scatter and an add per mark, and besides
the buffers only one block's state is held at any height (a 2^26 segment at
10^13 peaks at 46 MB in a fresh process, where all rows at once in a 2^26
window took 165 MB).

With threads > 1 the segments are sieved in a process pool that keeps at most
`threads` segments in flight (`_map_segments`).  The statistics of
`progressions` reduce inside the workers, so only a small reducer state
travels back per segment, never the segment itself.

The optional cache holds one file per range fetched (`_cached_segment`).
`progressions` fetches the marking windows of each segment one at a time, so
the cache holds one file per window and a process never holds more than one
window: 128 KB of words up to hi = 2^28 and 1 MB from just above 2^32.
A file is the range's packed words as they are in memory, after a header with
its bounds, the payload length and a zlib CRC32: a miss writes the words with
no copy, and a hit checks the CRC and wraps the file's bytes.  A truncated,
corrupt or old-format file is recomputed and rewritten.

A segment is read by entry range, in blocks: `values` gives the int64
E-elements, `residues(q)` their residues mod q without forming them (the
bits are compressed against a memoized table of i % q, uint8 for q <= 256,
uint16 up to 65,536 and int64 above, at most twice the block long for any q),
and `residue_counts(q)` the number of elements in each class without a code
per element (the bits in rows of a multiple of q entries, summed by column
in uint8 while a range has at most 255 rows, then folded into q classes: on
one core of a 2-vCPU VM 25-32 us per 2^17 entries at 6 * 10^7 for q = 5 to
1009, where `residues` plus a bincount take 160-234 us).  One private helper
unpacks the bytes that cover the range for all three, so it is their only
reader of the packed layout.

The successors of x bound how far past x the statistics of consecutive
elements sieve: every n >= 1 has an element of E in
[n, n + 2 ceil(sqrt(2 floor(sqrt n))) - 2] (`_gap_bound`, an x^(1/4) bound),
so the 5th element past x is within about 10 sqrt(2) x^(1/4) of it
(`_successor_window`): at most 655,355 entries below 2^62.

`count_up_to` does not sieve.  The indicator of E is multiplicative, so its
sum to x is a Lucy + min_25 sum over the 2 sqrt(x) values x // k, in int64
numpy arrays: O(x^(3/4)) time and O(sqrt(x)) memory, in the calling process.
Each of its two phases takes one numpy step per prime p <= cbrt(x) and applies
all primes above cbrt(x) at once, as one exact batch in chunks of (v, p)
pairs: no read of that batch sees one of its writes (`_sum_f`).  On one core
of the same VM it takes 0.024 CPU s at 2^28, 0.28 s at 10^10, 1.5 s at 10^11
and 9.1 s at 10^12, where one step for every prime took 0.056, 0.43, 1.9 and
10.6 s.  At 10^12 the arrays have 2 * 10^6 entries and the process peaks at
168 MB (about 70 bytes per entry).  Above
COUNT_VALUES_BUDGET entries (x beyond about 2.5 * 10^13) it raises
ResourceError before allocating anything.  The sieve is its independent
oracle in the tests.

Counts N(x; ...) range over 1 <= n <= x by default; 0 = 0^2+0^2 is a member of
E but is excluded from counts unless include_zero is requested.  The reference
counts include it: count_up_to(10^9, include_zero=True) = 173229059.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import isqrt

import numpy as np

from .characters import factorize
from .errors import ArgumentError, ResourceError
from .eulerprod import primes_up_to, row_pairs

DEFAULT_SEGMENT_BITS = 1 << 26  # max entries per segment
COUNT_VALUES_BUDGET = 10**7  # max |V| = 2 sqrt(x) for count_up_to: x <= 2.5e13, ~700 MB peak

_ROW_BLOCK = 1 << 14  # rows marked together: the marking state is a few 128 KiB arrays
# Windows ending at or above _B_ROWS_FROM are marked by rows b, which are 0.29 sqrt(hi)
# against 0.71 sqrt(hi) rows a.  Marking one 2^23 window on one core of a 2-vCPU VM, ns
# per entry, min of 9 interleaved runs, rows a / rows b: 1.99 / 2.20 at 4 * 10^10, 2.28 /
# 2.26 at 6 * 10^10, 2.40 / 2.25 at 2^36, 2.52 / 2.15 at 10^11 and 4.74 / 3.20 at 10^12.
_B_ROWS_FROM = 1 << 36
# Rows with more than _DENSE_ROW marks are marked by one arange each, so a block takes at
# most _DENSE_ROW column steps.  In 2^23 windows cuts of 256 / 512 / 1,024 / none take 3.64
# / 3.44 / 3.60 / 3.89 ns per entry at 10^12 and 6.10 / 5.96 / 6.72 / 7.17 at 10^13; below
# about 2 * 10^6, where rows a in a 2^20 window hold up to 1,025 marks, a cut at 512 costs
# up to 1 ms a window (5.1 against 4.1 ms for the window at 1).
_DENSE_ROW = 512
_PACK = 1 << 20  # entries packed at a time into a segment's words
_ROW = 1 << 11  # least row length of `_add_residue_counts`: 512 to 8,192 cost the same
_CACHE_MAGIC = b"S2SQ2"
_CACHE_HEADER = struct.Struct("<5sQQQI")  # magic, lo, hi, payload bytes, CRC32 of the payload


@dataclass(frozen=True)
class SieveSegment:
    """Packed bitset over [lo, hi]: bit i of `words`, in little bit order, <=> lo + i in E.

    `words` is uint8, (n + 63) // 64 * 8 bytes for the n = hi - lo + 1 entries,
    with the padding bits zero.  That is the S2SQ2 cache payload (little-endian
    64-bit words), so a segment is one bit per integer when it is marked,
    pickled by the pool, written to the cache and read back.
    """

    lo: int
    hi: int
    words: np.ndarray

    @property
    def bits(self) -> np.ndarray:
        """bits[i] <=> lo + i in E: a bool array of length hi - lo + 1, unpacked on each access."""
        return self._unpack(0, None)[1]

    def _unpack(self, start: int, stop: int | None) -> tuple[int, np.ndarray]:
        """(start, bits) with [start, stop) clamped to the segment: bits[i] <=> lo + start + i in E.

        The one reader of the packed layout: only the bytes that cover [start, stop)
        are unpacked, into a fresh bool array.
        """
        start, stop, _ = slice(start, stop).indices(self.hi - self.lo + 1)
        first = start >> 3
        bits = np.unpackbits(self.words[first:(stop + 7) >> 3], bitorder="little").view(bool)
        return start, bits[start - 8 * first:max(stop, start) - 8 * first]

    def count(self, include_zero: bool = False) -> int:
        n = int(np.bitwise_count(self.words.view(np.uint64)).sum())
        if not include_zero and self.lo == 0 and self.words[0] & 1:
            n -= 1
        return n

    def values(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Ascending int64 E-elements lo + i, start <= i < stop (default: the whole segment)."""
        start, bits = self._unpack(start, stop)
        return np.flatnonzero(bits) + (self.lo + start)

    def residues(self, q: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """values(start, stop) % q, in _code_dtype(q), without forming the values.

        The bits are compressed against a memoized table of i % q read from
        (lo + start) % q, so no int64 value and no `%` is computed per element.
        The table is about as long as the range and kept, so read blocks, not
        whole segments.
        """
        if q < 1:
            raise ArgumentError("q must be >= 1")
        start, bits = self._unpack(start, stop)
        c = (self.lo + start) % q
        n = 1 << max(bits.size - 1, 0).bit_length()  # one table per (q, power of two >= size)
        table = _cyclic(q, n)
        if q <= n:
            return np.compress(bits, table[c:c + bits.size])
        codes = np.compress(bits, table[:bits.size]) + c  # offsets i < n < q, so c + i < 2q
        codes[codes >= q] -= q
        return codes.astype(_code_dtype(q), copy=False)

    def residue_counts(self, q: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """bincount(residues(q, start, stop), minlength=q) in int64, without a code per element."""
        if q < 1:
            raise ArgumentError("q must be >= 1")
        counts = np.zeros(q, dtype=np.int64)
        self._add_residue_counts(counts, start, stop)
        return counts

    def _add_residue_counts(self, counts: np.ndarray, start: int, stop: int | None) -> None:
        """Add residue_counts(len(counts), start, stop) to counts; no temporary outgrows the range.

        The bits are laid out in rows of L entries, L the least multiple of q
        >= _ROW, so entries i and i + L share a class.  The columns are summed
        in the narrowest dtype that holds the row count (uint8 up to 255 rows),
        the last partial row is added, and the L columns fold into q classes,
        added from class (lo + start) % q on.  A range shorter than L is its own
        partial row, so a q above the range (up to DENSE_CELLS_LIMIT at r = 1)
        costs no q-long temporary per block.
        """
        q = counts.size
        start, bits = self._unpack(start, stop)
        width = -(-_ROW // q) * q
        rows = bits.size // width
        tail = bits[rows * width:].view(np.uint8)
        if rows:
            full = bits[:rows * width].view(np.uint8).reshape(rows, width)
            sums = full.sum(axis=0, dtype=_code_dtype(rows + 1)).astype(np.int64)
            sums[:tail.size] += tail
        else:
            sums = tail.astype(np.int64)
        if sums.size > q:  # width columns, or a partial row of more than q < _ROW entries
            m = -(-sums.size // q)
            sums.resize(m * q, refcheck=False)  # zero-filled up to a whole row
            # not `ones(m) @ sums`: 4x faster at q = 5, but the int64 matmul loop's code
            # pages raised stats-cache's peak RSS by 0.08 MB
            sums = sums.reshape(m, q).sum(axis=0)
        c = (self.lo + start) % q  # sums[j] counts class (c + j) % q
        k = min(sums.size, q - c)
        counts[c:c + k] += sums[:k]
        counts[:sums.size - k] += sums[k:]

    def _header(self) -> bytes:
        return _CACHE_HEADER.pack(_CACHE_MAGIC, self.lo, self.hi, self.words.size,
                                  zlib.crc32(self.words))

    def to_bytes(self) -> bytes:
        return self._header() + self.words.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SieveSegment":
        """Decode `to_bytes` output, no copy; ArgumentError if truncated, corrupt or not S2SQ2."""
        if len(blob) < _CACHE_HEADER.size:
            raise ArgumentError("cache blob shorter than its header")
        magic, lo, hi, size, crc = _CACHE_HEADER.unpack_from(blob)
        if magic != _CACHE_MAGIC:
            raise ArgumentError(f"bad cache header (expected {_CACHE_MAGIC.decode()})")
        words = memoryview(blob)[_CACHE_HEADER.size:]
        n = hi - lo + 1
        if n < 1 or size != (n + 63) // 64 * 8 or len(words) != size or zlib.crc32(words) != crc:
            raise ArgumentError(f"corrupt cache blob for [{lo}, {hi}]")
        if int.from_bytes(words[-8:], "little") >> ((n - 1) % 64 + 1):  # count() would see them
            raise ArgumentError(f"cache blob for [{lo}, {hi}] sets bits past hi")
        return cls(lo, hi, np.frombuffer(words, dtype=np.uint8))


def _code_dtype(cells: int) -> type:
    """The smallest of uint8, uint16 and int64 that holds 0 .. cells - 1."""
    return np.uint8 if cells <= 1 << 8 else np.uint16 if cells <= 1 << 16 else np.int64


@lru_cache(maxsize=16)
def _cyclic(q: int, n: int) -> np.ndarray:
    """Read-only table for `residues` of at most n entries; at most 2n long for any q.

    For q <= n: i % q for 0 <= i < n + q, in _code_dtype(q), so the slice at
    c = (lo + start) % q holds the residues of lo + start .. lo + start + n - 1.
    For q > n: the int64 offsets 0 .. n - 1, to which the caller adds c and folds once.
    """
    table = np.resize(np.arange(q, dtype=_code_dtype(q)), n + q) if q <= n else np.arange(n)
    table.flags.writeable = False
    return table


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(v)) of an int64 array with 0 <= v < 2^62.

    Below 2^52 the float sqrt of v is exact after flooring (at (2^26 + 1)^2 - 1
    it already is not).  Up to 2^62 it is within one of the answer, so one
    correction step each way makes it exact; they run only when some v needs them.
    The sqrt ufunc casts v to float64 itself, so a call makes one float temporary,
    not two: in a fresh process that halved the minor page faults of a 2^26
    segment at 10^12 (4,961 to 2,547, mean of 10 heap layouts).
    """
    r = np.sqrt(v, dtype=np.float64).astype(np.int64)
    if v.size and v.max() >= 1 << 52:
        r -= r * r > v
        r += (r + 1) * (r + 1) <= v
    return r


def _window_size(hi: int) -> int:
    """Marking window for a segment ending at hi: the least power of two >= 64 sqrt(hi), in [2^20, 2^23].

    That is 2^20 up to hi = 2^28 and 2^23 from just above 2^32 (10^10
    included).  Each window makes one pass over its rows (their first column
    and count of marks, the sort by count): 0.71 sqrt(hi) rows a, or
    0.29 sqrt(hi) rows b from 2^36 (`_mark`), against about pi/8 marks per
    entry, so below the cap a row a holds at least 32 marks.  The cap holds
    the buffer at 8 MB, below the scatter's cache cliff (module docstring);
    above 2^34 it doubles the per-row work per entry, yet the first column and
    count take only 7 % of `_mark`'s time at 10^10, 9 % at 10^12 and 16 % at
    10^13 (one 2^23 window, min of 5).
    """
    # 2^k >= 64 sqrt(hi) <=> 4^k >= 4096 hi
    return min(1 << 23, max(1 << 20, 1 << ((4096 * hi - 1).bit_length() + 1) // 2))


def _mark(bits: np.ndarray, lo: int) -> None:
    """Set bits[n - lo] for every n = a^2 + b^2 (0 <= a <= b) in [lo, hi], hi = lo + len(bits) - 1.

    A row r is a value of one square root, its columns c the values of the
    other: below hi = _B_ROWS_FROM the rows a <= isqrt(hi // 2), each marking
    max(a, ceil sqrt(lo - a^2)) <= b <= isqrt(hi - a^2), and from there on the
    rows isqrt(lo // 2) <= b <= isqrt(hi), each marking
    ceil sqrt(max(lo - b^2, 0)) <= a <= min(b, isqrt(hi - b^2)).  So a row's
    first column s0 and its count of marks are known before any is made, and
    both kinds go through `_mark_rows` in blocks of _ROW_BLOCK.
    """
    hi = lo + bits.size - 1
    by_b = hi >= _B_ROWS_FROM
    first, stop = (isqrt(lo // 2), isqrt(hi) + 1) if by_b else (0, isqrt(hi // 2) + 1)
    for r0 in range(first, stop, _ROW_BLOCK):
        r = np.arange(r0, min(r0 + _ROW_BLOCK, stop), dtype=np.int64)
        r2 = r * r
        # s0 = ceil(sqrt(lo - r^2)) = isqrt(lo - 1 - r^2) + 1 where lo > r^2, else 0
        s0 = _isqrt(np.maximum(lo - 1 - r2, 0))
        s0 += r2 < lo
        cnt = _isqrt(hi - r2)  # the last column, then the count
        if by_b:
            np.minimum(cnt, r, out=cnt)
        else:
            np.maximum(s0, r, out=s0)
        del r
        cnt -= s0 - 1  # at most isqrt(hi - lo) + 1 <= 4,096; below 0 for a few of the lowest b
        _mark_rows(bits, lo, r2, s0, cnt)


def _mark_rows(bits: np.ndarray, lo: int, r2: np.ndarray, s0: np.ndarray,
               cnt: np.ndarray) -> None:
    """Set bits[r2 + c^2 - lo] for s0 <= c < s0 + cnt, per row of the block; overwrites r2 and cnt.

    A row with more than _DENSE_ROW marks is marked by one arange.  The others
    are sorted by their count, so column step j marks only the suffix of rows
    with more than j marks: one scatter and one add per mark, no liveness test,
    and at most _DENSE_ROW steps per block.
    """
    dense = cnt > _DENSE_ROW
    for i in np.flatnonzero(dense).tolist():
        c = np.arange(s0[i], s0[i] + cnt[i])
        c *= c
        c += r2[i] - lo
        bits[c] = True
    cnt[dense] = 0
    np.maximum(cnt, 0, out=cnt)
    key = cnt.astype(np.uint16)  # 16-bit keys take numpy's radix sort
    order = np.argsort(key, kind="stable")
    key = np.take(key, order)
    ends = np.searchsorted(key, np.arange(key[-1]), side="right")  # rows with <= j marks
    r2 -= lo
    r2 += s0 * s0
    t, g = np.take(r2, order), np.take(s0, order)  # r^2 + s0^2 - lo and s0, in order
    del key, order
    g += g
    # step j skips the first ends[j] rows; for the others
    # t = r^2 + s0^2 - lo + 2 s0 j, so t + j^2 = r^2 + (s0 + j)^2 - lo
    for j, s in enumerate(ends.tolist()):
        bits[j * j:][t[s:]] = True
        t[s:] += g[s:]


def sieve_segment(lo: int, hi: int, segment_budget: int = DEFAULT_SEGMENT_BITS) -> SieveSegment:
    """E-membership bitset for [lo, hi] by direct a^2+b^2 marking (a <= b)."""
    if lo > hi:
        raise ArgumentError(f"lo={lo} > hi={hi}")
    if lo < 0:
        raise ArgumentError("lo must be >= 0")
    if hi >= 1 << 62:
        raise ArgumentError("hi must be < 2^62")
    if hi - lo + 1 > segment_budget:
        raise ResourceError(f"segment of {hi - lo + 1} entries exceeds budget {segment_budget}")
    n = hi - lo + 1
    words = np.zeros((n + 63) // 64 * 8, dtype=np.uint8)
    step = _window_size(hi)  # a power of two >= 2^20, so each window starts on a byte
    window = np.zeros(min(step, n), dtype=bool)
    for start, stop in _segment_ranges(lo, hi, step):
        if start > lo:
            window.fill(False)
        bits = window[:stop - start + 1]
        _mark(bits, start)
        at = (start - lo) >> 3
        for i in range(0, bits.size, _PACK):  # packbits takes no `out`: 128 KB temporaries
            piece = np.packbits(bits[i:i + _PACK], bitorder="little")
            words[at + (i >> 3):][:piece.size] = piece
    return SieveSegment(lo, hi, words)


def _segment_ranges(lo: int, hi: int, size: int):
    """The ranges [a, b] that cut [lo, hi] into pieces of `size` entries, the last one short.

    With size = segment_budget these are the segments of a pass; with
    size = _window_size(hi) they are the marking windows of the segment [lo, hi],
    which `progressions` also reads and caches one at a time.
    """
    for start in range(lo, hi + 1, size):
        yield start, min(start + size - 1, hi)


def _cached_segment(lo: int, hi: int, segment_budget: int, cache_dir: str | None) -> SieveSegment:
    """sieve_segment(lo, hi), read from or written to the file s2sq_{lo}_{hi}.bin in cache_dir.

    cache_dir must exist: `progressions` creates it once per segment, before its windows.
    """
    if cache_dir is None:
        return sieve_segment(lo, hi, segment_budget)
    path = os.path.join(cache_dir, f"s2sq_{lo}_{hi}.bin")
    try:
        with open(path, "rb") as fh:
            seg = SieveSegment.from_bytes(fh.read())
    except (FileNotFoundError, ArgumentError):
        pass  # absent, or truncated, corrupt or old-format: recompute and overwrite
    else:
        if (seg.lo, seg.hi) == (lo, hi):
            return seg
    seg = sieve_segment(lo, hi, segment_budget)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(seg._header())
        fh.write(seg.words)
    os.replace(tmp, path)  # checkpoint per window fetched, so an interrupted run resumes there
    return seg


def _map_segments(fn, lo: int, hi: int, segment_budget: int, cache_dir: str | None,
                  threads: int):
    """Yield fn(a, b, segment_budget, cache_dir) for the segments [a, b] of [lo, hi], in order.

    With threads > 1 the calls run in a process pool with at most `threads` of
    them in flight, so besides the result its caller holds the parent keeps at
    most `threads` more, however long [lo, hi] is.
    """
    ranges = _segment_ranges(lo, hi, segment_budget)
    if threads <= 1 or hi - lo + 1 <= segment_budget:
        for a, b in ranges:
            yield fn(a, b, segment_budget, cache_dir)
        return
    # imported here: concurrent.futures loads multiprocessing, socket, subprocess and
    # logging, which a process that never pools should not pay for at import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        pending = deque(pool.submit(fn, a, b, segment_budget, cache_dir)
                        for a, b in islice(ranges, threads))
        while pending:
            out = pending.popleft().result()
            for a, b in islice(ranges, 1):
                pending.append(pool.submit(fn, a, b, segment_budget, cache_dir))
            yield out


def is_sum_of_two_squares(n: int) -> bool:
    """True iff n = a^2 + b^2, i.e. v_p(n) is even for every prime p = 3 mod 4."""
    if n < 0:
        raise ArgumentError("n must be >= 0")
    return n == 0 or all(e % 2 == 0 for p, e in factorize(n) if p % 4 == 3)


def _gap_bound(n: int) -> int:
    """2 ceil(sqrt(2 floor(sqrt n))) - 2: [n, n + _gap_bound(n)] holds an element of E (n >= 1).

    Proof: with a = floor(sqrt n) and y = n - a^2 <= 2a, take a^2 + c^2 with
    c = ceil(sqrt y) <= ceil(sqrt(2a)).  It is >= n, and (c - 1)^2 < y when
    y > 0, so c^2 - y <= 2c - 2 (when y = 0, n itself is a^2 + 0^2).  The bound
    is nondecreasing in n.
    """
    return 2 * isqrt(2 * isqrt(n) - 1)  # ceil(sqrt m) = isqrt(m - 1) + 1 for m >= 1


def _successor_window(x: int) -> int:
    """w such that (x, x + w] holds 5 elements of E: windows of up to 6 consecutive elements.

    If the (i-1)-th element past x is at most h (h = x for i = 1), the i-th is
    the first element >= h' + 1 for some h' <= h, so it is at most
    h + 1 + _gap_bound(h + 1), as n + _gap_bound(n) is nondecreasing.
    """
    h = x
    for _ in range(5):
        h += 1 + _gap_bound(h + 1)
    return h - x


def _icbrt(x: int) -> int:
    """floor(x^(1/3)) for an int x >= 0, exactly."""
    c = round(x ** (1 / 3))
    while c ** 3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def _sum_f(x: int) -> int:
    """Sum of f(n) over 2 <= n <= x (x >= 1), f the indicator of E, in O(x^(3/4)) steps.

    f is multiplicative: f(p^e) = 1, except f(p^e) = 0 when p = 3 (mod 4) and e
    is odd.  The arrays hold one int64 per v in V = {x // k : k >= 1}, in
    descending order: x // k at k - 1 for k <= r = isqrt(x), then each v < x // r
    at len(V) - v, so the v >= t form a prefix and v // d is read without a search.

    Each phase steps through the primes p <= cbrt(x) one at a time and applies
    those above cbrt(x) as one batch (`batch_sums`): for two such primes p and
    p', v // p <= x / p < p'^2, so no read of the batch sees a write of the batch.
    The batch's (v, p) pairs come from eulerprod.row_pairs, the enumerator that
    the c_h pass of `singular` also runs, in chunks of |V| / 4 pairs.
    """
    r = isqrt(x)
    small = x // r - 1
    if r + small > COUNT_VALUES_BUDGET:
        raise ResourceError(f"x = {x} needs {r + small} values x // k, "
                            f"above the budget of {COUNT_VALUES_BUDGET}")
    V = np.concatenate([x // np.arange(1, r + 1, dtype=np.int64),
                        np.arange(small, 0, -1, dtype=np.int64)])
    chunk = max(V.size // 4, 1)  # (v, p) pairs per batch chunk: its temporaries stay O(|V|)

    def n_ge(t: int) -> int:
        """Length of the prefix of V with v >= t."""
        return min(r, x // t) + max(0, small - t + 1)

    def quot(arr: np.ndarray, m: int, d: int) -> np.ndarray:
        """arr at v // d for the v of V[:m] (a copy, so it holds the values before a write)."""
        a = min(m, r // d)  # (x // k) // d = x // (kd), held at kd - 1 while kd <= r
        return np.concatenate([arr[d - 1:a * d:d], arr[V.size - V[a:m] // d]])

    def batch_sums(q: np.ndarray, arrays: tuple) -> tuple[np.ndarray, list]:
        """For the m rows v >= q[0]^2 of V: n[i] = #{p in q : p^2 <= V[i]}, and per arr
        the sum of arr at V[i] // p over those p (q ascending and nonempty).

        The (row, p) pairs are laid out row by row and taken `chunk` at a time
        (`row_pairs`), each chunk reduced by np.add.reduceat; a row that a chunk
        edge cuts adds up the sums of its two parts.
        """
        m = n_ge(int(q[0]) ** 2)
        n = np.searchsorted(q, _isqrt(V[:m]), side="right")
        sums = [np.zeros(m, dtype=np.int64) for _ in arrays]
        if arrays:
            for i0, row, j, starts in row_pairs(np.zeros(m, dtype=np.int64), n, chunk):
                p = q[j]
                kp = (row + 1) * p  # as in quot: x // (kp) is held at kp - 1 while kp <= r
                idx = np.where(kp <= r, kp - 1, V.size - V[row] // p)
                for out, arr in zip(sums, arrays):
                    out[i0:i0 + starts.size] += np.add.reduceat(arr[idx], starts)
        return n, sums

    primes = primes_up_to(r)
    looped = int(np.searchsorted(primes, _icbrt(x), side="right"))  # primes[:looped] <= cbrt(x)
    # Lucy over the odd n > 1: s1(v), s3(v) count those <= v in class 1, 3 (mod 4)
    # with no odd prime factor below the current p; after the last p only primes remain.
    # The step for p removes n = pk with k free of primes < p, and k = np (mod 4).
    s1, s3 = (V - 1) // 4, (V + 1) // 4
    odd, nodd = primes[1:], max(looped - 1, 0)  # odd[:nodd] <= cbrt(x)
    below1 = np.cumsum(odd % 4 == 1) - (odd % 4 == 1)  # odd primes < p in class 1, 3
    below3 = np.arange(odd.size) - below1
    for p, b1, b3 in zip(odd[:nodd].tolist(), below1[:nodd].tolist(), below3[:nodd].tolist()):
        m = n_ge(p * p)
        k1, k3 = quot(s1, m, p) - b1, quot(s3, m, p) - b3
        if p % 4 == 1:
            s1[:m] -= k1
            s3[:m] -= k3
        else:
            s1[:m] -= k3
            s3[:m] -= k1
    for cls, s, t in ((1, s1, s3), (3, s3, s1)):  # a p = 3 (mod 4) swaps the classes
        sel = np.flatnonzero(odd[nodd:] % 4 == cls) + nodd
        if sel.size:
            n, (k1, k3) = batch_sums(odd[sel], (s1, s3))
            s[:n.size] -= k1 - np.cumsum(below1[sel])[n - 1]
            t[:n.size] -= k3 - np.cumsum(below3[sel])[n - 1]

    # min_25 over the primes p <= r, descending: from P_f(v) = #{primes <= v with f = 1},
    # h(v) becomes the sum of f(n) over the 2 <= n <= v that are prime or whose least
    # prime factor is >= p.  n = p^e k (k > 1, free of primes <= p) or n = p^(e+1) adds
    # f(p^e) (h(v // p^e) - P_f(p)) + f(p^(e+1)) for each e >= 1 with p^(e+1) <= v.
    # Above cbrt(x) only e = 1 occurs, and that batch comes first, so it reads the initial h.
    f1 = (primes == 2) | (primes % 4 == 1)
    pfs = np.cumsum(f1)
    h = s1 + (V >= 2)
    if looped < primes.size:
        n, _ = batch_sums(primes[looped:], ())
        sel = np.flatnonzero(f1[looped:]) + looped
        if sel.size:
            nf, (hp,) = batch_sums(primes[sel], (h,))
            h[:nf.size] += hp - np.cumsum(pfs[sel])[nf - 1]
        h[:n.size] += n  # f(p^2) = 1 for each batch prime p with p^2 <= v
    for p, fp, pf in zip(primes[:looped][::-1].tolist(), f1[:looped][::-1].tolist(),
                         pfs[:looped][::-1].tolist()):
        m = n_ge(p * p)
        delta = np.zeros(m, dtype=np.int64)
        pe, e = p, 1
        while me := n_ge(pe * p):
            if fp or e % 2 == 0:
                delta[:me] += quot(h, me, pe) - pf
            if fp or e % 2 == 1:
                delta[:me] += 1
            pe, e = pe * p, e + 1
        h[:m] += delta  # after every read of h for this p
    return int(h[0])


def count_up_to(x: int, include_zero: bool = False, threads: int = 1) -> int:
    """#{1 <= n <= x : n in E} (plus one for n=0 when include_zero), without sieving.

    A Lucy + min_25 sum of the indicator of E over V = {x // k}: O(x^(3/4))
    time and O(sqrt(x)) memory in the calling process.  `threads` is accepted,
    for callers that pass it, and unused.
    """
    if x < 0:
        raise ArgumentError("x must be >= 0")
    if x >= 1 << 62:
        raise ArgumentError("x must be < 2^62")
    total = 1 if include_zero else 0
    if x == 0:
        return total
    return total + 1 + _sum_f(x)  # 1 = 0^2 + 1^2
