"""Sieve correctness: exhaustive membership, segment independence, caching, pool."""

import struct
import tracemalloc
import zlib
import concurrent.futures
from concurrent.futures import Future
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosquares import eulerprod, progressions, refdata, sieve
from twosquares.errors import ArgumentError, ResourceError

def brute_two_squares_set(limit: int) -> set:
    """{a^2 + b^2 <= limit}, by exhaustive double loop (independent oracle)."""
    out = set()
    a = 0
    while a * a <= limit:
        b = a
        while a * a + b * b <= limit:
            out.add(a * a + b * b)
            b += 1
        a += 1
    return out


def reference_segment(lo: int, hi: int) -> np.ndarray:
    """Bits of [lo, hi], one Python iteration per a <= sqrt(hi/2).

    The reference that the vectorized marking in `sieve_segment` must match bit for bit.
    """
    bits = np.zeros(hi - lo + 1, dtype=bool)
    for a in range(isqrt(hi // 2) + 1):
        a2 = a * a
        rem_lo = lo - a2
        bmin = a
        if rem_lo > 0:
            r = isqrt(rem_lo)
            if r * r < rem_lo:
                r += 1
            bmin = max(bmin, r)
        bmax = isqrt(hi - a2)
        if bmin > bmax:
            continue
        b = np.arange(bmin, bmax + 1, dtype=np.int64)
        bits[a2 + b * b - lo] = True
    return bits


def reference_sum_f(x: int) -> int:
    """Sum of f(n) over 2 <= n <= x (f the indicator of E), one numpy step per prime p <= sqrt(x).

    The Lucy + min_25 recurrence that `sieve._sum_f` must match: the same
    layout of V = {x // k}, but every prime takes its own step in both phases,
    so no reasoning about which reads see which writes is shared with it.
    """
    r = isqrt(x)
    small = x // r - 1
    V = np.concatenate([x // np.arange(1, r + 1, dtype=np.int64),
                        np.arange(small, 0, -1, dtype=np.int64)])

    def n_ge(t):
        return min(r, x // t) + max(0, small - t + 1)

    def quot(arr, m, d):
        a = min(m, r // d)
        return np.concatenate([arr[d - 1:a * d:d], arr[V.size - V[a:m] // d]])

    primes = eulerprod.primes_up_to(r)
    s1, s3 = (V - 1) // 4, (V + 1) // 4
    below1 = below3 = 0
    for p in primes[1:].tolist():
        m = n_ge(p * p)
        k1, k3 = quot(s1, m, p) - below1, quot(s3, m, p) - below3
        if p % 4 == 1:
            s1[:m] -= k1
            s3[:m] -= k3
            below1 += 1
        else:
            s1[:m] -= k3
            s3[:m] -= k1
            below3 += 1
    f1 = (primes == 2) | (primes % 4 == 1)
    h = s1 + (V >= 2)
    for p, fp, pf in zip(primes[::-1].tolist(), f1[::-1].tolist(), np.cumsum(f1)[::-1].tolist()):
        m = n_ge(p * p)
        delta = np.zeros(m, dtype=np.int64)
        pe, e = p, 1
        while me := n_ge(pe * p):
            if fp or e % 2 == 0:
                delta[:me] += quot(h, me, pe) - pf
            if fp or e % 2 == 1:
                delta[:me] += 1
            pe, e = pe * p, e + 1
        h[:m] += delta
    return int(h[0])


def valuation_segment(lo: int, hi: int) -> np.ndarray:
    """Bits of [lo, hi] by the valuation rule; shares no code with the sieve's marking.

    n >= 1 is in E iff v_p(n) is even for every prime p = 3 (mod 4).  An even
    power of such a p is 1 (mod 4), so dividing it out leaves the class of the
    odd part mod 4 alone; once every such p <= sqrt(hi) has an even valuation,
    at most one prime factor above sqrt(hi) is left, to the first power.  So
    n is in E iff no p = 3 (mod 4) up to sqrt(hi) divides n to an odd power and
    the odd part of n is 1 (mod 4).  Adding +1 at the multiples of p^k for odd
    k and -1 for even k leaves 1 at n for each such p with v_p(n) odd, so the
    sum counts those p.  One strided pass per power p^k <= hi; powers above the
    range length hit at most one entry, so those are added together per k.
    """
    n = hi - lo + 1
    odd = np.zeros(n, dtype=np.int8)  # how many p = 3 (mod 4), p <= sqrt(hi), have v_p odd
    base = eulerprod.primes_3mod4(isqrt(hi))
    power, sign = base.copy(), 1
    while power.size:
        for q in power[power < n].tolist():
            odd[-lo % q::q] += sign
        at = -lo % power[power >= n]
        np.add.at(odd, at[at < n], sign)
        keep = power <= hi // base
        base, power, sign = base[keep], power[keep] * base[keep], -sign
    v = np.arange(lo, hi + 1, dtype=np.int64)
    v[v == 0] = 1  # 0 = 0^2 + 0^2: its valuations are not finite
    bits = (odd == 0) & (v // (v & -v) % 4 == 1)
    bits[:lo == 0] = True
    return bits


BRUTE_1E5 = None


def _brute():
    global BRUTE_1E5
    if BRUTE_1E5 is None:
        BRUTE_1E5 = brute_two_squares_set(10**5)
    return BRUTE_1E5


def test_membership_exhaustive_1e5():
    seg = sieve.sieve_segment(0, 10**5)
    vals = set(seg.values().tolist())
    assert vals == _brute()


@given(st.integers(min_value=0, max_value=10**5))
def test_is_sum_of_two_squares_matches_brute(n):
    assert sieve.is_sum_of_two_squares(n) == (n in _brute())


@given(st.integers(min_value=0, max_value=5 * 10**4),
       st.integers(min_value=1, max_value=5 * 10**4))
@settings(max_examples=25, deadline=None)
def test_segment_independence(lo, width):
    hi = lo + width
    big = sieve.sieve_segment(0, 10**5)
    small = sieve.sieve_segment(lo, hi)
    big_vals = big.values()
    expect = big_vals[(big_vals >= lo) & (big_vals <= hi)]
    assert np.array_equal(small.values(), expect)


@pytest.mark.parametrize("start, stop", [
    (0, None), (0, 1), (5, 6), (0, 4096), (17, 1000), (4000, None), (4097, None), (4096, 9000),
])
def test_values_bounds_match_slice_of_full_values(start, stop):
    seg = sieve.sieve_segment(10**9, 10**9 + 4096)
    full = seg.values()
    end = seg.hi - seg.lo + 1 if stop is None else stop
    expect = full[(full >= seg.lo + start) & (full < seg.lo + end)]
    got = seg.values(start, stop)
    assert got.dtype == np.int64 and np.array_equal(got, expect)


def _assert_gaps_within_bound(vals, lo):
    """For every n in [lo, vals[-1]], the next element of E (from vals) is within _gap_bound(n)."""
    ns = np.arange(lo, vals[-1] + 1)
    dist = vals[np.searchsorted(vals, ns)] - ns
    assert (dist <= [sieve._gap_bound(n) for n in ns.tolist()]).all()


def test_gap_bound_holds_exhaustively_to_2e5():
    vals = sieve.sieve_segment(1, 2 * 10**5 + 10**3).values()
    _assert_gaps_within_bound(vals, 1)
    # the window holds 5 elements past x, which every statistic with r <= 6 needs
    for x in range(1, 2 * 10**4):
        w = sieve._successor_window(x)
        assert np.searchsorted(vals, x + w, "right") - np.searchsorted(vals, x, "right") >= 5


@pytest.mark.parametrize("lo", [10**9, 10**10, 10**11, 10**12])
def test_gap_bound_holds_in_high_windows(lo):
    vals = sieve.sieve_segment(lo, lo + 2**16 - 1).values()
    _assert_gaps_within_bound(vals, lo)


def test_gap_bound_witness_near_2_61():
    # one sieve window there marks 2^30 rows (about 40 s), so check the proof's
    # witness a^2 + ceil(sqrt(n - a^2))^2 in exact integers instead
    top = (1 << 62) - 1
    ns = [*range(2**61 - 500, 2**61 + 500), *range(top - 500, top + 1)]
    a0 = isqrt(2**61) + 1  # n = a0^2 + (c - 1)^2 + 1 is the farthest from a0^2 + c^2
    ns += [a0 * a0 + (c - 1) ** 2 + 1 for c in range(1, isqrt(2 * a0) + 2)]
    for n in ns:
        a = isqrt(n)
        c = isqrt(n - a * a - 1) + 1 if n > a * a else 0
        assert 0 <= a * a + c * c - n <= sieve._gap_bound(n)
    assert sieve._successor_window(top - 10**6) == 5 * 131071


def test_count_monotone_and_known_values():
    counts = [sieve.count_up_to(x) for x in (10, 100, 1000, 10**4, 10**5)]
    assert counts == sorted(counts)
    assert counts[0] == 7
    assert sieve.count_up_to(10**6) == 216341
    # 0 = 0^2 + 0^2 is a member but excluded from default counts
    assert sieve.count_up_to(10**6, include_zero=True) == 216342


def test_count_matches_membership_test_to_2000():
    members = np.cumsum([sieve.is_sum_of_two_squares(n) for n in range(2001)])
    for x in range(2001):
        assert sieve.count_up_to(x, include_zero=True) == members[x]
        assert sieve.count_up_to(x) == members[x] - 1


def _sieve_counts(xs):
    """{x: #E cap [1, x]} for every x in xs, from one sieve pass over [1, max(xs)]."""
    out, total, step = {}, 0, sieve.DEFAULT_SEGMENT_BITS
    for lo in range(1, max(xs) + 1, step):
        seg = sieve.sieve_segment(lo, min(lo + step - 1, max(xs)))
        for x in xs:
            if seg.lo <= x <= seg.hi:
                out[x] = total + seg.values(0, x - lo + 1).size
        total += seg.count()
    return out


def _sieve_total(x, **sieve_kw):
    """#E cap [1, x] from the sieve's segments, [1, x] split as segment_budget says."""
    return progressions.count_by_residue(x, 5, **sieve_kw).total()


def test_count_at_prime_powers_matches_sieve():
    # x next to p^2 and p^3 moves isqrt(x), the split of the values x // k and
    # the exponents e with p^(e+1) <= x; 10009 = 1 and 10007 = 3 (mod 4)
    xs = [p**3 for p in (2, 3, 5, 7, 11, 13)]
    xs += [p * p + d for p in (2, 3, 5, 7, 11, 13, 10007, 10009) for d in (-1, 0, 1, p, 2 * p)]
    expect = _sieve_counts(xs)
    assert {x: sieve.count_up_to(x) for x in xs} == expect


@given(st.integers(min_value=1, max_value=10**7))
@settings(max_examples=50, deadline=None)
def test_count_matches_sieve_total(x):
    assert sieve.count_up_to(x) == _sieve_total(x)


def test_sum_f_matches_per_prime_recurrence_next_to_cubes():
    # x = c^3 - 1, c^3, c^3 + 1 moves floor(cbrt(x)), the last prime that takes its own step
    for c in range(1, 301):
        for x in (c**3 - 1, c**3, c**3 + 1):
            if x >= 1:
                assert sieve._sum_f(x) == reference_sum_f(x), x


def test_sum_f_matches_per_prime_recurrence_next_to_prime_cubes():
    # at p^3 - 1 the prime p is the least of the batch, at p^3 + 1 the last to take its
    # own step; every p <= 500 and 12 seeded p up to 1999 (all 303 p <= 2000 took 173 s
    # on a 2-vCPU VM)
    primes = eulerprod.primes_up_to(2000)
    rng = np.random.default_rng(23)
    upper = primes[primes > 500]
    for p in [*primes[primes <= 500].tolist(), *rng.choice(upper[:-1], 11, replace=False).tolist(),
              int(upper[-1])]:
        for x in (p**3 - 1, p**3 + 1):
            assert sieve._sum_f(x) == reference_sum_f(x), x


def test_sum_f_matches_per_prime_recurrence_at_seeded_x():
    # log-uniform from 10^4, so every height up to 10^10 is met
    rng = np.random.default_rng(23)
    for x in np.floor(10 ** rng.uniform(4, 10, size=30)).astype(np.int64).tolist():
        assert sieve._sum_f(x) == reference_sum_f(x), x


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_sum_f_matches_per_prime_recurrence_in_small_pair_chunks(monkeypatch, chunk):
    # chunks of 1, 2 and 7 (v, p) pairs cut rows and leave most rows longer than a chunk
    real = sieve.row_pairs
    monkeypatch.setattr(sieve, "row_pairs", lambda lo, n, _: real(lo, n, chunk))
    for x in (10**4, 29**3 + 1, 123457, 10**6 + 3):
        assert sieve._sum_f(x) == reference_sum_f(x), x


def test_count_memory_is_proportional_to_the_values():
    # the batches of primes above cbrt(x) run in chunks: all of a batch's (v, p) pairs
    # at once (up to 1.3 |V| of them at 10^10) took 98 bytes per value, the chunks
    # take 65 and one step per prime took 66
    x = 10**10
    r = isqrt(x)
    tracemalloc.start()
    try:
        sieve.count_up_to(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * (r + x // r - 1), peak


def test_count_matches_recorded_table2():
    for x in (10**9, 10**10):
        assert sieve.count_up_to(x, include_zero=True) == refdata.TABLE2[x][0]


def test_count_matches_sieve_pass_at_1e9(stats_1e9):
    singles, _ = stats_1e9
    assert singles.total() == sieve.count_up_to(10**9)


def test_small_segments_agree_with_one_big_segment():
    one = sieve.sieve_segment(1, 10**6).count()
    many = sum(sieve.sieve_segment(lo, min(lo + 2**17 - 1, 10**6)).count()
               for lo in range(1, 10**6 + 1, 2**17))
    assert one == many == 216341


def test_threads_deterministic():
    a = _sieve_total(10**6, threads=1)
    b = _sieve_total(10**6, threads=4)
    assert a == b


def _rows_b_around_block_multiples(width: int) -> list:
    """For d = -1, 0, 1 the least m >= 2^19 for which [m^2 - width + 1, m^2], marked by
    rows b, has a multiple of _ROW_BLOCK plus d rows (the count grows by 0 or 1 per m)."""
    out, m = [], 2**19
    for d in (-1, 0, 1):
        while (m - isqrt((m * m - width + 1) // 2) + 1 - d) % sieve._ROW_BLOCK:
            m += 1
        out.append(m)
    return out


@pytest.mark.parametrize("lo, hi", [
    (0, 3 * 2**20 + 17),                      # four marking windows from 0, the last short
    (2**20 - 100, 2**22 + 50),                # window edges off the powers of two
    (10**10 - 3000, 10**10 + 3000),           # straddles 10^5 squared
    (10**10, 10**10 + 2**21 + 300),           # two 2^21 windows at height 1e10
    (10**12 - 2000, 10**12 + 2000),           # straddles 10^6 squared
    (10**12 + 2 * 10**6 - 1000, 10**12 + 2 * 10**6 + 1000),  # straddles (10^6 + 1)^2
    *[(k * k + d, k * k + d) for k in (1, 2, 1000, 46341) for d in (-1, 0, 1)],
    *[(k * k - 7, k * k + 7) for k in (3, 317, 2**16, 10**5 + 3)],
    # amax = isqrt(hi // 2) one below, on and one above a _ROW_BLOCK multiple: the last
    # block is full, or holds one or two rows, and row amax marks hi itself (hi = 2 amax^2)
    *[(2 * m * m - 2**12, 2 * m * m) for k in (1, 2)
      for m in (k * sieve._ROW_BLOCK - 1, k * sieve._ROW_BLOCK, k * sieve._ROW_BLOCK + 1)],
    (10**6, 10**6 + 2**20 - 1),               # row 0 holds 432 marks, more than a byte counts
    (10**12 - 2**16, 10**12 - 1),             # just below a square: most rows hold no mark
    (2**40 - 2**12, 2**40 - 1),
    # rows b (from _B_ROWS_FROM): their first row isqrt(lo // 2) = m, or their last row isqrt(hi) = m
    # (which marks hi = m^2 itself), one below, on and one above a _ROW_BLOCK multiple
    *[(2 * m * m, 2 * m * m + 2**12 - 1) for k in (24,)
      for m in (k * sieve._ROW_BLOCK - 1, k * sieve._ROW_BLOCK, k * sieve._ROW_BLOCK + 1)],
    *[(m * m - 2**12 + 1, m * m) for k in (33,)
      for m in (k * sieve._ROW_BLOCK - 1, k * sieve._ROW_BLOCK, k * sieve._ROW_BLOCK + 1)],
    # as many rows b as a _ROW_BLOCK multiple, one less or one more: the last block is
    # full, or one row short, or holds one row
    *[(m * m - 2**12 + 1, m * m) for m in _rows_b_around_block_multiples(2**12)],
    # row 0 (lo = 0) marks b = 0 .. isqrt(hi): _DENSE_ROW marks, which go through the
    # column steps, or one more, which are one arange
    *[(0, (sieve._DENSE_ROW - 1 + d) ** 2) for d in (0, 1)],
    # the same for row b (lo = b^2 >= _B_ROWS_FROM), a = 0 .. 511 or 512 (_DENSE_ROW is 512):
    # b^2 + 511^2 and b^2 + 512^2 are prime, so row b's last mark alone sets hi
    *[(b * b, b * b + c * c) for b, c in ((2**19 + 2, 511), (2**19 + 19, 512))],
    # the switch to rows b at _B_ROWS_FROM, and the same three cases at 2^38, where it was
    # before (rows b mark all three there now)
    *[case for edge in (sieve._B_ROWS_FROM, 2**38) for case in (
        (edge - 2**12, edge - 1),             # the last window marked by rows a
        (edge - 2**12 + 1, edge),             # the first marked by rows b
        (edge - 2**12, edge + 2**12),         # across the switch, in one window
    )],
])
def test_segment_matches_reference_loop(lo, hi):
    assert np.array_equal(sieve.sieve_segment(lo, hi).bits, reference_segment(lo, hi))


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4096))
@settings(max_examples=40, deadline=None)
def test_narrow_windows_match_reference_loop(lo, width):
    # rows with no mark, one mark or many, in any mix, ordered by their count of marks
    hi = lo + width - 1
    assert np.array_equal(sieve.sieve_segment(lo, hi).bits, reference_segment(lo, hi))


@given(st.integers(min_value=sieve._B_ROWS_FROM, max_value=2**44),
       st.integers(min_value=1, max_value=4096))
@settings(max_examples=40, deadline=None)
def test_narrow_windows_marked_by_rows_b_match_valuation_oracle(lo, width):
    # from _B_ROWS_FROM on, windows are marked by rows b; the reference loop would take up
    # to 3 million Python steps here
    hi = lo + width - 1
    assert np.array_equal(sieve.sieve_segment(lo, hi).bits, valuation_segment(lo, hi))


def test_windows_of_both_row_kinds_in_one_segment(monkeypatch):
    # windows of 2^10 entries: the four below _B_ROWS_FROM are marked by rows a, the four
    # from it by rows b
    monkeypatch.setattr(sieve, "_window_size", lambda hi: 1 << 10)
    edge = sieve._B_ROWS_FROM
    lo, hi = edge - 2**12, edge + 2**12 - 1
    assert np.array_equal(sieve.sieve_segment(lo, hi).bits, reference_segment(lo, hi))


def test_windows_across_2_38_in_one_segment(monkeypatch):
    # the same eight windows across 2^38, the earlier switch height: rows b mark all of them
    monkeypatch.setattr(sieve, "_window_size", lambda hi: 1 << 10)
    lo, hi = 2**38 - 2**12, 2**38 + 2**12 - 1
    assert np.array_equal(sieve.sieve_segment(lo, hi).bits, reference_segment(lo, hi))


def test_isqrt_matches_math_isqrt_on_both_sides_of_2_26():
    # below 2^52 the float sqrt is used as it is; (2^26 + 1)^2 - 1 is the first k^2 - 1 it rounds up
    ks = [*range(0, 3000), *range(2**26 - 3000, 2**26 + 3000), *range(2**31 - 3000, 2**31)]
    for k in ks:
        v = [n for n in (k * k - 1, k * k, k * k + 2 * k) if 0 <= n < 1 << 62]
        assert sieve._isqrt(np.array(v, dtype=np.int64)).tolist() == [isqrt(n) for n in v], k
    v = np.array([k * k + d for k in ks for d in (-1, 0, 2 * k) if 0 <= k * k + d < 1 << 62])
    assert sieve._isqrt(v).tolist() == [isqrt(n) for n in v.tolist()]


def test_marking_windows_match_reference_words():
    # windows from 1 to 10^13, where the marking takes _isqrt's float path (below 2^52)
    # or its corrections; the packed words past the window stay zero
    for lo, n in [(1, 2**16), (2**20 - 5, 2**20 + 9), (10**10 - 2**18, 2**19 + 3),
                  (10**12 - 2**21, 2**22), (10**13 - 2**11, 2**12 + 1)]:
        seg = sieve.sieve_segment(lo, lo + n - 1)
        want = np.packbits(reference_segment(lo, lo + n - 1), bitorder="little")
        assert np.array_equal(seg.words[:want.size], want), lo
        assert not seg.words[want.size:].any()


@pytest.mark.parametrize("lo, hi", [
    (0, 10**5), (10**9 - 5000, 10**9 + 5000), (2**32 - 3000, 2**32 + 3000),
])
def test_valuation_oracle_matches_reference_loop(lo, hi):
    assert np.array_equal(valuation_segment(lo, hi), reference_segment(lo, hi))


@pytest.mark.parametrize("lo, start, stop", [
    (2**40 + 3, 0, 2**20),
    (10**13, 0, 2**20),
    (10**13, 2**23 - 2**19, 2**23 + 2**19),  # across the edge of the first 2^23 window
    (10**13, 2**24 - 2**19, 2**24 + 2**19),  # across the edge of the second
])
def test_high_segments_match_valuation_oracle(lo, start, stop):
    # the reference loop takes one Python step per row: 2.2 million rows at 1e13
    seg = sieve.sieve_segment(lo, lo + stop - 1)
    assert np.array_equal(seg.bits[start:], valuation_segment(lo + start, lo + stop - 1))


@pytest.mark.parametrize("hi", [1, 2**28, 2**28 + 1, 10**10, 2**34, 2**34 + 1, 10**13, 2**62 - 1])
def test_window_size_is_a_power_of_two_of_at_least_64_sqrt_hi_up_to_2_23(hi):
    w = sieve._window_size(hi)
    assert w & (w - 1) == 0 and 2**20 <= w <= 2**23
    assert w == 2**23 or w * w >= 4096 * hi  # w >= 64 sqrt(hi), exactly
    assert w == 2**20 or w * w < 4 * 4096 * hi  # and the least such power of two


@pytest.mark.parametrize("lo", [10**10, 10**12, 2**40 + 3, 10**13])
def test_marking_memory_does_not_depend_on_height(lo):
    # the window's bools, the words, and one row block's state: all rows at
    # once took 22 MB more at 1e12 and 50 MB at 1e13
    n = 2**22
    tracemalloc.start()
    try:
        sieve.sieve_segment(lo, lo + n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n + n // 8 + 2**21, peak


PACKED_SEGMENTS = [
    (0, 0), (0, 99), (5, 5 + 103), (10**9, 10**9 + 63), (10**9, 10**9 + 64),
    (10**9 + 3, 10**9 + 4099), (0, 3 * 2**20 + 17),  # the last: four windows, the last short
]


def _golden_blob(lo, hi):
    """The S2SQ2 bytes of [lo, hi] built from the reference loop: header, then packed bits."""
    words = np.packbits(reference_segment(lo, hi), bitorder="little").tobytes()
    words += b"\0" * (-len(words) % 8)
    return struct.pack("<5sQQQI", b"S2SQ2", lo, hi, len(words), zlib.crc32(words)) + words


@pytest.mark.parametrize("lo, hi", PACKED_SEGMENTS)
def test_packed_segment_matches_reference(lo, hi):
    # lengths 1, 100, 104, 64, 65, 4097 and 3 * 2^20 + 18: not 0 mod 8, 0 mod 8 only, 0 mod 64
    ref = reference_segment(lo, hi)
    seg = sieve.sieve_segment(lo, hi)
    blob = seg.to_bytes()
    assert blob == _golden_blob(lo, hi)  # cache files written before stay valid hits
    decoded = sieve.SieveSegment.from_bytes(blob)
    n = hi - lo + 1
    windows = [w for w in (2**20, 2**21, 3 * 2**20) if w < n]
    edges = {0, 1, 7, 8, 9, 63, 64, 65, n - 8, n - 1, n, *windows}
    ranges = {(max(a, 0), min(b, n)) for e in edges for a, b in
              ((e - 9, e + 9), (e - 1, e + 1), (e, e + 8), (e - 65, e), (0, e), (e, n))}
    for s in (seg, decoded):
        assert s.count(include_zero=True) == int(ref.sum())
        assert s.count() == int(ref.sum()) - (lo == 0)
        assert np.array_equal(s.bits, ref)
        assert np.array_equal(s.values(), np.flatnonzero(ref) + lo)
        for start, stop in ranges:  # across byte, word and window edges
            want = np.flatnonzero(ref[start:stop]) + lo + start
            assert np.array_equal(s.values(start, stop), want), (start, stop)
            for q in RESIDUE_MODULI:
                got = s.residues(q, start, stop)
                assert got.dtype == sieve._code_dtype(q), (q, start, stop)
                assert np.array_equal(got, want % q), (q, start, stop)


# 257 needs uint16 codes; 131101 is above progressions.BLOCK, so a block's codes are folded
RESIDUE_MODULI = (5, 13, 257, 131101)


@pytest.mark.parametrize("q", RESIDUE_MODULI)
def test_residues_from_every_class_match_values_mod_q(q):
    # lo + start runs through every class mod q (for 131101: the classes next to 0
    # and to q - 1, where folding starts); stops off byte and word edges
    base = 10**9 - 10**9 % q
    classes = range(q) if q < 1000 else [*range(0, 70), *range(q - 70, q)]
    for c in classes:
        seg = sieve.sieve_segment(base + c, base + c + 200)
        for start, stop in ((0, None), (0, 63), (1, 65), (7, 9), (8, 200), (64, 129)):
            want = seg.values(start, stop) % q
            assert np.array_equal(seg.residues(q, start, stop), want), (c, start, stop)


def test_residue_table_stays_within_twice_the_block():
    # `residues` takes any q >= 1; at q = 5 * 10^7 a table of q + BLOCK entries
    # would take 200 MB
    n = progressions.BLOCK
    for q in (5, 257, 131101, 49999921):
        table = sieve._cyclic(q, n)
        assert table.size <= 2 * n and not table.flags.writeable
        assert np.array_equal(table[:n], np.arange(n) % q)
    with pytest.raises(ArgumentError):
        sieve.sieve_segment(0, 99).residues(0)


# 1 and 2 leave rows of exactly 2^11 entries; 2049 and 131101 rows of q entries, and
# 131101 has at most two of them in a segment of the property below
RESIDUE_COUNT_MODULI = (1, 2, 5, 13, 257, 2049, 131101)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_residue_counts_match_bincount_of_residues(data):
    q = data.draw(st.sampled_from(RESIDUE_COUNT_MODULI), label="q")
    lo = data.draw(st.integers(min_value=0, max_value=2**40), label="lo")
    n = data.draw(st.integers(min_value=1, max_value=3 * 2**17), label="n")
    seg = sieve.sieve_segment(lo, lo + n - 1)
    row = -(-sieve._ROW // q) * q
    start = data.draw(st.integers(min_value=0, max_value=n), label="start")
    kind = data.draw(st.sampled_from(("empty", "one", "on", "off", "to end")), label="kind")
    rows = data.draw(st.integers(min_value=0, max_value=(n - start) // row), label="rows")
    stop = {"empty": start, "one": start + 1, "on": start + rows * row,
            "off": start + rows * row + data.draw(st.integers(1, row - 1), label="extra"),
            "to end": None}[kind]
    got = seg.residue_counts(q, start, stop)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.bincount(seg.residues(q, start, stop), minlength=q))


@pytest.mark.parametrize("words", ["sieved", "all set"])
def test_residue_counts_over_more_than_255_rows(words):
    # 2^20 entries in rows of 2,050 (q = 5) are 511 rows, so the columns are summed in
    # uint16; with every bit set each column sums to 511 or 512, past a uint8
    lo, n, q = 10**9 + 3, 2**20, 5
    seg = sieve.sieve_segment(lo, lo + n - 1)
    if words == "all set":
        seg = sieve.SieveSegment(lo, lo + n - 1, np.full_like(seg.words, 0xFF))
    for start, stop in ((0, None), (1, n - 1), (2050, 2050 * 300)):
        want = np.bincount(seg.residues(q, start, stop), minlength=q)
        assert np.array_equal(seg.residue_counts(q, start, stop), want), (start, stop)
    if words == "all set":
        want = [n // q + ((a - lo) % q < n % q) for a in range(q)]  # lo .. lo + n - 1
        assert seg.residue_counts(q).tolist() == want


def test_residue_counts_reject_q_below_1():
    seg = sieve.sieve_segment(0, 99)
    for q in (0, -5):
        with pytest.raises(ArgumentError):
            seg.residue_counts(q)


def test_set_padding_bit_is_rejected():
    blob = bytearray(sieve.sieve_segment(0, 99).to_bytes())  # 100 entries in two 64-bit words
    blob[-1] |= 0x80  # bit 127, past the last entry
    words = bytes(blob[33:])  # after the 33-byte header, whose last 4 bytes are the CRC
    blob[29:33] = struct.pack("<I", zlib.crc32(words))  # a consistent CRC: not a flipped byte
    with pytest.raises(ArgumentError):
        sieve.SieveSegment.from_bytes(bytes(blob))


def test_pool_keeps_at_most_threads_segments_in_flight(monkeypatch):
    uncollected, peak = set(), [0]

    class Tracked(Future):
        def result(self, timeout=None):
            uncollected.discard(self)
            return super().result(timeout)

    class InlinePool:  # runs each call at submit, counts results not yet collected
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Tracked()
            fut.set_result(fn(*args))
            uncollected.add(fut)
            peak[0] = max(peak[0], len(uncollected))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    segs = list(sieve._map_segments(sieve._cached_segment, 1, 10**5, 2**12, None, threads=3))
    assert len(segs) == 25 and peak[0] == 3
    assert [s.lo for s in segs] == list(range(1, 10**5 + 1, 2**12))


def _brute_sorted(limit):
    return sorted(n for n in _brute() if 1 <= n <= limit)


def test_pool_count_matches_serial_and_brute():
    x, budget = 10**5, 2**14  # seven segments
    serial = _sieve_total(x, segment_budget=budget)
    pooled = _sieve_total(x, segment_budget=budget, threads=2)
    assert pooled == serial == len(_brute_sorted(x))


def test_pool_pair_stats_match_serial_and_brute():
    x, q, budget = 60000, 5, 2**14  # four segments below x
    vals = _brute_sorted(10**5)
    singles = np.zeros(q, dtype=np.int64)
    pairs = np.zeros((q, q), dtype=np.int64)
    for left, right in zip(vals, vals[1:]):
        if left > x:
            break
        singles[left % q] += 1
        pairs[left % q, right % q] += 1
    for threads in (1, 2):
        s, p = progressions.residue_pair_stats(x, q, segment_budget=budget, threads=threads)
        assert np.array_equal(s.counts, singles)
        assert np.array_equal(p.counts, pairs)


def test_cache_roundtrip(tmp_path):
    d = str(tmp_path)
    a = _sieve_total(10**6, cache_dir=d)
    files = list(tmp_path.iterdir())
    assert files, "cache files should be written"
    b = _sieve_total(10**6, cache_dir=d)  # served from cache
    assert a == b == 216341


def test_corrupt_cache_files_are_recomputed(tmp_path):
    x, budget = 10**5, 2**15  # four segments, four cache files
    fresh = _sieve_total(x, segment_budget=budget)
    _sieve_total(x, segment_budget=budget, cache_dir=str(tmp_path))
    files = sorted(tmp_path.glob("s2sq_*.bin"))
    assert len(files) == 4
    truncated, flipped, old_format = files[:3]
    blob = truncated.read_bytes()
    truncated.write_bytes(blob[: len(blob) // 2])
    blob = bytearray(flipped.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    flipped.write_bytes(bytes(blob))
    blob = old_format.read_bytes()
    old_format.write_bytes(b"S2SQ1" + blob[5:])
    for f in (truncated, flipped, old_format):
        with pytest.raises(ArgumentError):
            sieve.SieveSegment.from_bytes(f.read_bytes())
    assert _sieve_total(x, segment_budget=budget, cache_dir=str(tmp_path)) == fresh
    for f in (truncated, flipped, old_format):  # rewritten intact
        sieve.SieveSegment.from_bytes(f.read_bytes())


def test_corrupt_window_file_is_recomputed_not_counted(tmp_path, monkeypatch):
    # windows of 2^10 entries: one cache file per window, named by its range
    monkeypatch.setattr(sieve, "_window_size", lambda hi: 1 << 10)
    x, d = 10**5, str(tmp_path)
    fresh = progressions.residue_pair_stats(x, 5)[1].counts
    assert np.array_equal(progressions.residue_pair_stats(x, 5, cache_dir=d)[1].counts, fresh)
    windows = sorted((tuple(map(int, f.stem.split("_")[1:])), f)
                     for f in tmp_path.glob("s2sq_*.bin"))
    assert len(windows) == 98  # [1, x] and its successors past x, 2^10 entries at a time
    for (a, b), f in windows:  # each is the window's segment as sieve_segment gives it
        assert f.read_bytes() == sieve.sieve_segment(a, b).to_bytes()
    middle = windows[len(windows) // 2][1]
    blob = bytearray(middle.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    middle.write_bytes(bytes(blob))
    with pytest.raises(ArgumentError):
        sieve.SieveSegment.from_bytes(middle.read_bytes())
    assert np.array_equal(progressions.residue_pair_stats(x, 5, cache_dir=d)[1].counts, fresh)
    sieve.SieveSegment.from_bytes(middle.read_bytes())  # rewritten intact


def test_pair_stats_peak_memory_is_below_a_third_of_a_byte_per_integer(tmp_path):
    # the parent's own peak, numpy arrays included, on the pass that sieves and
    # writes the cache and on the pass that reads it; one byte per entry was 1.5 x
    x = 2**24
    for cached in (False, True):
        assert bool(list(tmp_path.iterdir())) == cached
        tracemalloc.start()
        try:
            progressions.residue_pair_stats(x, 5, segment_budget=2**24, cache_dir=str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x / 3, (cached, peak)


def test_pair_stats_hold_one_window_not_one_segment(tmp_path):
    # one 2^25-entry segment, reduced one 2^20-entry marking window at a time:
    # 128 KB of words and the 1 MB marking buffer, where the whole segment's
    # words took 4 MB more on both passes
    x = 2**25 - 1000
    for cached in (False, True):
        tracemalloc.start()
        try:
            progressions.residue_pair_stats(x, 5, segment_budget=x, cache_dir=str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (cached, peak)
    assert len(list(tmp_path.glob("s2sq_*.bin"))) == 33  # 32 windows below x, 1 past it


def test_count_memory_guard_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            sieve.count_up_to(10**16)  # |V| = 2 * 10^8 values x // k
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    r = isqrt(10**12)
    assert r + 10**12 // r - 1 <= sieve.COUNT_VALUES_BUDGET  # the Table 2 counts still run


def test_count_memory_guard_boundary(monkeypatch):
    x = 10**6  # |V| = 1999
    want = sieve.count_up_to(x)
    monkeypatch.setattr(sieve, "COUNT_VALUES_BUDGET", 1999)
    assert sieve.count_up_to(x) == want
    monkeypatch.setattr(sieve, "COUNT_VALUES_BUDGET", 1998)
    with pytest.raises(ResourceError):
        sieve.count_up_to(x)


def test_argument_errors():
    with pytest.raises(ArgumentError):
        sieve.count_up_to(-1)
    with pytest.raises(ArgumentError):
        sieve.count_up_to(1 << 62)
    assert sieve.count_up_to(0) == 0
    assert sieve.count_up_to(0, include_zero=True) == 1
    with pytest.raises(ArgumentError):
        sieve.sieve_segment(10, 5)
