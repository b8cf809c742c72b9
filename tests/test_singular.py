"""Singular series: pair closed form vs local-density product, weighted sums."""

from fractions import Fraction
from functools import lru_cache
import itertools
from math import ceil, comb, exp, expm1, fsum, isfinite, log
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mp_oracles as oracles
from twosquares import constants, eulerprod as ep, singular
from twosquares.singular import TupleConfig
from twosquares.errors import ArgumentError, ResourceError

K = constants.landau_ramanujan()


def test_W2_values():
    assert singular.W2(1) == 1
    assert singular.W2(3) == 1
    assert singular.W2(2) == Fraction(1, 2)
    assert singular.W2(4) == Fraction(5, 4)
    assert singular.W2(8) == Fraction(13, 8)


@given(st.integers(min_value=1, max_value=64))
@settings(deadline=None)
def test_pair_oracle_equivalence(h):
    # Connors-Keating closed form vs the generic local-density product, within the
    # product's certified tail bound (the worst h <= 64 uses a fifth of it)
    ck = singular.ck_singular_series(h, K)
    gen = singular.singular_series_general(TupleConfig((0, h)))
    assert abs(ck - gen.value) <= gen.tail_bound + 1e-15
    assert ck > 0


def ck_values(T: int, K: float) -> np.ndarray:
    """S({0,h}) for h = 0..T, the blocks of the c_h pass joined."""
    return np.concatenate([F for _, F in singular._ck_blocks(T, K)])


def test_ck_values_vectorized():
    vals = ck_values(50, K)
    for h in (1, 2, 17, 50):
        assert vals[h] == pytest.approx(singular.ck_singular_series(h, K), abs=1e-14)


def ck_values_per_prime_power(T: int, K: float) -> np.ndarray:
    """ck_values by one strided multiply per prime power, every prime alike."""
    F = np.ones(T + 1)
    fprev = 1.0
    v = 1
    while 2**v <= T:
        f = 2 - 3 * 2.0**-v
        F[2**v :: 2**v] *= f / fprev
        fprev = f
        v += 1
    for p in ep.primes_3mod4(T).tolist():
        fprev = 1.0
        pk = p
        v = 1
        while pk <= T:
            f = (1 - p ** -(v + 1.0)) / (1 - 1.0 / p)
            F[pk::pk] *= f / fprev
            fprev = f
            pk *= p
            v += 1
    F /= 2 * K * K
    F[0] = 0.0
    return F


B = singular._CK_BLOCK
C = ep._PRIME_CHUNK


@pytest.mark.parametrize("T", [1, 2, 3] + [p * p + e for p in (3, 7, 11, 43) for e in (-1, 0, 1)]
                         + [10**5, B - 1, B, B + 1, 3 * B + 5, C - 1, C, C + 1, 2 * C + 3]
                         + [2**21 - 1, 2**21, 2**21 + 1, 2**22 + 3])
def test_ck_values_equal_per_prime_power_loop(T):
    # blocks of _CK_BLOCK h, the primes above sqrt(T) sieved in chunks of _PRIME_CHUNK
    # (2^21 +- 1 and 2^22 + 3 sit on the edges of the 2^21-integer chunks used earlier)
    # and applied _PAIR_CHUNK pairs at a time; bit for bit the same as one array
    assert np.array_equal(ck_values(T, K), ck_values_per_prime_power(T, K))


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("T", [10**5, 3 * B + 5])
def test_ck_values_in_small_pair_chunks_equal_per_prime_power_loop(monkeypatch, T, chunk):
    # chunks of 1, 2 and 7 (m, p) pairs cut rows m and leave most rows longer than a chunk
    monkeypatch.setattr(singular, "_PAIR_CHUNK", chunk)
    assert np.array_equal(ck_values(T, K), ck_values_per_prime_power(T, K))


def weighted_sum_full_array(q, v, H, K, k=0, subtract=False):
    """weighted_sum_S with the products c_h w_h built over all of 0..T and then strided."""
    T = ceil(H * log(3 * H / singular.WSUM_REL_TOL)) + 1
    vals = ck_values(T, K)
    h = np.arange(T + 1, dtype=float)
    with np.errstate(under="ignore"):
        w = np.exp(-h / H)
    if k:
        w *= h**k
    if v is None:
        q, v = 1, 0
    total = float((vals * w)[v % q or q::q].sum())
    if subtract:
        total -= singular.geometric_sum(q, v, H, k)
    return total


@pytest.mark.parametrize("q,H", [(5, 6.356), (5, 1000.0), (13, 100.0), (13, 2000.0)])
def test_weighted_sum_S_equals_full_array_weights(q, H):
    # every T here fits one block, so the class sums are the same pairwise sums
    assert ceil(H * log(3 * H / 1e-9)) + 1 < B
    for v in [None, *range(q)]:
        for k in (0, 1, 2):
            for subtract in (False, True):
                got = singular.weighted_sum_S(q, v, H, K, k=k, subtract=subtract)
                assert got == weighted_sum_full_array(q, v, H, K, k=k, subtract=subtract), \
                    (v, k, subtract)


@pytest.mark.parametrize("v", [0, 3])
def test_weighted_sum_S_across_blocks_matches_exact_sum(v):
    # 26 blocks at H = 1e5: the block dots combined by fsum stay within 1e-14 of the
    # correctly rounded sum of the c_h w products
    H, q = 1e5, 5
    T = ceil(H * log(3 * H / 1e-9)) + 1
    v0 = v % q or q
    h = np.arange(v0, T + 1, q, dtype=float)
    want = fsum((ck_values(T, K)[v0::q] * np.exp(-h / H)).tolist())
    assert singular.weighted_sum_S(q, v, H, K) == pytest.approx(want, rel=1e-14, abs=0)


def test_weighted_sum_S_does_not_depend_on_the_blas_threads():
    # a BLAS dot sums in an order set by its thread count: 39997.28373094607 with one
    # OpenBLAS thread and ...604 with two; numpy's own pairwise sum has one order
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("from twosquares import constants, singular; "
             "print(repr(singular.weighted_sum_S(5, 0, 2e5, constants.landau_ramanujan())))")
    outs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        outs.add(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, check=True, timeout=120).stdout)
    assert len(outs) == 1, outs


def test_weighted_sum_S_holds_no_c_h_array():
    # one full c_h array to T = 3.3e6 would be 26.7 MB; the pass holds a few blocks
    singular._class_sums.cache_clear()
    tracemalloc.start()
    try:
        singular.weighted_sum_S(5, 0, 1e5, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_class_sums_peak_memory_grows_with_the_primes_only():
    # cold at H = 3e5 (T = 1.0e7): the primes above sqrt(T) come in chunks into one
    # uint32 store, where a T-byte sieve and int64 prime lists took 16 MB
    singular._class_sums.cache_clear()
    ep.primes_up_to.cache_clear()
    ep.primes_3mod4.cache_clear()
    tracemalloc.start()
    try:
        singular._class_sums(5, 3e5, K, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_class_sums_temporaries_do_not_grow_with_T():
    # cold at H = 1e5 (T = 3.3e6): large-prime pairs in chunks of _PAIR_CHUNK, weights in
    # pieces of _WEIGHT_PIECE h and primes sieved _PRIME_CHUNK integers at a time hold the
    # peak at 4.1 MB (one 1 MiB block, the 1.1 MB store); whole-block temporaries took 7.6 MB
    singular._class_sums.cache_clear()
    tracemalloc.start()
    try:
        singular._class_sums(5, 1e5, K, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_weighted_sum_S_one_pass_serves_every_class():
    singular._class_sums.cache_clear()
    singular.weighted_sum_S(5, 0, 1000.0, K)
    singular.weighted_sum_S(5, 3, 1000.0, K)
    info = singular._class_sums.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_singular_series_trivial_sizes():
    assert singular.singular_series_general(TupleConfig(())).value == 1.0
    assert singular.singular_series_general(TupleConfig((3,))).value == 1.0


def membership_by_valuation(p: int, alpha: int) -> np.ndarray:
    """S_{p,alpha} over [0, p^alpha) from the p-adic valuation of each n."""
    n = np.arange(p**alpha, dtype=np.int32)
    val = np.zeros(n.size, dtype=np.int8)
    m = n.copy()
    m[0] = 1  # 0 is in no S_{p,alpha}
    while np.any(m % p == 0):
        div = m % p == 0
        val[div] += 1
        m[div] //= p
    ok = (n > 0) & ((m % 4 == 1) & (val < alpha - 1) if p == 2 else (val % 2 == 0) & (val < alpha))
    return ok


def local_density_by_roll(ok, D):
    hit = np.ones(ok.size, dtype=bool)
    for d in D.offsets:
        hit &= np.roll(ok, -d % ok.size)
    return Fraction(int(np.count_nonzero(hit)), ok.size)


def extrapolated_density(p: int, alpha: int, D, tables=None) -> Fraction:
    """delta(alpha+2) + (delta(alpha+2) - delta(alpha))/(p^2 - 1) from the level tables.

    Past the p-adic depth of the differences the increments of the levels are
    geometric with ratio p^-2, and this is their limit.
    """
    tables = tables or [membership_by_valuation(p, a) for a in (alpha, alpha + 2)]
    lo, hi = (local_density_by_roll(ok, D) for ok in tables)
    return hi + (hi - lo) / (p * p - 1)


def test_local_density_stabilizes_as_exact_rational():
    # transient example: D = {0, 4}, p = 2 repeats 1/4 at levels 2 and 4 before growing
    d04 = TupleConfig((0, 4))
    levels = [local_density_by_roll(membership_by_valuation(2, a), d04) for a in (2, 4, 6)]
    assert levels[0] == levels[1] == Fraction(1, 4) < levels[2]
    val = singular.local_density(2, d04)
    assert isinstance(val, Fraction)
    assert val == Fraction(5, 16) == extrapolated_density(2, 16, d04)


def test_local_density_equals_roll_reference_on_ms_sum_path():
    # every triple pattern that ms_sum(14, 3) visits: (0, a, b) with 0 < a < b <= 13
    for p, alpha in ((2, 16), (3, 8), (7, 4), (11, 4)):
        tables = [membership_by_valuation(p, a) for a in (alpha, alpha + 2)]
        for a, b in itertools.combinations(range(1, 14), 2):
            D = TupleConfig((0, a, b))
            assert singular.local_density(p, D) == extrapolated_density(p, alpha, D, tables), \
                (p, D.offsets)


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_delta0_closed_form(p):
    want = singular.local_density(p, TupleConfig((0,)))
    assert singular.delta0(p) == want


def test_closed_tail_factor_matches_brute_force():
    # singular_series_general uses the closed per-prime factor for every
    # p = 3 mod 4 that divides no difference; 20 seeded (p, D) against the recursion
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = int(rng.choice([3, 7, 11]))
        k = int(rng.integers(2, 4))
        while True:
            offs = sorted(rng.choice(64, size=k, replace=False).tolist())
            D = TupleConfig(tuple(int(o) for o in offs)).normalized()
            if all(d % p for d in D.differences()):
                break
        brute = singular.local_density(p, D) / singular.delta0(p) ** k
        assert brute == singular._closed_ratio(p, k), (p, D.offsets)


@given(st.sets(st.integers(min_value=0, max_value=64), min_size=1, max_size=4),
       st.integers(min_value=-10**6, max_value=10**6))
@example({0, 43, 46}, 0)  # p = 3, 23 and 43 each divide one difference
@settings(max_examples=200, deadline=None)
def test_singular_series_defined_on_the_whole_range(offsets, shift):
    # every k <= 4 tuple of spread <= 64, anywhere on the line
    sv = singular.singular_series_general(TupleConfig(tuple(o + shift for o in offsets)))
    assert isfinite(sv.value) and sv.value >= 0
    assert isfinite(sv.tail_bound) and sv.tail_bound >= 0


def test_tail_bound_covers_the_terms_after_the_stopping_m():
    # stopped at m = 5, the next terms (c_6 ~ -122 at k = 4) move the tail by ~1e-8
    tail, dropped, _ = singular._tail_log(50, 4, terms=5)
    full, full_dropped, _ = singular._tail_log(50, 4)
    assert abs(tail) * 1e-15 < abs(full - tail) <= dropped
    assert full_dropped < 1e-17


@lru_cache(maxsize=None)
def _p3_tail_oracle(m):
    """sum_{p > 50, p = 3 (4)} p^-m from mpmath alone, at the caller's precision."""
    head = mp.fsum(mp.power(int(p), -m) for p in ep.primes_3mod4(50))
    return oracles.prime_zeta_3mod4(m) - head


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tail_bound_covers_the_evaluation_error(k):
    # the float tail is off by 1e-16 .. 6e-16 at cutoff 50, mostly from P3 at s = 2
    # and 3, while the truncation bound alone is 4e-20 .. 2e-18
    with mp.workdps(40):
        for s in (2, 3):
            want = oracles.prime_zeta_3mod4(s)
            assert abs(ep.prime_zeta_3mod4(float(s)) / want - 1) <= singular.P3_REL_ERROR
        ref, m = mp.mpf(0), 2
        while mp.mpf(k) ** m * mp.power(50, -m) > 1e-30:  # the terms left after m are below it
            ref += mp.mpf((k - 1) * (-1) ** (m + 1) - (k - 1) ** m) / m * _p3_tail_oracle(m)
            m += 1
        tail, dropped, rounding = singular._tail_log(50, k)
        assert abs(tail - ref) <= dropped + rounding


def test_tail_bound_covers_primes_above_the_direct_window():
    # a larger direct window (primes up to 10^7) against the bound and a placeholder
    cutoff, k = 10**5, 4
    tail, dropped, rounding = singular._tail_log(cutoff, k)
    ps = ep.primes_3mod4(10**7)
    ps = ps[ps > singular.TAIL_WINDOW].astype(float)
    extra = 0.0
    for m in range(4, 12):  # the sum stops at m = 5 here; the bound covers later m too
        c_m = ((k - 1) * (-1) ** (m + 1) - float(k - 1) ** m) / m
        extra += c_m * float(np.sum(ps ** -float(m)))
    assert abs(tail) * 1e-15 < abs(extra) <= dropped
    sv = singular._singular_series(TupleConfig((0, 1, 2, 3)), cutoff)
    assert sv.value * abs(expm1(extra)) <= sv.tail_bound
    assert sv.tail_bound == sv.value * expm1(dropped + rounding)


def test_exp_sums_geometric_identities():
    # E(H) (q = 1) and E(q, v; H) by brute force, and E(q, v; H) - H/q -> f(v; q)
    for q, v, H in [(5, 1, 10.0), (5, 0, 33.3), (7, 3, 100.0)]:
        E, Eqv = singular.geometric_sum(1, 1, H), singular.geometric_sum(q, v, H)
        hs = np.arange(1, 10000)
        assert E == pytest.approx(np.exp(-hs / H).sum(), abs=1e-10)
        sel = hs[hs % q == v % q]
        assert Eqv == pytest.approx(np.exp(-sel / H).sum(), abs=1e-10)
    # f(v; q) jump values: -1/2 at v = 0 (mod q), (q - 2v)/(2q) for 0 < v < q
    H = 1e6
    assert singular.geometric_sum(5, 0, H) - H / 5 == pytest.approx(-0.5, abs=1e-5)
    assert singular.geometric_sum(5, 3, H) - H / 5 == pytest.approx((5 - 6) / 10, abs=1e-5)


@given(st.integers(min_value=0, max_value=4), st.floats(min_value=5, max_value=500),
       st.sampled_from([1, 5, 7]), st.integers(min_value=-8, max_value=8))
@example(0, 10.0, 1, 1)   # E(H), the unrestricted sum
@example(2, 33.3, 5, 0)   # v = 0 (mod q): the class starts at h = q
@example(0, 100.0, 7, -4)
@settings(max_examples=40, deadline=None)
def test_weighted_geometric_matches_brute(k, H, q, v):
    hs = np.arange(1, int(60 * H) + 1, dtype=float)
    sel = hs[hs % q == v % q]
    want = float(np.sum(sel**k * np.exp(-sel / H)))
    got = singular.geometric_sum(q, v, H, k)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("q,v,H", [(5, 0, 1e5), (5, 3, 1e6), (1, 0, 1e7)])
def test_geometric_sum_keeps_full_precision_at_large_H(q, v, H):
    # 1 - e^{-q/H} by expm1: 1 - exp(-q/H) would lose log10(H/q) digits (2e-12 at H = 1e6)
    with mp.workdps(40):
        v0, Hm = v % q or q, mp.mpf(H)
        y = mp.exp(-q / Hm)
        want = [mp.exp(-v0 / Hm) / (1 - y),
                mp.exp(-v0 / Hm) * (v0 / (1 - y) + q * y / (1 - y) ** 2)]
    for k in (0, 1):
        assert singular.geometric_sum(q, v, H, k) == pytest.approx(float(want[k]), rel=1e-15)


def test_weighted_sum_S_truncation_invariance():
    # the sum to T at WSUM_REL_TOL against the sum to T at 1e-12
    H = 100.0
    T = ceil(H * log(3 * H / 1e-12)) + 1
    h = np.arange(3, T + 1, 5, dtype=float)
    longer = fsum((ck_values(T, K)[3::5] * np.exp(-h / H)).tolist())
    assert singular.weighted_sum_S(5, 3, H, K) == pytest.approx(longer, abs=1e-9)


def test_weighted_sum_classes_partition_total():
    H = 50.0
    total = singular.weighted_sum_S(5, None, H, K)
    parts = sum(singular.weighted_sum_S(5, v, H, K) for v in range(5))
    assert total == pytest.approx(parts, abs=1e-9)


@pytest.mark.parametrize("H", [16.0, 100.0, 1000.0])
def test_S0_relation(H):
    # S0(q,v;H) = S(q,v;H) - E(q,v;H) and E(q,v;H) = H/q + f(v;q) + O(1/H), with
    # f(v;q) = -1/2 for v = 0 (mod q) and (q - 2v)/(2q) for 0 < v < q
    for v in range(5):
        s = singular.weighted_sum_S(5, v, H, K)
        s0 = singular.weighted_sum_S(5, v, H, K, subtract=True)
        Eqv = singular.geometric_sum(5, v, H)
        f = -0.5 if v == 0 else (5 - 2 * v) / 10
        assert s - s0 == pytest.approx(Eqv, rel=1e-12)
        assert abs(Eqv - H / 5 - f) < 2 / H


def test_ms_sum_k1_vanishes():
    for h in (5, 12, 30):
        assert singular.ms_sum(h, 1) == 0.0


def test_ms_sum_k2_matches_direct_pair_sum():
    h = 12
    want = sum((singular.singular_series_general(TupleConfig((0, d))).value - 1)
               * (h - d) for d in range(1, h))
    assert singular.ms_sum(h, 2) == pytest.approx(want, rel=1e-8)


def test_ms_sum_slope_bound():
    hs = [8, 12, 16, 20]
    vals = [abs(singular.ms_sum(h, 3)) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
    assert slope <= 1.9


def test_argument_and_resource_errors():
    with pytest.raises(ArgumentError):
        singular.ck_singular_series(0, K)
    with pytest.raises(ArgumentError):
        TupleConfig((1, 1))
    with pytest.raises(ArgumentError):
        singular.singular_series_general(TupleConfig((0, 200)))
    # H = 2e8 has T = 8.2e9 >= 2^32, past the uint32 prime store: refused before allocating
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            singular.weighted_sum_S(5, 1, 2e8, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    for H in (0.0, -5.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ArgumentError):
            singular.weighted_sum_S(5, 1, H, K)
    for q, k in ((0, 0), (-3, 0), (5, -1)):  # v % 0 divided by zero; h^-1 at h = 0 warned
        with pytest.raises(ArgumentError):
            singular.weighted_sum_S(q, 1, 100.0, K, k=k)
    with pytest.raises(ResourceError):
        singular.ms_sum(50, 4)
