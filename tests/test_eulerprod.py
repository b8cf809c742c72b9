"""Euler products and prime sums against brute-force and mpmath oracles."""

import cmath
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mp_oracles as oracles
from twosquares import eulerprod as ep
from twosquares import characters as chars
from twosquares.errors import ArgumentError

mp.mp.dps = 30


@given(st.integers(min_value=1, max_value=3000))
def test_mobius_multiplicative(n):
    # mu via factorization oracle
    m, val, d = n, 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                val = 0
                break
            val = -val
        d += 1
    else:
        if m > 1:
            val = -val
    assert ep.mobius(n) == val


def test_primes_lists():
    assert ep.primes_up_to(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert ep.primes_3mod4(25).tolist() == [3, 7, 11, 19, 23]


C = ep._PRIME_CHUNK


# C - 1 .. 2C + 3 sit on one chunk edge; 2^21 +- 1 and 2^22 + 3 on the edge of the
# 2^21-integer chunks that were used earlier, four and eight chunks in
@pytest.mark.parametrize("T", [1, 2, 3, 4, 9, 10, 48, 49, 50, 10**4, C - 1, C, C + 1, 2 * C + 3,
                               2**21 - 1, 2**21, 2**21 + 1, 2**22 + 3])
def test_prime_chunks_above_sqrt_equal_the_full_sieve(T):
    # the c_h pass's store: the primes = 3 mod 4 in (sqrt(T), T], sieved one chunk at a time
    r = math.isqrt(T)
    chunks = list(ep._primes_3mod4_chunks(r + 1, T + 1))
    assert [b for b, _ in chunks] == [min(a + C, T + 1) for a in range(r + 1, T + 1, C)]
    full = ep.primes_3mod4(T)
    got = np.concatenate([np.zeros(0, dtype=np.int64)] + [p for _, p in chunks])
    assert np.array_equal(got, full[full > r])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_row_pairs_lists_every_pair_once_in_row_order(chunk):
    rng = np.random.default_rng(chunk)
    n = rng.integers(0, 9, size=40)
    n[[0, 17, -1]] = 0  # empty rows first, inside and last
    lo = rng.integers(0, 100, size=40)
    want = [(i, int(lo[i]) + j) for i in range(40) for j in range(int(n[i]))]
    got = []
    for i0, rows, idx, starts in ep.row_pairs(lo, n, chunk):
        assert 0 < rows.size <= chunk and rows[0] == i0 and starts[0] == 0
        # starts[i - i0] is where row i begins: every pair of row i lies at or after it
        assert np.array_equal(starts[rows - i0], np.searchsorted(rows, rows))
        got += zip(rows.tolist(), idx.tolist())
    assert got == want


# the brute product truncated at P misses a tail of order P^(1-w)/log P,
# so the comparison tolerance must scale with w
@pytest.mark.parametrize("w,tol", [(1.5, 4e-4), (2.0, 1e-8), (3.0, 1e-12),
                                   (6.0, 1e-14)])
def test_ep3_matches_brute_product(w, tol):
    ps = ep.primes_3mod4(10**7).astype(float)
    want = math.exp(math.fsum(np.log1p(-ps ** -w)))
    assert ep.ep3(w) == pytest.approx(want, abs=tol)


def _log1p(z):
    """log(1 + z) for complex arrays, accurate for tiny |z| (numpy's complex log1p is not)."""
    return 0.5 * np.log1p(2 * z.real + np.abs(z) ** 2) + 1j * np.arctan2(z.imag, 1 + z.real)


@pytest.mark.parametrize("q", [5, 13])
def test_log_ep3_twisted_matches_direct_sum(q):
    # the primes above 1e7 contribute below 1e-15 at w >= 3
    ps = ep.primes_3mod4(10**7)
    ws = np.array([3.0, 6.0])
    powers, residues = ps.astype(float) ** -ws[:, None], ps % q
    for i, chi in enumerate(chars.character_table(q).non_principal()):
        want = _log1p(-np.array(chi.values)[residues] * powers).sum(axis=1)
        for w, v in zip(ws, want):
            assert abs(ep.log_ep3(float(w), chi) - v) < 1e-12
        if i == 0:  # the array path once per modulus: per value it costs ~10x the scalar path
            assert np.all(np.abs(ep.log_ep3(ws, chi) - want) < 1e-12)


def test_ep3_vectorized():
    w = np.array([1.5, 2.0, 3.0])
    vec = ep.ep3(w)
    for wi, vi in zip(w, vec):
        assert vi == pytest.approx(ep.ep3(float(wi)), rel=1e-12)


def test_ep3_on_an_array_does_not_import_numpy_ma():
    # numpy 2.4's np.unique imports numpy.ma on first use (about 25 ms and 1.3 MB), which
    # a cold process that evaluates constants pays for nothing
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, numpy as np; from twosquares import eulerprod; "
             "eulerprod.ep3(np.array([1.5, 2.0, 3.0, 40.0])); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_dirichlet_chi4_matches_mpmath():
    for s in (0.6, 1.0, 2.0, 5.0):
        want = float(mp.mpf(4) ** (-s) * (mp.zeta(s, mp.mpf(1) / 4)
                                          - mp.zeta(s, mp.mpf(3) / 4))) \
            if s != 1 else float(mp.pi / 4)
        assert ep.dirichlet_chi4(s) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("d", [1e-5, -1e-5, 1e-9, -1e-9, 1e-11, -1e-11])
def test_dirichlet_chi4_pole_free(d):
    # the two Hurwitz poles at s = 1 cancel analytically, not numerically
    s = 1 + d
    want = float(mp.dirichlet(mp.mpf(s), [0, 1, 0, -1]))
    assert ep.dirichlet_chi4(s) == pytest.approx(want, rel=1e-14)
    assert ep.dirichlet_chi4(np.array([s, 2.0]))[0] == pytest.approx(want, rel=1e-14)
    dwant = float(mp.diff(lambda t: mp.dirichlet(t, [0, 1, 0, -1]), mp.mpf(s)))
    assert chars.complex_step(ep.dirichlet_chi4, s) == pytest.approx(dwant, rel=1e-13)


@pytest.mark.parametrize("w", [2 + 1e-30j, 1.5 + 1j, 2.2 - 3j, 5 + 0.5j])
def test_log_ep3_complex_matches_mpmath(w):
    # the doubling identity in mpmath, a different level count and tail
    want = complex(mp.log(oracles.ep3(mp.mpc(w), depth=6)))
    assert abs(ep.log_ep3(w) - want) < 1e-13 * max(1.0, abs(want))
    assert abs(ep.log_ep3(np.array([w, 3.0]))[0] - want) < 1e-13 * max(1.0, abs(want))
    assert ep.ep3(w) == pytest.approx(cmath.exp(want), rel=1e-13)


def test_beta1_is_the_derivative_of_log_ep3():
    want = 2 * float(mp.diff(lambda w: mp.log(oracles.ep3(w)), 2))
    assert ep.beta1() == pytest.approx(want, rel=1e-13)


def test_prime_zeta_3mod4_matches_direct_sum():
    for s in (2.0, 3.0):
        direct = float(np.sum(ep.primes_3mod4(10**7).astype(float) ** -s))
        assert ep.prime_zeta_3mod4(s) == pytest.approx(direct, abs=1e-7)
    # to rounding: the singular-series tail that uses P3 certifies bounds near 1e-18
    for s in (2.0, 3.0, 4.0):
        want = float(oracles.prime_zeta_3mod4(s))
        assert ep.prime_zeta_3mod4(s) == pytest.approx(want, rel=1e-14)
    # below TAIL_FROM = 8 the error is near-absolute and P3 falls like 3^-s:
    # 4.5e-14 and -1.2e-13 at s = 5 and 6; the direct product gives -2.6e-16 at 8
    for s in (5.0, 6.0, 8.0):
        want = float(oracles.prime_zeta_3mod4(s))
        assert ep.prime_zeta_3mod4(s) == pytest.approx(want, rel=2e-13)


def beta1_direct(prime_bound: int = 10**6):
    """Truncated direct sum of beta1 plus a tail bound: (value, tail_bound)."""
    ps = ep.primes_3mod4(prime_bound).astype(float)
    val = float(2 * np.sum(np.log(ps) / (ps * ps - 1)))
    tail = 2 * (math.log(prime_bound) + 1) / prime_bound
    return val, tail


def test_beta1_acceleration_agrees_with_direct():
    # beta1 = 2 sum_{p=3(4)} log p/(p^2-1); direct partial sum plus tail bound
    direct, bound = beta1_direct(10**6)
    assert abs(ep.beta1() - direct) <= bound + 1e-10


def test_log_ep3_char_principal_reduces_to_real():
    tab = chars.character_table(5)
    chi0sq = tab.principal
    v = ep.log_ep3(2.0, chi0sq)
    # principal chi: product over p=3(4), p != 5 of (1-p^-2): log ep3 + log(1-5^-2)...
    # 5 = 1 mod 4 is not in the product, so this is exactly log ep3(2)
    assert v.imag == pytest.approx(0.0, abs=1e-12)
    assert v.real == pytest.approx(np.log(ep.ep3(2.0)), abs=1e-10)


def test_ep3_char_inv_sqrt_conjugation():
    tab = chars.character_table(5)
    for chi in tab.non_principal():
        a = cmath.exp(-0.5 * ep.log_ep3(2.0, chi.power(2)))
        b = cmath.exp(-0.5 * ep.log_ep3(2.0, chi.conj().power(2)))
        assert a == pytest.approx(b.conjugate(), abs=1e-10)


def test_argument_errors():
    with pytest.raises(ArgumentError):
        ep.ep3(1.0)  # w must be > 1
