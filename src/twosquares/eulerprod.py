"""Euler products and prime sums restricted to p = 3 mod 4, from one engine.

The engine is log_ep3(w, chi): the log of T_chi(w) = prod_{p=3(4)} (1 - chi(p) p^-w)
for Re w > 1 (real or complex w), by the twisted doubling identity
    T_chi(w)^2 = T_{chi^2}(2w) L(w, chi chi4) / ((1 - chi(2) 2^-w) L(w, chi)),
which holds prime by prime: (1 - c p^-w)^2 = (1 - c^2 p^-2w) (1 - c p^-w)/(1 + c p^-w).
Each level halves the weight of the remaining product and doubles its exponent.
Levels apply while 2^j w < 8 (three levels for w in (1, 2]); the remainder
T_{chi^(2^J)}(2^J w) is the exact sum of log(1 - chi(p) p^-u) over p < 1000,
whose omitted primes contribute less than 1000^(1-u)/(u-1) < 1e-21 at u >= 8.
Every L-value of a level comes from characters.dirichlet_L, whose Hurwitz
grid the characters of one modulus share.
For the trivial chi the identity is T(w)^2 = T(2w) L(w, chi4) / ((1 - 2^-w) zeta(w)).

Everything else is derived from it: ep3(w) = exp(log_ep3(w)); the prime sum
P3(s) = sum_{p=3(4)} p^-s by Moebius inversion of log T(ks); and
beta1 = 2 sum_{p=3(4)} log p/(p^2 - 1) = 2 d/dw log ep3(w) at w = 2, a complex
step of log_ep3.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from . import characters as chars
from .errors import ArgumentError

TAIL_FROM = 8.0  # the direct product starts at exponent u >= TAIL_FROM
TAIL_PRIMES = 1000  # ... over the primes p < TAIL_PRIMES


def mobius(n: int) -> int:
    f = chars.factorize(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> np.ndarray:
    isp = np.ones(n + 1, dtype=bool)
    isp[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if isp[p]:
            isp[p * p :: p] = False
    return np.flatnonzero(isp)


# integers per chunk of _primes_3mod4_chunks (even, so chunks keep parity): a chunk's
# sieve is 256 KiB of bools, below the 1 MiB c_h block that the pass holds anyway
_PRIME_CHUNK = 1 << 19


def _primes_3mod4_chunks(lo: int, hi: int):
    """Yield (b, the primes p = 3 mod 4 in [a, b)) over the chunks [a, b) of [lo, hi), in order.

    Each chunk sieves its odd entries by the odd primes <= sqrt(hi - 1); it needs
    lo > sqrt(hi - 1), so that no sieving prime is an entry and every odd composite
    entry has one of them as a factor.  Entry i of a chunk is the odd n = a1 + 2i,
    which p divides for i = -a1 (p + 1)/2 mod p, (p + 1)/2 being the inverse of 2.
    """
    P = primes_up_to(isqrt(hi - 1))[1:]
    half = (P + 1) // 2
    for a in range(lo, hi, _PRIME_CHUNK):
        b = min(a + _PRIME_CHUNK, hi)
        a1 = a | 1
        odd = np.ones((b - a1 + 1) // 2, dtype=bool)
        for p, i in zip(P.tolist(), (-a1 % P * half % P).tolist()):
            odd[i::p] = False
        j = (3 - a1) % 4 // 2  # a1 + 2i = 3 mod 4 exactly for i = j mod 2
        yield b, a1 + 2 * j + 4 * np.flatnonzero(odd[j::2])


def row_pairs(lo: np.ndarray, n: np.ndarray, chunk: int):
    """Yield (i0, rows, idx, starts) over the pairs (i, lo[i] + j), 0 <= j < n[i], in
    row order, at most `chunk` pairs at a time.

    rows[t] is the row of pair t of the chunk and idx[t] its index lo[i] + j (into
    a sorted prime array, say); starts[i - i0] is the offset in the chunk where
    row i >= i0 begins, for np.add.reduceat.  A chunk edge may cut a row: its
    pairs then continue at offset 0 of the next chunk, whose i0 is that row.
    Rows with n[i] = 0 have no pairs, and a start equal to the next row's.
    """
    ends = np.cumsum(n)
    total = int(ends[-1]) if ends.size else 0
    for g0 in range(0, total, chunk):
        g1 = min(g0 + chunk, total)
        i0 = int(np.searchsorted(ends, g0, side="right"))  # the row of pair g0
        i1 = int(np.searchsorted(ends, g1 - 1, side="right")) + 1  # past the row of g1 - 1
        first = ends[i0:i1] - n[i0:i1]  # pair number of each row's first pair
        starts = np.maximum(first, g0) - g0
        cnt = np.minimum(ends[i0:i1], g1) - g0 - starts
        rows = np.repeat(np.arange(i0, i1), cnt)
        idx = np.arange(g0, g1) + np.repeat(lo[i0:i1] - first, cnt)
        yield i0, rows, idx, starts


@lru_cache(maxsize=8)
def primes_3mod4(n: int) -> np.ndarray:
    p = primes_up_to(n)
    return p[p % 4 == 3]


def _n_levels(w, tail_from: float):
    """Number J of doubling levels: the j >= 0 with 2^j w < tail_from."""
    return np.maximum(0, np.ceil(np.log2(tail_from / np.real(w)))).astype(int)


def _log_levels(w, chi: chars.Character, J: int):
    """log T_chi(w) from J doubling levels and the direct product at exponent 2^J w."""
    total = 0j
    u = w
    for j in range(J):
        level = (np.log(chars.dirichlet_L(u, chi.twisted)) - np.log(chars.dirichlet_L(u, chi))
                 - np.log1p(-chi(2) * 2.0 ** (-u)))
        total = total + level / 2 ** (j + 1)
        u, chi = 2 * u, chi.squared
    ps = primes_3mod4(TAIL_PRIMES)
    with np.errstate(under="ignore"):
        z = -chi.array[ps % chi.modulus, None] * np.power.outer(ps.astype(float), -np.ravel(u))
    # log(1 + z) term by term: |z| <= 3^-8 here, where numpy's complex log1p loses digits
    log1p = 0.5 * np.log1p(2 * z.real + np.abs(z) ** 2) + 1j * np.arctan2(z.imag, 1 + z.real)
    return total + np.reshape(log1p.sum(axis=0), np.shape(u)) / 2**J


def log_ep3(w, chi: chars.Character = chars.TRIVIAL, _tail_from: float = TAIL_FROM):
    """log prod_{p=3(4)} (1 - chi(p) p^-w) for Re w > 1 (scalar or array), complex.

    Branches: each level takes principal logs of L(u, chi) and L(u, chi chi4).
    The principal log of L(u, chi) is the log of its Euler product whenever
    zeta(u) < 2 (the Euler log is then below log 2 < pi in modulus); the one
    twisted caller, C_q_chi, uses w = 2.  For the trivial chi and real w both
    L-values are positive and the result is real.
    """
    if np.any(np.real(w) <= 1):
        raise ArgumentError("w must have real part > 1")
    w = chars.as_argument(w)
    if np.ndim(w) == 0:
        return complex(_log_levels(w, chi, int(_n_levels(w, _tail_from))))
    J = _n_levels(w, _tail_from)
    out = np.empty(w.shape, dtype=complex)
    for j in np.unique(J):
        out[J == j] = _log_levels(w[J == j], chi, int(j))
    return out


def ep3(w):
    """prod over p = 3 mod 4 of (1 - p^-w), Re w > 1 (scalar or array); real for real w."""
    v = log_ep3(w)
    v = np.exp(v if np.iscomplexobj(w) else np.real(v))
    return v.item() if np.ndim(w) == 0 else v


def dirichlet_chi4(s):
    """L(s, chi4) = 4^-s (zeta(s,1/4) - zeta(s,3/4)), scalar or array, real or complex s.

    characters.dirichlet_L cancels the two Hurwitz poles at s = 1 analytically,
    so the value keeps full relative accuracy next to and at s = 1.  Real for real s.
    """
    v = chars.dirichlet_L(s, chars.CHI4)
    return v if np.iscomplexobj(s) else np.real(v)


@lru_cache(maxsize=None)
def prime_zeta_3mod4(s: float) -> float:
    """P3(s) = sum over p = 3 mod 4 of p^-s = -sum_k mu(k)/k Re log_ep3(ks).

    Relative error against a 40-digit mpmath P3 (tests/mp_oracles.py): 1.2e-15,
    -5.5e-15 and 4.0e-15 at s = 2, 3 and 4; 4.5e-14, -1.2e-13 and -4.8e-13 at
    s = 5, 6 and 7; -2.6e-16 at s = 8 and -3.0e-16 at 10.  Below TAIL_FROM the
    k = 1 term comes from doubling levels, differences of logs of L-values
    near 1, whose error is near-absolute while P3(s) falls like 3^-s; from
    TAIL_FROM on it is the direct product.  The tests hold it to 1e-14 at
    s = 2, 3 and 4 and to 2e-13 at s = 5, 6 and 8 (s = 7 is outside both).
    singular.P3_REL_ERROR (1e-14) covers only s = 2 and 3, the values that
    singular._tail_log evaluates.
    """
    total = 0.0
    k = 1
    while 3.0 ** (-k * s) > 1e-20:
        if mobius(k):
            total -= mobius(k) / k * log_ep3(k * s).real
        k += 1
    return total


def beta1() -> float:
    """beta1 = 2 sum_{p=3(4)} log p/(p^2 - 1) = 2 d/dw log ep3(w) at w = 2 (complex step)."""
    return 2 * float(chars.complex_step(log_ep3, 2.0))
