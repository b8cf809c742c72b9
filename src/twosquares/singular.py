"""Singular series for sums of two squares and their weighted sums.

Three evaluation routes:

1. ck_singular_series: the exact closed form for pairs {0, h},
       S({0,h}) = (1/2K^2) W2(h) prod_{p=3(4), p|h} (1-p^-(v+1))/(1-1/p),
   W2(h) = 1 for odd h, 2 - 3*2^-v2(h) otherwise; vectorized over h <= T by a
   multiplicative sieve run in blocks of 2^17 h (_ck_blocks).  Primes
   p <= sqrt(T) multiply their strided multiples in each block once per
   power.  A prime p > sqrt(T) only occurs to the first power, and at most
   one such prime divides h, so these factors come last; a block applies them
   as scatters over its (m, p) pairs, m = h/p, 2^13 pairs at a time
   (eulerprod.row_pairs).  Those primes are sieved by the pass itself, 2^19
   integers at a time by the primes <= sqrt(T) (eulerprod._primes_3mod4_chunks),
   as the blocks reach them, and kept in one uint32 store: 4 bytes per prime
   = 3 mod 4 up to T, about 2T/ln T bytes, and no T-byte sieve.  So T < 2^32
   (H below about 1.07e8).  Besides the store the pass holds one block (1 MiB)
   and temporaries of at most a few hundred KB whatever T is.  Every h
   receives the same factors in the same order whatever the blocking.

2. singular_series_general: the product over p = 2 and p = 3 mod 4 of exact
   local densities.  delta_D(p) is the measure of the a in Z_p with every a+d
   in S_p = {v_p(n) even} (p = 3 mod 4), S_2 = {odd part of n = 1 mod 4},
   and local_density gets it as a Fraction by a recursion on the classes of
   a mod p (mod 4 at p = 2): a class of a that no -d meets is decided at
   once, and in the class of -d_c the d = d_c (mod p) go one level down as
   (d - d_c)/p.  The differences shrink by a factor p per level, so each
   density takes a few Fraction operations and needs no table or limit.
   Primes = 3 mod 4 not dividing any pairwise difference have the exact
   closed factor (1+1/p)^(k-1) (1-(k-1)/p), and the tail over p > cutoff is
   summed through restricted prime zeta values; tail_bound bounds what that
   sum truncates and its floating-point evaluation error.

3. weighted sums S(q,v;H), S(H), S^(k), S_0 variants by direct summation of
   ck values against exponential weights, truncated at
   T = H log(3H/WSUM_REL_TOL), with the geometric parts (geometric_sum)
   subtracted exactly.  The weights are formed 2^14 h at a time.  One pass
   over the c_h blocks reduces each block into
   the sums of all q classes h = v (mod q) at once (the products c_h w_h of
   each class summed by numpy's pairwise sum, which no BLAS thread count
   reorders, and the block sums combined by fsum), and only those q sums are
   memoized per (q, H, K, k): no c_h array outlives its block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, exp, expm1, fsum, isfinite, isqrt, log

import numpy as np

from . import characters as chars, eulerprod as ep
from .errors import ArgumentError, ResourceError


@dataclass(frozen=True)
class TupleConfig:
    offsets: tuple  # sorted distinct integers

    def __post_init__(self):
        offs = tuple(sorted(self.offsets))
        if len(set(offs)) != len(offs):
            raise ArgumentError("offsets must be distinct")
        object.__setattr__(self, "offsets", offs)

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def spread(self) -> int:
        return self.offsets[-1] - self.offsets[0] if self.offsets else 0

    def normalized(self) -> "TupleConfig":
        if not self.offsets:
            return self
        m = self.offsets[0]
        return TupleConfig(tuple(d - m for d in self.offsets))

    def differences(self):
        return sorted({b - a for a, b in itertools.combinations(self.offsets, 2)})


@dataclass(frozen=True)
class SingularValue:
    value: float
    method: str  # "local_density_product", the one method that produces a SingularValue
    prime_cutoff: int  # the cutoff used: PRIME_CUTOFF, or the spread where that is larger
    tail_bound: float


def W2(h: int) -> Fraction:
    if h <= 0:
        raise ArgumentError("h must be >= 1")
    return Fraction(1) if h % 2 else 2 - Fraction(3, h & -h)  # h & -h = 2^v2(h)


def ck_singular_series(h: int, K: float) -> float:
    """S({0,h}) by the exact pair formula."""
    w = float(W2(h))
    for p, v in chars.factorize(h):
        if p % 4 == 3:
            w *= (1 - p ** -(v + 1.0)) / (1 - 1.0 / p)
    return w / (2 * K * K)


_CK_BLOCK = 1 << 17  # h per block of the c_h pass
_STORE = np.uint32  # the primes above sqrt(T) that the c_h pass keeps, so T < 2^32
_PAIR_CHUNK = 1 << 13  # (m, p) pairs per chunk of a block's large-prime factors
_WEIGHT_PIECE = 1 << 14  # h per piece of the weights e^(-h/H) h^k in _class_sums


def _ck_blocks(T: int, K: float):
    """Yield (h0, c) with c[i] = S({0, h0 + i}) for h in [h0, h1), blocks of _CK_BLOCK.

    c_0 is 0.  Every h receives the same factors in the same order as in one
    array over 0..T (2-powers, then each p = 3 mod 4 by its powers, the prime
    above sqrt(T) last), so the values do not depend on the blocking.

    Held at once: the yielded block, the store of primes above sqrt(T), one
    prime chunk's sieve (_PRIME_CHUNK / 2 bools) and one pair chunk's index and
    factor arrays (_PAIR_CHUNK entries each): 4.1 MB traced at T = 3.3e6
    (H = 1e5), 1.1 MB of it the store.
    """
    if T >= 2**32:
        raise ResourceError(f"T = {T} >= 2^32: the primes above sqrt(T) are stored as uint32")
    root = isqrt(T)
    # (modulus, ratio) strided factors: p = 2 has weight f(v) = 2 - 3*2^-v, an odd
    # p = 3 mod 4 has (1 - p^-(v+1))/(1 - 1/p); multiply f(v)/f(v-1) at p^v | h
    strides = []
    fprev = 1.0
    v = 1
    while 2**v <= T:
        f = 2 - 3 * 2.0**-v
        strides.append((2**v, f / fprev))
        fprev = f
        v += 1
    for p in ep.primes_3mod4(root).tolist():
        fprev = 1.0
        pk = p
        v = 1
        while pk <= T:
            f = (1 - p ** -(v + 1.0)) / (1 - 1.0 / p)
            strides.append((pk, f / fprev))
            fprev = f
            pk *= p
            v += 1
    # p > sqrt(T): only v = 1 occurs, and h = m p has no other such prime, so
    # this factor is the last one h receives and the indices m p are distinct.
    # These primes are sieved chunk by chunk as the blocks reach them, into one
    # store sized by pi(T) < 1.25506 T/ln T (Rosser-Schoenfeld); its pages
    # past the primes found are never written
    chunks = ep._primes_3mod4_chunks(root + 1, T + 1)
    store = np.empty(int(1.25506 * T / log(T)) + 1 if T > 1 else 0, dtype=_STORE)
    stored, sieved = 0, root + 1  # store[:stored] holds the primes = 3 mod 4 below sieved
    scale = 2 * K * K
    for h0 in range(0, T + 1, _CK_BLOCK):
        h1 = min(h0 + _CK_BLOCK, T + 1)
        while sieved < h1:
            sieved, new = next(chunks)
            store[stored:stored + new.size] = new
            stored += new.size
        F = np.ones(h1 - h0)
        for pk, r in strides:
            F[-h0 % pk:: pk] *= r
        if stored:
            P = store[:stored]
            # every cofactor m at once: the primes in [ceil(h0/m), (h1-1)//m]
            m = np.arange(1, (h1 - 1) // int(P[0]) + 1)
            lo = np.searchsorted(P, (-(-h0 // m)).astype(_STORE))
            n = np.searchsorted(P, ((h1 - 1) // m).astype(_STORE), side="right") - lo
            for _, rows, idx, _ in ep.row_pairs(lo, n, _PAIR_CHUNK):
                p = P[idx]
                F[(rows + 1) * p - h0] *= (1 - p ** -2.0) / (1 - 1.0 / p)  # m = rows + 1
        F /= scale
        if h0 == 0:
            F[0] = 0.0
        yield h0, F


# ---------------------------------------------------------------------------
# exact local densities

def _even_3mod4(p: int, D) -> Fraction:
    """Measure of a in Z_p with v_p(a + d) even for every d in D (p = 3 mod 4).

    An a in a class mod p that meets no -d has every v_p(a + d) = 0.  In the
    class of -d_c, for a class c of D mod p, a = -d_c + p b gives
    v_p(a + d) = 1 + v_p(b + (d - d_c)/p) for the d in c, which must be odd.
    """
    classes: dict = {}
    for d in D:
        classes.setdefault(d % p, []).append(d)
    odd = sum(_odd_3mod4(p, [(d - c[0]) // p for d in c]) for c in classes.values())
    return (p - len(classes) + odd) / p


def _odd_3mod4(p: int, D) -> Fraction:
    """Measure of a in Z_p with v_p(a + d) odd for every d in D (p = 3 mod 4)."""
    if len(D) == 1:
        return Fraction(1, p + 1)  # sum over b = 1, 3, ... of p^-b (1 - 1/p)
    if any((d - D[0]) % p for d in D):
        return Fraction(0)  # a + d = 0 mod p for at most one class of D
    return _even_3mod4(p, [(d - D[0]) // p for d in D]) / p


def _density_2(D, classes=range(4)) -> Fraction:
    """Measure of a in Z_2, a = r mod 4 for r in classes (equal masses), with every
    odd part of a + d = 1 mod 4.

    An odd r + d decides a + d = r + d (mod 4) at once; an even one leaves
    (a + d)/2 = (r + d)/2 + 2t over t in Z_2, that is the even a of the next level.
    """
    if not D:
        return Fraction(1)
    if len(D) == 1:
        return Fraction(1, 2)  # S_2 fills half of each class mod 2
    total = Fraction(0)
    for r in classes:
        if all((r + d) % 4 == 1 for d in D if (r + d) % 2):
            total += _density_2([(r + d) // 2 for d in D if (r + d) % 2 == 0], (0, 2))
    return total / len(classes)


def local_density(p: int, D: TupleConfig) -> Fraction:
    """Exact density delta_D(p) of the a in Z_p with every a + d in S_p.

    S_2 holds the n whose odd part is 1 mod 4, S_p for p = 3 mod 4 the n with
    v_p(n) even.  Each level of the recursion divides the differences of D by
    p, so it ends after about log_p(spread) levels.
    """
    if p % 4 == 1:
        raise ArgumentError("p must be 2 or 3 mod 4")
    if not D.offsets:
        return Fraction(1)
    return _density_2(D.offsets) if p == 2 else _even_3mod4(p, D.offsets)


def delta0(p: int) -> Fraction:
    """delta_{{0}}(p): 1/2 at p=2, (1+1/p)^-1 for p = 3 mod 4 (closed forms)."""
    if p == 2:
        return Fraction(1, 2)
    return 1 / (1 + Fraction(1, p))


def _closed_ratio(p: int, k: int) -> Fraction:
    """delta_D(p)/delta_0(p)^k for p = 3 mod 4 dividing no pairwise difference."""
    return (1 + Fraction(1, p)) ** (k - 1) * (1 - Fraction(k - 1, p))


TAIL_WINDOW = 10**6  # _tail_log sums the m >= 4 terms directly over primes up to here
# |prime_zeta_3mod4(s) / P3(s) - 1| at s = 2 and 3, the only s that _tail_log evaluates:
# 1.2e-15 and 5.5e-15 against a 40-digit mpmath P3 (tests/test_singular.py checks the bound)
P3_REL_ERROR = 1e-14
_EPS = float(np.finfo(float).eps)


def _sum_bound(a: int, m: int) -> float:
    """Bound on the sum of n^-m over n = a, a + 4, a + 8, ... (m >= 2)."""
    return a ** -float(m) * (1 + a / (4 * (m - 1)))


@lru_cache(maxsize=None)
def _tail_log(cutoff: int, k: int, terms: int = 60) -> tuple[float, float, float]:
    """(log prod_{p>cutoff, p=3(4)} (1+1/p)^(k-1) (1-(k-1)/p), truncation bound, rounding bound).

    Series sum_m c_m sum_{p>cutoff} p^-m with c_m = ((k-1)(-1)^(m+1)-(k-1)^m)/m.
    The m=1 coefficient cancels; for small m the restricted prime zeta minus the
    explicit head is accurate, but the cancellation noise blows up with m (the
    difference shrinks like nextprime^-m while both terms are ~3^-m), so larger
    m switch to a direct sum over the primes up to TAIL_WINDOW.

    The truncation bound covers the primes above the window in every direct
    m >= 4 term, and every term after the stopping m (|c_m| <= ((k-1)^m +
    k-1)/m, the p^-m sums bounded over n = 3 mod 4 by _sum_bound).  The
    rounding bound covers the evaluation: P3's own error (P3_REL_ERROR), and
    for every sum of n powers p^-m, 2 eps per power (numpy's power is within
    one ulp) and n eps for the sum, then eps for each difference, product
    with c_m and addition to the total.
    """
    if k == 1:
        return 0.0, 0.0, 0.0
    small = ep.primes_3mod4(cutoff).astype(float)
    mid = ep.primes_3mod4(TAIL_WINDOW).astype(float)
    mid = mid[mid > cutoff]
    a_tail, a_window = (n + 1 + (2 - n) % 4 for n in (cutoff, max(cutoff, TAIL_WINDOW)))
    total = dropped = rounding = 0.0
    for m in range(2, terms + 1):
        c_m = ((k - 1) * (-1) ** (m + 1) - float(k - 1) ** m) / m
        if c_m == 0.0:
            continue
        if m <= 3:
            pz, head = ep.prime_zeta_3mod4(float(m)), float(np.sum(small ** -float(m)))
            tail_pz = pz - head
            rounding += abs(c_m) * (P3_REL_ERROR * pz + (small.size + 2) * _EPS * head
                                    + _EPS * abs(tail_pz))
        else:
            with np.errstate(under="ignore"):
                tail_pz = float(np.sum(mid ** -float(m)))
            dropped += abs(c_m) * _sum_bound(a_window, m)
            rounding += abs(c_m) * (mid.size + 3) * _EPS * tail_pz
        term = c_m * tail_pz
        total += term
        rounding += _EPS * abs(total)
        if abs(term) < 1e-19 and m > 3:
            break
    # the terms after the loop's last m = M: for j > M, |c_j| _sum_bound(a, j) <=
    # (1 + a/4M)/(M+1) ((k-1)^j + k-1) a^-j, which sums as two geometric series
    r = (k - 1) / a_tail
    dropped += ((1 + a_tail / (4 * m)) / (m + 1)
                * (r ** (m + 1) / (1 - r) + (k - 1) * a_tail ** -(m + 1.0) / (1 - 1 / a_tail)))
    return total, dropped, rounding


PRIME_CUTOFF = 50  # primes = 3 mod 4 up to here get their own factor; the rest is the tail


def singular_series_general(D: TupleConfig) -> SingularValue:
    """S(D) = prod_{p != 1 (4)} delta_D(p)/delta_0(p)^k, exact densities + tail.

    S is translation invariant, so values are memoized by the normalized offsets.
    """
    return _singular_series(D.normalized(), PRIME_CUTOFF)


@lru_cache(maxsize=None)
def _singular_series(D: TupleConfig, prime_cutoff: int) -> SingularValue:
    k = D.k
    if k == 0 or k == 1:
        return SingularValue(1.0, "local_density_product", prime_cutoff, 0.0)
    if D.spread > 64 or k > 4:
        raise ArgumentError("oracle scale: spread <= 64 and k <= 4")
    diffs = D.differences()
    cutoff = max(prime_cutoff, D.spread)
    ratio = local_density(2, D) / delta0(2) ** k
    acc = float(ratio)
    for p in ep.primes_3mod4(cutoff).tolist():
        if any(d % p == 0 for d in diffs):
            r = local_density(p, D) / delta0(p) ** k
            acc *= float(r)
            if r == 0:
                break
        else:
            acc *= float(_closed_ratio(p, k))
    tail, dropped, rounding = _tail_log(cutoff, k)
    acc *= exp(tail)
    # |log error| <= dropped + rounding moves the value by at most acc (e^(dropped + rounding) - 1)
    return SingularValue(acc, "local_density_product", cutoff, acc * expm1(dropped + rounding))


def s0(D: TupleConfig) -> float:
    """S_0(D) = sum over subsets T of D of (-1)^(|D|-|T|) S(T)."""
    D = D.normalized()
    total = 0.0
    for r in range(D.k + 1):
        for sub in itertools.combinations(D.offsets, r):
            total += (-1) ** (D.k - r) * singular_series_general(TupleConfig(sub)).value
    return total


# ---------------------------------------------------------------------------
# exponentially weighted sums

# sum_{j>=0} j^m y^j = N_m(y)/(1-y)^(m+1) with N_0 = 1 and N_m = y A_m(y), A_m the
# Eulerian polynomial; _GEOMETRIC[m] holds the coefficients of N_m
_GEOMETRIC = ((1,), (0, 1), (0, 1, 1), (0, 1, 4, 1), (0, 1, 11, 11, 1))


def geometric_sum(q: int, v: int, H: float, k: int = 0) -> float:
    """E^(k)(q, v; H) = sum over h > 0, h = v (mod q), of h^k e^{-h/H}, exactly (k <= 4).

    With h = v0 + jq (v0 in 1..q) and y = e^{-q/H} this is
    e^{-v0/H} sum_m C(k,m) v0^(k-m) q^m sum_{j>=0} j^m y^j; q = 1 gives E^(k)(H).
    1 - y comes from expm1, so it keeps full precision when q/H is small.
    """
    if not isfinite(H) or H <= 0:
        raise ArgumentError(f"H must be finite and > 0, got {H}")
    if not 0 <= k < len(_GEOMETRIC):
        raise ArgumentError("0 <= k <= 4 required")
    v0 = v % q or q
    y, d = exp(-q / H), -expm1(-q / H)
    total = sum(comb(k, m) * v0 ** (k - m) * float(q) ** m
                * sum(c * y**i for i, c in enumerate(_GEOMETRIC[m])) / d**m
                for m in range(k + 1))
    return exp(-v0 / H) * total / d


WSUM_REL_TOL = 1e-9  # the weight e^{-h/H} past T = H log(3H/WSUM_REL_TOL) is dropped


@lru_cache(maxsize=None)
def _class_sums(q: int, H: float, K: float, k: int) -> tuple:
    """sum of S({0,h}) h^k e^{-h/H} over 1 <= h <= T with h = r (mod q), for r = 0..q-1.

    One pass over the c_h blocks serves every class: each block's products
    c_h w_h are summed per class by numpy's pairwise sum (a BLAS dot would
    sum them in an order that depends on its thread count), and the block
    sums are combined exactly.  The weights w_h = e^(-h/H) h^k are formed
    and multiplied into the block _WEIGHT_PIECE h at a time, elementwise, so
    the products are those of one block-long weight array bit for bit.
    """
    T = ceil(H * log(3 * H / WSUM_REL_TOL)) + 1
    parts = [[] for _ in range(q)]
    for h0, F in _ck_blocks(T, K):
        for a in range(0, F.size, _WEIGHT_PIECE):
            w = np.arange(h0 + a, h0 + min(a + _WEIGHT_PIECE, F.size), dtype=float)
            hk = w**k if k else None
            np.divide(w, -H, out=w)  # -h/H bit for bit, as the sign is exact
            with np.errstate(under="ignore"):
                np.exp(w, out=w)
            if k:
                w *= hk
            F[a:a + w.size] *= w
        lo = max(h0, 1)  # h = 0 is not summed
        for r in range(q):
            i = lo - h0 + (r - lo) % q  # the first h >= lo in the class r
            parts[r].append(float(F[i::q].sum()))
    return tuple(fsum(p) for p in parts)


def weighted_sum_S(q: int, v: int | None, H: float, K: float,
                   k: int = 0, subtract: bool = False) -> float:
    """S^(k)(q,v;H) (or the unrestricted S^(k)(H) when v is None).

    subtract=True gives the S_0 variant: the exact geometric part
    sum h^k e^{-h/H} (restricted to the class when v is given) is removed.
    """
    if not isfinite(H) or H <= 0:
        raise ArgumentError(f"H must be finite and > 0, got {H}")
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    if v is None:
        q, v = 1, 0
    elif q < 1:
        raise ArgumentError(f"q must be >= 1, got {q}")
    total = _class_sums(q, H, K, k)[v % q]
    if subtract:
        total -= geometric_sum(q, v, H, k)
    return total


def ms_sum(h: int, k: int) -> float:
    """sum of S_0(D) over all k-subsets D of {1..h} (exact enumeration)."""
    if comb(h, k) > 10**4:
        raise ResourceError("combinatorial budget exceeded")
    if k == 1:
        return 0.0
    # group by normalized difference pattern; S_0 is translation invariant
    counts: dict = {}
    for D in itertools.combinations(range(1, h + 1), k):
        key = tuple(d - D[0] for d in D)
        counts[key] = counts.get(key, 0) + 1
    total = 0.0
    for key, c in counts.items():
        total += c * s0(TupleConfig(key))
    return total
