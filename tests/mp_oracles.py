"""mpmath re-derivations shared by the oracle tests; they use no package code.

ep3(w) = prod_{p=3(4)} (1 - p^-w) for Re w > 1 comes from the doubling
identity T(w)^2 = [L(w,chi4) / (zeta(w)(1-2^-w))] T(2w), iterated `depth`
times, with the level-depth remainder a short direct product.  K follows as
K = (2 ep3(2))^{-1/2}.  The prime sum over p = 3 mod 4 comes from mp.primezeta
and a Moebius sum of log L(ks, chi4).  Callers fix the working precision.
"""

import mpmath as mp

CHI4 = [0, 1, 0, -1]
# primes = 3 mod 4 below 100; beyond them p^-(2^5 w) is below 1e-60 for Re w > 1
_P3 = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)


def ep3(w, depth=5):
    acc = mp.mpf(1)
    for j in range(depth):
        u = 2**j * w
        ratio = mp.dirichlet(u, CHI4) / (mp.zeta(u) * (1 - mp.power(2, -u)))
        acc *= ratio ** (mp.mpf(1) / 2 ** (j + 1))
    u = 2**depth * w
    tail = mp.fprod(1 - mp.power(p, -u) for p in _P3)
    return acc * tail ** (mp.mpf(1) / 2**depth)


def landau_ramanujan():
    return 1 / mp.sqrt(2 * ep3(2))


def _mobius(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def prime_zeta_3mod4(s, cutoff=mp.mpf(10) ** -40):
    """sum_{p=3(4)} p^-s = (P(s) - 2^-s - P_chi4(s))/2, P = mp.primezeta.

    P_chi4(s) = sum_p chi4(p) p^-s = sum_k mu(k)/k log L(ks, chi4^k) (Moebius
    inversion of log L), where chi4^k is chi4 for odd k and the principal
    character mod 4 for even k; the terms fall like 3^-ks.
    """
    s = mp.mpf(s)
    p_chi4, k = mp.mpf(0), 1
    while mp.power(3, -k * s) > cutoff:
        if _mobius(k):
            chi = CHI4 if k % 2 else [0, 1, 0, 1]
            p_chi4 += mp.mpf(_mobius(k)) / k * mp.log(mp.dirichlet(k * s, chi))
        k += 1
    return (mp.primezeta(s) - mp.power(2, -s) - p_chi4) / 2
