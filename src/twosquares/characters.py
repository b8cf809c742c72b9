"""Dirichlet characters mod a prime q = 1 (mod 4) (and mod 4q) and zeta/L values.

The evaluators are plain binary64 and take real or complex s (scalar or
array), so every derivative in the package is a complex step of them
(complex_step):
  * hurwitz(s, a) - Euler-Maclaurin with Bernoulli tail, valid for
    Re s > -13, s != 1; hurwitz_regular(s, a) is the same sum without its
    pole term, and pole_difference combines two pole terms without
    cancellation, so (s-1) zeta(s) and L(s, chi4) stay accurate next to s = 1.
  * dirichlet_L(s, chi) - Hurwitz decomposition L(s,chi) = M^-s sum chi(a) zeta(s, a/M).
  * L_special(chi) - exact finite sums: L(0,chi) = -(1/M) sum a chi(a) and
    L(1,chi) = -(1/M) sum chi(a) psi(a/M) (digamma), for non-principal chi.
Characters are value tables over Z/M with exact roots of unity; mod-4q products
are built via CRT on units (values chi(a mod q) * chi4(a mod 4)).
check_modulus(q) is the package's one test of a modulus: every residue-class
statistic, constant and character table requires a prime q = 1 (mod 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log, pi

import cmath
import numpy as np

from .errors import ArgumentError

# B_2, B_4, ..., B_26
_BERNOULLI = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730, 8553103 / 6,
]
_EM_N = 18  # direct terms before the Euler-Maclaurin tail
_EM_M = 10  # Bernoulli terms
COMPLEX_STEP = 1e-30  # Im f(x + ih)/h = f'(x) + O(h^2): no difference, nothing cancels


def complex_step(f, s):
    """f'(s) at real s (scalar or array) for f real on the real axis and analytic near it."""
    return np.imag(f(s + 1j * COMPLEX_STEP)) / COMPLEX_STEP


def hurwitz(s, a: float = 1.0):
    """Hurwitz zeta(s, a) for s != 1 with Re s > -13, a > 0; real or complex s.

    `s` may be a scalar or a numpy array (elementwise evaluation).  A scalar s
    (float, complex, np.float64 or 0-d array) is computed once per process: it
    goes through a bounded memo keyed on (s, a) and the type of s.
    """
    if a <= 0:
        raise ArgumentError("a must be > 0")
    s = as_argument(s)
    return (_hurwitz_scalar if np.ndim(s) == 0 else _euler_maclaurin)(s, float(a))


def as_argument(s):
    """s as a Python float or complex (0-d) or a float64 or complex128 array, by its dtype."""
    s = np.asarray(s)
    s = s.astype(np.result_type(s, float), copy=False)
    return s.item() if s.ndim == 0 else s


def _euler_maclaurin(s, a: float, pole: bool = True):
    """zeta(s, a) from _EM_N direct terms and _EM_M Bernoulli terms.

    With pole=False the term w^(1-s)/(s-1), w = _EM_N + a, is left out: what
    remains is analytic at s = 1 (see hurwitz_regular).
    """
    if pole and np.any(s == 1):
        raise ArgumentError("pole at s = 1")
    if np.any(np.real(s) <= 1 - 2 * _EM_M):
        raise ArgumentError(f"s={s} below Euler-Maclaurin validity")
    v = 0.0
    for n in range(_EM_N):
        v += (n + a) ** (-s)
    w = _EM_N + a
    if pole:
        v += w ** (1 - s) / (s - 1)
    v += 0.5 * w ** (-s)
    # Bernoulli tail: sum_k B_2k/(2k)! * (s)_{2k-1} * w^(-s-2k+1)
    fact = 1.0
    poch = 1.0  # rising factorial (s)_{2k-1}
    i = 0
    for k in range(1, _EM_M + 1):
        while i < 2 * k - 1:
            poch = poch * (s + i)
            i += 1
        fact *= (2 * k) * (2 * k - 1) if k > 1 else 2
        v += _BERNOULLI[k - 1] / fact * poch * w ** (-s - 2 * k + 1)
    return v


# a memo hit skips the validity checks too; an exception is never cached;
# typed: a complex s never returns a float entry (or the reverse)
_hurwitz_scalar = lru_cache(maxsize=8192, typed=True)(_euler_maclaurin)


def hurwitz_regular(s, a: float):
    """(R, w) with zeta(s, a) = R + w^(1-s)/(s-1): the part of hurwitz analytic at s = 1."""
    return _euler_maclaurin(as_argument(s), float(a), pole=False), _EM_N + a


def pole_difference(s, w1: float, w2: float):
    """(w1^(1-s) - w2^(1-s))/(s-1), without the cancellation of the two terms near s = 1.

    It equals w1^(1-s) log(w2/w1) expm1(x)/x with x = (1-s) log(w2/w1).  For
    |x| < 1 the factor expm1(x)/x is its power series: the quotient would lose
    the imaginary part of a complex step to cancellation.
    """
    lr = log(w2 / w1)
    x = (1 - s) * lr
    ratio = 1.0  # sum_k x^k/(k+1)! by Horner; the omitted terms are below 1/20! for |x| < 1
    for k in range(20, 1, -1):
        ratio = 1 + x * ratio / k
    big = np.abs(x) >= 1
    ratio = np.where(big, np.expm1(x) / np.where(big, x, 1.0), ratio)
    return w1 ** (1 - s) * lr * ratio


def zeta_real(s, regularized: bool = False):
    """zeta(s), or (s-1) zeta(s) = (s-1) R + w^(1-s) (hurwitz_regular) when regularized.

    The regularized form has no pole to cancel: it is accurate next to s = 1
    and equals 1 there.
    """
    if regularized:
        R, w = hurwitz_regular(s, 1.0)
        return (s - 1) * R + w ** (1 - s)
    return hurwitz(s)


def digamma(x: float) -> float:
    """psi(x) for x > 0 via recurrence shift above 10 plus asymptotic series."""
    if x <= 0:
        raise ArgumentError("x must be > 0")
    v = 0.0
    while x < 10:
        v -= 1 / x
        x += 1
    v += log(x) - 0.5 / x
    x2 = 1 / (x * x)
    t = x2
    for k in range(1, 8):
        v -= _BERNOULLI[k - 1] / (2 * k) * t
        t *= x2
    return v


@dataclass(frozen=True)
class Character:
    """A Dirichlet character as its value table over Z/modulus."""

    modulus: int
    values: tuple  # complex values, length modulus (0 off units)

    def __call__(self, n: int) -> complex:
        if self.modulus == 1:
            return 1.0 + 0.0j
        return self.values[n % self.modulus]

    @property
    def is_principal(self) -> bool:
        return all(abs(v - 1) < 1e-12 for v in self.values if v != 0)

    @property
    def parity(self) -> int:
        """chi(-1), +1 or -1 (characters here are real-or-root-of-unity valued)."""
        if self.modulus == 1:
            return 1
        return 1 if abs(self(-1) - 1) < 1e-9 else -1

    def __mul__(self, other: "Character") -> "Character":
        m = np.lcm(self.modulus, other.modulus)
        vals = tuple(self(a) * other(a) for a in range(m))
        return Character(int(m), vals)

    def power(self, k: int) -> "Character":
        vals = tuple(v**k if v != 0 else 0j for v in self.values)
        return Character(self.modulus, vals)

    def conj(self) -> "Character":
        return Character(self.modulus, tuple(v.conjugate() for v in self.values))


TRIVIAL = Character(1, (1 + 0j,))
CHI4 = Character(4, (0j, 1 + 0j, 0j, -1 + 0j))


def _primitive_root(q: int) -> int:
    phi = q - 1
    fac = []
    m = phi
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, q):
        if all(pow(g, phi // f, q) != 1 for f in fac):
            return g
    raise ArgumentError(f"no primitive root for q={q}")


@dataclass(frozen=True)
class CharacterTable:
    q: int
    generator: int
    characters: tuple  # phi(q) Character objects, index 0 = principal
    parities: tuple

    @property
    def principal(self) -> Character:
        return self.characters[0]

    def odd(self):
        return [c for c, p in zip(self.characters, self.parities) if p == -1]

    def non_principal(self):
        return list(self.characters[1:])


def check_modulus(q: int) -> None:
    """ArgumentError unless q is a prime = 1 (mod 4)."""
    if q % 4 != 1 or q < 5 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        raise ArgumentError(f"q={q} must be a prime = 1 mod 4")


@lru_cache(maxsize=None)
def character_table(q: int) -> CharacterTable:
    """All phi(q) = q-1 characters of a prime modulus q = 1 (mod 4) via a primitive root."""
    check_modulus(q)
    g = _primitive_root(q)
    phi = q - 1
    dlog = {}
    t, acc = 0, 1
    for t in range(phi):
        dlog[acc] = t
        acc = acc * g % q
    chars = []
    for k in range(phi):
        vals = [0j] * q
        for a in range(1, q):
            vals[a] = cmath.exp(2j * pi * k * dlog[a] / phi)
        chars.append(Character(q, tuple(vals)))
    parities = tuple(ch.parity for ch in chars)
    return CharacterTable(q=q, generator=g, characters=tuple(chars), parities=parities)


def _principal_L(s, modulus: int):
    """L-series of the principal character mod `modulus` (imprimitive zeta)."""
    v = zeta_real(s)
    m = modulus
    p = 2
    while p * p <= m:
        if m % p == 0:
            v *= 1 - p ** (-s)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        v *= 1 - m ** (-s)
    return v + 0j


def dirichlet_L(s, chi: Character):
    """L(s, chi) (as the Dirichlet series of chi's value table) at s != 1, real or complex.

    `s` may be a scalar or a numpy array (elementwise evaluation).  For
    principal chi the value is zeta(s) * prod_{p | M}(1 - p^-s); at s = 1 that
    is a pole and an ArgumentError is raised.
    """
    M = chi.modulus
    if chi.is_principal:
        if np.any(np.asarray(s) == 1):
            raise ArgumentError("principal character: pole at s = 1")
        return _principal_L(s, M)
    if np.ndim(s) == 0 and s == 1:
        return L_special(chi)[1]
    v = 0j
    for a in range(1, M):
        c = chi.values[a]
        if c != 0:
            v += c * hurwitz(s, a / M)
    return M ** (-s) * v


def L_special(chi: Character):
    """(L(0,chi), L(1,chi)) by the exact finite sums, chi non-principal."""
    if chi.is_principal:
        raise ArgumentError("chi must be non-principal")
    M = chi.modulus
    L0 = -sum(a * chi.values[a] for a in range(1, M)) / M
    L1 = -sum(chi.values[a] * digamma(a / M) for a in range(1, M) if chi.values[a] != 0) / M
    return L0, L1
