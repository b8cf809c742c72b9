"""Dirichlet characters mod a prime q = 1 (mod 4) (and mod 4q) and real-axis zeta/L values.

All evaluators are plain binary64:
  * hurwitz(s, a) - Euler-Maclaurin with Bernoulli tail, valid for real
    s > -13, s != 1; optional analytic d/ds.
  * dirichlet_L(s, chi) - Hurwitz decomposition L(s,chi) = M^-s sum chi(a) zeta(s, a/M),
    scalar or array s.
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
from math import floor, log, pi

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


def hurwitz(s, a: float = 1.0, derivative: bool = False):
    """Hurwitz zeta(s, a) for real s != 1, a > 0; optionally (value, d/ds value).

    `s` may be a scalar or a numpy array (elementwise evaluation).  A scalar s
    (float, np.float64 or 0-d array) is computed once per process: it goes
    through a bounded memo keyed on (float(s), a, derivative).
    """
    if a <= 0:
        raise ArgumentError("a must be > 0")
    if np.ndim(s) == 0:
        return _hurwitz_scalar(float(s), float(a), derivative)
    return _euler_maclaurin(np.asarray(s, dtype=float), a, derivative)


def _euler_maclaurin(s, a: float, derivative: bool):
    """zeta(s, a) (and d/ds) from _EM_N direct terms and _EM_M Bernoulli terms."""
    if np.any(s == 1):
        raise ArgumentError("pole at s = 1")
    if np.any(s <= 1 - 2 * _EM_M):
        raise ArgumentError(f"s={s} below Euler-Maclaurin validity")
    v = 0.0
    dv = 0.0
    for n in range(_EM_N):
        t = (n + a) ** (-s)
        v += t
        if derivative:
            dv -= log(n + a) * t
    w = _EM_N + a
    lw = log(w)
    t = w ** (1 - s) / (s - 1)
    v += t
    if derivative:
        dv += w ** (1 - s) * (-lw / (s - 1) - 1 / (s - 1) ** 2)
    t = 0.5 * w ** (-s)
    v += t
    if derivative:
        dv -= lw * t
    # Bernoulli tail: sum_k B_2k/(2k)! * (s)_{2k-1} * w^(-s-2k+1)
    fact = 1.0
    poch = 1.0   # rising factorial (s)_{2k-1}
    dpoch = 0.0  # its s-derivative
    i = 0
    for k in range(1, _EM_M + 1):
        while i < 2 * k - 1:
            dpoch = dpoch * (s + i) + poch
            poch = poch * (s + i)
            i += 1
        fact *= (2 * k) * (2 * k - 1) if k > 1 else 2
        c = _BERNOULLI[k - 1] / fact
        wp = w ** (-s - 2 * k + 1)
        v += c * poch * wp
        if derivative:
            dv += c * wp * (dpoch - poch * lw)
    return (v, dv) if derivative else v


# a memo hit skips the validity checks too; an exception is never cached
_hurwitz_scalar = lru_cache(maxsize=8192)(_euler_maclaurin)


def zeta_real(s: float, regularized: bool = False) -> float:
    """zeta(s) for real s > -13 (or (s-1)zeta(s) when regularized, smooth at s=1)."""
    if regularized:
        if np.ndim(s) > 0:
            return np.where(s == 1, 1.0, (s - 1) * hurwitz(np.where(s == 1, 2.0, s)))
        if s == 1:
            return 1.0
        return (s - 1) * hurwitz(s)
    if np.ndim(s) == 0 and s <= 0 and s == floor(s):
        if s == 0:
            return -0.5
        # trivial zeros / negative odd values not needed; fall through to EM
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
    """L(s, chi) (as the Dirichlet series of chi's value table) at real s != 1.

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
