"""Dirichlet characters mod a prime q = 1 (mod 4) (and mod 4q) and zeta/L values.

The evaluators are plain binary64 and take real or complex s (scalar or
array), so every derivative in the package is a complex step of them
(complex_step):
  * hurwitz(s, a) - Euler-Maclaurin with Bernoulli tail, valid for
    Re s > -13, s != 1, evaluated on an (s, a) grid at once: one array power
    gives the direct terms, and the pole, 1/2 and Bernoulli terms reuse w^-s.
    hurwitz_regular(s, a) is the same sum without its pole term, and
    pole_difference combines two pole terms without cancellation, so
    (s-1) zeta(s) and L(s, chi4) stay accurate next to s = 1.
  * dirichlet_L(s, chi) - Hurwitz decomposition L(s,chi) = M^-s sum chi(a) zeta(s, a/M),
    one product of the grid over a = 1..M-1 with chi's value table.  For
    non-principal chi, sum chi(a) = 0 turns the pole terms into pole
    differences, so the value is analytic at s = 1.  For a scalar s the grid is
    computed once per process per (s, M), and every character mod M shares it.
  * L_special(chi) - exact finite sums: L(0,chi) = -(1/M) sum a chi(a) and
    L(1,chi) = -(1/M) sum chi(a) psi(a/M) (digamma, scalar or array), for
    non-principal chi.
Characters are value tables over Z/M read from one table of roots of unity;
mod-4q products are built via CRT on units (values chi(a mod q) * chi4(a mod 4)).
A character builds its array, chi * chi4, chi^2 and is_principal once.
check_modulus(q) is the package's one test of a modulus: every residue-class
statistic, constant and character table requires a prime q = 1 (mod 4).
factorize(n) is the package's one factorizer: primitive roots, the modulus
test, principal L-values, Moebius, the pair singular series and membership
in E all read its (p, e) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, pi

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
_EM_COEF = [b / factorial(2 * k) for k, b in enumerate(_BERNOULLI[:_EM_M], start=1)]
_DIRECT = np.arange(_EM_N, dtype=float)
COMPLEX_STEP = 1e-30  # Im f(x + ih)/h = f'(x) + O(h^2): no difference, nothing cancels


def complex_step(f, s):
    """f'(s) at real s (scalar or array) for f real on the real axis and analytic near it."""
    return np.imag(f(s + 1j * COMPLEX_STEP)) / COMPLEX_STEP


def hurwitz(s, a: float = 1.0):
    """Hurwitz zeta(s, a) for s != 1 with Re s > -13, a > 0; real or complex s.

    `s` may be a scalar or a numpy array (elementwise evaluation).  A scalar s
    (float, complex, np.float64 or 0-d array) gives a Python float or complex.
    """
    if a <= 0:
        raise ArgumentError("a must be > 0")
    return _scalar_or_array(_euler_maclaurin(as_argument(s), float(a)))


def as_argument(s):
    """s as a Python float or complex (0-d) or a float64 or complex128 array, by its dtype."""
    s = np.asarray(s)
    s = s.astype(np.result_type(s, float), copy=False)
    return s.item() if s.ndim == 0 else s


def _scalar_or_array(v):
    return v.item() if v.ndim == 0 else v


def _euler_maclaurin(s, a, pole: bool = True):
    """zeta(s, a) on the grid s.shape + a.shape, from _EM_N direct terms and _EM_M Bernoulli terms.

    One array power gives every direct term (n + a)^-s.  w^-s, w = _EM_N + a,
    is the one other power: the pole, 1/2 and Bernoulli terms are
    w^(1-s)/(s-1), w^-s/2 and B_2k/(2k)! (s)_{2k-1} w^(-s-2k+1), and take it
    times w^(1-2k).  With pole=False the pole term is left out: what remains
    is analytic at s = 1 (see hurwitz_regular).
    """
    if pole and np.any(s == 1):
        raise ArgumentError("pole at s = 1")
    if np.any(np.real(s) <= 1 - 2 * _EM_M):
        raise ArgumentError(f"s={s} below Euler-Maclaurin validity")
    a = np.asarray(a, dtype=float)
    shape = np.shape(s) + a.shape
    # flat, so a scalar s takes numpy's array pow like every entry of an array s;
    # broadcasts to the (s, a) grid
    s = np.reshape(s, (-1,) + (1,) * a.ndim)
    # the n axis is last and contiguous, so every grid point is summed alike
    v = np.sum((a[..., None] + _DIRECT) ** -s[..., None], axis=-1)
    w = _EM_N + a
    ws = w ** -s
    if pole:
        v = v + ws * w / (s - 1)
    v = v + 0.5 * ws
    t, w2 = ws / w, w ** -2.0
    poch = s  # rising factorial (s)_{2k-1}
    tail = 0.0
    for k, coef in enumerate(_EM_COEF, start=1):
        tail = tail + coef * poch * t
        poch, t = poch * (s + 2 * k - 1) * (s + 2 * k), t * w2
    return np.reshape(v + tail, shape)


def hurwitz_regular(s, a: float):
    """(R, w) with zeta(s, a) = R + w^(1-s)/(s-1): the part of hurwitz analytic at s = 1."""
    return _scalar_or_array(_euler_maclaurin(as_argument(s), float(a), pole=False)), _EM_N + a


def pole_difference(s, w1, w2):
    """(w1^(1-s) - w2^(1-s))/(s-1), without the cancellation of the two terms near s = 1.

    It equals w1^(1-s) log(w2/w1) expm1(x)/x with x = (1-s) log(w2/w1).  For
    |x| < 1 the factor expm1(x)/x is its power series: the quotient would lose
    the imaginary part of a complex step to cancellation.  s, w1 and w2 broadcast.
    """
    lr = np.log(np.divide(w2, w1))
    x = (1 - s) * lr
    ratio = 1.0  # sum_k x^k/(k+1)! by Horner; the omitted terms are below 1/20! for |x| < 1
    for k in range(20, 1, -1):
        ratio = 1 + x * ratio / k
    big = np.abs(x) >= 1
    if np.any(big):
        ratio = np.where(big, np.expm1(x) / np.where(big, x, 1.0), ratio)
    return np.power(w1, 1 - s) * lr * ratio


def zeta_real(s, regularized: bool = False):
    """zeta(s), or (s-1) zeta(s) = (s-1) R + w^(1-s) (hurwitz_regular) when regularized.

    The regularized form has no pole to cancel: it is accurate next to s = 1
    and equals 1 there.
    """
    if regularized:
        R, w = hurwitz_regular(s, 1.0)
        return (s - 1) * R + w ** (1 - s)
    return hurwitz(s)


def digamma(x):
    """psi(x) for x > 0 (scalar or array) via recurrence shift above 10 plus asymptotic series."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ArgumentError("x must be > 0")
    v = np.zeros_like(x)
    while np.any(small := x < 10):
        v = v - np.where(small, 1 / x, 0.0)
        x = np.where(small, x + 1, x)
    v = v + (np.log(x) - 0.5 / x)
    x2 = 1 / (x * x)
    t = x2
    for k in range(1, 8):
        v = v - _BERNOULLI[k - 1] / (2 * k) * t
        t = t * x2
    return _scalar_or_array(v)


@dataclass(frozen=True)
class Character:
    """A Dirichlet character as its value table over Z/modulus."""

    modulus: int
    values: tuple  # complex values, length modulus (0 off units)

    def __call__(self, n: int) -> complex:
        if self.modulus == 1:
            return 1.0 + 0.0j
        return self.values[n % self.modulus]

    @cached_property
    def is_principal(self) -> bool:
        return all(abs(v - 1) < 1e-12 for v in self.values if v != 0)

    @cached_property
    def array(self) -> np.ndarray:
        """The value table as a read-only complex array."""
        out = np.array(self.values, dtype=complex)
        out.flags.writeable = False
        return out

    @cached_property
    def twisted(self) -> "Character":
        """chi * chi4, built once per character."""
        return self * CHI4

    @cached_property
    def squared(self) -> "Character":
        """chi^2, built once per character."""
        return self.power(2)

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
    fac = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if all(pow(g, phi // f, q) != 1 for f in fac):
            return g
    raise ArgumentError(f"no primitive root for q={q}")


@dataclass(frozen=True)
class CharacterTable:
    q: int
    characters: tuple  # phi(q) Character objects, index 0 = principal
    parities: tuple

    @property
    def principal(self) -> Character:
        return self.characters[0]

    def odd(self):
        return [c for c, p in zip(self.characters, self.parities) if p == -1]

    def non_principal(self):
        return list(self.characters[1:])


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (p, e) pairs, p ascending; factorize(1) == [].

    Trial division by 2, then by odd d while d^2 <= the unfactored part.
    """
    if n < 1:
        raise ArgumentError(f"n={n} must be >= 1")
    out = []
    v = (n & -n).bit_length() - 1  # the power of 2 in n
    if v:
        out.append((2, v))
        n >>= v
    d = 3
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2
    if n > 1:
        out.append((n, 1))
    return out


def check_modulus(q: int) -> None:
    """ArgumentError unless q is a prime = 1 (mod 4)."""
    if q < 5 or q % 4 != 1 or factorize(q) != [(q, 1)]:
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
    # one table of phi-th roots of unity, exact at the quarter turns: every value
    # is within an ulp of its root, so sum chi(a) = 0 to rounding (dirichlet_L needs it)
    roots = [cmath.exp(2j * pi * j / phi) for j in range(phi)]
    roots[::phi // 4] = [1 + 0j, 1j, -1 + 0j, -1j]
    chars = []
    for k in range(phi):
        vals = [0j] * q
        for a in range(1, q):
            vals[a] = roots[k * dlog[a] % phi]
        chars.append(Character(q, tuple(vals)))
    parities = tuple(ch.parity for ch in chars)
    return CharacterTable(q=q, characters=tuple(chars), parities=parities)


def _principal_L(s, modulus: int):
    """L-series of the principal character mod `modulus` (imprimitive zeta)."""
    v = zeta_real(s)
    for p, _ in factorize(modulus):
        v *= 1 - p ** (-s)
    return v + 0j


def dirichlet_L(s, chi: Character):
    """L(s, chi) (as the Dirichlet series of chi's value table), real or complex s.

    `s` may be a scalar or a numpy array (elementwise evaluation).  For
    principal chi the value is zeta(s) * prod_{p | M}(1 - p^-s); at s = 1 that
    is a pole and an ArgumentError is raised.  Otherwise it is
    M^-s sum_a _L_grid(s, M)[a-1] chi(a), analytic at s = 1.
    """
    M = chi.modulus
    if chi.is_principal:
        if np.any(np.asarray(s) == 1):
            raise ArgumentError("principal character: pole at s = 1")
        return _principal_L(s, M)
    s = as_argument(s)
    grid = _L_grid(s, M) if np.ndim(s) == 0 else _L_grid.__wrapped__(s, M)
    c = chi.array[1:]
    # the table sums to 0 only to rounding: taking the grid's mean off every entry
    # changes nothing exact and keeps that rounding from multiplying the grid's level
    v = M ** (-s) * ((grid * c).sum(axis=-1) - grid.mean(axis=-1) * c.sum())
    return complex(v) if np.ndim(s) == 0 else v


@lru_cache(maxsize=256, typed=True)
def _L_grid(s, M: int):
    """zeta(s, a/M) for a = 1..M-1 on the grid s.shape + (M-1,), minus a common pole term.

    Each zeta(s, a/M) = R_a + w_a^(1-s)/(s-1) (hurwitz_regular).  A non-principal
    chi has sum chi(a) = 0, so subtracting the pole term of a = 1 from every
    entry leaves sum chi(a) zeta(s, a/M) as it is, and R_a plus the pole
    difference (pole_difference) has no pole at s = 1.  Memoized for scalar s
    (a hit skips the validity checks; an exception is never cached; typed: a
    float s never returns a complex entry), so every character mod M shares it.
    """
    a = np.arange(1, M) / M
    w = _EM_N + a
    grid = _euler_maclaurin(s, a, pole=False)
    grid += pole_difference(np.reshape(s, np.shape(s) + (1,)), w, w[0])
    grid.flags.writeable = False
    return grid


def L_special(chi: Character):
    """(L(0,chi), L(1,chi)) by the exact finite sums, chi non-principal."""
    if chi.is_principal:
        raise ArgumentError("chi must be non-principal")
    M = chi.modulus
    a = np.arange(1, M)
    vals = chi.array[1:]
    return complex(-(a * vals).sum() / M), complex(-(digamma(a / M) * vals).sum() / M)
