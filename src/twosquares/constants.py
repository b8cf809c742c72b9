"""Numerical constants: K, omega, Z'(0), expansion coefficients, C_{q,chi}, C_{a,b}.

Closed forms where available; otherwise a numeric Taylor oracle.  The oracle
expands P(s) = s^{3/2} D(s) Gamma(s) around s = 0, where
    D(s) = zeta(s) zeta(s+1)^{1/2} M(s),
    M(s) = (1 - 2^-s + 2^-2s) [L(s+1,chi4) (1 - 2^-(s+1)) ep3(2s+2)]^{-1/2},
and P is analytic at 0 (s*zeta(s+1) -> 1).  Writing P(s) = sum_j p_j s^j the
descending-log coefficients are c(j) = p_j / (2 K^2 Gamma(3/2 - j)); for the
residue-restricted version multiply by the analytic factor (1 - q^-s)/s before
reading off coefficients.  The p_j come from the trapezoid rule for Cauchy's
integral on the circle |s| = 1/4, where the evaluators run at complex s;
omega's beta1 is a complex step of the same evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gamma as gamma_fn, lgamma, log, pi, sqrt

import cmath
import numpy as np

from . import characters as chars
from . import eulerprod as ep
from . import refdata
from .errors import AccuracyError, ArgumentError

EULER_GAMMA = 0.57721566490153286061  # hard-coded universal constant


@lru_cache(maxsize=1)
def landau_ramanujan() -> float:
    """K = 2^{-1/2} prod_{p=3(4)} (1-p^-2)^{-1/2}, accelerated.

    Certified by a second evaluation whose direct product starts at exponent
    2 TAIL_FROM = 16 instead of 8 (one more doubling level); the two must
    agree to 1e-10.
    """
    k1 = (2 * ep.ep3(2.0)) ** -0.5
    k2 = (2 * np.exp(ep.log_ep3(2.0, _tail_from=2 * ep.TAIL_FROM).real)) ** -0.5
    if abs(k1 - k2) > 1e-10:
        raise AccuracyError(f"direct product from u >= {ep.TAIL_FROM:g} vs {2 * ep.TAIL_FROM:g}"
                            f" disagree: {k1} vs {k2}", partial=k1)
    return k1


def alpha1() -> float:
    """L'(1,chi4)/L(1,chi4) via the Gamma(1/4) closed form."""
    return EULER_GAMMA + 2 * log(2.0) + 3 * log(pi) - 4 * lgamma(0.25)


@lru_cache(maxsize=1)
def omega_constant() -> float:
    """omega = log(2/pi^2) + L'(1,chi4)/L(1,chi4) + 2 sum_{p=3(4)} log p/(p^2-1)."""
    return log(2 / pi**2) + alpha1() + ep.beta1()


def z_prime_0() -> float:
    return landau_ramanujan() / sqrt(pi) * omega_constant()


def selberg_delange_coeffs(q: int):
    """(c(1), c0(1), c1(1)) closed forms for prime q = 1 mod 4."""
    chars.check_modulus(q)
    K, om = landau_ramanujan(), omega_constant()
    c1 = (om + EULER_GAMMA) / (2 * pi * K)
    c1_1 = -log(q) / (K * (q - 1) * pi)
    c0_1 = ((om + EULER_GAMMA) / 2 + log(q)) / (K * pi)
    return c1, c0_1, c1_1


def _sqrt_pos(z: complex, what: str) -> complex:
    """Principal square root, asserting the radicand is not on the cut side."""
    if isinstance(z, complex) and z.real <= 0 and abs(z.imag) < 1e-14:
        raise AccuracyError(f"{what}: radicand {z} has non-positive real part")
    if not isinstance(z, complex) and z <= 0:
        raise AccuracyError(f"{what}: radicand {z} <= 0")
    return complex(z) ** 0.5


def C_q_chi(q: int, chi: chars.Character) -> complex:
    """C_{q,chi} = L(0,chi) L(1,chi)^{1/2} M_chi(0) for non-principal chi mod q.

    M_chi(0) = (1 - chi(2) + chi(4)) (1 - chi(2)/2)^{-1/2} L(1, chi*chi4)^{-1/2}
               * prod_{p=3(4)} (1 - chi(p)^2 p^-2)^{-1/2}.
    Nonzero only for odd chi (even chi have L(0,chi) = 0).
    """
    if chi.is_principal:
        raise ArgumentError("chi must be non-principal")
    if chi.parity == 1:  # even character: L(0, chi) = 0 exactly
        return 0j
    L0, L1 = chars.L_special(chi)
    cross = chars.L_special(chi.twisted)[1]
    c2 = chi(2)
    val = (
        L0
        * _sqrt_pos(L1, "L(1,chi)")
        * (1 - c2 + chi(4))
        / _sqrt_pos(1 - c2 / 2, "(1-chi(2)/2)")
        / _sqrt_pos(cross, "L(1,chi*chi4)")
        * cmath.exp(-0.5 * ep.log_ep3(2.0, chi.squared))
    )
    return val


@lru_cache(maxsize=None)
def _C_q_chi_all(q: int):
    t = chars.character_table(q)
    return [(chi, C_q_chi(q, chi)) for chi in t.non_principal()]


def _character_sum(q: int, v: int) -> float:
    """sum_{chi != chi0} conj(chi)(v) C_{q,chi}, which is real: its imaginary part is checked."""
    s = sum(chi(v).conjugate() * c for chi, c in _C_q_chi_all(q))
    if abs(s.imag) > 1e-10:
        raise AccuracyError(f"character sum at v = {v} mod {q}: imaginary part {s.imag} too large")
    return s.real


def C_ab(q: int, a: int, b: int) -> float:
    """C_{a,b} = (q / (2 K phi(q))) sum_{chi != chi0} conj(chi)(b-a) C_{q,chi}."""
    chars.check_modulus(q)
    if (a - b) % q == 0:
        raise ArgumentError("a = b mod q: off-diagonal only")
    return _character_sum(q, b - a) * (q / (2 * landau_ramanujan() * (q - 1)))


def residue_constant(q: int, v: int) -> float:
    """Constant term of S(q, v; H) for v != 0: (1/(2K^2 phi(q))) sum conj(chi)(v) C_{q,chi}."""
    chars.check_modulus(q)
    K = landau_ramanujan()
    return _character_sum(q, v) / (2 * K * K * (q - 1))


def pair_conjecture_C1(q: int) -> float:
    """C1 = (sqrt2 phi(q)/pi)(log K + (omega+gamma)/2) + sqrt2 q log q / pi."""
    chars.check_modulus(q)
    K, om = landau_ramanujan(), omega_constant()
    return (sqrt(2) * (q - 1) / pi) * (log(K) + (om + EULER_GAMMA) / 2) + sqrt(2) * q * log(q) / pi


# ---------------------------------------------------------------------------
# numeric Taylor oracle for the j >= 2 coefficients

def _M_of_s(s):
    """M(s) = (1-2^-s+2^-2s) [L(s+1,chi4)(1-2^-(s+1)) ep3(2s+2)]^{-1/2}."""
    A = 1 - 2.0 ** (-s) + 2.0 ** (-2 * s)
    rad = ep.dirichlet_chi4(s + 1) * (1 - 2.0 ** (-(s + 1))) * ep.ep3(2 * (s + 1))
    if np.any(np.real(rad) <= 0):
        raise AccuracyError(f"M(s) radicand has real part <= 0 at s={s}")
    return A / np.sqrt(rad)


def _gamma1p(s):
    """Gamma(1+s) = exp(-gamma s + sum_{k>=2} zeta(k) (-s)^k / k), to 1e-19 on |s| <= 1/4."""
    return np.exp(-EULER_GAMMA * s + sum((-s) ** k * chars.zeta_real(float(k)) / k
                                         for k in range(2, 30)))


def _P_of_s(s):
    """s^{3/2} D(s) Gamma(s) = zeta(s) * (s zeta(s+1))^{1/2} * M(s) * Gamma(s+1), |s| <= 1/4."""
    reg = chars.zeta_real(s + 1, regularized=True)  # = s*zeta(s+1), -> 1 at 0
    if np.any(np.real(reg) <= 0):
        raise AccuracyError(f"s*zeta(s+1) has real part <= 0 at s={s}")
    return chars.zeta_real(s) * np.sqrt(reg) * _M_of_s(s) * _gamma1p(s)


TAYLOR_RADIUS = 0.25  # half the distance to P's nearest singularity, ep3(2s+2) at s = -1/2


@lru_cache(maxsize=8)
def _p_taylor(j_max: int) -> tuple:
    """Taylor coefficients p_0..p_{j_max} of P(s) at 0; they do not depend on q.

    The trapezoid rule p_j = mean_k P(s_k) s_k^-j on n points of |s| = 1/4
    errs by the aliased p_{j+n} r^n, about 2^-n.  Certificate: the rules on
    128 points and on every other one of them (64) agree to 1e-12.
    """
    s = TAYLOR_RADIUS * np.exp(2j * pi * np.arange(128) / 128)
    vals = _P_of_s(s)
    fine, coarse = np.array([[np.mean(vals[::k] * s[::k] ** -j).real for j in range(j_max + 1)]
                             for k in (1, 2)])
    if np.any(np.abs(fine - coarse) > 1e-12 * np.maximum(1.0, np.abs(fine))):
        raise AccuracyError(f"Taylor circle, 64 vs 128 nodes disagree: {coarse} vs {fine}",
                            partial=tuple(fine))
    return tuple(fine.tolist())


@lru_cache(maxsize=None)
def higher_coeffs_numeric(j_max: int = 3, q: int = 5):
    """map j -> (c(j), c0(j), c1(j)) for 1 <= j <= j_max, via the Taylor oracle."""
    if j_max > 4:
        raise ArgumentError("j_max <= 4")
    chars.check_modulus(q)
    K = landau_ramanujan()
    pcoef = _p_taylor(j_max)
    # multiply by (1 - q^-s)/s = sum_n (-1)^n log(q)^{n+1}/(n+1)! * s^n
    lq = log(q)
    gcoef = [(-1) ** n * lq ** (n + 1) / gamma_fn(n + 2) for n in range(j_max + 1)]
    qcoef = [sum(pcoef[i] * gcoef[n - i] for i in range(n + 1)) for n in range(j_max + 1)]
    out = {}
    for j in range(1, j_max + 1):
        g = gamma_fn(1.5 - j)
        c_j = pcoef[j] / (2 * K * K * g)
        c_j_chi0 = qcoef[j - 1] / (2 * K * K * g)
        out[j] = (c_j, c_j - c_j_chi0, c_j_chi0 / (q - 1))
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsBundle:
    q: int
    K: float
    gamma: float
    omega: float
    z_prime_0: float
    c1_landau: float
    c_j: dict
    c0_j: dict
    c1_j: dict
    C_q_chi: dict      # character index (in table order, 1..phi-1) -> complex
    C_ab: dict         # residue difference v != 0 -> real
    residue_const: dict  # v != 0 -> constant term of S(q,v;H)
    pair_C1: float
    method_tags: dict = field(default_factory=dict)

    def as_json_dict(self) -> dict:
        return {
            "q": self.q,
            "K": self.K,
            "gamma": self.gamma,
            "omega": self.omega,
            "z_prime_0": self.z_prime_0,
            "c1_landau": self.c1_landau,
            "c_j": {str(j): v for j, v in self.c_j.items()},
            "c0_j": {str(j): v for j, v in self.c0_j.items()},
            "c1_j": {str(j): v for j, v in self.c1_j.items()},
            "C_q_chi": {str(k): [v.real, v.imag] for k, v in self.C_q_chi.items()},
            "C_ab": {str(v): c for v, c in self.C_ab.items()},
            "pair_C1": self.pair_C1,
            "method_tags": self.method_tags,
        }


@lru_cache(maxsize=None)
def build_bundle(q: int = 5) -> ConstantsBundle:
    """Every constant for modulus q, with the coefficient families c_j, c0_j, c1_j for j <= 3."""
    chars.check_modulus(q)
    K = landau_ramanujan()
    om = omega_constant()
    c1, c0_1, c1_1 = selberg_delange_coeffs(q)
    hi = higher_coeffs_numeric(3, q)
    c_j = {1: c1}
    c0_j = {1: c0_1}
    c1_j = {1: c1_1}
    for j in (2, 3):
        c_j[j], c0_j[j], c1_j[j] = hi[j]
    cqchi = {i + 1: c for i, (chi, c) in enumerate(_C_q_chi_all(q))}
    cab = {v: C_ab(q, 0, v) for v in range(1, q)}
    rconst = {v: residue_constant(q, v) for v in range(1, q)}
    tags = {
        "K": "twisted doubling identity (trivial chi), certified against one more level",
        "gamma": "hard-coded 20 digits",
        "omega": "log(2/pi^2) + Gamma(1/4) closed form + complex step of the doubling identity",
        "c_j>=2": "Taylor oracle: trapezoid rule on |s| = 1/4, 64 vs 128 nodes certified",
        "C_q_chi": "finite L-sums x twisted doubling identity Euler product",
        "c1_landau": "fixed literature value",
    }
    return ConstantsBundle(
        q=q, K=K, gamma=EULER_GAMMA, omega=om, z_prime_0=z_prime_0(),
        c1_landau=refdata.C1_REFINED, c_j=c_j, c0_j=c0_j, c1_j=c1_j,
        C_q_chi=cqchi, C_ab=cab, residue_const=rconst,
        pair_C1=pair_conjecture_C1(q), method_tags=tags,
    )
