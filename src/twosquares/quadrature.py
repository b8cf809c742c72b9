"""Integral-form main terms evaluated by Gauss-Legendre quadrature.

Three integrals over sigma in (1/2 + eps, 1), all with an endpoint factor
|sigma - 1|^{-1/2} that the substitution sigma = 1 - u^2 removes exactly
(d sigma = -2u du cancels the singularity):

  * the counting integral
        (1/pi) int G(sigma) x^sigma / (sigma |sigma-1|^{1/2}) d sigma,
    G(s) = (zeta(s)(s-1))^{1/2} L(s,chi4)^{1/2} (1-2^-s)^{-1/2}
           prod_{p=3(4)} (1-p^{-2s})^{-1/2};

  * the weighted singular-series sum S(q,v;H),
        v != 0: H/q + rho(q,v)
                + (1/(2 pi K^2 phi(q))) int F_chi0(sigma) H^{sigma-1} / |sigma-1|^{1/2},
        v  = 0: H/q + (1/(pi K^2)) int [F'(sigma)
                + F(sigma)(log H - A_q(sigma)/2)] H^{sigma-1} / |sigma-1|^{1/2},
    with F(s) = zeta(s-1) M(s-1) [(s-1) zeta(s)]^{1/2} Gamma(s),
    F_chi0(s) = A_q(s) F(s), A_q(s) = (1 - q^{-(s-1)})/(s-1);

  * the k-tuple average
        H^k + (k(k-1) H^{k-1}/(pi K^2)) int [F'(sigma) + F(sigma) log H]
              H^{sigma-1} / |sigma-1|^{1/2},
    with the variant F(s) = zeta(s-1) M(s-1) [(s-1) zeta(s)]^{1/2} / s.

F and F' come from one evaluation of the core of F at the complex step
sigma + ih (the evaluators accept complex s; Gamma' = Gamma psi): its real part
is the core and its imaginary part over h the core's derivative, so F' is as
accurate as F itself.  Near 1/2, F' blows up like (sigma - 1/2)^{-5/4}, so the
v=0 and k-tuple integrals depend visibly on eps, which is always reported
alongside the value.

The nodes come in panels, and the sigma-only factors (G_fn and the core of F)
are memoized per panel: the upper panel (3/4, 1) does not depend on eps, so
every eps, x, H and q shares its evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from math import gamma, isfinite, log, pi, sqrt

import numpy as np

from . import characters as chars
from . import constants, eulerprod as ep
from .errors import AccuracyError, ArgumentError


NODES = 64  # per panel, checked against twice as many
REL_TARGET = 1e-8  # node-doubling agreement every integral must reach
EPS_GRID = (0.01, 0.02, 0.05)  # the epsilon values epsilon_sensitivity reports


@dataclass(frozen=True)
class QuadratureConfig:
    """The one setting of an integral: its lower cut 1/2 + epsilon.

    The endpoint substitutions (_panel_nodes), the node count NODES, the
    complex step of F' and the node-doubling target REL_TARGET are fixed.
    """

    epsilon: float = 0.02  # 0 means: integrate to the 1/2 endpoint (quartic substitution)

    def __post_init__(self):
        if not (self.epsilon == 0.0 or 0.01 <= self.epsilon < 0.5):
            raise ArgumentError("epsilon must be 0 or lie in [0.01, 0.5)")


# ---------------------------------------------------------------------------
# special functions on the interval (1/2, 1] (and next to it, for complex steps)

_gamma = np.vectorize(gamma, otypes=[float])  # node arrays hold a few hundred points


def _node_memo(fn):
    """fn memoized on the node array it is given; scalars pass straight through.

    The factors below do not depend on x, H or q, so every integral on the
    same panel of nodes shares one evaluation.  Keyed on the array's bytes,
    shape and dtype (real nodes and their complex steps differ); the cached
    arrays are read-only.
    """
    @lru_cache(maxsize=256)
    def cached(buf: bytes, shape: tuple, dtype: np.dtype):
        out = fn(np.frombuffer(buf, dtype=dtype).reshape(shape))
        out.flags.writeable = False
        return out

    @wraps(fn)
    def memo(s):
        if np.ndim(s) == 0:
            return fn(s)
        s = chars.as_argument(s)
        return cached(s.tobytes(), s.shape, s.dtype)

    memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
    return memo


@_node_memo
def G_fn(s):
    """(zeta(s)(s-1))^{1/2} L(s,chi4)^{1/2} (1-2^-s)^{-1/2} prod(1-p^-2s)^{-1/2}.

    Vectorized over numpy arrays of s in (1/2, 1]; G ~ (2s-1)^{-1/4} near 1/2.
    """
    reg = chars.zeta_real(s, regularized=True)  # zeta(s)(s-1) > 0 on (1/2, 1]
    rad = reg * ep.dirichlet_chi4(s) / (1 - 2.0 ** (-s)) / ep.ep3(2 * s)
    if np.any(np.asarray(rad) <= 0):
        raise AccuracyError(f"G radicand <= 0 on the node set")
    return np.sqrt(rad)


@_node_memo
def _core(s):
    """zeta(s-1) M(s-1) [(s-1) zeta(s)]^{1/2}, shared by both F variants; real or complex s."""
    reg = chars.zeta_real(s, regularized=True)  # = (s-1) zeta(s)
    if np.any(np.real(reg) <= 0):
        raise AccuracyError("(s-1) zeta(s) has real part <= 0 on the node set")
    return chars.zeta_real(s - 1) * constants._M_of_s(s - 1) * np.sqrt(reg)


def _core_step(s):
    """(core(s), core'(s)) at real s from one evaluation of core at s + ih (complex step)."""
    c = _core(s + 1j * chars.COMPLEX_STEP)
    return np.real(c), np.imag(c) / chars.COMPLEX_STEP


def F_gamma(s):
    """F(s) with the Gamma(s) normalization (weighted-sum integrals)."""
    return _core_step(s)[0] * _gamma(s)


def F_inv(s):
    """F(s) with the 1/s normalization (k-tuple average integral)."""
    return _core_step(s)[0] / s


def A_q(s, q: int):
    """(1 - q^{-(s-1)})/(s-1), with the removable limit log q at s=1."""
    return chars.pole_difference(s, 1.0, q)


def F_chi0(s, q: int):
    return A_q(s, q) * F_gamma(s)


def F_gamma_prime(s):
    """F_gamma'(s) = (core'(s) + core(s) psi(s)) Gamma(s)."""
    core, d_core = _core_step(s)
    return (d_core + core * chars.digamma(s)) * _gamma(s)


def F_inv_prime(s):
    """F_inv'(s) = core'(s)/s - core(s)/s^2."""
    core, d_core = _core_step(s)
    return (d_core - core / s) / s


# ---------------------------------------------------------------------------
# quadrature core

@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]: one eigenvalue solve per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=64)
def _gl_nodes(n: int, lo: float, hi: float):
    """_leggauss(n) mapped onto [lo, hi]."""
    x, w = _leggauss(n)
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    return mid + half * x, half * w


def _panel_nodes(eps: float, n: int):
    """Panels of (nodes, weights) for int_{1/2+eps}^1 fn(sigma)/|sigma-1|^{1/2} d sigma.

    Upper panel (3/4, 1): sigma = 1 - u^2 removes the explicit endpoint factor.
    Lower panel (1/2+eps, 3/4]: plain Gauss-Legendre when eps > 0; for eps = 0
    the substitution sigma = 1/2 + t^4 absorbs the integrand's own
    (sigma - 1/2)^{-1/4}-type growth at the left endpoint.  The upper panel
    does not depend on eps, so the node memos serve it to every eps.
    """
    if eps >= 0.25:  # no lower panel; one substituted panel reaches 1/2+eps
        u, wu = _gl_nodes(n, 0.0, sqrt(0.5 - eps))
        return [(1 - u * u, 2 * wu)]
    u, wu = _gl_nodes(n, 0.0, 0.5)
    upper = (1 - u * u, 2 * wu)
    if eps > 0:
        s2, w2 = _gl_nodes(n, 0.5 + eps, 0.75)
        return [upper, (s2, w2 / np.sqrt(1 - s2))]
    t, wt = _gl_nodes(n, 0.0, 0.25**0.25)
    # clamp: t^4 below ~1e-13 is lost to rounding in 0.5 + t^4 and the
    # evaluators need sigma > 1/2 strictly; the skipped mass is O(1e-10)
    s2 = np.maximum(0.5 + t**4, 0.5 + 1e-13)
    return [upper, (s2, 4 * t**3 * wt / np.sqrt(1 - s2))]


def _integrate(fn, eps: float, nodes: int = NODES) -> float:
    """int_{1/2+eps}^1 fn(sigma)/|sigma-1|^{1/2} d sigma, nodes checked against 2 nodes."""

    def total(n: int) -> float:
        return float(sum(np.dot(w, fn(sig)) for sig, w in _panel_nodes(eps, n)))

    coarse, fine = total(nodes), total(2 * nodes)
    if not (isfinite(coarse) and isfinite(fine)):
        raise AccuracyError(f"non-finite integral: {coarse} vs {fine}")
    if abs(fine - coarse) > REL_TARGET * max(abs(fine), 1e-300):
        raise AccuracyError(
            f"node doubling {nodes}->{2*nodes} disagrees: {coarse} vs {fine}",
            partial=fine)
    return fine


# ---------------------------------------------------------------------------
# public integrals

def integral_count(x: float, cfg: QuadratureConfig | None = None) -> float:
    """(1/pi) int G(sigma) x^sigma / (sigma |sigma-1|^{1/2}) d sigma.

    Defaults to epsilon = 0 (full integral from 1/2): the counting integrand
    has only an integrable (2 sigma - 1)^{-1/4} singularity there, and the
    full integral is what matches the exact counts.
    """
    cfg = cfg or QuadratureConfig(epsilon=0.0)
    if not isfinite(x) or x < 1e3:
        raise ArgumentError(f"finite x >= 1000 required, got {x}")
    lx = log(x)
    val = _integrate(lambda s: G_fn(s) * np.exp(s * lx) / s, cfg.epsilon)
    return val / pi


def integral_S(q: int, v: int, H: float, cfg: QuadratureConfig | None = None) -> float:
    """Integral form of S(q, v; H); see module docstring for the two cases."""
    cfg = cfg or QuadratureConfig()
    if not isfinite(H) or H < 5:
        raise ArgumentError(f"finite H >= 5 required, got {H}")
    bundle = constants.build_bundle(q)
    K = bundle.K
    lH = log(H)
    v %= q
    if v != 0:
        integral = _integrate(lambda s: F_chi0(s, q) * np.exp((s - 1) * lH), cfg.epsilon)
        return (H / q + bundle.residue_const[v]
                + integral / (2 * pi * K * K * (q - 1)))

    if cfg.epsilon < 0.01:
        raise ArgumentError("epsilon >= 0.01 required where F' enters the integrand")

    def fn(s):
        return (F_gamma_prime(s)
                + F_gamma(s) * (lH - A_q(s, q) / 2)) * np.exp((s - 1) * lH)

    integral = _integrate(fn, cfg.epsilon)
    return H / q + integral / (pi * K * K)


def integral_ktuple_average(k: int, H: float,
                            cfg: QuadratureConfig | None = None) -> float:
    """H^k + k(k-1) H^{k-1}/(pi K^2) * the F'/F log H integral (1/s variant)."""
    cfg = cfg or QuadratureConfig()
    if not 2 <= k <= 6:
        raise ArgumentError("2 <= k <= 6 required")
    if not isfinite(H) or H < 5:
        raise ArgumentError(f"finite H >= 5 required, got {H}")
    if cfg.epsilon < 0.01:
        raise ArgumentError("epsilon >= 0.01 required where F' enters the integrand")
    try:
        Hk = H**k
    except OverflowError:
        raise ArgumentError(f"H^k overflows a float at H = {H}, k = {k}") from None
    K = constants.landau_ramanujan()
    lH = log(H)

    def fn(s):
        return (F_inv_prime(s)
                + F_inv(s) * lH) * np.exp((s - 1) * lH)

    integral = _integrate(fn, cfg.epsilon)
    return Hk + k * (k - 1) * H ** (k - 1) / (pi * K * K) * integral


def epsilon_sensitivity(q: int, H: float) -> dict:
    """integral_S(q, 0; H) at each eps of EPS_GRID; the spread is part of the contract."""
    return {e: integral_S(q, 0, H, QuadratureConfig(epsilon=e)) for e in EPS_GRID}
