"""Conjectural and asymptotic predictions for sums of two squares.

All predictions share the change of variables
    alpha(x) = 1 - K/sqrt(log x),   H = -1/log(alpha(x)),
so H = sqrt(log x)/K - 1/2 + O(1/sqrt(log x)).  The main objects:

  * landau_refined: K x sum_{j<=J} c_j (log x)^{-1/2-j}, J <= 1.
  * ap_prediction:  (K/q) x [(log x)^{-1/2} + c_{1,a} (log x)^{-3/2}] with
        c_{1,a} = c_1 + log(q)/2        (a = 0 mod q)
        c_{1,a} = c_1 - log(q)/(2(q-1)) (otherwise).
  * hl_pair_prediction: x (S({0,h})/q) K^2 [(log x)^-1 + (c_{1,a}+c_{1,a+h}) (log x)^-2].
  * asymptotic_S: the truncated expansion of the exponentially weighted
    singular-series sum S(q,v;H),
        v  = 0: H/q - (2/(K pi)) sqrt(log H) + sum_j c0(j) (log H)^{1/2-j}
        v != 0: H/q + rho(q,v) + sum_j c1(j) (log H)^{1/2-j}.
  * pipeline_D012: the numeric second-moment pipeline
        N = (x/q) alpha^-1 (K/sqrt(log x))^2 [ E(v) + S0(v)
             - 2 lam sum_c S0(v-c) E(c) + lam^2 sum_{c,d} S0(v-c-d) E(c) E(d) ],
    lam = K/(alpha sqrt(log x)), E(q,c;H) the geometric residue sum, and
    S0(q,u;H) either the numeric S - E or the truncated J=1 asymptotics.
  * pair_conjecture / tuple_conjecture: the closed J=1 predictions in
    powers of sqrt(log log x)/sqrt(log x) with constants C1, C_{a,b} and the
    r-tuple generalizations C_{-1}(a), C_0(a), C_1(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, log, pi, sqrt

from . import constants, refdata, singular
from .errors import AccuracyError, ArgumentError

_S0_SOURCES = ("numeric", "asymptotic_J1")


@dataclass(frozen=True)
class PredictorContext:
    """x plus the derived scales every prediction reports."""

    x: float
    q: int
    alpha: float
    H: float
    logH: float
    constants: constants.ConstantsBundle

    @property
    def log_x(self) -> float:
        return log(self.x)


def _require_x(x: float) -> None:
    """Every prediction divides by log x or a power of it; x < 100 is refused."""
    if not x >= 100:  # NaN included
        raise ArgumentError(f"x >= 100 required, got {x}")


def make_context(x: float, q: int = 5) -> PredictorContext:
    _require_x(x)
    bundle = constants.build_bundle(q)
    alpha = 1 - bundle.K / sqrt(log(x))
    if not 0 < alpha < 1:
        raise ArgumentError(f"alpha(x) = {alpha} outside (0,1); x too small")
    H = -1 / log(alpha)
    ctx = PredictorContext(x=float(x), q=q, alpha=alpha, H=H, logH=log(H),
                           constants=bundle)
    # H = sqrt(log x)/K - 1/2 + O(1/sqrt(log x)); an explicit check, since -O strips asserts
    if not abs(H - (sqrt(log(x)) / bundle.K - 0.5)) < 1 / sqrt(log(x)):
        raise AccuracyError(f"H(x) = {H} departs from sqrt(log x)/K - 1/2 at x = {x}")
    return ctx


# ---------------------------------------------------------------------------
# counting predictions

def landau_refined(x: float, J: int = 1) -> float:
    """K x [ (log x)^{-1/2} + c_1 (log x)^{-3/2} if J = 1 ]."""
    if J not in (0, 1):
        raise ArgumentError("J in {0, 1}: higher refined coefficients not wired")
    _require_x(x)
    K = constants.landau_ramanujan()
    lx = log(x)
    val = K * x / sqrt(lx)
    if J == 1:
        val += K * x * refdata.C1_REFINED * lx ** -1.5
    return val


def c1_ap(q: int, a: int) -> float:
    """Secondary coefficient of the single-residue count, residue a mod q."""
    if a % q == 0:
        return refdata.C1_REFINED + log(q) / 2
    return refdata.C1_REFINED - log(q) / (2 * (q - 1))


def ap_prediction(x: float, q: int, a: int, with_secondary: bool = True) -> float:
    """(K/q) x [(log x)^{-1/2} + c_{1,a} (log x)^{-3/2}]."""
    _require_x(x)
    bundle = constants.build_bundle(q)
    lx = log(x)
    val = 1 / sqrt(lx)
    if with_secondary:
        val += c1_ap(q, a) * lx ** -1.5
    return bundle.K / q * x * val


def hl_pair_prediction(x: float, q: int, a: int, h: int,
                       refined: bool = True) -> float:
    """x (S({0,h})/q) K^2 [(log x)^-1 + (c_{1,a} + c_{1,a+h}) (log x)^-2]."""
    if h <= 0:
        raise ArgumentError("h >= 1 required")
    _require_x(x)
    bundle = constants.build_bundle(q)
    frak_s = singular.ck_singular_series(h, bundle.K)
    lx = log(x)
    val = 1 / lx
    if refined:
        val += (c1_ap(q, a) + c1_ap(q, a + h)) / (lx * lx)
    return x * frak_s / q * bundle.K**2 * val


# ---------------------------------------------------------------------------
# truncated asymptotics for S(q, v; H)

def _s_coeffs(q: int, J: int, coeff_source: str):
    """(c0, c1) maps for j <= J; j >= 2 from reference data or the oracle."""
    bundle = constants.build_bundle(q)
    c0 = {1: bundle.c0_j[1]}
    c1 = {1: bundle.c1_j[1]}
    for j in range(2, J + 1):
        if coeff_source == "reference":
            if q != 5:
                raise ArgumentError("reference coefficients recorded for q = 5 only")
            c0[j] = refdata.C0_REF[j]
            c1[j] = refdata.C1_REF[j]
        elif coeff_source == "oracle":
            c0[j] = bundle.c0_j[j]
            c1[j] = bundle.c1_j[j]
        else:
            raise ArgumentError(f"unknown coeff_source {coeff_source!r}")
    return c0, c1


def asymptotic_S(q: int, v: int, H: float, J: int = 3,
                 coeff_source: str = "reference") -> float:
    """Truncated expansion of S(q,v;H); J <= 3 terms beyond the constant."""
    if not 0 <= J <= 3:
        raise ArgumentError("J in {0,...,3}: higher coefficients not available")
    if H <= 1:
        raise ArgumentError("H > 1 required")
    bundle = constants.build_bundle(q)
    c0, c1 = _s_coeffs(q, J, coeff_source)
    lH = log(H)
    v %= q
    if v == 0:
        val = H / q - 2 / (bundle.K * pi) * sqrt(lH)
        val += sum(c0[j] * lH ** (0.5 - j) for j in range(1, J + 1))
    else:
        val = H / q + bundle.residue_const[v]
        val += sum(c1[j] * lH ** (0.5 - j) for j in range(1, J + 1))
    return val


# ---------------------------------------------------------------------------
# the D0 + D1 + D2 pipeline

def _s0_values(ctx: PredictorContext, s0_source: str):
    """S0(q, u; H) for every residue u, by the requested source."""
    q, H, K = ctx.q, ctx.H, ctx.constants.K
    if s0_source == "numeric":
        return [singular.weighted_sum_S(q, u, H, K, subtract=True) for u in range(q)]
    if s0_source == "asymptotic_J1":
        # S0 = S - E with the geometric sum E(q,u;H) evaluated exactly
        return [asymptotic_S(q, u, H, J=1) - singular.geometric_sum(q, u, H)
                for u in range(q)]
    raise ArgumentError(f"s0_source must be one of {_S0_SOURCES}")


def pipeline_D012(x: float, q: int, a: int, b: int,
                  s0_source: str = "numeric") -> float:
    """Pair count N(x; q, (a,b)) from the second-moment pipeline."""
    ctx = make_context(x, q)
    K, H, alpha = ctx.constants.K, ctx.H, ctx.alpha
    v = (b - a) % q
    s0 = _s0_values(ctx, s0_source)
    E = [singular.geometric_sum(q, c, H) for c in range(q)]
    lam = K / (alpha * sqrt(ctx.log_x))
    d0 = E[v] + s0[v]
    d1 = -2 * lam * sum(s0[(v - c) % q] * E[c] for c in range(q))
    d2 = lam**2 * sum(s0[(v - c - d) % q] * E[c] * E[d]
                      for c in range(q) for d in range(q))
    return x / q / alpha * (K / sqrt(ctx.log_x)) ** 2 * (d0 + d1 + d2)


# ---------------------------------------------------------------------------
# closed J=1 conjectures

def pair_conjecture(x: float, q: int, a: int, b: int) -> float:
    """J=1 prediction for consecutive pairs (a, b) mod q."""
    ctx = make_context(x, q)
    bundle = ctx.constants
    lx = ctx.log_x
    llx = log(lx)
    lead = bundle.K * x / (q * q * sqrt(lx))
    v = (b - a) % q
    if v == 0:
        bracket = (1 - sqrt(2) * (q - 1) / pi * sqrt(llx / lx)
                   + bundle.pair_C1 / sqrt(lx * llx))
    else:
        bracket = (1 + sqrt(2) / pi * sqrt(llx / lx)
                   + bundle.C_ab[v] / sqrt(lx)
                   - bundle.pair_C1 / ((q - 1) * sqrt(lx * llx)))
    return lead * bracket


def tuple_constants(q: int, a_vec) -> tuple:
    """(C_-1, C_0, C_1) for the r-tuple conjecture, r = len(a_vec)."""
    bundle = constants.build_bundle(q)
    r = len(a_vec)
    a = [ai % q for ai in a_vec]
    gaps = [1 / q - (1 if a[i + 1] == a[i] else 0) for i in range(r - 1)]
    c_m1 = q * sqrt(2) / pi * sum(gaps)
    c_0 = sum(bundle.C_ab[(a[i + 1] - a[i]) % q]
              for i in range(r - 1) if a[i + 1] != a[i])
    c_1 = -q * bundle.pair_C1 / (q - 1) * sum(gaps)
    c_1 += q * sqrt(2) / sqrt(pi) * sum(
        (1 / q - (1 if a[i + k + 1] == a[i] else 0)) / k
        for k in range(1, r - 1) for i in range(r - 1 - k))
    return c_m1, c_0, c_1


def tuple_conjecture(x: float, q: int, a_vec) -> float:
    """Prediction for r successive members landing on residues a_vec mod q."""
    r = len(a_vec)
    if not 2 <= r <= 6:
        raise ArgumentError("2 <= r <= 6 required")
    ctx = make_context(x, q)
    lx = ctx.log_x
    llx = log(lx)
    c_m1, c_0, c_1 = tuple_constants(q, a_vec)
    lead = x / q**r * ctx.constants.K / sqrt(lx)
    return lead * (1 + c_m1 * sqrt(llx / lx) + c_0 / sqrt(lx)
                   + c_1 / sqrt(llx * lx))
