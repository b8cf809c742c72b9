"""Constants bundle: closed forms, the numeric Taylor oracle, invariants."""

import math

import mpmath as mp
import pytest

import mp_oracles as oracles
from twosquares import constants, refdata
from twosquares import characters as chars
from twosquares import eulerprod as ep
from twosquares.errors import AccuracyError, ArgumentError

mp.mp.dps = 30


def test_landau_ramanujan_value():
    assert abs(constants.landau_ramanujan() - 0.7642236535892207) < 1e-12


@pytest.mark.parametrize("skew,raises", [(1e-9, True), (1e-11, False)])
def test_landau_ramanujan_certificate(monkeypatch, skew, raises):
    # shift the evaluation whose direct product starts one level later
    log_ep3 = ep.log_ep3

    def skewed(w, chi=chars.TRIVIAL, _tail_from=ep.TAIL_FROM):
        return log_ep3(w, chi, _tail_from) + (skew if _tail_from != ep.TAIL_FROM else 0.0)

    monkeypatch.setattr(ep, "log_ep3", skewed)
    constants.landau_ramanujan.cache_clear()
    try:
        if raises:
            with pytest.raises(AccuracyError):
                constants.landau_ramanujan()
        else:
            assert constants.landau_ramanujan() == pytest.approx(0.7642236535892207, abs=1e-11)
    finally:
        constants.landau_ramanujan.cache_clear()


def test_landau_ramanujan_against_mpmath_product():
    # brute Euler product over p = 3 mod 4 up to 2e6 with an explicit tail bound
    from twosquares.eulerprod import primes_3mod4
    prod = mp.mpf(1)
    for p in primes_3mod4(2 * 10**6):
        prod /= 1 - mp.mpf(int(p)) ** -2
    K_est = float(mp.sqrt(prod / 2))  # K = 2^{-1/2} prod(1-p^-2)^{-1/2}
    assert abs(constants.landau_ramanujan() - K_est) < 1e-6


def test_alpha1_closed_form():
    # L'(1,chi4)/L(1,chi4) by direct mpmath differentiation
    def logL(s):
        # the two Hurwitz poles at s=1 cancel; keep s away from 1 itself
        return mp.log(mp.mpf(4) ** (-s)
                      * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4)))

    h = mp.mpf(1) / 10**6
    want = float((logL(1 + h) - logL(1 - h)) / (2 * h))
    assert abs(constants.alpha1() - want) < 1e-8


def test_omega_and_z_prime_0():
    assert abs(constants.omega_constant() - (-0.8932302999734734)) < 1e-9
    assert abs(constants.z_prime_0() - (-0.3851314509506585)) < 1e-9
    K = constants.landau_ramanujan()
    assert constants.z_prime_0() == pytest.approx(
        K / math.sqrt(math.pi) * constants.omega_constant(), abs=1e-15)


def test_closed_form_j1_coefficients(bundle):
    assert abs(bundle.c0_j[1] - 0.604541230) < 1e-8
    assert abs(bundle.c1_j[1] - (-0.167588374)) < 1e-8
    # c(1) relation and sign pattern
    assert bundle.c_j[1] == pytest.approx(
        bundle.c0_j[1] + 4 * bundle.c1_j[1], abs=1e-12)


def test_sign_pattern_all_q():
    # c(1) = (omega + gamma)/(2 pi K) is q-independent and NEGATIVE
    # (omega + gamma = -0.316 < 0); c0(1) > 0 and c1(1) < 0 for every q
    for q in (5, 13, 17, 29, 101):
        c1, c0_1, c1_1 = constants.selberg_delange_coeffs(q)
        assert c1 < 0 and c0_1 > 0 and c1_1 < 0


def test_oracle_matches_closed_form_at_j1():
    hi = constants.higher_coeffs_numeric(3, 5)
    c1, c0_1, c1_1 = constants.selberg_delange_coeffs(5)
    assert hi[1][0] == pytest.approx(c1, abs=1e-12)
    assert hi[1][1] == pytest.approx(c0_1, abs=1e-12)
    assert hi[1][2] == pytest.approx(c1_1, abs=1e-12)


def test_oracle_c0_3_is_the_corrected_value():
    assert constants.higher_coeffs_numeric(3, 5)[3][1] == pytest.approx(
        refdata.C0_3_CORRECTED, abs=1e-10)


@pytest.mark.parametrize("skew,raises", [(1e-9, True), (1e-14, False)])
def test_taylor_circle_certificate(monkeypatch, skew, raises):
    # add skew * (s/r)^64: the 128-node rule does not see it below degree 64,
    # the 64-node rule aliases it onto p_0, exactly as a real degree-64 term would
    P = constants._P_of_s

    def skewed(s):
        return P(s) + skew * (s / constants.TAYLOR_RADIUS) ** 64

    monkeypatch.setattr(constants, "_P_of_s", skewed)
    constants._p_taylor.cache_clear()
    try:
        if raises:
            with pytest.raises(AccuracyError):
                constants._p_taylor(3)
        else:
            constants._p_taylor(3)
    finally:
        constants._p_taylor.cache_clear()


@pytest.mark.parametrize("q", [5, 13, 29, 101])
def test_even_characters_give_exact_zero(q):
    tab = chars.character_table(q)
    for chi, parity in zip(tab.characters[1:], tab.parities[1:]):
        if parity == 1:
            assert constants.C_q_chi(q, chi) == 0j


def test_p_taylor_shared_by_every_q():
    # the Taylor coefficients of P(s) do not depend on q: one evaluation serves all moduli
    constants.higher_coeffs_numeric.cache_clear()
    constants._p_taylor.cache_clear()
    constants.higher_coeffs_numeric(3, 5)
    constants.higher_coeffs_numeric(3, 13)
    assert constants._p_taylor.cache_info().misses == 1


def test_taylor_coeffs_circle_oracle():
    """c(j), c0(j), c1(j) for j <= 3 by a Cauchy-integral Taylor oracle in mpmath.

    P(s) = zeta(s) (s zeta(s+1))^{1/2} M(s) Gamma(s+1), as in the constants
    module docstring, is expanded by the trapezoid rule on |s| = 1/4.  Its
    nearest singularity, the branch point of ep3(2s+2) at s = -1/2, lies at
    radius 1/2, so 32 nodes leave an aliasing error of about 4e-11.  The oracle checks
    higher_coeffs_numeric, the five published coefficients it reproduces, and
    the corrected c0(3) recorded in refdata.
    """
    q, n = 5, 32
    with mp.workdps(20):
        def P(s):
            M = (1 - mp.power(2, -s) + mp.power(2, -2 * s)) / mp.sqrt(
                mp.dirichlet(s + 1, oracles.CHI4) * (1 - mp.power(2, -(s + 1)))
                * oracles.ep3(2 * s + 2))
            return mp.zeta(s) * mp.sqrt(s * mp.zeta(s + 1)) * M * mp.gamma(s + 1)

        nodes = [mp.expjpi(2 * mp.mpf(k) / n) / 4 for k in range(n)]
        p_vals = [P(s) for s in nodes]
        # (1 - q^-s)/s restricts to the principal character mod q
        pq_vals = [v * (1 - mp.power(q, -s)) / s for v, s in zip(p_vals, nodes)]

        def taylor(vals, j):
            return mp.re(mp.fsum(v * s**-j for v, s in zip(vals, nodes))) / n

        K = oracles.landau_ramanujan()
        want = {}
        for j in (1, 2, 3):
            g = 2 * K * K * mp.gamma(mp.mpf(3) / 2 - j)
            c, c_chi0 = taylor(p_vals, j) / g, taylor(pq_vals, j - 1) / g
            want[j] = (float(c), float(c - c_chi0), float(c_chi0 / (q - 1)))
    got = constants.higher_coeffs_numeric(3, q)
    for j in (1, 2, 3):
        assert got[j] == pytest.approx(want[j], abs=1e-9)
        assert want[j][2] == pytest.approx(refdata.C1_REF[j], abs=1e-9)
    for j in (1, 2):
        assert want[j][1] == pytest.approx(refdata.C0_REF[j], abs=1e-9)
    assert want[3][1] == pytest.approx(refdata.C0_3_CORRECTED, abs=1e-9)
    assert abs(refdata.C0_REF[3] - want[3][1]) > 0.2  # the published erratum


def test_relation_c0_plus_phi_c1_is_c(bundle):
    # c0(j) + phi(q) c1(j) = c(j), exact by construction for the oracle and
    # to 1e-10 for the recorded reference values
    for j in (1, 2, 3):
        assert bundle.c0_j[j] + 4 * bundle.c1_j[j] == pytest.approx(
            bundle.c_j[j], abs=1e-10)
    for j in (2, 3):
        assert refdata.C0_REF[j] + 4 * refdata.C1_REF[j] == pytest.approx(
            refdata.C_REF[j], abs=1e-10)


def test_C_ab_real_and_antisymmetric(bundle):
    for v in (1, 2, 3, 4):
        assert isinstance(bundle.C_ab[v], float)
    # conjugate characters pair up: C_{v} = -C_{q-v} for q=5 (odd chi only)
    assert bundle.C_ab[1] == pytest.approx(-bundle.C_ab[4], abs=1e-10)
    assert bundle.C_ab[2] == pytest.approx(-bundle.C_ab[3], abs=1e-10)


def test_residue_constants_sum_to_zero(bundle):
    # sum_v!=0 rho(q,v) = 0 (the chi-sums over v kill every non-principal chi)
    assert sum(bundle.residue_const[v] for v in (1, 2, 3, 4)) == pytest.approx(
        0.0, abs=1e-12)


def test_C_q_chi_independent_route(bundle):
    """Recompute C_{q,chi} for the odd characters with mpmath L-functions.

    rho(q, v) and C_ab built from them check the bundle and the corrected
    rho(5, 3) and C_ab(5, 1) recorded in refdata.
    """
    tab = chars.character_table(5)
    cs = []
    for idx, chi in enumerate(tab.non_principal(), start=1):
        want = bundle.C_q_chi[idx]
        L0, L1 = chars.L_special(chi)
        if abs(L0) < 1e-13:
            assert want == 0
            continue
        # finite Hurwitz sums at high precision
        M = chi.modulus
        L0m = -sum(a * mp.mpmathify(chi(a)) for a in range(1, M)) / M
        L1m = -sum(mp.mpmathify(chi(a)) * mp.digamma(mp.mpf(a) / M)
                   for a in range(1, M)) / M
        prod = chi * chars.CHI4
        Mp = prod.modulus
        crossm = -sum(mp.mpmathify(prod(a)) * mp.digamma(mp.mpf(a) / Mp)
                      for a in range(1, Mp)) / Mp
        from twosquares.eulerprod import primes_3mod4
        epm = mp.mpf(1)
        for p in primes_3mod4(10**5):
            epm *= 1 - mp.mpmathify(chi(int(p)) ** 2) * mp.mpf(int(p)) ** -2
        c2 = mp.mpmathify(chi(2))
        got = complex(L0m * mp.sqrt(L1m) * (1 - c2 + mp.mpmathify(chi(4)))
                      / mp.sqrt(1 - c2 / 2) / mp.sqrt(crossm) / mp.sqrt(epm))
        assert abs(got - want) < 1e-7
        cs.append((chi, got))
    K = float(oracles.landau_ramanujan())
    rho, cab = {}, {}
    for v in (1, 2, 3, 4):
        s = sum(chi.conj()(v) * c for chi, c in cs)
        assert abs(s.imag) < 1e-12
        rho[v], cab[v] = s.real / (2 * K * K * 4), s.real * 5 / (2 * K * 4)
        assert abs(bundle.residue_const[v] - rho[v]) < 1e-7
        assert abs(bundle.C_ab[v] - cab[v]) < 1e-7
    assert abs(refdata.RHO_5_3 - rho[3]) < 1e-7
    assert abs(refdata.C_AB_5_1 - cab[1]) < 1e-7


def test_bundle_json_roundtrip(bundle):
    d = bundle.as_json_dict()
    assert d["q"] == 5
    assert set(d["c0_j"]) == {"1", "2", "3"}
    assert len(d["C_q_chi"]) == 3  # phi(5) - 1 non-principal characters
    assert d["method_tags"]


def test_argument_errors():
    with pytest.raises(ArgumentError):
        constants.build_bundle(7)
    with pytest.raises(ArgumentError):
        constants.selberg_delange_coeffs(4)
    with pytest.raises(ArgumentError):
        constants.C_ab(5, 2, 2)
