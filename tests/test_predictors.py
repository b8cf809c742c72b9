"""Predictions: closed forms, pipeline consistency, tuple-conjecture algebra."""

from math import log, pi, sqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from twosquares import constants, predictors, refdata, singular
from twosquares.errors import AccuracyError, ArgumentError

K = constants.landau_ramanujan()


def test_context_scales():
    ctx = predictors.make_context(1e12, 5)
    # H = -1/log(1 - K/sqrt(log x)); at x = 1e12 this is ~6.365
    assert ctx.H == pytest.approx(6.3651638, abs=1e-6)
    assert 0 < ctx.alpha < 1
    assert ctx.logH == pytest.approx(log(ctx.H), abs=1e-15)


def test_context_scale_check_raises(monkeypatch):
    # K = 20 keeps alpha(1e300) in (0, 1) but puts H 0.11 away from sqrt(log x)/K - 1/2
    monkeypatch.setattr(constants, "build_bundle", lambda q: SimpleNamespace(K=20.0))
    with pytest.raises(AccuracyError):
        predictors.make_context(1e300, 5)


def test_landau_refined_reference_values():
    assert round(predictors.landau_refined(1e9, 0)) == 167877068
    assert round(predictors.landau_refined(1e9, 1)) == 172591375
    with pytest.raises(ArgumentError):
        predictors.landau_refined(1e9, 2)


def test_ap_prediction_reference_values():
    assert round(predictors.ap_prediction(1e12, 5, 0)) == 30536403581
    # a != 0 classes share one secondary coefficient
    vals = {round(predictors.ap_prediction(1e12, 5, a)) for a in (1, 2, 3, 4)}
    assert len(vals) == 1
    (v,) = vals
    assert abs(v - 29477858608) <= 1


def test_ap_sums_to_refined_total():
    # sum_a c_{1,a} = q c_1, so the per-class predictions add to the total
    total = sum(predictors.ap_prediction(1e12, 5, a) for a in range(5))
    assert total == pytest.approx(predictors.landau_refined(1e12, 1), rel=1e-12)


def test_hl_pair_reference_values():
    assert round(predictors.hl_pair_prediction(1e12, 5, 0, 1, refined=False)) \
        == 3619120683
    refined = {(0, 1): 3850620130, (1, 1): 3718867172, (1, 2): 1859433586,
               (0, 5): 3982373088}
    for (a, h), want in refined.items():
        got = round(predictors.hl_pair_prediction(1e12, 5, a, h, refined=True))
        assert abs(got - want) <= 1


def test_asymptotic_S_reference_coeffs_table_cells():
    a0 = predictors.asymptotic_S(5, 0, 100.0, J=3) - 20.0
    a3 = predictors.asymptotic_S(5, 3, 100.0, J=3) - 20.0
    # v = 0 matches the published 4-decimal cell
    assert a0 == pytest.approx(-1.4094, abs=5e-5)
    # v = 3 differs from the published cell by the common ~-6.5e-4 of the
    # published Table 7 J columns, which used rho(5, 3) ~ 0.20427 instead of
    # 0.2049238 (refdata errata); 0.11414 here vs 0.1135 published
    assert a3 == pytest.approx(0.11414, abs=5e-5)
    assert abs(a3 - 0.1135) < 1.5e-3


def test_asymptotic_trend_toward_exact():
    for v in (0, 3):
        for J in (1, 2, 3):
            errs = []
            for H in (100.0, 10**4):
                exact = singular.weighted_sum_S(5, v, H, K)
                errs.append(abs(predictors.asymptotic_S(5, v, H, J) - exact))
            assert errs[1] < errs[0]


def test_oracle_coeff_source_close_to_reference():
    # oracle and reference coefficients agree at J <= 2; at J = 3 v = 0
    # differs because the published c0(3) is an erratum (refdata errata)
    for v in (0, 3):
        a = predictors.asymptotic_S(5, v, 100.0, J=2, coeff_source="reference")
        b = predictors.asymptotic_S(5, v, 100.0, J=2, coeff_source="oracle")
        assert a == pytest.approx(b, abs=1e-5)


def test_table5_offdiag_errata_cells():
    # the corrected off-diagonal Table 5 cells are the program's, and the
    # published cells differ from them antisymmetrically in v -> 5 - v
    corrected = refdata.TABLE5_OFFDIAG_CORRECTED
    for v, (thm, conj) in corrected.items():
        got = predictors.pipeline_D012(1e12, 5, 0, v, "asymptotic_J1")
        assert round(got / 1e6) == thm
        assert round(predictors.pair_conjecture(1e12, 5, 0, v) / 1e6) == conj
    for col in (0, 1):
        off = {v: refdata.TABLE5[v][col + 1] - corrected[v][col] for v in corrected}
        assert all(off[v] == -off[5 - v] != 0 for v in corrected)


def test_pair_conjecture_depends_on_difference_only():
    for v in range(5):
        vals = {predictors.pair_conjecture(1e12, 5, a, (a + v) % 5)
                for a in range(5)}
        assert max(vals) - min(vals) < 1e-6


def test_tuple_r2_reduces_to_pair_conjecture():
    for v in range(5):
        pair = predictors.pair_conjecture(1e12, 5, 0, v)
        tup = predictors.tuple_conjecture(1e12, 5, (0, v))
        assert tup == pytest.approx(pair, rel=1e-14)


def test_tuple_constants_constant_vector():
    # a = (a,a,a): C_-1 = 2 (q sqrt2/pi)(1/q - 1) < 0
    c_m1, c_0, _ = predictors.tuple_constants(5, (2, 2, 2))
    assert c_m1 == pytest.approx(2 * 5 * sqrt(2) / pi * (1 / 5 - 1), abs=1e-12)
    assert c_m1 < 0
    assert c_0 == 0.0


def test_tuple_uniform_mass_bound():
    # repeated-residue r=3 prediction sits below the uniform mass x K/(q^3 sqrt(log x))
    x = 1e9
    uni = x * K / (5**3 * sqrt(log(x)))
    assert predictors.tuple_conjecture(x, 5, (1, 1, 1)) < uni


@given(st.sampled_from([2, 3, 4, 5, 6]), st.integers(min_value=0, max_value=4))
@settings(max_examples=20, deadline=None)
def test_tuple_translation_invariance(r, shift):
    base = tuple(range(r))
    shifted = tuple((b + shift) % 5 for b in base)
    a = predictors.tuple_conjecture(1e12, 5, base)
    b = predictors.tuple_conjecture(1e12, 5, shifted)
    assert a == pytest.approx(b, rel=1e-12)


def test_pipeline_sources_agree_roughly():
    # the two S0 sources should land within ~15% of each other at x = 1e12
    for v in range(5):
        n = predictors.pipeline_D012(1e12, 5, 0, v, "numeric")
        t = predictors.pipeline_D012(1e12, 5, 0, v, "asymptotic_J1")
        assert abs(n - t) / n < 0.15
    with pytest.raises(ArgumentError):
        predictors.pipeline_D012(1e12, 5, 0, 1, "bogus")


def test_argument_errors():
    with pytest.raises(ArgumentError):
        predictors.make_context(10)
    # x < 100 would divide by log x = 0 at x = 1, or by a power of a small log x
    for x in (1, 99, float("nan")):
        with pytest.raises(ArgumentError):
            predictors.ap_prediction(x, 5, 0)
        with pytest.raises(ArgumentError):
            predictors.hl_pair_prediction(x, 5, 0, 1)
    with pytest.raises(ArgumentError):
        predictors.tuple_conjecture(1e9, 5, (1,))
    with pytest.raises(ArgumentError):
        predictors.asymptotic_S(5, 0, 100.0, J=4)
