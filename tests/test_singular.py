"""Singular series: pair closed form vs local-density product, weighted sums."""

from fractions import Fraction
from math import comb, exp, log

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosquares import constants, singular
from twosquares.singular import TupleConfig
from twosquares.errors import ArgumentError, ResourceError

K = constants.landau_ramanujan()


def test_W2_values():
    assert singular.W2(1) == 1
    assert singular.W2(3) == 1
    assert singular.W2(2) == Fraction(1, 2)
    assert singular.W2(4) == Fraction(5, 4)
    assert singular.W2(8) == Fraction(13, 8)


@given(st.integers(min_value=1, max_value=50))
@settings(deadline=None)
def test_pair_oracle_equivalence(h):
    # Connors-Keating closed form vs the generic local-density product
    ck = singular.ck_singular_series(h, K)
    gen = singular.singular_series_general(TupleConfig((0, h))).value
    assert ck == pytest.approx(gen, abs=1e-8)
    assert ck > 0


def test_ck_values_vectorized():
    vals = singular.ck_values(50, K)
    for h in (1, 2, 17, 50):
        assert vals[h] == pytest.approx(singular.ck_singular_series(h, K), abs=1e-14)


def test_singular_series_trivial_sizes():
    assert singular.singular_series_general(TupleConfig(())).value == 1.0
    assert singular.singular_series_general(TupleConfig((3,))).value == 1.0


def test_local_density_stabilizes_as_exact_rational():
    # transient example: D = {0,4}, p = 2 repeats 1/4 before growing
    d04 = TupleConfig((0, 4))
    assert singular.local_density(2, d04, 2) == Fraction(1, 4)
    assert singular.local_density(2, d04, 4) == Fraction(1, 4)
    assert singular.local_density(2, d04, 6) > Fraction(1, 4)
    val = singular.stabilized_density(2, d04)
    assert isinstance(val, Fraction)
    # and the stabilized value is consistent with a deep direct level
    deep = singular.local_density(2, d04, 20)
    assert abs(float(val) - float(deep)) < 1e-4


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_delta0_closed_form(p):
    want = singular.stabilized_density(p, TupleConfig((0,)))
    assert singular.delta0(p) == want


def test_closed_tail_factor_matches_brute_force():
    # singular_series_general uses the closed per-prime factor for every
    # p = 3 mod 4 that divides no difference; 20 seeded (p, D) against brute force
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = int(rng.choice([3, 7, 11]))  # three even levels must fit the p^alpha budget
        k = int(rng.integers(2, 4))
        while True:
            offs = sorted(rng.choice(64, size=k, replace=False).tolist())
            D = TupleConfig(tuple(int(o) for o in offs)).normalized()
            if all(d % p for d in D.differences()):
                break
        brute = singular.stabilized_density(p, D) / singular.delta0(p) ** k
        assert brute == singular._closed_ratio(p, k), (p, D.offsets)


def test_exp_sums_geometric_identities():
    for q, v, H in [(5, 1, 10.0), (5, 0, 33.3), (7, 3, 100.0)]:
        E, Eqv, f = singular.exp_sums(q, v, H)
        # brute force the geometric sums
        hs = np.arange(1, 10000)
        assert E == pytest.approx(np.exp(-hs / H).sum(), abs=1e-10)
        sel = hs[hs % q == v % q]
        assert Eqv == pytest.approx(np.exp(-sel / H).sum(), abs=1e-10)
    # f(v; q) jump values
    assert singular.exp_sums(5, 0, 10.0)[2] == -0.5
    assert singular.exp_sums(5, 3, 10.0)[2] == pytest.approx((5 - 6) / 10)


@given(st.integers(min_value=0, max_value=4), st.floats(min_value=5, max_value=500),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_weighted_geometric_matches_brute(k, H, v):
    q = 5
    hs = np.arange(1, int(60 * H) + 1, dtype=float)
    sel = hs[hs % q == v]
    want = float(np.sum(sel**k * np.exp(-sel / H)))
    got = singular._weighted_geometric(q, v, H, k)
    assert got == pytest.approx(want, rel=1e-9)


def test_weighted_sum_S_truncation_invariance():
    a = singular.weighted_sum_S(5, 3, 100.0, K, rel_tol=1e-9)
    b = singular.weighted_sum_S(5, 3, 100.0, K, rel_tol=1e-12)
    assert a == pytest.approx(b, abs=1e-9)


def test_weighted_sum_classes_partition_total():
    H = 50.0
    total = singular.weighted_sum_S(5, None, H, K)
    parts = sum(singular.weighted_sum_S(5, v, H, K) for v in range(5))
    assert total == pytest.approx(parts, abs=1e-9)


@pytest.mark.parametrize("H", [16.0, 100.0, 1000.0])
def test_S0_relation(H):
    # S0(q,v;H) = S(q,v;H) - E(q,v;H) and E(q,v;H) = H/q + f(v;q) + O(1/H)
    for v in range(5):
        s = singular.weighted_sum_S(5, v, H, K)
        s0 = singular.weighted_sum_S(5, v, H, K, subtract=True)
        _, Eqv, f = singular.exp_sums(5, v, H)
        assert s - s0 == pytest.approx(Eqv, rel=1e-12)
        assert abs(Eqv - H / 5 - f) < 2 / H


def test_ms_sum_k1_vanishes():
    for h in (5, 12, 30):
        assert singular.ms_sum(h, 1) == 0.0


def test_ms_sum_k2_matches_direct_pair_sum():
    h = 12
    want = sum((singular.singular_series_general(TupleConfig((0, d))).value - 1)
               * (h - d) for d in range(1, h))
    assert singular.ms_sum(h, 2) == pytest.approx(want, rel=1e-8)


def test_ms_sum_slope_bound():
    hs = [8, 12, 16, 20]
    vals = [abs(singular.ms_sum(h, 3)) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
    assert slope <= 1.9


def test_argument_and_resource_errors():
    with pytest.raises(ArgumentError):
        singular.ck_singular_series(0, K)
    with pytest.raises(ArgumentError):
        TupleConfig((1, 1))
    with pytest.raises(ArgumentError):
        singular.singular_series_general(TupleConfig((0, 200)))
    with pytest.raises(ResourceError):
        singular.weighted_sum_S(5, 1, 10**7, K)
    with pytest.raises(ResourceError):
        singular.ms_sum(50, 4)
