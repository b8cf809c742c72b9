"""Acceptance gate: the thirteen release criteria, one pass/fail line each.

Every criterion prints `criterion NN: PASS|FAIL - <summary>` (visible with
pytest -s or in captured output on failure) and then asserts.  Tolerances are
the pinned ones: 4 decimals = abs 5e-5, 3 decimals = abs 5e-4, "nearest
integer" = abs 1 (the printed reference integers are themselves roundings of
floats built from 9-digit published constants, which moves predictions at the
+-0.5 level).

Three published values are errata, and criteria 05, 07 and 09 compare against
the corrections recorded beside them in `refdata`, each established by a
committed oracle test; the published values stay in `refdata` unchanged:
  * criterion 05: c0(3) is 1.4658010673, not the published 1.185903185
    (mpmath trapezoid-on-a-circle Taylor oracle, test_constants);
  * criterion 07: the published v = 3 J columns sit a common ~6.5e-4 below
    the cells built from rho(5, 3) = 0.2049238 (mpmath C_{q,chi} route,
    test_constants) and the published c1(j); the criterion checks the
    corrected cells and that the offset is common to all of them;
  * criterion 09: the J=1 conjecture cell for v = 1 is 6842, not 6841; it
    uses C_ab(5, 1) = 5 K rho(5, 1), checked by the same mpmath route.
Criterion 08 still fails on its two v = 0 cells: the cause is not settled
(see its docstring).
"""

import time
from math import log, sqrt

import numpy as np
import pytest

from twosquares import (constants, predictors, progressions, quadrature,
                        refdata, sieve, singular)
from twosquares.singular import TupleConfig

K = constants.landau_ramanujan()
H_REF = 6.3651638423353  # -1/log(1 - K/sqrt(log 1e12)); tables label it 6.356

TOL_4DP = 5e-5
TOL_3DP = 5e-4


def _report(num, ok, summary):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {summary}")
    return ok


def test_criterion_01_exact_sieve_count(stats_1e9):
    t0 = time.time()
    singles, _ = stats_1e9
    total = singles.total() + 1  # counting from n = 0 (0 = 0^2+0^2)
    elapsed = time.time() - t0
    ok = total == 173229059
    assert _report(1, ok, f"count(1e9) = {total} (cached fixture, {elapsed:.0f}s)")


def test_criterion_02_refined_landau():
    a = round(predictors.landau_refined(1e9, 0))
    b = round(predictors.landau_refined(1e9, 1))
    ok = (a, b) == (167877068, 172591375)
    assert _report(2, ok, f"landau_refined(1e9) J=0: {a}, J=1: {b}")


def test_criterion_03_integral_count():
    t0 = time.time()
    a = quadrature.integral_count(1e9)
    ta = time.time() - t0
    t0 = time.time()
    b = quadrature.integral_count(1e12)
    tb = time.time() - t0
    ok = (abs(a - 173226354) <= 2 and abs(b - 148736563568) <= 2000
          and ta < 1 and tb < 1)
    assert _report(3, ok, f"integral_count 1e9: {a:.1f} ({ta:.2f}s), "
                          f"1e12: {b:.1f} ({tb:.2f}s)")


def test_criterion_04_constants(bundle):
    checks = [
        abs(bundle.c0_j[1] - 0.604541230) < 1e-8,
        abs(bundle.c1_j[1] - (-0.167588374)) < 1e-8,
        abs(bundle.z_prime_0 - (-0.3851314513)) < 1e-8,
        abs(bundle.z_prime_0 - bundle.K / sqrt(np.pi) * bundle.omega) < 1e-15,
    ]
    # c0(j) + phi(q) c1(j) = c(j) to 1e-10 using the recorded values
    for j in (1, 2, 3):
        c0 = bundle.c0_j[1] if j == 1 else refdata.C0_REF[j]
        c1 = bundle.c1_j[1] if j == 1 else refdata.C1_REF[j]
        c = bundle.c_j[1] if j == 1 else refdata.C_REF[j]
        checks.append(abs(c0 + 4 * c1 - c) < 1e-10)
    ok = all(checks)
    assert _report(4, ok, f"c0(1)={bundle.c0_j[1]:.9f}, c1(1)={bundle.c1_j[1]:.9f}, "
                          f"Z'(0)={bundle.z_prime_0:.10f}, relation j<=3")


def test_criterion_05_numeric_taylor_oracle():
    hi = constants.higher_coeffs_numeric(3, 5)
    closed = constants.selberg_delange_coeffs(5)
    got = {"c0(1)": closed[1], "c1(1)": closed[2],
           "c0(2)": hi[2][1], "c1(2)": hi[2][2],
           "c0(3)": hi[3][1], "c1(3)": hi[3][2]}
    want = {"c0(1)": 0.604541230, "c1(1)": -0.167588374,
            "c0(2)": refdata.C0_REF[2], "c1(2)": refdata.C1_REF[2],
            "c0(3)": refdata.C0_3_CORRECTED, "c1(3)": refdata.C1_REF[3]}
    bad = {k: (got[k], want[k]) for k in want if abs(got[k] - want[k]) > 1e-5}
    ok = not bad
    assert _report(5, ok, "oracle vs recorded (c0(3) corrected): " +
                   ("all six within 1e-5" if ok else f"mismatch {bad}"))


def test_criterion_06_weighted_sums():
    want0 = {H_REF: -0.6093, 16: -0.8852, 100: -1.3968, 10**4: -2.2932,
             10**6: -2.9169}
    want3 = {H_REF: 0.0327, 16: 0.0788, 100: 0.1120, 10**4: 0.1456,
             10**6: 0.15813}
    t0 = time.time()
    bad = []
    for H, w in want0.items():
        got = singular.weighted_sum_S(5, 0, float(H), K) - H / 5
        if abs(got - w) > (TOL_4DP if H < 10**6 else TOL_3DP):
            bad.append((0, H, got, w))
    for H, w in want3.items():
        got = singular.weighted_sum_S(5, 3, float(H), K) - H / 5
        if abs(got - w) > TOL_4DP:
            bad.append((3, H, got, w))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 900
    assert _report(6, ok, f"S(5,v;H)-H/5 at 5 H values x 2 classes "
                          f"({elapsed:.0f}s)" + ("" if ok else f"; bad={bad}"))


def test_criterion_07_asymptotic_columns():
    bad = []
    offsets = []
    for v, table in ((0, refdata.TABLE6), (3, refdata.TABLE7)):
        for Hkey, cells in table.items():
            H = H_REF if Hkey == 6.356 else float(Hkey)
            for J in (1, 2, 3):
                got = predictors.asymptotic_S(5, v, H, J) - H / 5
                want = cells[1 + J]
                if v == 3:
                    # corrected cell: oracle rho(5, 3) and the published c1(j)
                    want = refdata.TABLE7_J_CORRECTED[Hkey][J - 1]
                    built = refdata.RHO_5_3 + sum(
                        refdata.C1_REF[j] * log(H) ** (0.5 - j) for j in range(1, J + 1))
                    if abs(built - want) > TOL_4DP:
                        bad.append(("corrected cell not built from rho", Hkey, J))
                    offsets.append(cells[1 + J] - built)
                if abs(got - want) > TOL_4DP:
                    bad.append((v, Hkey, J, round(got, 5), want))
    # the published v = 3 cells differ from the corrected ones by one constant
    common = (max(offsets) - min(offsets) < 1e-4
              and all(abs(o - refdata.TABLE7_J_OFFSET) < 1e-4 for o in offsets))
    ok = not bad and common
    assert _report(7, ok, "asymptotic_S vs all J cells (v=3 corrected); published "
                          f"v=3 offset {min(offsets):+.5f}..{max(offsets):+.5f}" +
                   ("" if not bad else f"; {len(bad)} cells off: {bad[:3]}..."))


def test_criterion_08_integral_S():
    """The v = 0 cells fail; the cause is not settled.

    The v = 3 cells and the H = 100 sign-typo sub-check pass.  For v = 0 the
    program gives -2.27546 at H = 1e4 and -2.91482 at H = 1e6 against the
    published -2.2839 and -2.9162; program minus published over the five
    Table 6 rows is 0.103, 0.081, 0.046, 0.0084, 0.0014, roughly
    0.1 log H / sqrt(H).  Findings:
      * the finite-part integral over the cut (-1/2 + eps, 0] of
        D(s) Gamma(s) (H/q)^s, evaluated in mpmath from
        D(s) = sum_h S({0,h}) h^-s without F_gamma_prime or integration by
        parts, gives -2.29689 and -2.91717: neither column.  It equals the
        program plus the lower-endpoint term F(a) H^(a-1) (1-a)^(-1/2)/(pi K^2),
        a = 1/2 + eps, to 1e-9 (test_quadrature), so integral_S computes the
        by-parts form its docstring states, with that term dropped;
      * that route is closer to the exact weighted sums (-2.29316, -2.91685)
        than either column, by 3.7e-3 and 3.2e-4;
      * no eps in [0.01, 0.45] (with or without the endpoint term), neither
        sign of the endpoint term, and the by-parts form of the identity
        S(q, 0; H) = S(H/q) (-2.25048, -2.91208) reproduce the published
        column.
    Which convention the published column used needs the paper's text.
    """
    cfg = quadrature.QuadratureConfig(epsilon=0.02)
    cells = [(0, 10**4, -2.2839), (0, 10**6, -2.9162),
             (3, 10**4, 0.1461), (3, 10**6, 0.15819)]
    bad = []
    for v, H, want in cells:
        got = quadrature.integral_S(5, v, float(H), cfg) - H / 5
        if abs(got - want) > TOL_3DP:
            bad.append((v, H, round(got, 5), want))
    # flagged sign typo at H = 100, v = 0: reported |value| within 10%
    typo = abs(quadrature.integral_S(5, 0, 100.0, cfg) - 20.0)
    typo_ok = abs(typo - 1.2847) / 1.2847 < 0.10
    ok = not bad and typo_ok
    assert _report(8, ok, f"integral_S cells; |H=100 v=0| = {typo:.4f} vs 1.2847"
                   + ("" if not bad else f"; v=0 cells off: {bad}"))


def test_criterion_09_table5_prediction_columns():
    conj_diag = round(predictors.pair_conjecture(1e12, 5, 0, 0) / 1e6)
    conj_v1 = round(predictors.pair_conjecture(1e12, 5, 0, 1) / 1e6)
    num_diag = round(predictors.pipeline_D012(1e12, 5, 0, 0, "numeric") / 1e6)
    thm_diag = round(predictors.pipeline_D012(1e12, 5, 0, 0, "asymptotic_J1") / 1e6)
    got = (conj_diag, conj_v1, num_diag, thm_diag)
    # published 6841 is an erratum: the cell uses C_ab(5, 1) (refdata errata)
    want = (3919, refdata.TABLE5_OFFDIAG_CORRECTED[1][1], 3585, 3219)
    ok = got == want
    assert _report(9, ok, f"(conj diag, conj v=1, numeric diag, thm diag) = "
                          f"{got} vs {want}")


def test_criterion_10_tables_3_and_4():
    got = [predictors.ap_prediction(1e12, 5, 0),
           predictors.ap_prediction(1e12, 5, 1),
           predictors.hl_pair_prediction(1e12, 5, 0, 1, refined=False),
           predictors.hl_pair_prediction(1e12, 5, 0, 1, refined=True),
           predictors.hl_pair_prediction(1e12, 5, 0, 5, refined=True)]
    want = [30536403581, 29477858608, 3619120683, 3850620130, 3982373088]
    bad = [(round(g), w) for g, w in zip(got, want) if abs(g - w) > 1]
    ok = not bad
    assert _report(10, ok, f"ap/hl predictions {[round(g) for g in got]}")


def test_criterion_11_bias_direction(stats_1e9):
    singles, pairs = stats_1e9
    diag = [int(pairs.counts[a][a]) for a in range(5)]
    off = [int(pairs.counts[a][b]) for a in range(5) for b in range(5) if a != b]
    ok = max(diag) < min(off) and all(
        singles.cell(0) > singles.cell(a) for a in range(1, 5))
    assert _report(11, ok, f"max diag {max(diag)} < min off-diag {min(off)}; "
                           f"singles(0) largest")


def test_criterion_12_oracle_equivalence():
    # (a) tuple counts at 1e5 vs an independent brute-force enumerator:
    # direct a^2 + b^2 marking with plain python sets, no shared sieve code
    x = 10**5
    win = x + 10**4  # room for the successors of the last element
    mem = set()
    a = 0
    while a * a <= win:
        b = a
        while a * a + b * b <= win:
            mem.add(a * a + b * b)
            b += 1
        a += 1
    members = sorted(m for m in mem if m >= 1)
    mat = progressions.count_consecutive_tuples(x, 5, 3)
    brute = {}
    for i in range(len(members) - 2):
        if members[i] > x:
            break
        key = tuple(m % 5 for m in members[i:i + 3])
        brute[key] = brute.get(key, 0) + 1
    import itertools
    counts_ok = all(mat.cell(*k) == brute.get(k, 0)
                    for k in itertools.product(range(5), repeat=3))
    # (b) singular series oracle equivalence, h <= 50
    ck_ok = all(abs(singular.ck_singular_series(h, K)
                    - singular.singular_series_general(TupleConfig((0, h))).value)
                <= 1e-8 for h in range(1, 51))
    # (c) local densities are exact rationals
    from fractions import Fraction
    d = singular.local_density(3, TupleConfig((0, 3, 9)))
    rat_ok = isinstance(d, Fraction)
    ok = counts_ok and ck_ok and rat_ok
    assert _report(12, ok, f"brute tuples exact: {counts_ok}, CK vs general "
                           f"1e-8: {ck_ok}, rational densities: {rat_ok}")


def test_criterion_13_ms_bound_slope():
    hs = [8, 12, 16, 20]
    vals = [abs(singular.ms_sum(h, 3)) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
    ok = slope <= 1.9
    assert _report(13, ok, f"|ms_sum(h,3)| log-log slope = {slope:.3f} <= 1.9")
