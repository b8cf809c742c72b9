"""Character tables and real-axis zeta/L evaluators against mpmath oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosquares import characters as chars, constants, eulerprod as ep, progressions
from twosquares.errors import ArgumentError

mp.mp.dps = 30

PRIMES = [5, 13, 17, 29, 101]


@pytest.mark.parametrize("q", PRIMES)
def test_orthogonality(q):
    tab = chars.character_table(q)
    phi = q - 1
    for i, chi in enumerate(tab.characters):
        for j, psi in enumerate(tab.characters):
            inner = sum(chi(a) * psi(a).conjugate() for a in range(q)) / phi
            assert abs(inner - (1 if i == j else 0)) < 1e-12


@pytest.mark.parametrize("q", PRIMES)
def test_column_orthogonality(q):
    tab = chars.character_table(q)
    for a in range(2, q):
        col = sum(chi(a) for chi in tab.characters)
        assert abs(col) < 1e-12


# accuracy range: the package evaluates hurwitz only for s > -1 (zeta(s-1)
# with s in (1/2, 1)); precision decays below s ~ -6 as the Bernoulli tail
# stops dominating
@given(st.floats(min_value=-2, max_value=8, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_hurwitz_matches_mpmath(s):
    if abs(s - 1) < 1e-3 or 0 < abs(s) < 1e-12:  # mpmath chokes on tiny s
        return
    for a in (1.0, 0.25, 0.7):
        want = float(mp.zeta(s, a))
        assert abs(chars.hurwitz(s, a) - want) < 1e-9 * max(1, abs(want))


def test_hurwitz_vectorized_matches_scalar():
    # bit for bit: a scalar s runs through the same array kernel as an array s
    grid = np.linspace(-0.5, 40, 37)
    for s, a in ((np.array([-3.2, 0.4, 0.75, 2.0, 5.5]), 1.0), (grid, 1.0), (grid, 0.3)):
        for si, vi in zip(s, chars.hurwitz(s, a)):
            assert vi == chars.hurwitz(float(si), a), (si, a)


def test_hurwitz_scalar_types_share_the_memo():
    # np.float64 and 0-d arrays are scalars: same value and type as a float
    want = chars.hurwitz(2.5)
    assert chars.hurwitz(np.float64(2.5)) == want
    assert chars.hurwitz(np.array(2.5)) == want
    # a complex 0-d array is a complex scalar, and a float never gets a complex entry
    z = chars.hurwitz(2.5 + 0.5j, 0.25)
    assert isinstance(z, complex) and chars.hurwitz(np.array(2.5 + 0.5j), 0.25) == z
    assert isinstance(chars.hurwitz(2.5 + 0j), complex)
    assert type(chars.hurwitz(2.5)) is float
    # ... and one entry of dirichlet_L's grid memo; a float never gets a complex grid
    chi = chars.character_table(5).characters[1]
    chars._L_grid.cache_clear()
    v = chars.dirichlet_L(2.5, chi)
    assert chars.dirichlet_L(np.float64(2.5), chi) == v == chars.dirichlet_L(np.array(2.5), chi)
    assert chars._L_grid.cache_info().currsize == 1
    assert chars._L_grid(2.5, 5).dtype == float and chars._L_grid(2.5 + 0j, 5).dtype == complex


def test_hurwitz_derivative():
    # d/ds zeta(s, a) as a complex step of the evaluator
    dv = chars.complex_step(lambda t: chars.hurwitz(t, 0.3), 0.75)
    want = float(mp.diff(lambda t: mp.zeta(t, 0.3), 0.75))
    assert dv == pytest.approx(want, rel=1e-13)
    vec = chars.complex_step(lambda t: chars.hurwitz(t, 0.3), np.array([0.75, 2.5]))
    assert vec[0] == dv


@pytest.mark.parametrize("s", [0.75 + 1e-30j, 0.5 + 2j, -0.4 + 1j, 2.5 - 0.7j, 1 + 0.25j,
                               0.25j, -0.25])
def test_hurwitz_complex_matches_mpmath(s):
    for a in (1.0, 0.25, 0.75):
        want = complex(mp.zeta(s, a))
        tol = 1e-13 * max(1.0, abs(want))
        assert abs(chars.hurwitz(s, a) - want) < tol
        assert abs(chars.hurwitz(np.array([s]), a)[0] - want) < tol


# the (s, a) grid behind every L-value: real s from the package's lowest
# argument (zeta(s-1), s > 1/2) to deep levels, complex s, and a from 1/(4q)
GRID_S = [-0.5, -0.25, 0.0, 0.3, 0.5, 0.75, 0.999, 1.001, 1.5, 2.0, 3.0, 5.5, 8.0, 16.0,
          25.0, 40.0, 0.5 + 2j, -0.4 + 1j, 2.5 - 0.7j, 1 + 0.25j, 0.25j, 8 + 5j, 20 - 10j]
GRID_A = [1 / 404, 1 / 13, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 403 / 404]


def test_hurwitz_grid_matches_mpmath():
    grid = chars._euler_maclaurin(np.array(GRID_S), np.array(GRID_A))
    assert grid.shape == (len(GRID_S), len(GRID_A))
    for i, s in enumerate(GRID_S):
        for j, a in enumerate(GRID_A):
            want = complex(mp.zeta(s, a))
            assert abs(grid[i, j] - want) < 1e-13 * max(1.0, abs(want)), (s, a)


@pytest.mark.parametrize("x", [-0.5, -0.3, 0.3, 0.75, 1.2, 2.0, 8.0, 40.0])
def test_hurwitz_grid_complex_step_matches_mpmath(x):
    # zeta(x + ih, a) = zeta(x, a) + ih zeta'(x, a): both parts from one grid
    grid = chars._euler_maclaurin(np.array([x + 1j * chars.COMPLEX_STEP]), np.array(GRID_A))
    for j, a in enumerate(GRID_A):
        want, dwant = float(mp.zeta(x, a)), float(mp.zeta(x, a, derivative=1))
        assert abs(grid[0, j].real - want) < 1e-13 * max(1.0, abs(want)), a
        assert abs(grid[0, j].imag / chars.COMPLEX_STEP - dwant) < 1e-13 * max(1.0, abs(dwant)), a


@pytest.mark.parametrize("d", [1e-5, -1e-5, 1e-9, -1e-9, 1e-11, -1e-11])
def test_zeta_regularized_pole_free(d):
    # (s-1) zeta(s) next to the pole: no 1/(s-1) term is formed and cancelled,
    # which a complex step would otherwise amplify by 1/|s-1|
    s = 1 + d
    want = float((mp.mpf(s) - 1) * mp.zeta(mp.mpf(s)))
    assert chars.zeta_real(s, regularized=True) == pytest.approx(want, rel=1e-14)
    vec = chars.zeta_real(np.array([s, 2.0]), regularized=True)
    assert vec[0] == pytest.approx(want, rel=1e-14)
    dwant = float(mp.diff(lambda t: (t - 1) * mp.zeta(t), mp.mpf(s)))
    dgot = chars.complex_step(lambda t: chars.zeta_real(t, regularized=True), s)
    assert dgot == pytest.approx(dwant, rel=1e-13)


def test_zeta_regularized_smooth_at_one():
    assert chars.zeta_real(1.0, regularized=True) == 1.0
    assert chars.zeta_real(np.array([1.0]), regularized=True)[0] == 1.0
    for s in (0.999999, 1.000001):
        assert abs(chars.zeta_real(s, regularized=True) - 1) < 1e-5


def test_digamma_matches_mpmath():
    xs = (0.1, 0.5, 1.0, 2.5, 25.0)
    for x, v in zip(xs, chars.digamma(np.array(xs))):
        assert abs(chars.digamma(x) - float(mp.digamma(x))) < 1e-12
        # the array path shifts each entry as the scalar path does; numpy's vector
        # log may differ from the scalar one in the last bit
        assert v == pytest.approx(chars.digamma(x), rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_L_special_consistent_with_dirichlet_L(q):
    tab = chars.character_table(q)
    for chi in tab.non_principal():
        L0, L1 = chars.L_special(chi)
        assert abs(L0 - chars.dirichlet_L(0.0, chi)) < 1e-10
        # s=1 by one-sided continuity of the Hurwitz decomposition
        near = chars.dirichlet_L(1.0 + 1e-7, chi)
        assert abs(L1 - near) < 1e-5


@pytest.mark.parametrize("q", [5, 13])
def test_dirichlet_L_at_and_next_to_one(q):
    # sum chi(a) = 0 turns the Hurwitz poles into pole differences: no cancellation
    tab = chars.character_table(q)
    for chi in tab.non_principal():
        L1 = chars.L_special(chi)[1]
        assert abs(chars.dirichlet_L(1 + 1e-12, chi) - L1) < 1e-11
        assert chars.dirichlet_L(np.array([1.0, 2.0]), chi)[0] == pytest.approx(L1, abs=1e-14)
        assert chars.dirichlet_L(1.0, chi) == pytest.approx(L1, abs=1e-14)
    with pytest.raises(ArgumentError):
        chars.dirichlet_L(1.0, tab.principal)
    with pytest.raises(ArgumentError):
        chars.dirichlet_L(np.array([1.0, 2.0]), tab.principal)


def _exact_value(v, order: int):
    """The order-th root of unity (or 0) that the binary64 table entry v stands for."""
    if v == 0:
        return mp.mpf(0)
    return mp.expjpi(mp.mpf(2 * (round(cmath.phase(v) * order / (2 * cmath.pi)) % order)) / order)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 0.75, 1 - 1e-12, 1 + 1e-12, 2.0, 4.0,
                               1.5 + 2j, 0.5 - 3j])
def test_dirichlet_L_matches_mpmath_hurwitz_sum(s):
    # every character mod 13 and mod 52 = 4 * 13 (chi chi4 and chi times the principal
    # character mod 4), against M^-s sum chi(a) zeta(s, a/M) with exact roots of unity;
    # near s = 1 the mpmath sum keeps 30 - 12 digits
    tab = chars.character_table(13)
    principal4 = chars.Character(4, (0j, 1 + 0j, 0j, 1 + 0j))
    family = [*tab.characters, *(chi.twisted for chi in tab.characters),
              *(chi * principal4 for chi in tab.characters)]
    hurwitz = {M: [mp.zeta(s, mp.mpf(a) / M) for a in range(1, M)] for M in (13, 52)}
    tol = 1e-12 if np.real(s) < 0 else 1e-13  # the Euler-Maclaurin remainder grows like 19^(1-s)
    for chi in family:
        if chi.is_principal and abs(s - 1) < 1e-6:
            continue
        M = chi.modulus
        want = complex(mp.power(M, -s) * mp.fsum(_exact_value(v, 12) * z
                                                 for v, z in zip(chi.values[1:], hurwitz[M])))
        assert abs(chars.dirichlet_L(s, chi) - want) < tol * max(1.0, abs(want))
        assert abs(chars.dirichlet_L(np.array([s]), chi)[0] - want) < tol * max(1.0, abs(want))


@pytest.mark.parametrize("q", [5, 13])
def test_even_characters_vanish_at_zero(q):
    tab = chars.character_table(q)
    for chi, parity in zip(tab.characters, tab.parities):
        if parity == 1 and not chi.is_principal:
            assert abs(chars.dirichlet_L(0.0, chi)) < 1e-12


def test_chi4_special_values():
    # L(0, chi4) = 1/2; L(1, chi4) = pi/4
    L0, L1 = chars.L_special(chars.CHI4)
    assert abs(L0 - 0.5) < 1e-12
    assert abs(L1 - cmath.pi / 4) < 1e-12


def test_L1_alternating_series_oracle_q5():
    tab = chars.character_table(5)
    for chi in tab.odd():
        # direct partial sums of sum chi(n)/n with Euler-type averaging
        import itertools
        partial = 0j
        terms = []
        for n in range(1, 20001):
            partial += chi(n) / n
            if n > 19990:
                terms.append(partial)
        est = sum(terms) / len(terms)
        assert abs(chars.L_special(chi)[1] - est) < 1e-4


@pytest.mark.parametrize("q", [5, 13, 29])
def test_conjugate_symmetry(q):
    tab = chars.character_table(q)
    for chi in tab.non_principal():
        for s in (0.3, 0.75, 2.0):
            a = chars.dirichlet_L(s, chi.conj())
            b = chars.dirichlet_L(s, chi).conjugate()
            assert abs(a - b) < 1e-12


def test_dirichlet_L_array_matches_scalar():
    s = np.array([0.75, 2.0, 3.5])
    tab = chars.character_table(13)
    for chi in (chars.TRIVIAL, tab.principal, tab.characters[1], tab.characters[1] * chars.CHI4):
        vec = chars.dirichlet_L(s, chi)
        assert vec.shape == s.shape
        for si, vi in zip(s, vec):
            assert vi == pytest.approx(chars.dirichlet_L(float(si), chi), rel=1e-14)
    with pytest.raises(ArgumentError):
        chars.dirichlet_L(np.array([2.0, 1.0]), tab.principal)


def test_mod4q_product_characters():
    tab = chars.character_table(5)
    chi = tab.characters[1]
    prod = chi * chars.CHI4
    assert prod.modulus == 20
    for a in (1, 3, 7, 9, 11, 13, 17, 19):
        assert abs(prod(a) - chi(a) * chars.CHI4(a)) < 1e-12
    for a in (0, 2, 4, 5, 10, 15):
        assert prod(a) == 0


def test_argument_errors():
    with pytest.raises(ArgumentError):
        chars.hurwitz(1.0)
    with pytest.raises(ArgumentError):
        chars.hurwitz(2.0, a=-1.0)
    with pytest.raises(ArgumentError):
        chars.character_table(6)
    with pytest.raises(ArgumentError):
        chars.dirichlet_L(1.0, chars.character_table(5).principal)


@pytest.mark.parametrize("q", [4, 6, 7])
@pytest.mark.parametrize("build", [
    chars.character_table,
    constants.build_bundle,
    lambda q: constants.C_ab(q, 0, 1),
    lambda q: progressions.count_by_residue(100, q),
], ids=["character_table", "build_bundle", "C_ab", "count_by_residue"])
def test_one_modulus_check(build, q):
    # every entry point rejects a modulus that is not a prime = 1 mod 4
    with pytest.raises(ArgumentError, match="prime = 1 mod 4"):
        build(q)


@pytest.mark.parametrize("q", [5, 13, 29, 101, 1009])
def test_check_modulus_accepts_primes_1_mod_4(q):
    chars.check_modulus(q)


# 1 and -3 are = 1 mod 4 but not primes; 9, 21, 25, 45, 49 and 65 are composite
@pytest.mark.parametrize("q", [1, -3, 3, 7, 9, 21, 25, 45, 49, 65])
def test_check_modulus_refuses(q):
    with pytest.raises(ArgumentError, match="prime = 1 mod 4"):
        chars.check_modulus(q)


_PRIMES_TO_1E6 = frozenset(ep.primes_up_to(10**6).tolist())


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_factorize_property(n):
    f = chars.factorize(n)
    assert math.prod(p**e for p, e in f) == n
    assert all(a[0] < b[0] for a, b in zip(f, f[1:]))
    assert all(p in _PRIMES_TO_1E6 and e >= 1 for p, e in f)


@pytest.mark.parametrize("n, expected", [
    (1, []),
    (999983**2, [(999983, 2)]),
    (4 * (10**6 + 3), [(2, 2), (10**6 + 3, 1)]),
    (2**40 + 3, [(19, 1), (57869033041, 1)]),
])
def test_factorize_cases(n, expected):
    # the last three have a prime factor above 10^6
    assert chars.factorize(n) == expected


def test_factorize_refuses_below_one():
    with pytest.raises(ArgumentError):
        chars.factorize(0)
