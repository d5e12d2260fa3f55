import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mg_spectra.params import PhysicalParams
from mg_spectra import symbols
from symbols_exact import (divergence_exact, m_symbol_exact,
                           t_symbol_exact)

UNIT = PhysicalParams()

# exact rational values, checked by hand from the defining formulas
POINT_VALUES = {
    (1, 1, 1): (Fraction(5, 13), Fraction(-7, 13), Fraction(2, 13)),
    (1, 1, -1): (Fraction(-5, 13), Fraction(7, 13), Fraction(2, 13)),
    (2, 1, 3): (Fraction(78, 505), Fraction(-171, 505), Fraction(1, 101)),
}


@pytest.mark.parametrize("k,expected", sorted(POINT_VALUES.items()))
def test_m_symbol_exact_points(k, expected):
    assert m_symbol_exact(k, 1, 1) == expected


@pytest.mark.parametrize("k", sorted(POINT_VALUES))
def test_m_symbol_float_matches_exact(k):
    m = symbols.m_symbol(k, UNIT)
    exact = [float(v) for v in POINT_VALUES[k]]
    assert np.allclose(m, exact, rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [(3, 5, 0), (0, 0, 0), (-7, 2, 0)])
def test_m_symbol_vanishes_on_plane(k):
    assert np.all(symbols.m_symbol(k, UNIT) == 0.0)


def test_divergence_exact_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = tuple(int(v) for v in rng.integers(-20, 21, size=3))
        assert divergence_exact(k, 1, 1) == 0
        assert divergence_exact(k, 2, 3) == 0


def test_t_symbol_contraction_and_link():
    for k in [(1, 1, 1), (3, -2, 5), (-4, 7, -1)]:
        kv = np.array(k, dtype=float)
        T = symbols.t_symbol(k, UNIT)
        m = symbols.m_symbol(k, UNIT)
        # M_j = i k_i T_ij and k_i k_j T_ij = 0
        assert np.allclose((1j * kv) @ T, m, atol=1e-15)
        assert abs(kv @ T @ kv) <= 1e-14
    assert np.all(symbols.t_symbol((2, 1, 0), UNIT) == 0.0)


def test_t_symbol_exact_matches_float():
    k = (2, -3, 4)
    T = symbols.t_symbol(k, UNIT)
    Te = t_symbol_exact(k, 1, 1)
    for i in range(3):
        for j in range(3):
            assert T[i, j].real == 0.0
            assert T[i, j].imag == pytest.approx(float(Te[i][j]), abs=1e-16)


def test_b_symbol_relation():
    k = (2, 3, -1)
    ksq = 4 + 9 + 1
    b = symbols.b_symbol(k, UNIT)
    m = symbols.m_symbol(k, UNIT)
    assert np.allclose(b, (1j * 3 / ksq) * m, atol=1e-16)
    assert np.all(symbols.b_symbol((1, 1, 0), UNIT) == 0.0)


def test_grids_match_pointwise():
    n = 3
    m1, m2, m3 = symbols.m_symbol_grids(n, UNIT)
    b1, b2, b3 = symbols.b_symbol_grids(n, UNIT)
    for k1 in range(-n, n + 1):
        for k2 in range(-n, n + 1):
            for k3 in range(-n, n + 1):
                idx = (k1 + n, k2 + n, k3 + n)
                m = symbols.m_symbol((k1, k2, k3), UNIT)
                b = symbols.b_symbol((k1, k2, k3), UNIT)
                assert np.array_equal([m1[idx], m2[idx], m3[idx]], m)
                assert np.array_equal([b1[idx], b2[idx], b3[idx]], b)


def test_symbol_shapes():
    n = 2
    assert symbols.m_symbol_grids(n, UNIT).shape == (3, 5, 5, 5)
    assert symbols.b_symbol_grids(n, UNIT).shape == (3, 5, 5, 5)
    k1 = np.arange(4)[:, None]
    k2 = np.arange(1, 6)[None, :]
    assert symbols.m_symbol((k1, k2, 2), UNIT).shape == (3, 4, 5)
    assert symbols.b_symbol((k1, k2, 2), UNIT).shape == (3, 4, 5)
    assert symbols.t_symbol((k1, k2, 2), UNIT).shape == (3, 3, 4, 5)
    assert symbols.t_symbol((1, 2, 3), UNIT).shape == (3, 3)
    # T and b vanish at k = 0 instead of dividing by |k|^2 = 0
    assert np.all(symbols.t_symbol((0, 0, 0), UNIT) == 0.0)
    assert np.all(symbols.b_symbol((0, 0, 0), UNIT) == 0.0)


def test_grids_even_symmetry():
    m1, m2, m3 = symbols.m_symbol_grids(4, UNIT)
    for g in (m1, m2, m3):
        assert np.array_equal(g, g[::-1, ::-1, ::-1])


def test_asymptotics_report():
    # along k = (k1, round(k1^r), 1), r = 1/2, |M_j| grows like k1^r, k1
    # and k1^{2r}: each normalized ratio stays inside a fixed positive
    # interval while |M2| itself is unbounded
    k1 = np.array([4, 16, 64, 256])
    k2 = np.rint(k1 ** 0.5).astype(int)
    am = np.abs(symbols.m_symbol((k1, k2, 1), UNIT))
    ratios = am / np.stack([k1 ** 0.5, k1, k1 ** 1.0])
    for lo, hi in zip(ratios.min(axis=1), ratios.max(axis=1)):
        assert lo > 0
        assert hi / lo < 10.0
    for j in range(k1.size):
        m = symbols.m_symbol((int(k1[j]), int(k2[j]), 1), UNIT)
        assert list(am[:, j]) == list(np.abs(m))
    assert am[1, -1] > 10.0 * am[1, 0]


def test_symbol_table_csv(tmp_path):
    path = os.path.join(tmp_path, "sym.csv")
    symbols.symbol_table_csv(path, 2, UNIT)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "k1,k2,k3,M1,M2,M3"
    assert len(lines) == 1 + 5 ** 3


_K = st.integers(min_value=-40, max_value=40)
_RATIONAL = st.fractions(min_value=Fraction(1, 8), max_value=8,
                         max_denominator=16)


@settings(deadline=None, max_examples=100)
@given(k=st.lists(st.tuples(_K, _K, _K), min_size=1, max_size=8),
       omega=_RATIONAL, mu=_RATIONAL)
def test_symbol_properties(k, omega, mu):
    phys = PhysicalParams(omega=float(omega), eta=1.0 / float(mu))
    ks = np.array(k).T
    m = symbols.m_symbol(tuple(ks), phys)
    t = symbols.t_symbol(tuple(ks), phys)
    b = symbols.b_symbol(tuple(ks), phys)
    neg = symbols.m_symbol(tuple(-ks), phys)
    assert np.array_equal(neg, m)
    for i, kv in enumerate(k):
        assert divergence_exact(kv, omega, mu) == 0
        # a batched call equals the pointwise calls exactly
        assert np.array_equal(symbols.m_symbol(kv, phys), m[:, i])
        assert np.array_equal(symbols.t_symbol(kv, phys), t[:, :, i])
        assert np.array_equal(symbols.b_symbol(kv, phys), b[:, i])
        if kv[2] == 0:
            assert np.all(m[:, i] == 0.0)
            continue
        # relative to |M|: M1 and M2 subtract nearly equal terms
        exact = np.array([float(v) for v in
                          m_symbol_exact(kv, phys.omega, phys.mu)])
        scale = np.abs(exact).max()
        assert np.abs(m[:, i] - exact).max() <= 1e-15 * scale
        # M_j = i k_i T_ij
        link = np.einsum("i,ij->j", 1j * np.array(kv, dtype=float),
                         t[:, :, i])
        assert np.abs(link - m[:, i]).max() <= 1e-15 * scale
