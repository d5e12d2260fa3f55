"""Exact-arithmetic forms of the multiplier symbols, for the tests.

symbols._m uses arithmetic operators only, so on integer k and Fraction
Omega and mu it returns M(k) as Fractions, and the algebraic identities
k . M(k) = 0 and M_j = i k_i T_ij can be checked without rounding.
"""
from fractions import Fraction
from typing import Sequence

from mg_spectra.symbols import _m


def m_symbol_exact(k: Sequence[int], omega, mu) -> tuple:
    """M(k) in exact rational arithmetic (integer k, rational omega and mu)."""
    k1, k2, k3 = (int(v) for v in k)
    if k3 == 0:
        return (Fraction(0), Fraction(0), Fraction(0))
    return _m(k1, k2, k3, Fraction(omega), Fraction(mu))


def divergence_exact(k: Sequence[int], omega, mu) -> Fraction:
    """k . M(k) in exact arithmetic; identically zero."""
    m = m_symbol_exact(k, omega, mu)
    return sum(Fraction(int(ki)) * mi for ki, mi in zip(k, m))


def t_symbol_exact(k: Sequence[int], omega, mu) -> tuple:
    """Imaginary parts of T(k) as a 3x3 nested tuple of Fractions.

    Every entry of T is purely imaginary, T_ij = i * (-k_i / |k|^2 * M_j),
    so the rational content is returned directly.
    """
    k1, k2, k3 = (int(v) for v in k)
    if k3 == 0:
        return ((Fraction(0),) * 3,) * 3
    ksq = k1 * k1 + k2 * k2 + k3 * k3
    m = m_symbol_exact(k, omega, mu)
    return tuple(tuple(Fraction(-ki, ksq) * mj for mj in m)
                 for ki in (k1, k2, k3))
