"""Fourier multiplier operators of the magneto-geostrophic velocity map.

The active scalar Theta on the torus [0, 2pi]^3 drives a divergence-free
velocity U = M Theta through an explicit, anisotropic matrix of Fourier
multipliers obtained from the rotating, magnetized momentum balance.  With
mu = beta^2 / eta and D(k) = 4 Omega^2 k3^2 |k|^2 + mu^2 k2^4 the components
are

    M1(k) = (2 Omega k2 k3 |k|^2 - mu k1 k2^2 k3) / D(k)
    M2(k) = (-2 Omega k1 k3 |k|^2 - mu k2^3 k3) / D(k)
    M3(k) = mu k2^2 (k1^2 + k2^2) / D(k)

on k3 != 0, and M(k) = 0 on the plane k3 = 0 (velocity and scalar carry no
vertical mean).  The symbols are even, annihilate k (k . M(k) = 0, so U is
incompressible), and are unbounded along curved frequency regions
k = (k1, k1^r, 1): they grow like |k1|^r, |k1| and |k1|^{2r} respectively,
which is the source of the derivative loss in the nonlinearity.

Two companion multipliers are derived from M: the matrix T with
T_ij = -(i k_i) / |k|^2 * M_j(k), which writes U_j = partial_i T_ij Theta
in divergence form, and the magnetic reconstruction
b_j = (beta/eta) (i k2) / |k|^2 * M_j(k) giving the perturbation magnetic
field carried by the scalar.

One formula, _m, serves every evaluation.  m_symbol, t_symbol and b_symbol
take k as integers or integer arrays broadcasting to a shape B and return
float arrays of shape (3,) + B or (3, 3) + B; the *_grids forms evaluate
the centered cube.  _m uses arithmetic operators only, so on integer k
and rational Omega and mu it also runs on Fractions: the tests check the
algebraic identities exactly that way.
"""
from __future__ import annotations

import csv

import numpy as np

from .params import PhysicalParams


def _m(k1, k2, k3, omega, mu):
    """(M1, M2, M3) with arithmetic operators only, so one formula serves
    floats, broadcast integer arrays and Fractions; k3 = 0 is the caller's."""
    ksq = k1 * k1 + k2 * k2 + k3 * k3
    d = 4 * omega * omega * k3 * k3 * ksq + mu * mu * k2 ** 4
    return ((2 * omega * k2 * k3 * ksq - mu * k1 * k2 ** 2 * k3) / d,
            (-2 * omega * k1 * k3 * ksq - mu * k2 ** 3 * k3) / d,
            mu * k2 ** 2 * (k1 * k1 + k2 * k2) / d)


def _cube(n: int):
    """The centered cube |k|_inf <= n as three broadcastable index arrays."""
    k = np.arange(-n, n + 1)
    return k[:, None, None], k[None, :, None], k[None, None, :]


def m_symbol(k, phys: PhysicalParams) -> np.ndarray:
    """Velocity multiplier M(k), shape (3,) + B; zero on k3 = 0.

    k is a triple of integers or integer arrays broadcasting to shape B.
    """
    k1, k2, k3 = (np.asarray(v) for v in k)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.stack(np.broadcast_arrays(*_m(k1, k2, k3, phys.omega,
                                             phys.mu)))
    np.copyto(m, 0.0, where=k3 == 0)
    return m


def t_symbol(k, phys: PhysicalParams) -> np.ndarray:
    """Divergence-form matrix T_ij(k) = -(i k_i / |k|^2) M_j(k).

    Complex, shape (3, 3) + B for k as in m_symbol; zero at k = 0 and on
    k3 = 0.
    """
    k1, k2, k3 = (np.asarray(v) for v in k)
    with np.errstate(divide="ignore", invalid="ignore"):
        kq = np.stack(np.broadcast_arrays(k1, k2, k3)) \
            / (k1 * k1 + k2 * k2 + k3 * k3)
        t = (-1j * kq)[:, None] * m_symbol(k, phys)
    np.copyto(t, 0.0, where=k3 == 0)
    return t


def b_symbol(k, phys: PhysicalParams) -> np.ndarray:
    """Magnetic reconstruction multiplier (beta/eta)(i k2 / |k|^2) M(k).

    Complex, shape (3,) + B for k as in m_symbol; zero at k = 0 and on
    k3 = 0.
    """
    k1, k2, k3 = (np.asarray(v) for v in k)
    with np.errstate(divide="ignore", invalid="ignore"):
        # real factor first: numpy's complex/float division rounds
        # differently from the real quotient k2 / |k|^2
        b = 1j * ((phys.beta / phys.eta)
                  * (k2 / (k1 * k1 + k2 * k2 + k3 * k3))) * m_symbol(k, phys)
    np.copyto(b, 0.0, where=k3 == 0)
    return b


def m_symbol_grids(n: int, phys: PhysicalParams) -> np.ndarray:
    """M on the centered cube |k|_inf <= n, shape (3, 2n+1, 2n+1, 2n+1)."""
    return m_symbol(_cube(n), phys)


def b_symbol_grids(n: int, phys: PhysicalParams) -> np.ndarray:
    """b on the centered cube, complex, shape (3, 2n+1, 2n+1, 2n+1)."""
    return b_symbol(_cube(n), phys)


def symbol_table_csv(path, n: int, phys: PhysicalParams) -> None:
    """Dump M on the centered cube |k|_inf <= n as CSV (k1,k2,k3,M1,M2,M3)."""
    cube = np.broadcast_arrays(*_cube(n))
    m = m_symbol_grids(n, phys)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k1", "k2", "k3", "M1", "M2", "M3"])
        for row in zip(*(a.ravel() for a in cube), *(mj.ravel() for mj in m)):
            w.writerow([*row[:3], *(f"{v:.17g}" for v in row[3:])])
