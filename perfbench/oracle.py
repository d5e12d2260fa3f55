"""Independent dense oracle for the slice growth rate.

Nothing here imports mg_spectra.  alpha_p is the paper's recursion
coefficient, written out again from the formula

    alpha_p = [8 Omega^2 (mp)^2 (k1^2 + k2^2 + (mp)^2) + 2 mu^2 k2^4]
              / (a mu m k2^2 (k1^2 + k2^2)),

and the growth rate is the top eigenvalue of the P x P symmetrized
tridiagonal truncation of the slice generator: off-diagonal
1/sqrt(alpha_p alpha_{p+1}), diagonal -kappa (k1^2 + k2^2 + m^2 p^2),
taken with dense LAPACK (numpy.linalg.eigvalsh).  LAPACK shares no
recurrence with the continued fraction, so agreement is a real check.
"""

from __future__ import annotations

import math

import numpy as np

P_DENSE = 128


def alpha(p, a, m, k1, k2, omega=1.0, mu=1.0):
    """Recursion coefficient alpha_p for scalar or array p >= 1."""
    p = np.asarray(p, dtype=float)
    ksq = float(k1 * k1 + k2 * k2)
    num = 8.0 * omega ** 2 * (m * p) ** 2 * (ksq + (m * p) ** 2) \
        + 2.0 * mu ** 2 * float(k2) ** 4
    return num / (a * mu * m * float(k2) ** 2 * ksq)


def dense_lambda(a, m, k1, k2, kappa=0.0, omega=1.0, mu=1.0, P=P_DENSE):
    """Top eigenvalue of the symmetrized P x P slice generator."""
    p = np.arange(1, P + 1, dtype=float)
    al = alpha(p, a, m, k1, k2, omega, mu)
    off = 1.0 / np.sqrt(al[:-1] * al[1:])
    mat = np.diag(-kappa * (k1 * k1 + k2 * k2 + (m * p) ** 2))
    mat += np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(mat)[-1])


def bracket(a, m, k1, k2, omega=1.0, mu=1.0):
    """The analytic bracket (1/sqrt(a1 a2), 1/sqrt(a1 a2 - a1^2))."""
    a1 = float(alpha(1, a, m, k1, k2, omega, mu))
    a2 = float(alpha(2, a, m, k1, k2, omega, mu))
    return 1.0 / math.sqrt(a1 * a2), 1.0 / math.sqrt(a1 * a2 - a1 * a1)


def critical_kappa(a, m, k1, k2, omega=1.0, mu=1.0):
    """kappa_c where the dense top eigenvalue crosses zero, by bisection.

    The diagonal shift is at most -kappa (k1^2 + k2^2 + m^2), so the top
    eigenvalue is negative at kappa = 2 lambda(0) / (k1^2 + k2^2 + m^2).
    """
    lo = 0.0
    hi = 2.0 * dense_lambda(a, m, k1, k2, 0.0, omega, mu) \
        / (k1 * k1 + k2 * k2 + m * m)
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if dense_lambda(a, m, k1, k2, mid, omega, mu) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def growth_bound_constant(a, m, omega=1.0, mu=1.0):
    """Slope of the ill-posedness bound sigma_j > j a mu m/(256 Omega^2 m^2 + 2 mu^2)."""
    return a * mu * m / (256.0 * omega ** 2 * m * m + 2.0 * mu ** 2)


def dynamo_bound(kappa, a, omega=1.0):
    """The 1/kappa floor a^2 / (1024 Omega^2 kappa)."""
    return a * a / (1024.0 * omega ** 2 * kappa)


def relative_error(value, reference):
    return abs(value - reference) / abs(reference)
