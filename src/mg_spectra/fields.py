"""Spectral fields on the periodic box, Gevrey norms, and analyticity-radius tools.

A field is stored by its Fourier coefficients on the centered cube
|k|_inf <= N, so Theta(x) = sum_k c(k) exp(i k.x).  All norms below are
coefficient norms: the l2 norm sqrt(sum |c(k)|^2) equals the L2 norm of
Theta divided by (2 pi)^{3/2}.  The Gevrey norm squared is

    sum_k |k|^{2r} exp(2 tau |k|) |c(k)|^2

and the scalar driving the radius ODEs is a = sum_k |k|^{3/2} |c(k)|.
The radius tools are plain functions of the samples (t, a) along a
trajectory and of the window (tau0, K0) and constant C_r.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class GevreyOverflowError(ValueError):
    """Raised when exp(2 tau |k|) overflows for a populated shell."""


class InsufficientShellsError(ValueError):
    """Raised when too few populated shells exist to fit a decay rate."""


class SamplingError(ValueError):
    """Raised when fewer than two (t, a) samples reach the radius tools."""


@dataclass(frozen=True)
class SpectralField:
    """Immutable Fourier coefficient array on the centered cube |k|_inf <= N.

    coeffs has shape (2N+1,)*3 with axis index i corresponding to
    wavenumber k = i - N.  The field owns its frozen array: an input that
    the conversion left shared is kept only when it is read-only and owns
    its memory (a view could change through its base), and copied
    otherwise; build modified fields through new instances.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if np.may_share_memory(c, self.coeffs) and (
                c.flags.writeable or not c.flags.owndata):
            c = c.copy()
        if c.ndim != 3 or len(set(c.shape)) != 1 or c.shape[0] % 2 == 0:
            raise ValueError("coefficient array must be a 3-d cube with odd "
                             "side")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0] // 2

    @classmethod
    def from_modes(cls, n: int, modes: dict) -> "SpectralField":
        """Build a field from {(k1, k2, k3): coefficient}."""
        c = np.zeros((2 * n + 1,) * 3, dtype=np.complex128)
        for k, v in modes.items():
            c[_index(k, n)] = v
        return cls(c)

    def __getitem__(self, k) -> complex:
        return complex(self.coeffs[_index(k, self.n)])


@functools.lru_cache(maxsize=16)
def wavenumber_norms(n: int) -> np.ndarray:
    """Read-only |k| on the centered cube |k_i| <= n, one cached copy per n."""
    kn = np.stack(list(_slab_norms(n)))
    kn.flags.writeable = False
    return kn


def _slab_norms(n: int):
    """|k| on the cube |k_i| <= n one k1 plane at a time, in index order:
    the correctly rounded root of the exact integer k1^2 + k2^2 + k3^2."""
    k = np.arange(-n, n + 1)
    k23 = k[:, None] ** 2 + k[None, :] ** 2
    for k1 in k:
        yield np.sqrt((k1 * k1 + k23).astype(float))


def _index(k, n: int) -> tuple:
    """Array index of the wavevector k = (k1, k2, k3) on the cube
    |k_i| <= n; a k outside it raises rather than wrap around."""
    k = tuple(int(x) for x in k)
    if len(k) != 3 or any(abs(x) > n for x in k):
        raise ValueError("wavevector %r is not a triple inside |k|_inf <= %d"
                         % (k, n))
    return tuple(x + n for x in k)


def _finite(c: np.ndarray) -> np.ndarray:
    """c, or ValueError when a coefficient is NaN or infinite."""
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return c


def l2_norm(c: np.ndarray) -> float:
    """sqrt(sum |c|^2) by numpy's own summation, with the same bits at any
    BLAS thread count (np.linalg.norm's BLAS dot sums in a thread-dependent
    order)."""
    c = np.asarray(c)
    return float(np.sqrt(np.sum(c.real ** 2 + c.imag ** 2)))


def sobolev_a(fld: SpectralField, s: float = 1.5) -> float:
    """sum |k|^s |c(k)|, the quantity accumulated by the radius ODEs."""
    kn = wavenumber_norms(fld.n)
    mask = kn > 0
    return float(np.sum(kn[mask] ** s * np.abs(_finite(fld.coeffs)[mask])))


def gevrey_norm(fld: SpectralField, tau: float, r: float) -> float:
    """Weighted norm sqrt(sum |k|^{2r} exp(2 tau |k|) |c|^2).

    The k = 0 coefficient is excluded (fields are mean-zero).  Raises
    GevreyOverflowError when the weight overflows on a populated shell,
    and ValueError naming the shell when the sum overflows under finite
    weights (|c|^2 or a weighted term too large for a float).
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    kn = wavenumber_norms(fld.n)
    mask = kn > 0
    kn = kn[mask]
    with np.errstate(over="ignore", invalid="ignore"):
        mag2 = np.abs(_finite(fld.coeffs)[mask]) ** 2
        w = kn ** (2.0 * r) * np.exp(2.0 * tau * kn)
        # an overflowed weight on an empty shell adds nothing
        terms = np.where(mag2 > 0, w * mag2, 0.0)
        total = float(np.sum(terms))
    if not np.isfinite(total):
        bad = kn[(~np.isfinite(w)) & (mag2 > 0)]
        if bad.size:
            raise GevreyOverflowError(
                "Gevrey weight overflowed at |k| = %.6g (tau = %g)"
                % (np.max(bad), tau))
        i = np.argmax(terms)   # the first inf term, or the largest
        raise ValueError(
            "Gevrey norm overflowed at |k| = %.6g: |c|^2 = %.6g, weight "
            "%.6g (tau = %g, r = %g)" % (kn[i], mag2[i], w[i], tau, r))
    return float(np.sqrt(total))


@dataclass(frozen=True)
class RadiusEstimate:
    """Result of a spectral decay fit.

    radius is the fitted analyticity radius; entire is set when the field
    is a trigonometric polynomial (exact-zero tail), in which case radius
    is +inf.
    """

    radius: float
    entire: bool


# shells at or below this magnitude are left out of the decay fit
_SHELL_FLOOR = 1e-14
# fewest shells above the floor a decay fit is made from
_MIN_SHELLS = 6


def radius_estimate(fld: SpectralField) -> RadiusEstimate:
    """Estimate the analyticity radius from shell-wise coefficient decay.

    Coefficients are grouped into integer shells by rounding |k|; each
    shell contributes its largest-magnitude coefficient at that mode's
    actual |k|.  A least-squares fit of log c against [1, |k|, log |k|]
    absorbs any algebraic prefactor |k|^{-q}, and the radius is the
    negated linear slope, clamped at zero.

    A trailing run of >= 3 exact-zero shells marks a trigonometric
    polynomial: the field is entire and radius = +inf.  Fewer than
    _MIN_SHELLS shells above _SHELL_FLOOR raise InsufficientShellsError, a
    NaN or infinite coefficient ValueError.  It reads one k1 plane at a time.
    """
    smax = int(np.rint(np.sqrt(3.0 * fld.n ** 2)))  # the corner's shell
    best, rep, counts = np.zeros((3, smax + 1))
    for plane, kn in zip(fld.coeffs, _slab_norms(fld.n)):
        kn, mag = kn.ravel(), np.abs(_finite(plane)).ravel()
        shell = np.rint(kn).astype(int)
        top = np.zeros(smax + 1)
        np.maximum.at(top, shell, mag)
        # representative |k|: first mode at the max; a tie keeps the earlier
        new = top > best
        cand = np.flatnonzero(new[shell] & (mag == top[shell]))
        hit_shells, first = np.unique(shell[cand], return_index=True)
        rep[hit_shells] = kn[cand[first]]
        best[new] = top[new]
        counts += np.bincount(shell, minlength=smax + 1)
    present = 1 + np.flatnonzero(counts[1:])  # the shells >= 1 with a mode
    rstar, cstar = rep[present], best[present]

    # exact-zero tail of >= 3 shells: trigonometric polynomial, entire field
    nonzero = np.flatnonzero(cstar)
    if nonzero.size and cstar.size - 1 - nonzero[-1] >= 3:
        return RadiusEstimate(radius=float("inf"), entire=True)

    use = cstar > _SHELL_FLOOR
    if int(np.sum(use)) < _MIN_SHELLS:
        raise InsufficientShellsError(
            "only %d shells above %g, need %d"
            % (int(np.sum(use)), _SHELL_FLOOR, _MIN_SHELLS))
    r = rstar[use]
    y = np.log(cstar[use])
    x = np.column_stack([np.ones_like(r), r, np.log(r)])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return RadiusEstimate(radius=max(0.0, -float(beta[1])), entire=False)


def accumulated(t, a) -> np.ndarray:
    """A(t) = integral of a from the first sample, trapezoid rule."""
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    out[1:] = np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(t))
    return out


def _samples(t, a) -> tuple:
    """(t, a) as float arrays: at least two samples, strictly increasing t,
    and a (sobolev_a along the trajectory) finite and non-negative."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    if t.ndim != 1 or t.shape != a.shape:
        raise ValueError("t and a must be 1-d arrays of one length")
    if len(t) < 2:
        raise SamplingError("need at least two samples")
    if not np.all(np.diff(t) > 0):
        raise ValueError("samples must have strictly increasing t")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError("a must be finite and non-negative")
    return t, a


def radius_ode_linear(tau0: float, k0: float, c_r: float,
                      t: np.ndarray) -> tuple:
    """Worst-case linear radius decay tau(t) = tau0 - 2 c_r k0 t.

    Returns (tau, t_star) where t_star = tau0 / (2 c_r k0) is the time the
    radius hits zero; tau is clamped at zero past t_star.
    """
    if tau0 <= 0 or k0 <= 0 or c_r <= 0:
        raise ValueError("tau0, k0, c_r must be positive")
    t = np.asarray(t, dtype=float)
    tau = np.maximum(0.0, tau0 - 2.0 * c_r * k0 * t)
    t_star = tau0 / (2.0 * c_r * k0)
    return tau, t_star


def radius_ode_refined(t, a, tau0: float, k0: float,
                       c_r: float = 1.0) -> np.ndarray:
    """tau at the samples (t, a) from the refined radius ODE.

    Solves  tau' = -3 c_r a(t) - 2 c_r k0 exp(-c_r A(t)) tau  exactly by
    the integrating factor B(t) = int_0^t exp(-c_r A) ds:

        tau(t) = tau0 exp(-2 c_r k0 B(t))
                 - 3 c_r int_0^t a(s) exp(-2 c_r k0 (B(t) - B(s))) ds.

    All integrals use the trapezoid rule on the sample grid, so its
    accuracy is the caller's choice of grid.
    """
    t, a = _samples(t, a)
    b = accumulated(t, np.exp(-c_r * accumulated(t, a)))
    outer = np.exp(-2.0 * c_r * k0 * b)
    with np.errstate(over="raise"):
        inner = accumulated(t, a * np.exp(2.0 * c_r * k0 * b))
    return outer * (tau0 - 3.0 * c_r * inner)


def breakdown_criterion(t, a, tau0: float, k0: float,
                        c_r: float = 1.0) -> bool:
    """Continuation test on the accumulated quantity A.

    Returns True when  tau0 / c_r > A(T) * exp(c_r k0 int_0^T exp(-A) dt)
    holds strictly at the last sample T, i.e. the analytic solution
    continues past T.  A identically zero gives True; a large enough spike
    in a gives False.
    """
    t, a = _samples(t, a)
    acc = accumulated(t, a)
    integral = float(accumulated(t, np.exp(-acc))[-1])
    rhs = float(acc[-1]) * np.exp(c_r * k0 * integral)
    return bool(tau0 / c_r > rhs)
