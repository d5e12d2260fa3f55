"""Spectral fields on the periodic box, Gevrey norms, and analyticity-radius tools.

A field is stored by its Fourier coefficients on the centered cube
|k|_inf <= N, so Theta(x) = sum_k c(k) exp(i k.x).  All norms below are
coefficient norms: the l2 norm sqrt(sum |c(k)|^2) equals the L2 norm of
Theta divided by (2 pi)^{3/2}.  The Gevrey norm squared is

    sum_k |k|^{2r} exp(2 tau |k|) |c(k)|^2

and the scalar driving the radius ODEs is a = sum_k |k|^{3/2} |c(k)|.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class GevreyOverflowError(ValueError):
    """Raised when exp(2 tau |k|) overflows for a populated shell."""


class InsufficientShellsError(ValueError):
    """Raised when too few populated shells exist to fit a decay rate."""


class SamplingError(ValueError):
    """Raised when tracker samples are too sparse for the requested quadrature."""


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
    """Read-only |k| on the centered cube |k_i| <= n, one cached copy per n
    (the integer |k|^2 is summed exactly, so every entry is a correctly
    rounded square root)."""
    k = np.arange(-n, n + 1)
    kn = np.sqrt((k[:, None, None] ** 2 + k[None, :, None] ** 2
                  + k[None, None, :] ** 2).astype(float))
    kn.flags.writeable = False
    return kn


def _index(k, n: int) -> tuple:
    """Array index of the wavevector k = (k1, k2, k3) on the cube
    |k_i| <= n; a k outside it raises rather than wrap around."""
    k = tuple(int(x) for x in k)
    if len(k) != 3 or any(abs(x) > n for x in k):
        raise ValueError("wavevector %r is not a triple inside |k|_inf <= %d"
                         % (k, n))
    return tuple(x + n for x in k)


def sobolev_a(fld: SpectralField, s: float = 1.5) -> float:
    """sum |k|^s |c(k)|, the quantity accumulated by the radius ODEs."""
    kn = wavenumber_norms(fld.n)
    mask = kn > 0
    return float(np.sum(kn[mask] ** s * np.abs(fld.coeffs[mask])))


def gevrey_norm(fld: SpectralField, tau: float, r: float) -> float:
    """Weighted norm sqrt(sum |k|^{2r} exp(2 tau |k|) |c|^2).

    The k = 0 coefficient is excluded (fields are mean-zero).  Raises
    GevreyOverflowError when the weight overflows on a populated shell.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    kn = wavenumber_norms(fld.n)
    mask = kn > 0
    kn = kn[mask]
    mag2 = np.abs(fld.coeffs[mask]) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        w = kn ** (2.0 * r) * np.exp(2.0 * tau * kn)
        total = float(np.sum(w * mag2))
    if not np.isfinite(total) or not np.all(np.isfinite(w[mag2 > 0])):
        bad = kn[(~np.isfinite(w)) & (mag2 > 0)]
        shell = float(np.max(bad)) if bad.size else float(np.max(kn))
        raise GevreyOverflowError(
            "Gevrey weight overflowed at |k| = %.6g (tau = %g)" % (shell, tau)
        )
    return float(np.sqrt(total))


@dataclass(frozen=True)
class RadiusEstimate:
    """Result of a spectral decay fit.

    radius is the fitted analyticity radius; entire is set when the field
    is a trigonometric polynomial (exact-zero tail), in which case radius
    is +inf.  shells is the number of populated shells used by the fit.
    """

    radius: float
    entire: bool
    shells: int
    slope: float
    intercept: float


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
    _MIN_SHELLS shells above _SHELL_FLOOR raise InsufficientShellsError.
    """
    kn = wavenumber_norms(fld.n).ravel()
    mag = np.abs(fld.coeffs.ravel())
    shell = np.rint(kn).astype(int)
    smax = int(shell.max())
    best = np.zeros(smax + 1)
    np.maximum.at(best, shell, mag)
    # representative |k|: first mode attaining the shell max
    rep = np.zeros(smax + 1)
    cand = np.flatnonzero((shell >= 1) & (mag > 0) & (mag == best[shell]))
    hit_shells, first = np.unique(shell[cand], return_index=True)
    rep[hit_shells] = kn[cand[first]]
    counts = np.bincount(shell, minlength=smax + 1)
    present = counts > 0
    present[0] = False
    rstar = rep[present]
    cstar = best[present]

    # exact-zero tail of >= 3 shells: trigonometric polynomial, entire field
    tail = 0
    for c in cstar[::-1]:
        if c == 0.0:
            tail += 1
        else:
            break
    if tail >= 3 and np.any(cstar > 0):
        return RadiusEstimate(radius=float("inf"), entire=True,
                              shells=int(np.sum(cstar > 0)), slope=0.0,
                              intercept=0.0)

    use = cstar > _SHELL_FLOOR
    if int(np.sum(use)) < _MIN_SHELLS:
        raise InsufficientShellsError(
            "only %d shells above %g, need %d"
            % (int(np.sum(use)), _SHELL_FLOOR, _MIN_SHELLS))
    r = rstar[use]
    y = np.log(cstar[use])
    x = np.column_stack([np.ones_like(r), r, np.log(r)])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return RadiusEstimate(radius=max(0.0, -float(beta[1])), entire=False,
                          shells=int(np.sum(use)), slope=float(beta[1]),
                          intercept=float(beta[0]))


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(y, dtype=float))
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


@dataclass
class GevreyTracker:
    """Append-only record of (t, a) samples along a trajectory.

    a is sobolev_a of the solution at time t.  A(t), the cumulative
    trapezoid integral of a, feeds the radius ODEs and the breakdown
    criterion.  Samples must arrive with strictly increasing t.
    """

    tau0: float
    k0: float
    c_r: float = 1.0
    max_gap: float = 0.1
    _t: list = field(default_factory=list, repr=False)
    _a: list = field(default_factory=list, repr=False)

    def append(self, t: float, a: float) -> None:
        if self._t and t <= self._t[-1]:
            raise ValueError("samples must have strictly increasing t")
        if not np.isfinite(a) or a < 0:
            raise ValueError("a must be finite and non-negative")
        self._t.append(float(t))
        self._a.append(float(a))

    @property
    def t(self) -> np.ndarray:
        return np.asarray(self._t)

    @property
    def a(self) -> np.ndarray:
        return np.asarray(self._a)

    def accumulated(self) -> np.ndarray:
        """A(t) = integral of a from the first sample, trapezoid rule."""
        if len(self._t) < 1:
            raise ValueError("tracker is empty")
        return _cumtrapz(self.a, self.t)

    def _check_gaps(self):
        t = self.t
        if len(t) < 2:
            raise SamplingError("need at least two samples")
        gap = float(np.max(np.diff(t)))
        if gap > self.max_gap * (1 + 1e-12):
            raise SamplingError(
                "sample gap %.3g exceeds max_gap %.3g" % (gap, self.max_gap)
            )
        return gap


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


@dataclass(frozen=True)
class RefinedRadius:
    """tau(t) from the refined radius ODE, with quadrature metadata."""

    t: np.ndarray
    tau: np.ndarray
    max_step: float


def radius_ode_refined(tracker: GevreyTracker) -> RefinedRadius:
    """Integrate the refined radius ODE along recorded (t, a) samples.

    Solves  tau' = -3 c_r a(t) - 2 c_r k0 exp(-c_r A(t)) tau  exactly by
    the integrating factor B(t) = int_0^t exp(-c_r A) ds:

        tau(t) = tau0 exp(-2 c_r k0 B(t))
                 - 3 c_r int_0^t a(s) exp(-2 c_r k0 (B(t) - B(s))) ds.

    All integrals use the trapezoid rule on the recorded grid; the largest
    step is reported in the result.  Gaps beyond tracker.max_gap raise
    SamplingError.
    """
    gap = tracker._check_gaps()
    t = tracker.t
    a = tracker.a
    c_r, k0, tau0 = tracker.c_r, tracker.k0, tracker.tau0
    acc = _cumtrapz(a, t)
    b = _cumtrapz(np.exp(-c_r * acc), t)
    outer = np.exp(-2.0 * c_r * k0 * b)
    with np.errstate(over="raise"):
        inner = _cumtrapz(a * np.exp(2.0 * c_r * k0 * b), t)
    tau = outer * (tau0 - 3.0 * c_r * inner)
    return RefinedRadius(t=t, tau=tau, max_step=gap)


def breakdown_criterion(tracker: GevreyTracker) -> bool:
    """Continuation test on the accumulated quantity A.

    Returns True when  tau0 / c_r > A(T) * exp(c_r k0 int_0^T exp(-A) dt)
    holds strictly at the last recorded sample T, i.e. the analytic
    solution continues past T.  A identically zero gives True; a large
    enough spike in a gives False.
    """
    t = tracker.t
    if len(t) < 2:
        raise SamplingError("need at least two samples")
    acc = tracker.accumulated()
    integral = float(_cumtrapz(np.exp(-acc), t)[-1])
    rhs = float(acc[-1]) * np.exp(tracker.c_r * tracker.k0 * integral)
    return bool(tracker.tau0 / tracker.c_r > rhs)


def tracker_to_csv(tracker: GevreyTracker, path, tau: np.ndarray) -> None:
    """Dump the tracker as rows t,a,A,tau, with tau given on the recorded
    grid (the refined radius ODE solution, say)."""
    t = tracker.t
    a = tracker.a
    acc = tracker.accumulated()
    if len(tau) != len(t):
        raise ValueError("tau length does not match the recorded samples")
    with open(path, "w") as fh:
        fh.write("t,a,A,tau\n")
        for row in zip(t, a, acc, tau):
            fh.write("%.17g,%.17g,%.17g,%.17g\n" % row)
