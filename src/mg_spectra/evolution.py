"""Time integration for the MG equation at two levels of reduction.

1. The (k1, k2) Fourier slice: the linearization about Theta0 = a sin(m x3),
   with a, m, k1, k2 and the physical constants all read from one
   ModeParams, acting on complex vertical profiles theta_hat(k3).  The
   gradient of Theta0 couples k3 to k3 -+ m, so the generator is two
   cached bands plus the diffusive diagonal.  Sine coefficients c_p, the
   basis of the eigenvalue recursion, enter through embed_restricted.
2. The full nonlinear pseudo-spectral solver for
   d Theta/dt + U . grad Theta = S + kappa Lap Theta,   U_j = M_j Theta,
   with 2/3-rule dealiasing and explicit diffusion.  nonlinear_steps
   yields (t, band state, advection) per step, and each caller computes
   the diagnostics it reads from them (energy_residual, say).  An
   inviscid run is held inside the analytic window (tau0, K0) its caller
   passes, analytic_window's estimate from the initial data, say.

Conventions: Theta(x) = sum_k c(k) exp(i k.x) on the centered cube
|k|_inf <= N; norms are coefficient-l2.  The nonlinear solver holds its
state on the 2/3 band |k_i| <= cut = (2N+1)//3 and forms products on an
alias-free L^3 grid, L = next_fast_len(3 cut + 1) (64 at N = 32); fields
enter as full centered cubes, and band_field pads a band state back to
one.  The solver owns its L^3 work grids and transforms in place on them,
so a step allocates no grid and a solver is not shared across threads;
from L = 25 up its transforms skip the lines of the grid the band leaves
zero or unread, with the n-d transforms' bits.
Both integrators take fixed steps of one classical RK4 step, `_rk4_step`.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from .fields import (SpectralField, gevrey_norm, l2_norm, radius_estimate,
                     wavenumber_norms)
from .params import ModeParams, PhysicalParams
# solve_growth_rate is unused here; perfbench/test_perfbench.py checks
# that its tracer wraps the name in every layer module that binds it
from .spectrum import UnstableMode, solve_growth_rate  # noqa: F401
from .symbols import b_symbol, m_symbol, m_symbol_grids


class DivergenceError(RuntimeError):
    """A trajectory produced a non-finite state."""

    def __init__(self, step: int):
        super().__init__("non-finite state at step %d" % step)
        self.step = step


class AnalyticWindowError(ValueError):
    """An inviscid horizon beyond the analytic window of the initial data."""


def _rk4_step(rhs, y, dt: float, k1):
    """One classical RK4 step from y, given the first slope k1 = rhs(y)."""
    h = 0.5 * dt
    k2 = rhs(y + h * k1)
    k3 = rhs(y + h * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# general slice operator


@dataclass
class FullSliceState:
    """Complex vertical profile theta_hat(k3), k3 = -P..P, on one slice,
    with zero vertical mean: theta_hat(0) = 0 to 1e-13 of max |theta_hat|."""

    mp: ModeParams
    theta: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=np.complex128)
        if th.ndim != 1 or th.size % 2 == 0:
            raise ValueError("theta must be 1-d with odd length 2P+1")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if abs(th[th.size // 2]) > 1e-13 * max(float(np.abs(th).max()),
                                                 1e-300):
            raise ValueError("theta must have zero vertical mean")
        self.theta = th

    @property
    def half(self) -> int:
        return self.theta.size // 2


@functools.lru_cache(maxsize=16)
def _slice_symbols(mp: ModeParams, half: int):
    """Read-only profiles of the slice generator on k3 = -half..half.

    (lower, upper, ksq, b2): the bands (m a / 2) M3(k1, k2, k3 -+ m) that
    couple target k3 to source k3 -+ m, over the targets k3 >= m - half and
    k3 <= half - m; k1^2 + k2^2 + k3^2; and sum_j |b_j(k1, k2, k3)|^2.
    """
    k3 = np.arange(-half, half + 1)
    k = (mp.k1, mp.k2, k3)
    m3 = 0.5 * mp.m * mp.a * m_symbol(k, mp.phys)[2]
    out = (m3[:k3.size - mp.m], m3[mp.m:], mp.ksq + k3.astype(float) ** 2,
           np.sum(np.abs(b_symbol(k, mp.phys)) ** 2, axis=0))
    for arr in out:
        arr.flags.writeable = False
    return out


def full_slice_rhs(mp: ModeParams, theta: np.ndarray,
                   kappa: float) -> np.ndarray:
    """d theta_hat(k3)/dt for the linearization about a sin(m x3):

    rhs(k3) = - (m a / 2) [M3(k3 - m) theta_hat(k3 - m)
                           + M3(k3 + m) theta_hat(k3 + m)]
              - kappa (k1^2 + k2^2 + k3^2) theta_hat(k3),
    with M3 taken at (k1, k2) and the k3 = 0 row forced to zero (zero
    vertical mean).
    """
    half = theta.size // 2
    lower, upper, ksq, _ = _slice_symbols(mp, half)
    rhs = np.zeros_like(theta)
    rhs[mp.m:] -= lower * theta[:lower.size]
    rhs[:upper.size] -= upper * theta[mp.m:]
    if kappa:
        rhs -= kappa * ksq * theta
    rhs[half] = 0.0
    return rhs


def full_slice_max_dt(state: FullSliceState) -> float:
    """Largest dt evolve_full_slice accepts for this state: 0.1 over the
    generator's largest absolute row sum, leaving out the k3 = 0 row,
    which full_slice_rhs holds at zero."""
    mp = state.mp
    lower, upper, ksq, _ = _slice_symbols(mp, state.half)
    row = np.zeros(ksq.size)
    row[mp.m:] += np.abs(lower)
    row[:upper.size] += np.abs(upper)
    row += state.kappa * ksq
    row[state.half] = 0.0
    return 0.1 / max(float(row.max()), 1e-300)


@dataclass(frozen=True)
class FullSliceTrajectory:
    t: np.ndarray
    norm: np.ndarray
    magnetic_norm: np.ndarray


def evolve_full_slice(state: FullSliceState, dt: float, t_end: float,
                      counters: list = None) -> FullSliceTrajectory:
    """Explicit RK4 trajectory of the general slice operator.

    Records at every step the slice l2 norm and the norm of the induced
    magnetic field, sqrt(sum |b(k1, k2, k3)|^2 |theta_hat(k3)|^2).
    Requires dt <= full_slice_max_dt; a non-finite state raises
    DivergenceError.  Given counters, a run appends its half, steps and rhs.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    limit = full_slice_max_dt(state)
    if dt > limit:
        raise ValueError("dt = %g exceeds the stability margin %g"
                         % (dt, limit))
    mp, kappa = state.mp, state.kappa
    b2 = _slice_symbols(mp, state.half)[3]

    def rhs(th):
        return full_slice_rhs(mp, th, kappa)

    y = state.theta
    rows = []
    for i in range(int(round(t_end / dt)) + 1):
        if i:
            y = _rk4_step(rhs, y, dt, rhs(y))
            if not np.all(np.isfinite(y)):
                raise DivergenceError(i)
        rows.append((i * dt, float(np.linalg.norm(y)),
                     float(np.sqrt(np.sum(b2 * np.abs(y) ** 2)))))
    t, norm, magnetic = (np.asarray(col) for col in zip(*rows))
    if counters is not None:
        counters.append(dict(half=state.half, steps=i, rhs=4 * i))
    return FullSliceTrajectory(t=t, norm=norm, magnetic_norm=magnetic)


def embed_restricted(mp: ModeParams, c, kappa: float = 0.0) -> FullSliceState:
    """Lift the sine coefficients c_p, p = 1..P, of one slice into the
    general profile on k3 = -mP..mP.

    c_p sin(m p x3) contributes theta_hat(+mp) = -i c_p / 2 and
    theta_hat(-mp) = +i c_p / 2, so the profile's l2 norm is sqrt(1/2)
    times that of c.  c must be real and 1-d with P >= 8, and kappa >= 0.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 8:
        raise ValueError("c must be a 1-d array with P >= 8")
    half = mp.m * c.size
    k3 = mp.m * np.arange(1, c.size + 1)
    th = np.zeros(2 * half + 1, dtype=np.complex128)
    th[half + k3] = -0.5j * c
    th[half - k3] = 0.5j * c
    return FullSliceState(mp=mp, theta=th, kappa=kappa)


# ---------------------------------------------------------------------------
# growth-rate measurement


def measure_growth_rate(t, norm, window: tuple) -> float:
    """Least-squares slope of log(norm) over t in [window[0], window[1]]."""
    t = np.asarray(t, dtype=float)
    norm = np.asarray(norm, dtype=float)
    lo, hi = window
    sel = (t >= lo) & (t <= hi)
    if int(np.sum(sel)) < 10:
        raise ValueError("need at least 10 samples in the window, got %d"
                         % int(np.sum(sel)))
    if np.any(norm[sel] <= 0):
        raise ValueError("non-positive norm inside the fit window")
    ts = t[sel]
    ys = np.log(norm[sel])
    x = np.column_stack([ts, np.ones_like(ts)])
    beta, *_ = np.linalg.lstsq(x, ys, rcond=None)
    return float(beta[0])


# ---------------------------------------------------------------------------
# field constructors


def steady_state_field(n: int, a: float, m: int) -> SpectralField:
    """Theta0 = a sin(m x3) as a spectral field."""
    if m > n:
        raise ValueError("m exceeds the truncation radius")
    return SpectralField.from_modes(n, {(0, 0, m): -0.5j * a,
                                        (0, 0, -m): 0.5j * a})


def steady_source_field(n: int, a: float, m: int, kappa: float) -> SpectralField:
    """S = -kappa Lap Theta0 = kappa m^2 Theta0: holds Theta0 stationary."""
    return SpectralField(steady_state_field(n, a, m).coeffs * (kappa * m * m))


def eigenmode_field(mode: UnstableMode, n: int) -> SpectralField:
    """Unit-l2 spectral embedding of a slice eigenvector.

    sin(k1 x1) sin(k2 x2) sin(mp x3) splits into eight exponentials with
    coefficient (i/8) s1 s2 s3 at wavevector (s1 k1, s2 k2, s3 m p).  Only
    modes inside the 2/3 dealias band |k_i| <= (2n+1)//3 are kept: the
    nonlinear solver would alias the rest.  Vertical modes beyond the band
    are dropped (the eigenvector decays fast in p).
    """
    mp = mode.params
    cut = dealias_cut(n)
    if mp.k1 > cut or mp.k2 > cut:
        raise ValueError("mode wavenumbers exceed the dealias band %d" % cut)
    if mp.m > cut:
        raise ValueError("no vertical room for the eigenmode")
    coeffs = np.zeros((2 * n + 1,) * 3, dtype=np.complex128)
    for p0, cp in enumerate(mode.c_tilde):
        p = p0 + 1
        if mp.m * p > cut or cp == 0.0:
            break
        for s1, s2, s3 in itertools.product((1, -1), repeat=3):
            coeffs[n + s1 * mp.k1, n + s2 * mp.k2, n + s3 * mp.m * p] \
                += 0.125j * s1 * s2 * s3 * cp
    nrm = l2_norm(coeffs)
    if nrm == 0:
        raise ValueError("eigenvector has no modes inside the truncation")
    return SpectralField(coeffs / nrm)


# ---------------------------------------------------------------------------
# nonlinear pseudo-spectral solver


def dealias_cut(n: int) -> int:
    """Largest |k_i| of the 2/3 band of the centred cube |k_i| <= n."""
    return (2 * n + 1) // 3


def band(c: np.ndarray, cut: int) -> np.ndarray:
    """The centred sub-cube |k_i| <= cut of a centred cube (a view)."""
    h = c.shape[0] // 2
    return c[h - cut:h + cut + 1, h - cut:h + cut + 1, h - cut:h + cut + 1]


def _pad(c: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad a centred cube to |k_i| <= n (read-only: fields keep it)."""
    out = np.zeros((2 * n + 1,) * 3, dtype=np.complex128)
    band(out, c.shape[0] // 2)[...] = c
    out.flags.writeable = False
    return out


def band_limit(c: np.ndarray) -> np.ndarray:
    """A read-only copy of the cube c, zeroed outside its 2/3 band."""
    n = c.shape[0] // 2
    return _pad(band(c, dealias_cut(n)), n)


def band_field(c: np.ndarray, n: int) -> SpectralField:
    """A band state of nonlinear_steps as a field on the cube |k_i| <= n,
    zero outside the band."""
    return SpectralField(_pad(c, n))


@functools.lru_cache(maxsize=16)
def _ksq(cut: int) -> np.ndarray:
    """Read-only |k|^2 on the band cube |k_i| <= cut, one copy per cut."""
    k1, k2, k3 = np.ogrid[-cut:cut + 1, -cut:cut + 1, -cut:cut + 1]
    ksq = (k1 ** 2 + k2 ** 2 + k3 ** 2).astype(float)
    ksq.flags.writeable = False
    return ksq


# grids of at least this side run each transform as pruned 1-D passes; on
# smaller ones the calls they add cost more than the lines they skip
_PRUNE_SIDE = 25


class NonlinearSolver:
    """Pseudo-spectral right-hand side on the 2/3 band |k_i| <= cut.

    The state is the Hermitian band cube of side 2 cut + 1.  The advection
    is formed as div(U Theta), since k.M(k) = 0, on the alias-free L^3
    grid, L = next_fast_len(3 cut + 1), in four transforms: inverse ones
    of Theta + i U3 and U1 + i U2, a forward one of U1 Theta + i U2 Theta
    split by Hermitian symmetry, and a real forward one of U3 Theta.

    The band fills 2/3 of each axis, so on grids of side L >= 25 each
    transform runs as 1-D passes that skip the lines which are zero on
    input (inverse) or not read on output (forward), in pocketfft's own
    axis order and with its 1/L^3 scale after the first pass: the result
    is bit for bit that of the n-d call, which smaller grids make.

    The solver owns its L^3 work grids: the three complex transforms run in
    place on them, and only the real transform's half spectrum is allocated
    per call.  It therefore holds mutable state and must not be shared
    between threads; each nonlinear_steps call builds its own.  counts
    holds the rhs calls and 3-D transforms made so far.
    """

    def __init__(self, n: int, phys: PhysicalParams = None, kappa: float = 0.0,
                 source: SpectralField = None, workers: int = 1):
        import scipy.fft  # loaded by the first solver, not at import
        if phys is None:
            phys = PhysicalParams()
        self.cut = cut = dealias_cut(n)
        self.side = side = scipy.fft.next_fast_len(3 * cut + 1)
        self.kappa = float(kappa)
        self.workers = workers
        self.counts = {"rhs": 0, "transforms": 0}
        self.msym = m_symbol_grids(cut, phys)
        k1, k2, k3 = np.ogrid[-cut:cut + 1, -cut:cut + 1, -cut:cut + 1]
        self.ksq = _ksq(cut)
        self.source = np.zeros_like(self.ksq, dtype=np.complex128) \
            if source is None else np.array(band(source.coeffs, cut))
        self.source[:, :, cut] = 0.0
        # flat positions of the band in the L^3 grid, and of the half band
        # k3 >= 1 and its mirror -k in the complex and real spectra
        half = (k1, k2, k3[:, :, cut + 1:])
        grid = (side,) * 3
        self._put = np.ravel_multi_index((k1, k2, k3), grid, mode="wrap")
        self._half = np.ravel_multi_index(half, grid, mode="wrap")
        self._mirror = np.ravel_multi_index(tuple(-k for k in half), grid,
                                            mode="wrap")
        self._half_r = np.ravel_multi_index(half, (side, side, side // 2 + 1),
                                            mode="wrap")
        self._ik1, self._k2, self._ik3 = 0.5j * k1, 0.5 * k2, 1j * half[2]
        # the band's two index ranges 0..cut and L-cut..L-1 on each axis
        self._bands = None if side < _PRUNE_SIDE else \
            (slice(0, cut + 1), slice(side - cut, side))
        self._fct = 1.0 / side ** 3
        # work grids: Theta + i U3, U1 + i U2, and the two products with Theta
        self._z = np.zeros(grid, dtype=np.complex128)
        self._u = np.zeros(grid, dtype=np.complex128)
        self._prod = np.empty(grid, dtype=np.complex128)
        self._prod_r = np.empty(grid, dtype=float)

    def _pass(self, x: np.ndarray, axis: int, inverse: bool = False):
        """One unnormalized 1-D transform along axis, in place on x."""
        (scipy.fft.ifft if inverse else scipy.fft.fft)(
            x, axis=axis, norm="forward" if inverse else "backward",
            overwrite_x=True, workers=self.workers)

    def _to_phys(self, spec: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Band coefficients spec to grid values, in place in grid."""
        self.counts["transforms"] += 1
        grid.fill(0.0)
        np.put(grid, self._put, spec)
        if self._bands is None:
            return scipy.fft.ifftn(grid, norm="forward", workers=self.workers,
                                   overwrite_x=True)
        # axis 0 on the lines whose (k2, k3) lie in the band, axis 1 on the
        # planes whose k3 does, axis 2 on all: the rest is zero
        for b2, b3 in itertools.product(self._bands, repeat=2):
            self._pass(grid[:, b2, b3], 0, inverse=True)
        for b3 in self._bands:
            self._pass(grid[:, :, b3], 1, inverse=True)
        self._pass(grid, 2, inverse=True)
        return grid

    def _forward(self, grid: np.ndarray) -> np.ndarray:
        """Forward transform over L^3, in place on grid; pruned, only the
        entries with (k1, k2) in the band are final."""
        self.counts["transforms"] += 1
        if self._bands is None:
            return scipy.fft.fftn(grid, norm="forward", workers=self.workers,
                                  overwrite_x=True)
        self._pass(grid, 0)
        for b1 in self._bands:
            # pocketfft scales after the first pass, by real multiplies: a
            # complex one can flip the sign of a zero
            slab = grid[b1].view(float)
            slab *= self._fct
            self._pass(grid[b1], 1)
        for b1, b2 in itertools.product(self._bands, repeat=2):
            self._pass(grid[b1, b2], 2)
        return grid

    def _forward_real(self, grid: np.ndarray) -> np.ndarray:
        """Half spectrum k3 >= 0 of the real grid over L^3; pruned, only the
        entries with (k1, k2) in the band and 1 <= k3 <= cut are final."""
        self.counts["transforms"] += 1
        if self._bands is None:
            return scipy.fft.rfftn(grid, norm="forward", workers=self.workers)
        # pocketfft's order: the real pass on axis 2, then axes 0 and 1
        spec = scipy.fft.rfft(grid, axis=2, workers=self.workers)
        cols = spec[:, :, 1:self.cut + 1]
        scaled = cols.view(float)
        scaled *= self._fct
        self._pass(cols, 0)
        for b1 in self._bands:
            self._pass(cols[b1], 1)
        return spec

    def advection(self, c: np.ndarray) -> np.ndarray:
        """Band coefficients of U . grad Theta.

        c is any centred cube holding the band; only its band is read.  The
        grids keep U until the next call, for max_speed.
        """
        c = band(c, self.cut)
        m1, m2, m3 = self.msym
        z = self._to_phys(c + 1j * (m3 * c), self._z)         # Theta + i U3
        theta = z.real
        u = self._to_phys(m1 * c + 1j * (m2 * c), self._u)    # U1 + i U2
        f = self._forward(np.multiply(u, theta, out=self._prod)).ravel()
        r = self._forward_real(
            np.multiply(z.imag, theta, out=self._prod_r)).ravel()
        # F = A + iB with A, B the spectra of U1 Theta and U2 Theta, so
        # i k1 A + i k2 B = (i k1/2)(F(k) + conj F(-k))
        #                   + (k2/2)(F(k) - conj F(-k))
        fp = f[self._half]
        fm = np.conj(f[self._mirror])
        half = self._ik1 * (fp + fm) + self._k2 * (fp - fm) \
            + self._ik3 * r[self._half_r]
        adv = np.zeros_like(self.source)
        adv[:, :, self.cut + 1:] = half
        adv[:, :, :self.cut] = np.conj(half[::-1, ::-1, ::-1])
        return adv

    def max_speed(self) -> float:
        """max |U_j| over the grid and j = 1, 2, 3 for the field of the
        last advection call (0 before the first)."""
        u12, u3 = self._u.view(float), self._z.imag
        return max(float(u12.max()), -float(u12.min()),
                   float(u3.max()), -float(u3.min()))

    def rhs(self, c: np.ndarray):
        """(d c/dt, advection) at the band state c."""
        self.counts["rhs"] += 1
        adv = self.advection(c)
        out = self.source - adv
        if self.kappa:
            out = out - self.kappa * self.ksq * c
        return out, adv


def _validate_field(fld: SpectralField, what: str) -> None:
    """Reject, beyond 1e-13 of max |c|, a k3 = 0 plane (which holds the
    mean), a non-Hermitian part (advection pairs two real fields in one
    complex FFT) or modes outside the 2/3 band (the solver holds none)."""
    c = fld.coeffs
    n = fld.n
    tol = 1e-13 * max(float(np.abs(c).max()), 1e-300)
    if float(np.abs(c[:, :, n]).max()) > tol:
        raise ValueError("%s must have zero mean and zero vertical mean"
                         % what)
    if float(np.abs(c - np.conj(c[::-1, ::-1, ::-1])).max()) > tol:
        raise ValueError("%s must be real: c(-k) = conj(c(k))" % what)
    if float(np.abs(c - band_limit(c)).max()) > tol:
        raise ValueError("%s must lie inside the dealias band |k_i| <= %d"
                         % (what, dealias_cut(n)))


def energy_residual(c: np.ndarray, adv: np.ndarray, kappa: float) -> float:
    """Energy-identity residual of a band state c and its advection adv:
    |<c, adv>| over kappa |grad c|^2, or over |c|^2 without diffusion."""
    grad_sq = float(np.sum(_ksq(c.shape[0] // 2) * np.abs(c) ** 2))
    adv_inner = abs(float(np.real(np.sum(np.conj(c) * adv))))
    if kappa > 0 and grad_sq > 0:
        return adv_inner / (kappa * grad_sq)
    return adv_inner / max(float(np.sum(np.abs(c) ** 2)), 1e-300)


# smallest estimated analyticity radius an analytic window is built from
_TAU_FLOOR = 0.02


def analytic_window(theta0: SpectralField, r: float) -> tuple:
    """(tau0, K0) of the initial data: an analyticity radius and the Gevrey
    norm with exponent r at it, both of theta0's 2/3 band.

    tau0 is the fitted radius_estimate, or for a trigonometric polynomial
    1 / (the |c|^2-weighted mean |k|), capped at 300 / (cut sqrt 3).  An
    estimated radius below 0.02 raises AnalyticWindowError.
    """
    fld = SpectralField(band(theta0.coeffs, dealias_cut(theta0.n)))
    est = radius_estimate(fld)
    if est.entire:
        mag2 = np.abs(fld.coeffs) ** 2
        total = float(np.sum(mag2))
        centroid = float(np.sum(wavenumber_norms(fld.n) * mag2) / total)
        tau0 = 1.0 / max(centroid, 1.0)
    else:
        if est.radius < _TAU_FLOOR:
            raise AnalyticWindowError(
                "estimated analyticity radius %.3g below the floor %.3g"
                % (est.radius, _TAU_FLOOR))
        tau0 = est.radius
    kmax = fld.n * math.sqrt(3.0)
    tau0 = min(tau0, 300.0 / max(kmax, 1.0))
    return tau0, gevrey_norm(fld, tau0, r)


def nonlinear_steps(theta0: SpectralField, kappa: float,
                    source: SpectralField, dt: float, t_end: float,
                    phys: PhysicalParams = None, *, window: tuple = None,
                    workers: int = 1, counters: list = None):
    """Advance the nonlinear MG equation: an iterator over (t, c, adv).

    At step i = 0..round(t_end / dt), t = i dt, c is the read-only band
    state and adv its advection, the first RK4 stage of the next step.
    theta0 and the source must be real (Hermitian coefficients), mean-zero,
    with zero vertical mean and inside the 2/3 band; band_field pads c back
    to theta0's cube.

    A kappa = 0 run must pass window = (tau0, K0), analytic_window's say,
    and a horizon beyond tau0 / (2 K0) raises AnalyticWindowError: local
    analytic theory gives no meaning to the output there.  Bad input
    raises here, before the first step.  A CFL heuristic
    (max |U| dt N > 0.5) warns once per run, a non-finite state raises
    DivergenceError, and workers goes to scipy.fft.  A run that ends
    appends its work to counters, when given: n, the grid side L, the
    steps, and the rhs calls and 3-D transforms the solver made.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    _validate_field(theta0, "initial data")
    if source is not None:
        if source.n != theta0.n:
            raise ValueError("source must share the initial data's cube "
                             "|k_i| <= %d" % theta0.n)
        _validate_field(source, "source")
    if window is None and kappa == 0.0:
        raise AnalyticWindowError(
            "a kappa = 0 run needs its analytic window (tau0, K0)")
    if window is not None:
        tau0, k0 = window
        if k0 > 0 and t_end > tau0 / (2.0 * k0):
            raise AnalyticWindowError(
                "horizon %.4g exceeds the analytic window %.4g "
                "(tau0 = %.4g, K0 = %.4g)"
                % (t_end, tau0 / (2.0 * k0), tau0, k0))
    solver = NonlinearSolver(theta0.n, phys=phys, kappa=kappa, source=source,
                             workers=workers)
    c = np.array(band(theta0.coeffs, solver.cut))
    return _steps(solver, c, dt, int(round(t_end / dt)), theta0.n, counters)


def _steps(solver: NonlinearSolver, c: np.ndarray, dt: float, n_steps: int,
           n: int, counters: list):
    def rhs(y):
        return solver.rhs(y)[0]

    cfl_warned = False
    for i in range(n_steps + 1):
        c.flags.writeable = False
        # stage one doubles as the caller's diagnostic evaluation
        k1, adv = solver.rhs(c)
        if not cfl_warned:
            cfl = solver.max_speed() * dt * n
            if cfl > 0.5:
                warnings.warn(
                    "CFL heuristic exceeded: max|U| dt N = %.3g > 0.5" % cfl,
                    RuntimeWarning)
                cfl_warned = True
        yield i * dt, c, adv
        if i == n_steps:
            if counters is not None:
                counters.append(dict(n=n, side=solver.side, steps=n_steps,
                                     **solver.counts))
            return
        c = _rk4_step(rhs, c, dt, k1)
        if not np.all(np.isfinite(c)):
            raise DivergenceError(i + 1)
