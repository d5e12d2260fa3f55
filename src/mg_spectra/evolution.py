"""Time integration for the MG equation at three levels of reduction.

1. The restricted slice system: real coefficients c_p of the sine modes
   coupled by the eigenvalue recursion, advanced as a linear ODE system.
2. The general (k1, k2) Fourier slice: complex vertical profiles
   theta_hat(k3) driven by the convolution with a steady-state gradient.
3. The full nonlinear pseudo-spectral solver for
   d Theta/dt + U . grad Theta = S + kappa Lap Theta,   U_j = M_j Theta,
   with 2/3-rule dealiasing, explicit or integrating-factor diffusion, and
   energy/analyticity diagnostics.

Conventions: Theta(x) = sum_k c(k) exp(i k.x) on the centered cube
|k|_inf <= N; collocation grid (2N+2)^3; norms are coefficient-l2.  All
integrators are classical RK4 with fixed step.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .fields import (GevreyTracker, InsufficientShellsError, SpectralField,
                     gevrey_norm, l2_norm, radius_estimate, sobolev_a)
from .params import ModeParams, PhysicalParams
from .spectrum import UnstableMode, alpha, solve_growth_rate
from .symbols import b_symbol_grids, m_symbol, m_symbol_grids


class DivergenceError(RuntimeError):
    """A trajectory produced a non-finite state."""

    def __init__(self, step: int):
        super().__init__("non-finite state at step %d" % step)
        self.step = step


# ---------------------------------------------------------------------------
# restricted slice system


@dataclass
class SliceState:
    """Real sine-mode coefficients c_p, p = 1..P, on one (k1, k2) slice."""

    mp: ModeParams
    c: np.ndarray
    kappa: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size < 8:
            raise ValueError("c must be a 1-d array with P >= 8")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        self.c = c

    @property
    def truncation(self) -> int:
        return self.c.size


def slice_rhs(state: SliceState) -> np.ndarray:
    """Generator action dc_p/dt = -c_{p+1}/alpha_{p+1} - c_{p-1}/alpha_{p-1}.

    Row 1 has only the -c_2/alpha_2 coupling and the truncation row P drops
    the p+1 term.  kappa > 0 subtracts kappa (k1^2 + k2^2 + m^2 p^2) c_p.
    """
    c = state.c
    big_p = c.size
    al = alpha(np.arange(1, big_p + 2), state.mp)
    rhs = np.zeros_like(c)
    rhs[:-1] -= c[1:] / al[1:big_p]
    rhs[1:] -= c[:-1] / al[0:big_p - 1]
    if state.kappa:
        p = np.arange(1, big_p + 1)
        rhs -= state.kappa * (state.mp.ksq + (state.mp.m * p) ** 2) * c
    return rhs


def _slice_row_sum(state: SliceState) -> float:
    big_p = state.c.size
    al = alpha(np.arange(1, big_p + 2), state.mp)
    p = np.arange(1, big_p + 1)
    row = np.zeros(big_p)
    row[:-1] += 1.0 / al[1:big_p]
    row[1:] += 1.0 / al[0:big_p - 1]
    row += state.kappa * (state.mp.ksq + (state.mp.m * p) ** 2)
    return float(row.max())


@dataclass(frozen=True)
class SliceTrajectory:
    t: np.ndarray
    norm: np.ndarray
    states: list


def evolve_slice(state: SliceState, dt: float, t_end: float,
                 snapshot_stride: int = 0) -> SliceTrajectory:
    """RK4 trajectory of the restricted slice system.

    Records the l2 norm of c at every step; snapshots of the coefficient
    vector at the given stride (0 disables).  Requires
    dt <= 0.1 / max row sum of the generator.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    limit = 0.1 / _slice_row_sum(state)
    if dt > limit:
        raise ValueError("dt = %g exceeds the stability margin %g" % (dt, limit))
    shell = SliceState(mp=state.mp, c=state.c, kappa=state.kappa)

    def rhs(c):
        shell.c = c
        return slice_rhs(shell)

    n_steps = int(round(t_end / dt))
    c = state.c.copy()
    times = [state.t]
    norms = [float(np.linalg.norm(c))]
    snaps = [c.copy()] if snapshot_stride else []
    for i in range(n_steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(c)):
            raise DivergenceError(i + 1)
        times.append(state.t + (i + 1) * dt)
        norms.append(float(np.linalg.norm(c)))
        if snapshot_stride and (i + 1) % snapshot_stride == 0:
            snaps.append(c.copy())
    return SliceTrajectory(t=np.asarray(times), norm=np.asarray(norms),
                           states=snaps)


# ---------------------------------------------------------------------------
# general slice operator


@dataclass
class FullSliceState:
    """Complex vertical profile theta_hat(k3), k3 = -P..P, on one slice."""

    mp: ModeParams
    theta: np.ndarray
    kappa: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=np.complex128)
        if th.ndim != 1 or th.size % 2 == 0:
            raise ValueError("theta must be 1-d with odd length 2P+1")
        self.theta = th

    @property
    def half(self) -> int:
        return self.theta.size // 2


def sine_steady_coeffs(a: float, m: int) -> dict:
    """Vertical Fourier coefficients of a sin(m x3)."""
    return {m: -0.5j * a, -m: 0.5j * a}


@functools.lru_cache(maxsize=16)
def _slice_m3(mp: ModeParams, half: int) -> np.ndarray:
    """M3 along the slice profile k3 = -half..half (read-only, cached)."""
    m3 = m_symbol((mp.k1, mp.k2, np.arange(-half, half + 1)), mp.phys)[2]
    m3.flags.writeable = False
    return m3


def full_slice_rhs(state: FullSliceState, steady: dict) -> np.ndarray:
    """d theta_hat(k3)/dt for the linearization about the given steady state.

    rhs(k3) = - sum_d i d Theta0_hat(d) M3(k1,k2,k3-d) theta_hat(k3-d)
              - kappa (k1^2 + k2^2 + k3^2) theta_hat(k3),
    with the k3 = 0 row forced to zero (zero vertical mean).
    """
    th = state.theta
    half = state.half
    n = np.arange(-half, half + 1)
    msym = _slice_m3(state.mp, half)
    rhs = np.zeros_like(th)
    for d, coeff in steady.items():
        d = int(d)
        w = 1j * d * coeff
        if d >= 0:
            # target k3 index j receives source index j - d
            rhs[d:] -= w * msym[: th.size - d] * th[: th.size - d]
        else:
            rhs[:d] -= w * msym[-d:] * th[-d:]
    if state.kappa:
        rhs -= state.kappa * (state.mp.ksq + n.astype(float) ** 2) * th
    rhs[half] = 0.0
    return rhs


def gronwall_constant(mp: ModeParams, steady: dict) -> float:
    """Growth-rate bound for the slice L2 norm:
    (mu k2^2 / (4 Omega^2)) (pi^2/(3 sqrt 5)) ||d3 Theta0||."""
    om, mu = mp.phys.omega, mp.phys.mu
    grad_norm = math.sqrt(sum(abs(d * v) ** 2 for d, v in steady.items()))
    return mu * mp.k2 ** 2 / (4.0 * om * om) \
        * math.pi ** 2 / (3.0 * math.sqrt(5.0)) * grad_norm


def _full_slice_row_sum(state: FullSliceState, steady: dict) -> float:
    half = state.half
    n = np.arange(-half, half + 1)
    msym = _slice_m3(state.mp, half)
    row = np.zeros(state.theta.size)
    for d, coeff in steady.items():
        d = int(d)
        w = abs(d * coeff)
        if d >= 0:
            row[d:] += w * msym[: row.size - d]
        else:
            row[:d] += w * msym[-d:]
    row += state.kappa * (state.mp.ksq + n.astype(float) ** 2)
    return float(row.max())


@dataclass(frozen=True)
class FullSliceTrajectory:
    t: np.ndarray
    norm: np.ndarray
    states: list
    rate_bound: float

    def log_derivative(self) -> np.ndarray:
        """Finite-difference d/dt log ||theta||^2 between recorded steps."""
        with np.errstate(divide="ignore"):
            ln = 2.0 * np.log(self.norm)
        return np.diff(ln) / np.diff(self.t)


def evolve_full_slice(state: FullSliceState, steady: dict, dt: float,
                      t_end: float,
                      snapshot_stride: int = 0) -> FullSliceTrajectory:
    """RK4 trajectory of the general slice operator.

    Tracks the slice l2 norm and reports the Gronwall rate bound
    2 * gronwall_constant (for d/dt of the squared norm) alongside it.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    limit = 0.1 / max(_full_slice_row_sum(state, steady), 1e-300)
    if dt > limit:
        raise ValueError("dt = %g exceeds the stability margin %g" % (dt, limit))
    shell = FullSliceState(mp=state.mp, theta=state.theta, kappa=state.kappa)

    def rhs(th):
        shell.theta = th
        return full_slice_rhs(shell, steady)

    n_steps = int(round(t_end / dt))
    th = state.theta.copy()
    times = [state.t]
    norms = [float(np.linalg.norm(th))]
    snaps = [th.copy()] if snapshot_stride else []
    for i in range(n_steps):
        k1 = rhs(th)
        k2 = rhs(th + 0.5 * dt * k1)
        k3 = rhs(th + 0.5 * dt * k2)
        k4 = rhs(th + dt * k3)
        th = th + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(th)):
            raise DivergenceError(i + 1)
        times.append(state.t + (i + 1) * dt)
        norms.append(float(np.linalg.norm(th)))
        if snapshot_stride and (i + 1) % snapshot_stride == 0:
            snaps.append(th.copy())
    # diffusion only lowers the growth rate, so the kappa = 0 bound stands
    bound = 2.0 * gronwall_constant(state.mp, steady)
    return FullSliceTrajectory(t=np.asarray(times), norm=np.asarray(norms),
                               states=snaps, rate_bound=bound)


def embed_restricted(state: SliceState, half: int = None) -> FullSliceState:
    """Lift restricted sine coefficients into the general slice profile.

    c_p sin(m p x3) contributes theta_hat(+mp) = -i c_p / 2 and
    theta_hat(-mp) = +i c_p / 2.
    """
    m = state.mp.m
    if half is None:
        half = m * state.c.size
    if half < m * state.c.size:
        raise ValueError("half-width %d cannot hold %d sine modes of step %d"
                         % (half, state.c.size, m))
    th = np.zeros(2 * half + 1, dtype=np.complex128)
    for p0, cp in enumerate(state.c):
        p = p0 + 1
        th[half + m * p] = -0.5j * cp
        th[half - m * p] = 0.5j * cp
    return FullSliceState(mp=state.mp, theta=th, kappa=state.kappa, t=state.t)


def extract_restricted(state: FullSliceState, count: int) -> np.ndarray:
    """Read back c_p, p = 1..count, from an embedded slice profile."""
    m = state.mp.m
    half = state.half
    if m * count > half:
        raise ValueError("profile too short for %d modes" % count)
    idx = half + m * np.arange(1, count + 1)
    return np.real(2j * state.theta[idx])


# ---------------------------------------------------------------------------
# growth-rate measurement


@dataclass(frozen=True)
class GrowthFit:
    rate: float
    intercept: float
    residual_rms: float
    n_samples: int
    window: tuple


def measure_growth_rate(t, norm, window: tuple) -> GrowthFit:
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
    resid = ys - x @ beta
    return GrowthFit(rate=float(beta[0]), intercept=float(beta[1]),
                     residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                     n_samples=int(np.sum(sel)), window=(float(lo), float(hi)))


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
    cut = (2 * n + 1) // 3
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
    nrm = np.linalg.norm(coeffs.ravel())
    if nrm == 0:
        raise ValueError("eigenvector has no modes inside the truncation")
    return SpectralField(coeffs / nrm)


# ---------------------------------------------------------------------------
# nonlinear pseudo-spectral solver


@dataclass
class NonlinearSettings:
    """Knobs for evolve_nonlinear.

    integrating_factor switches the kappa Lap term from explicit RK4 to an
    exact exponential factor.  The analytic-window guard applies only to
    kappa = 0 runs: the horizon must stay below tau0/(2 c_r K0), with tau0
    and K0 derived from the initial data (radius_estimate and the Gevrey
    norm) unless given here explicitly; tau_floor is the minimum acceptable
    estimated radius.  reference subtracts a fixed field before computing
    perturbation diagnostics; track_magnetic adds the induced magnetic
    perturbation norm.
    """

    integrating_factor: bool = False
    workers: int = 1
    snapshot_stride: int = 0
    track_tau: bool = True
    analytic_guard: bool = True
    tau_floor: float = 0.02
    tau0: float = None
    k0: float = None
    c_r: float = 1.0
    r: float = 3.0
    reference: SpectralField = None
    track_magnetic: bool = False


@dataclass(frozen=True)
class NonlinearTrajectory:
    t: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    energy_residual: np.ndarray
    tau_estimate: np.ndarray
    pert_l2: np.ndarray
    magnetic_l2: np.ndarray
    snapshots: list
    tracker: GevreyTracker
    final: SpectralField
    cfl_warned: bool
    max_velocity: float

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,l2_norm,linf_norm,energy_residual,tau_estimate\n")
            for row in zip(self.t, self.l2, self.linf, self.energy_residual,
                           self.tau_estimate):
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)


class NonlinearSolver:
    """Pseudo-spectral right-hand side and RK4 stepper on the centered cube.

    Velocity components come from the exact multiplier arrays; the
    advection product is formed on the (2N+2)^3 collocation grid with the
    velocity and gradient transforms paired into single complex FFTs, then
    dealiased by the 2/3 rule and projected off the k3 = 0 plane.
    """

    def __init__(self, n: int, phys: PhysicalParams = None, kappa: float = 0.0,
                 source: SpectralField = None, workers: int = 1,
                 integrating_factor: bool = False):
        if phys is None:
            phys = PhysicalParams()
        self.n = n
        self.side = 2 * n + 2
        self.kappa = float(kappa)
        self.integrating_factor = bool(integrating_factor) and kappa > 0
        self.workers = workers
        self.msym = m_symbol_grids(n, phys)
        k = np.arange(-n, n + 1)
        k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
        self.ik = (1j * k1, 1j * k2, 1j * k3)
        self.ksq = (k1 ** 2 + k2 ** 2 + k3 ** 2).astype(float)
        cut = (2 * n + 1) // 3
        self.dealias = (np.abs(k1) <= cut) & (np.abs(k2) <= cut) \
            & (np.abs(k3) <= cut)
        self.plane = k3 == 0
        self.source = np.zeros_like(self.ksq, dtype=np.complex128) \
            if source is None else np.array(source.coeffs)
        self.source[self.plane] = 0.0
        self._embed_ix = np.ix_(k % self.side, k % self.side, k % self.side)

    def _to_phys(self, spec: np.ndarray) -> np.ndarray:
        grid = np.zeros((self.side,) * 3, dtype=np.complex128)
        grid[self._embed_ix] = spec
        return scipy.fft.ifftn(grid, workers=self.workers) * self.side ** 3

    def _from_phys(self, phys_vals: np.ndarray) -> np.ndarray:
        spec = scipy.fft.fftn(phys_vals, workers=self.workers) / self.side ** 3
        return spec[self._embed_ix]

    def physical(self, c: np.ndarray) -> np.ndarray:
        """Collocation values of the field (real part)."""
        return self._to_phys(c).real

    def advection(self, c: np.ndarray):
        """Dealiased spectral coefficients of U . grad Theta, plus max |U|."""
        prod = 0.0
        max_u = 0.0
        for j in range(3):
            # one complex transform carries velocity (real part) and
            # gradient (imag part) together
            z = self._to_phys(self.msym[j] * c + 1j * (self.ik[j] * c))
            prod = prod + z.real * z.imag
            m = float(np.abs(z.real).max())
            if m > max_u:
                max_u = m
        adv = self._from_phys(prod)
        adv *= self.dealias
        adv[self.plane] = 0.0
        return adv, max_u

    def rhs(self, c: np.ndarray, include_diffusion: bool = True):
        adv, max_u = self.advection(c)
        out = self.source - adv
        if include_diffusion and self.kappa:
            out = out - self.kappa * self.ksq * c
        return out, adv, max_u

    def diagnostics(self, c: np.ndarray, adv: np.ndarray) -> dict:
        grad_sq = float(np.sum(self.ksq * np.abs(c) ** 2))
        adv_inner = float(np.real(np.sum(np.conj(c) * adv)))
        l2_sq = float(np.sum(np.abs(c) ** 2))
        if self.kappa > 0 and grad_sq > 0:
            res = abs(adv_inner) / (self.kappa * grad_sq)
        else:
            res = abs(adv_inner) / max(l2_sq, 1e-300)
        return {"grad_sq": grad_sq, "adv_inner": adv_inner,
                "energy_residual": res}

    def stage_one(self, c: np.ndarray):
        """First RK stage (reusable for diagnostics): (k1, adv, max |U|)."""
        return self.rhs(c, include_diffusion=not self.integrating_factor)

    def step(self, c: np.ndarray, dt: float):
        """One RK4 step; returns (new c, max |U| over the first stage)."""
        k1, _, max_u = self.stage_one(c)
        return self.finish_step(c, k1, dt), max_u

    def finish_step(self, c: np.ndarray, k1: np.ndarray, dt: float):
        """Stages two to four given the first-stage slope k1."""
        if self.integrating_factor:
            # RK4 on the variable exp(kappa |k|^2 t) c: diffusion handled
            # exactly by the exponential factors
            e_half = np.exp(-self.kappa * self.ksq * (0.5 * dt))
            e_full = e_half * e_half
            k2, _, _ = self.rhs(e_half * (c + 0.5 * dt * k1),
                                include_diffusion=False)
            k3, _, _ = self.rhs(e_half * c + 0.5 * dt * k2,
                                include_diffusion=False)
            k4, _, _ = self.rhs(e_full * c + dt * e_half * k3,
                                include_diffusion=False)
            return e_full * c + dt / 6.0 * (e_full * k1
                                            + 2.0 * e_half * (k2 + k3) + k4)
        k2, _, _ = self.rhs(c + 0.5 * dt * k1)
        k3, _, _ = self.rhs(c + 0.5 * dt * k2)
        k4, _, _ = self.rhs(c + dt * k3)
        return c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _validate_initial(theta0: SpectralField) -> None:
    c = theta0.coeffs
    n = theta0.n
    scale = max(float(np.abs(c).max()), 1e-300)
    if abs(c[n, n, n]) > 1e-13 * scale:
        raise ValueError("initial data must be mean-zero")
    if float(np.abs(c[:, :, n]).max()) > 1e-13 * scale:
        raise ValueError("initial data must have zero vertical mean")
    # advection pairs two real fields in one complex FFT
    if float(np.abs(c - np.conj(c[::-1, ::-1, ::-1])).max()) > 1e-13 * scale:
        raise ValueError("initial data must be real: c(-k) = conj(c(k))")


def _window_parameters(theta0: SpectralField, settings: NonlinearSettings):
    """(tau0, K0) for the analytic-window estimate, derived when not given."""
    tau0 = settings.tau0
    if tau0 is None:
        est = radius_estimate(theta0)
        if est.entire:
            mag2 = np.abs(theta0.coeffs) ** 2
            total = float(np.sum(mag2))
            centroid = float(np.sum(theta0.wavenumbers() * mag2) / total)
            tau0 = 1.0 / max(centroid, 1.0)
        else:
            if est.radius < settings.tau_floor:
                raise ValueError(
                    "estimated analyticity radius %.3g below the configured "
                    "floor %.3g" % (est.radius, settings.tau_floor))
            tau0 = est.radius
    kmax = theta0.n * math.sqrt(3.0)
    tau0 = min(tau0, 300.0 / max(kmax, 1.0))
    k0 = settings.k0
    if k0 is None:
        k0 = gevrey_norm(theta0, tau0, settings.r)
    return tau0, k0


def evolve_nonlinear(theta0: SpectralField, kappa: float,
                     source: SpectralField, dt: float, t_end: float,
                     phys: PhysicalParams = None,
                     settings: NonlinearSettings = None) -> NonlinearTrajectory:
    """Advance the nonlinear MG equation and record diagnostics per step.

    theta0 must be real (Hermitian coefficients), mean-zero and with zero
    vertical mean.  For kappa = 0 the run is held inside the analytic
    window tau0/(2 c_r K0); horizons beyond it are refused (local analytic
    theory gives no meaning to the output).
    A CFL heuristic (max |U| dt N > 0.5) warns once per run.  Snapshots,
    perturbation norms against a reference field, and the induced magnetic
    perturbation norm are recorded per the settings.
    """
    if settings is None:
        settings = NonlinearSettings()
    if phys is None:
        phys = PhysicalParams()
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    _validate_initial(theta0)

    tracker = None
    if kappa == 0.0 and settings.analytic_guard:
        tau0, k0 = _window_parameters(theta0, settings)
        if k0 > 0:
            t_star = tau0 / (2.0 * settings.c_r * k0)
            if t_end > t_star:
                raise ValueError(
                    "horizon %.4g exceeds the analytic window %.4g "
                    "(tau0 = %.4g, K0 = %.4g, c_r = %g)"
                    % (t_end, t_star, tau0, k0, settings.c_r))
        tracker = GevreyTracker(tau0=tau0, k0=k0, r=settings.r,
                                c_r=settings.c_r, max_gap=2.0 * dt)
    elif settings.track_tau:
        try:
            tau0, k0 = _window_parameters(theta0, settings)
            tracker = GevreyTracker(tau0=tau0, k0=k0, r=settings.r,
                                    c_r=settings.c_r, max_gap=2.0 * dt)
        except (ValueError, InsufficientShellsError):
            tracker = None

    solver = NonlinearSolver(theta0.n, phys=phys, kappa=kappa, source=source,
                             workers=settings.workers,
                             integrating_factor=settings.integrating_factor)

    b_sym = b_symbol_grids(theta0.n, phys) if settings.track_magnetic else None
    ref = settings.reference.coeffs if settings.reference is not None else None

    def record(c, adv, t_now):
        diag = solver.diagnostics(c, adv)
        l2 = math.sqrt(float(np.sum(np.abs(c) ** 2)))
        linf = float(np.abs(solver.physical(c)).max())
        fld = SpectralField(c)
        tau = float("nan")
        if settings.track_tau:
            try:
                tau = float(radius_estimate(fld).radius)
            except InsufficientShellsError:
                pass
        if tracker is not None:
            tracker.append(t_now, sobolev_a(fld))
        pert = float("nan")
        mag = float("nan")
        if ref is not None:
            d = c - ref
            pert = float(np.linalg.norm(d.ravel()))
            if b_sym is not None:
                mag = math.sqrt(sum(float(np.sum(np.abs(b * d) ** 2))
                                    for b in b_sym))
        elif b_sym is not None:
            mag = math.sqrt(sum(float(np.sum(np.abs(b * c) ** 2))
                                for b in b_sym))
        return l2, linf, diag["energy_residual"], tau, pert, mag

    n_steps = int(round(t_end / dt))
    c = np.array(theta0.coeffs)
    rows = []
    times = []
    snaps = []
    cfl_warned = False
    max_velocity = 0.0
    for i in range(n_steps + 1):
        # stage one doubles as the diagnostic evaluation at the current state
        k1, adv, max_u = solver.stage_one(c)
        times.append(i * dt)
        rows.append(record(c, adv, i * dt))
        max_velocity = max(max_velocity, max_u)
        if not cfl_warned and max_u * dt * theta0.n > 0.5:
            warnings.warn(
                "CFL heuristic exceeded: max|U| dt N = %.3g > 0.5"
                % (max_u * dt * theta0.n), RuntimeWarning)
            cfl_warned = True
        if settings.snapshot_stride and i % settings.snapshot_stride == 0:
            snaps.append((i * dt, SpectralField(c.copy())))
        if i == n_steps:
            break
        c = solver.finish_step(c, k1, dt)
        if not np.all(np.isfinite(c)):
            raise DivergenceError(i + 1)
    cols = list(zip(*rows))
    return NonlinearTrajectory(
        t=np.asarray(times), l2=np.asarray(cols[0]), linf=np.asarray(cols[1]),
        energy_residual=np.asarray(cols[2]), tau_estimate=np.asarray(cols[3]),
        pert_l2=np.asarray(cols[4]), magnetic_l2=np.asarray(cols[5]),
        snapshots=snaps, tracker=tracker, final=SpectralField(c),
        cfl_warned=cfl_warned, max_velocity=max_velocity)


# ---------------------------------------------------------------------------
# Lipschitz-blowup table


@dataclass(frozen=True)
class LipschitzRow:
    j: int
    sigma: float
    ratio_nonlinear: float
    ratio_linear_run: float
    ratio_closed_form: float

    @property
    def gap_vs_closed(self) -> float:
        return abs(self.ratio_nonlinear - self.ratio_closed_form) \
            / self.ratio_closed_form


def _resolution_for(j: int, m: int) -> int:
    # dealias band must keep the linear coupling modes (j, sqrt j, p +- m)
    need = j + 2 * m
    return max((3 * need) // 2, 8)


def lipschitz_blowup_experiment(j_list, eps: float, t_probe: float,
                                phys: PhysicalParams = None, a: float = 1.0,
                                m: int = 1, dt: float = 0.02,
                                c_r: float = 1.0, workers: int = 1) -> list:
    """Growth ratios ||Theta(t_probe) - Theta0|| / eps over j = k1 = k2^2.

    Each j gets a non-diffusive nonlinear run from Theta0 + eps times the
    unit eigenmode, a linear full-slice surrogate run, and the closed form
    exp(sigma* t_probe).  The analytic window is checked against the
    perturbation data (tau0 = 1/|k_base|, K0 its Gevrey norm); a j whose
    window cannot reach t_probe is refused with an error rather than run
    outside the regime.
    """
    if phys is None:
        phys = PhysicalParams()
    rows = []
    for j in j_list:
        k2 = math.isqrt(int(j))
        if k2 * k2 != j:
            raise ValueError("j = %r is not a perfect square" % (j,))
        mp = ModeParams(a=a, m=m, k1=int(j), k2=k2, phys=phys)
        mode = solve_growth_rate(mp)
        n = _resolution_for(int(j), m)
        psi = eigenmode_field(mode, n)

        # analytic-window check on the perturbation
        k_base = math.sqrt(j * j + j + m * m)
        tau0 = 1.0 / k_base
        k0 = gevrey_norm(psi, tau0, 3.0) * eps
        t_star = tau0 / (2.0 * c_r * k0)
        if t_probe > t_star:
            raise ValueError(
                "j = %d: probe time %.3g outside the analytic window %.3g"
                % (j, t_probe, t_star))

        theta_init = SpectralField(steady_state_field(n, a, m).coeffs
                                   + eps * psi.coeffs)
        settings = NonlinearSettings(analytic_guard=False, track_tau=False,
                                     reference=steady_state_field(n, a, m),
                                     workers=workers)
        traj = evolve_nonlinear(theta_init, 0.0, None, dt, t_probe,
                                phys=phys, settings=settings)
        ratio_nl = traj.pert_l2[-1] / eps

        # linear surrogate on the slice
        p_keep = max(8, min(mode.truncation_P, n // m))
        sl = SliceState(mp=mp, c=mode.c_tilde[:p_keep].copy())
        fs = embed_restricted(sl)
        lin = evolve_full_slice(fs, sine_steady_coeffs(a, m), dt, t_probe)
        ratio_lin = float(lin.norm[-1] / lin.norm[0])

        rows.append(LipschitzRow(j=int(j), sigma=mode.sigma,
                                 ratio_nonlinear=float(ratio_nl),
                                 ratio_linear_run=ratio_lin,
                                 ratio_closed_form=float(
                                     math.exp(mode.sigma * t_probe))))
    return rows
