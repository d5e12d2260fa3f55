"""Unstable eigenvalues of the linearized MG equation by continued fractions.

Linearizing about the steady state Theta_0 = a sin(m x3) and restricting to
a Fourier slice (k1, k2) couples the vertical sine modes p = 1, 2, ... of a
perturbation through the tridiagonal recursion

    sigma c_p + c_{p+1}/alpha_{p+1} + c_{p-1}/alpha_{p-1} = 0,  p >= 2,
    sigma c_1 + c_2/alpha_2 = 0,

with coefficients

    alpha_p = [8 Omega^2 (mp)^2 (k1^2 + k2^2 + (mp)^2) + 2 mu^2 k2^4]
              / (a mu m k2^2 (k1^2 + k2^2)).

Eliminating the ratios turns the eigenvalue problem into the characteristic
equation sigma alpha_1 = F_2(sigma) where F_p is the continued fraction
F_p = 1/(sigma alpha_p - F_{p+1}).  A real root sigma* > 0 always exists and
lies strictly inside (1/sqrt(alpha_1 alpha_2), 1/sqrt(alpha_1 alpha_2 -
alpha_1^2)).  With diffusivity kappa > 0 every sigma alpha_q is replaced by
(sigma + kappa (k1^2 + k2^2 + m^2 q^2)) alpha_q and a positive root may or
may not survive.

The recursion matrix is similar to a symmetric tridiagonal one, and the
denominators x_q - F_{q+1} of the backward recurrence are its pivots at
shift sigma, each scaled by alpha_q > 0.  So sigma lies below the top
eigenvalue exactly when some denominator is negative: a Sturm count
(Barth, Martin and Wilkinson 1967) in continued-fraction form (Gautschi
1967, SIAM Rev. 9).  Every root here is found by bisection on that test,
and the test and the eigenvector come from one recurrence kernel.  The
scalar solvers bisect one mode at a time.  A list of modes
(solve_growth_rates) and a (k1, k2) box (sweep_growth_rates) go through
one batched bisection, with one column of alpha per slice.  With
diffusion it tests every slice at sigma = 0 and bisects only the slices
with a root.  A slice leaves the batch once its interval cannot shrink,
and, when only the largest root is read (dynamo-scaling's argmax), once
its upper end lies below a lower end known to belong to another root.
Each slice's root is elementwise work, so the batch gives the scalar
solvers' roots bit for bit; the scalar continued fraction runs the same
recurrence on Python floats, which round as float64 does.
LAPACK's tridiagonal ?stevd on the truncated symmetric matrix serves as
an independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import ModeParams, PhysicalParams

_DEPTH = 64         # recurrence levels below the closed-form tail
_MAX_BISECT = 200   # guard: an interval with a NaN end never stops shrinking
_ORACLE_DRIVER = "stevd"  # scipy's default for all eigenvalues


class PoleError(ArithmeticError):
    """A continued-fraction denominator hit zero or crossed sign.

    Signals that sigma sits below the valid range; carries the level p of
    the fraction F_p being evaluated.
    """

    def __init__(self, level: int, sigma: float):
        super().__init__(
            "continued fraction F_%d has a pole for sigma = %.17g"
            % (level, sigma)
        )
        self.level = level
        self.sigma = sigma


class BracketError(RuntimeError):
    """The characteristic function failed to change sign on the bracket."""

    def __init__(self, h_lo, h_hi, where=""):
        super().__init__(
            "no sign change on the analytic bracket%s: h(lo) = %r, h(hi) = %r"
            % (where, h_lo, h_hi)
        )
        self.h_lo = h_lo
        self.h_hi = h_hi


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last estimate."""

    def __init__(self, message, last_estimate):
        super().__init__("%s (last estimate %r)" % (message, last_estimate))
        self.last_estimate = last_estimate


def _alpha(q, a, m, k2, ksq, omega, mu):
    """alpha_q with every argument broadcast; ksq = k1^2 + k2^2.

    [8 Omega^2 (mq)^2 (ksq + (mq)^2) + 2 mu^2 k2^4] / (a mu m k2^2 ksq),
    built in place in one array of the broadcast shape.
    """
    mq2 = (m * q) ** 2
    out = ksq + mq2
    out *= 8.0 * omega * omega * mq2
    out += 2.0 * mu * mu * k2 ** 4
    out /= a * mu * m * k2 ** 2 * ksq
    return out


def alpha(p, mp: ModeParams):
    """Recursion coefficient alpha_p; accepts scalar or array p >= 1."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 1):
        raise ValueError("p must be >= 1")
    out = _alpha(p, mp.a, mp.m, mp.k2, float(mp.ksq), mp.phys.omega,
                 mp.phys.mu)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=64)
def _levels(mp: ModeParams, p: int, top: int) -> np.ndarray:
    """Read-only alpha_q for q = p..top: a mode's recursion levels."""
    out = alpha(np.arange(p, top + 1), mp)
    out.setflags(write=False)
    return out


def _recurrence(sigma, al, q0, kappa, ksq, m, keep=0):
    """Backward recurrence t = 1/(x_q - t) from the top level down to q0 + 1.

    al[i] holds alpha_q for level q = q0 + i along axis 0; its trailing
    axes broadcast against sigma (and ksq), so one call serves one slice
    or a batch of them.  Each level's x_q = (sigma + kappa (ksq + m^2 q^2))
    alpha_q is formed inside the loop.  The top level seeds t with the
    closed-form tail G = (x - sqrt(x^2 - 4))/2, or 0 below its branch
    point x = 2.

    Returns (h, f): h = x_q0 - F_{q0+1}, NaN where a denominator at some
    level q0 + 1 .. top - 1 is <= 0 (a pole); f[q] = F_q for
    q0 < q <= keep, one row of sigma's batch shape per level, or None
    when keep is 0.
    """
    top = q0 + len(al) - 1
    pole = False
    f = np.zeros((keep + 1,) + np.broadcast(sigma, al[0]).shape) \
        if keep else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (sigma + kappa * (ksq + (m * top) ** 2)) * al[-1]
        t = np.where(x >= 2.0,
                     2.0 / (x + np.sqrt(np.maximum(x * x - 4.0, 0.0))), 0.0)
        for q in range(top - 1, q0, -1):
            den = (sigma + kappa * (ksq + (m * q) ** 2)) * al[q - q0] - t
            pole = pole | (den <= 0.0)
            t = 1.0 / den
            if q <= keep:
                f[q] = t
        h = (sigma + kappa * (ksq + (m * q0) ** 2)) * al[0] - t
    return np.where(pole, np.nan, h), f


def _below(h):
    """sigma lies below the top eigenvalue: a pole (NaN) or h < 0."""
    return np.isnan(h) | (h < 0.0)


def _bisect_slices(al, kappa, ksq, m, largest_only=False):
    """The top root of every slice of a batch, by one bisection.

    Column j of al holds alpha_q of slice j for q = 1.._DEPTH + 2, ksq
    one entry per slice, and m one entry or one per slice.  With kappa = 0
    every slice is bisected on its analytic bracket.  With kappa > 0 only
    the slices where sigma = 0 lies below the top eigenvalue have a root:
    they are compressed and bisected as one batch on (0, bracket top], as
    diffusion only lowers the spectrum.

    A slice retires once its interval cannot shrink (mid == lo or
    mid == hi): its root 0.5 (lo + hi) is then fixed.  With largest_only
    a slice also retires, unsolved, once its hi lies strictly below the
    best known lower end: an ordered live lo, or a root retired so far.
    The intervals nest, so root_i <= hi_i < lo_j <= root_j and slice i
    cannot hold the largest root; ties survive, and a NaN end retires no
    slice.  Retired slices leave the batch.  Returns (root, sigma, tests):
    the mask of the slices with a root, their roots in order (NaN where
    pruned), and the slice tests made, the sigma = 0 screen included.
    """
    tests = 0
    if kappa > 0.0:
        root = _below(_recurrence(np.zeros(ksq.shape), al, 1, kappa, ksq,
                                  m)[0])
        tests = root.size
        # compress, not al[:, root]: the recurrence runs on C-contiguous rows
        al = np.compress(root, al, axis=1)
        ksq = ksq[root]
        m = m[root] if np.ndim(m) else m
    else:
        root = np.ones(ksq.shape, dtype=bool)
    lo, hi = _bracket(al[0], al[1])
    if kappa > 0.0:
        lo = np.zeros(ksq.shape)
    sigma = np.full(ksq.shape, np.nan)
    live = np.arange(ksq.size)
    best = -np.inf
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        if largest_only:
            best = float(np.max(np.where(
                done, mid, np.where(lo <= hi, lo, -np.inf)), initial=best))
            cut = hi < best
            sigma[live[done & ~cut]] = mid[done & ~cut]
            done |= cut
        else:
            sigma[live[done]] = mid[done]
        if done.any():
            keep = ~done
            live, lo, hi, mid, ksq = (v[keep] for v in (live, lo, hi, mid,
                                                        ksq))
            al = np.compress(keep, al, axis=1)
            m = m[keep] if np.ndim(m) else m
        if not live.size:
            break
        tests += live.size
        go_lo = _below(_recurrence(mid, al, 1, kappa, ksq, m)[0])
        lo = np.where(go_lo, mid, lo)
        hi = np.where(go_lo, hi, mid)
    sigma[live] = 0.5 * (lo + hi)   # out of steps: a NaN end
    return root, sigma, tests


def f_continued_fraction(p: int, sigma: float, mp: ModeParams,
                         depth: int = _DEPTH, kappa: float = 0.0) -> float:
    """Continued fraction F_p(sigma) = 1/(sigma alpha_p - F_{p+1}(sigma)).

    _recurrence on Python floats, bit for bit: backward from level
    p + depth, its tail seeded with the closed form G (0 below the branch
    point), every level shifted by kappa > 0.  Raises PoleError when a
    denominator at level p or above is <= 0.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if depth < 4:
        raise ValueError("depth must be >= 4")
    sigma, kappa, ksq, m = float(sigma), float(kappa), mp.ksq, mp.m
    al = _levels(mp, p, p + depth).tolist()
    x = (sigma + kappa * (ksq + (m * (p + depth)) ** 2)) * al[-1]
    t = 2.0 / (x + math.sqrt(x * x - 4.0)) if x >= 2.0 else 0.0
    for q in range(p + depth - 1, p - 1, -1):
        den = (sigma + kappa * (ksq + (m * q) ** 2)) * al[q - p] - t
        if not den > 0.0:   # a pole, or NaN: checked before dividing
            raise PoleError(p, sigma)
        t = 1.0 / den
    return t


def _char(sigma: float, mp: ModeParams, kappa: float) -> float:
    """h(sigma) = sigma_1 alpha_1 - F_2(sigma); NaN marks a pole."""
    try:
        f2 = f_continued_fraction(2, sigma, mp, kappa=kappa)
    except PoleError:
        return float("nan")
    return (sigma + kappa * (mp.ksq + mp.m ** 2)) \
        * float(_levels(mp, 1, 1)[0]) - f2


def _root(mp: ModeParams, kappa: float, lo: float, hi: float):
    """(sigma*, |h(sigma*)|) by bisection of the pole-or-negative test:
    _bisect_slices on Python floats, bit for bit."""
    lo, hi = float(lo), float(hi)
    for _ in range(_MAX_BISECT):
        sigma = 0.5 * (lo + hi)
        if sigma == lo or sigma == hi:
            break
        h = _char(sigma, mp, kappa)   # a pole (NaN) or h < 0: below the root
        lo, hi = (sigma, hi) if h != h or h < 0.0 else (lo, sigma)
    sigma = 0.5 * (lo + hi)
    h = _char(sigma, mp, kappa)
    return sigma, abs(h) if math.isfinite(h) else float("inf")


def _bracket(a1, a2):
    return 1.0 / np.sqrt(a1 * a2), 1.0 / np.sqrt(a1 * a2 - a1 * a1)


def analytic_bracket(mp: ModeParams) -> tuple:
    """(1/sqrt(a1 a2), 1/sqrt(a1 a2 - a1^2)): guaranteed to straddle sigma*."""
    return _bracket(alpha(1, mp), alpha(2, mp))


@dataclass(frozen=True)
class UnstableMode:
    """A real unstable eigenvalue of the slice recursion with its eigenvector.

    c_tilde follows the normalization c_1 = alpha_1, c_p = alpha_p eta_p
    ... eta_2 with eta_p = -F_p(sigma*); entries alternate in sign and decay
    superfactorially, underflowing to zero around p = 66 for unit
    parameters.
    """

    params: ModeParams
    kappa: float
    sigma: float
    bracket_lo: float
    bracket_hi: float
    c_tilde: np.ndarray      # c_p, p = 1..P
    truncation_P: int
    residual: float

def _unstable_mode(mp: ModeParams, kappa: float, sigma: float, lo: float,
                   hi: float, residual: float, P: int) -> UnstableMode:
    """eta_p = -F_p(sigma) for p = 2..P from the recurrence, then c_tilde."""
    al = alpha(np.arange(1, P + _DEPTH + 1), mp)
    h, f_levels = _recurrence(sigma, al, 1, kappa, mp.ksq, mp.m, keep=P)
    if np.isnan(h):
        raise PoleError(2, sigma)
    return UnstableMode(params=mp, kappa=kappa, sigma=sigma, bracket_lo=lo,
                        bracket_hi=hi, c_tilde=_c_tilde(al[:P], f_levels),
                        truncation_P=P, residual=residual)


def _c_tilde(al, f):
    """c_p for p = 1..P from alpha_p (al) and F_p(sigma*) (f[p], p >= 2)."""
    eta = -f[2:]
    ps = np.arange(1, len(al) + 1)
    log_eta_csum = np.concatenate([[0.0], np.cumsum(np.log(np.abs(eta)))])
    log_c = np.log(al) + log_eta_csum
    sign = np.where(ps % 2 == 1, 1.0, -1.0)
    with np.errstate(under="ignore"):
        return sign * np.exp(log_c)


def solve_growth_rate(mp: ModeParams, P: int = 128) -> UnstableMode:
    """Root of sigma alpha_1 = F_2(sigma) inside the analytic bracket.

    Bisection, treating a continued-fraction pole as "sigma below the
    root".  The returned residual |sigma alpha_1 - F_2(sigma)| is at most
    1e-12 alpha_1.
    """
    lo, hi = analytic_bracket(mp)
    h_lo = _char(lo, mp, 0.0)
    h_hi = _char(hi, mp, 0.0)
    if not (_below(h_lo) and h_hi > 0.0):
        raise BracketError(h_lo, h_hi)
    sigma, residual = _root(mp, 0.0, lo, hi)
    if not residual <= 1e-12 * alpha(1, mp):
        raise ConvergenceError("bisection residual %g exceeds tolerance"
                               % residual, sigma)
    return _unstable_mode(mp, 0.0, sigma, lo, hi, residual, P)


def solve_growth_rate_diffusive(mp: ModeParams, kappa: float, P: int = 128):
    """Largest positive root of the diffusively shifted characteristic
    equation, or None when diffusion kills every unstable mode.

    None exactly when sigma = 0 is not below the top eigenvalue.
    Otherwise the root is bisected on (0, non-diffusive bracket top]:
    diffusion only lowers the spectrum.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive; use solve_growth_rate")
    if not _below(_char(0.0, mp, kappa)):
        return None
    _, hi = analytic_bracket(mp)
    sigma, residual = _root(mp, kappa, 0.0, hi)
    return _unstable_mode(mp, kappa, sigma, 0.0, hi, residual, P)


def _label(mp: ModeParams) -> str:
    return "mode (a, m, k1, k2) = (%g, %d, %d, %d)" % (mp.a, mp.m, mp.k1,
                                                       mp.k2)


def solve_growth_rates(modes, kappa: float = 0.0, P: int = 128) -> list:
    """solve_growth_rate (kappa = 0) or solve_growth_rate_diffusive
    (kappa > 0) for a list of modes, as one batch.

    Returns one UnstableMode per mode, or None where diffusion kills every
    unstable mode, bit for bit the scalar solver's.  alpha is one
    (levels x modes) array, every root comes from one batched bisection,
    and the eigenvectors from one recurrence.  With kappa = 0 each mode's
    analytic bracket and residual are checked as in solve_growth_rate; a
    failure raises BracketError or ConvergenceError naming the mode.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if P < 2:
        raise ValueError("P must be >= 2")
    modes = list(modes)
    if not modes:
        return []
    a, m, k2, ksq, omega, mu = (np.array(v) for v in zip(*[
        (mp.a, mp.m, mp.k2, mp.ksq, mp.phys.omega, mp.phys.mu)
        for mp in modes]))
    al = _alpha(np.arange(1, P + _DEPTH + 1)[:, None], a, m, k2, ksq, omega,
                mu)
    lo, hi = _bracket(al[0], al[1])
    if kappa == 0.0:
        h_lo = _recurrence(lo, al[:_DEPTH + 2], 1, 0.0, ksq, m)[0]
        h_hi = _recurrence(hi, al[:_DEPTH + 2], 1, 0.0, ksq, m)[0]
        for i in np.flatnonzero(~(_below(h_lo) & (h_hi > 0.0))):
            raise BracketError(float(h_lo[i]), float(h_hi[i]),
                               " of " + _label(modes[i]))
    else:
        lo = np.zeros(len(modes))
    root, sigma, _ = _bisect_slices(al[:_DEPTH + 2], kappa, ksq, m)

    idx = np.flatnonzero(root)
    al = np.compress(root, al, axis=1)
    ksq, m = ksq[root], m[root]
    h = _recurrence(sigma, al[:_DEPTH + 2], 1, kappa, ksq, m)[0]
    residual = np.where(np.isfinite(h), np.abs(h), np.inf)
    if kappa == 0.0:
        for i in np.flatnonzero(~(residual <= 1e-12 * al[0])):
            raise ConvergenceError(
                "bisection residual %g of %s exceeds tolerance"
                % (residual[i], _label(modes[idx[i]])), float(sigma[i]))
    h, f = _recurrence(sigma, al, 1, kappa, ksq, m, keep=P)
    for j in np.flatnonzero(np.isnan(h)):
        raise PoleError(2, float(sigma[j]))
    # one contiguous row per mode, as in the scalar solver, so that the
    # vectorized log and exp round each entry the same way
    al_rows = np.ascontiguousarray(al[:P].T)
    f_rows = np.ascontiguousarray(f.T)
    out = [None] * len(modes)
    for j, i in enumerate(idx):
        out[i] = UnstableMode(
            params=modes[i], kappa=kappa, sigma=float(sigma[j]),
            bracket_lo=float(lo[i]), bracket_hi=float(hi[i]),
            c_tilde=_c_tilde(al_rows[j], f_rows[j]), truncation_P=P,
            residual=float(residual[j]))
    return out


def truncated_matrix_eigenvalue(mp: ModeParams, kappa: float = 0.0,
                                P: int = 128) -> float:
    """Largest real eigenvalue of the P x P truncated recursion matrix.

    Independent oracle for the continued-fraction root.  The matrix is
    similar to the symmetric tridiagonal one with off-diagonal
    1/sqrt(alpha_p alpha_{p+1}) and diagonal -kappa (k1^2 + k2^2 + m^2 p^2)
    (scale row p by 1/sqrt(alpha_p), flip alternate signs).  LAPACK's
    tridiagonal ?stevd computes its spectrum from the two bands with no
    recurrence shared with the continued fraction, bit for bit the dense
    numpy.linalg.eigvalsh value on the oracle-xcheck modes.
    """
    import scipy.linalg   # only the oracle needs it; not paid at import
    if P < 8:
        raise ValueError("P must be >= 8")
    ps = np.arange(1, P + 1)
    al = alpha(ps, mp)
    off = 1.0 / np.sqrt(al[:-1] * al[1:])
    return float(scipy.linalg.eigvalsh_tridiagonal(
        -kappa * (mp.ksq + (mp.m * ps) ** 2), off,
        lapack_driver=_ORACLE_DRIVER)[-1])


def growth_bound_constant(a: float, m: int, phys: PhysicalParams) -> float:
    """a mu m / (2^8 Omega^2 m^2 + 2 mu^2): slope of the unbounded-growth
    lower bound sigma* > j C along k1 = j, k2 = sqrt(j)."""
    if a <= 0 or m < 1:
        raise ValueError("need a > 0 and m >= 1")
    om, mu = phys.omega, phys.mu
    return a * mu * m / (256.0 * om * om * m * m + 2.0 * mu * mu)


def diffusive_lower_bound(mp: ModeParams, kappa: float) -> float:
    """Closed-form lower bound for the diffusive growth rate; may be <= 0,
    in which case it asserts nothing."""
    om, mu = mp.phys.omega, mp.phys.mu
    ksq = float(mp.ksq)
    four_m2 = 4.0 * mp.m ** 2
    core = mp.a * mu * mp.m * mp.k2 ** 2 * ksq \
        / (32.0 * om * om * mp.m ** 2 * (ksq + four_m2) + 2.0 * mu ** 2 * mp.k2 ** 4)
    return core - kappa * (ksq + four_m2)


def predicted_optimal_mode(kappa: float, a: float, m: int,
                           phys: PhysicalParams) -> tuple:
    """Wavenumbers maximizing the diffusive lower bound for small kappa:
    k1 ~ a/(32 Omega kappa), k2 ~ sqrt(am/mu)/(2 sqrt(2) sqrt(kappa))."""
    om, mu = phys.omega, phys.mu
    k1 = a / (32.0 * om * kappa)
    k2 = np.sqrt(a * m / mu) / (2.0 * np.sqrt(2.0) * np.sqrt(kappa))
    return float(k1), float(k2)


def dynamo_bound(kappa: float, a: float, phys: PhysicalParams) -> float:
    """a^2/(1024 Omega^2 kappa): the 1/kappa growth-rate floor at the
    optimal wavenumbers."""
    return a * a / (1024.0 * phys.omega ** 2 * kappa)


def sweep_growth_rates(kappa: float, a: float, m: int, phys: PhysicalParams,
                       k1_max: int, k2_max: int, largest_only: bool = False,
                       counters: list = None):
    """Vectorized diffusive root solve over the integer box
    [1, k1_max] x [1, k2_max].

    Returns (k1_grid, k2_grid, sigma) with NaN where no positive root
    exists.  The batched bisection of solve_growth_rates: every pair is
    tested at sigma = 0, and only the pairs with a root are bisected, as
    one batch.  Each pair's root is elementwise work, so it does not
    depend on the batch it was bisected in.  With largest_only the
    bisection drops every pair that cannot hold the largest root, which
    is NaN there: the grid's nanargmax and its value stay those of the
    full sweep, and so does every entry that is not NaN.  Given counters,
    the sweep appends its pairs, the pairs_bisected (those with a root)
    and its slice tests.
    """
    k1g, k2g = np.meshgrid(np.arange(1, k1_max + 1), np.arange(1, k2_max + 1),
                           indexing="ij")
    k1 = k1g.ravel().astype(float)
    k2 = k2g.ravel().astype(float)
    ksq = k1 * k1 + k2 * k2
    # alpha is passed unnamed, so that the bisection's compressed copies
    # replace it in memory
    root, roots, tests = _bisect_slices(
        _alpha(np.arange(1, _DEPTH + 3)[:, None], a, m, k2, ksq, phys.omega,
               phys.mu), kappa, ksq, m, largest_only)
    if counters is not None:
        counters.append(dict(pairs=root.size,
                             pairs_bisected=int(np.count_nonzero(root)),
                             tests=tests))
    sigma = np.full(root.shape, np.nan)
    sigma[root] = roots
    return k1g, k2g, sigma.reshape(k1g.shape)
