import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mg_spectra.params import ModeParams, PhysicalParams
from mg_spectra import evolution as ev
from mg_spectra import experiments, fields, spectrum
from mg_spectra.symbols import b_symbol, b_symbol_grids, m_symbol

UNIT = ModeParams()
SIGMA_UNIT = 0.028619204092995829


def _sine_generator(mp, big_p, kappa=0.0):
    """Dense P x P generator of the sine coefficients c_p, p = 1..P:
    dc_p/dt = -c_{p+1}/alpha_{p+1} - c_{p-1}/alpha_{p-1}
              - kappa (k1^2 + k2^2 + m^2 p^2) c_p, truncated at P."""
    inv = 1.0 / spectrum.alpha(np.arange(1, big_p + 1), mp)
    p = np.arange(1, big_p + 1)
    return -np.diag(inv[1:], 1) - np.diag(inv[:-1], -1) \
        - np.diag(kappa * (mp.ksq + (mp.m * p) ** 2))


def test_slice_rhs_hand_check():
    # P = 8, only c_1 nonzero: dc_2/dt = -c_1/alpha_1, others untouched;
    # the profile holds -i dc_p/dt / 2 at k3 = p, so dc_p/dt = 2i rhs(p)
    c = np.array([1.0] + [0.0] * 7)
    rhs = ev.full_slice_rhs(UNIT, ev.embed_restricted(UNIT, c).theta, 0.0)
    dc = 2j * rhs[9:]
    assert dc[0] == 0.0
    assert dc[1] == pytest.approx(-1.0 / 13.0)
    assert np.all(dc[2:] == 0.0)
    assert rhs[8] == 0.0
    assert np.array_equal(rhs, np.conj(rhs[::-1]))
    # diffusion adds -kappa (K + m^2 p^2) on the diagonal
    rhs2 = ev.full_slice_rhs(UNIT, ev.embed_restricted(UNIT, c).theta, 0.5)
    assert 2j * rhs2[9] == pytest.approx(-0.5 * 3.0)


def test_evolve_slice_eigen_rate():
    mode = spectrum.solve_growth_rate(UNIT)
    traj = ev.evolve_full_slice(ev.embed_restricted(UNIT, mode.c_tilde),
                                0.05, 40.0)
    rate = ev.measure_growth_rate(traj.t, traj.norm, (0.0, 40.0))
    assert rate == pytest.approx(SIGMA_UNIT, rel=1e-10)


def test_evolve_slice_dt_margin():
    full = ev.embed_restricted(UNIT, np.ones(16))
    with pytest.raises(ValueError):
        ev.evolve_full_slice(full, 5.0, 10.0)


def test_evolve_slice_decay_with_strong_diffusion():
    # kappa large enough that no unstable root survives (kappa K > sigma*)
    full = ev.embed_restricted(UNIT, np.ones(16), kappa=0.05)
    traj = ev.evolve_full_slice(full, 0.005, 0.5)
    assert traj.norm[-1] < traj.norm[0]


def test_embed_extract_roundtrip():
    c = np.arange(1.0, 9.0)
    full = ev.embed_restricted(UNIT, c)
    # c_p sin(p x3) puts -i c_p/2 at k3 = +p and +i c_p/2 at k3 = -p
    half = full.half
    p = np.arange(1, 9)
    assert half == 8
    assert np.array_equal(full.theta[half + p], -0.5j * c)
    assert np.array_equal(full.theta[half - p], 0.5j * c)
    # hermitian profile for a real restricted state
    th = full.theta
    assert np.allclose(th, np.conj(th[::-1]), atol=1e-15)
    # step m: the sine modes sit at k3 = +-m p, the rest stays zero
    mp = ModeParams(m=3)
    th3 = ev.embed_restricted(mp, c).theta
    assert th3.size == 2 * 3 * 8 + 1
    assert np.array_equal(th3[24 + 3 * p], -0.5j * c)
    assert np.count_nonzero(th3) == 16


@pytest.mark.parametrize("c, kappa", [
    (np.ones(7), 0.0),
    (np.ones((2, 8)), 0.0),
    (np.ones(8), -1e-9),
])
def test_embed_restricted_rejects(c, kappa):
    with pytest.raises(ValueError):
        ev.embed_restricted(UNIT, c, kappa)


def test_full_slice_state_rejects_negative_kappa():
    # anti-diffusion would pass as a slice run that grows without bound
    with pytest.raises(ValueError, match="kappa"):
        ev.FullSliceState(mp=UNIT, theta=np.zeros(17), kappa=-1.0)


def test_full_slice_state_rejects_vertical_mean():
    # theta_hat(0) is the vertical mean, which the model holds at zero
    th = np.ones(17, dtype=complex)
    with pytest.raises(ValueError, match="vertical mean"):
        ev.FullSliceState(mp=UNIT, theta=th)
    th[8] = 1e-14  # round-off below 1e-13 of max |theta| passes
    ev.FullSliceState(mp=UNIT, theta=th)
    ev.FullSliceState(mp=UNIT, theta=np.zeros(17))


@pytest.mark.parametrize("kappa, c, dt, t_end, rtol", [
    pytest.param(0.0, "eigen", 0.05, 5.0, 1e-12, id="inviscid"),
    pytest.param(0.05, "ones", 0.002, 0.5, 1e-7, id="diffusive"),
])
def test_full_slice_matches_expm(kappa, c, dt, t_end, rtol):
    # the embedding halves the squared norm: ||c(t)|| = sqrt 2 ||theta(t)||
    big_p = 24
    c = spectrum.solve_growth_rate(UNIT).c_tilde[:big_p] \
        if c == "eigen" else np.ones(big_p)
    traj = ev.evolve_full_slice(ev.embed_restricted(UNIT, c, kappa),
                                dt, t_end)
    gen = _sine_generator(UNIT, big_p, kappa)
    exact = [np.linalg.norm(scipy.linalg.expm(t * gen) @ c) for t in traj.t]
    assert np.allclose(np.sqrt(2.0) * traj.norm, exact, rtol=rtol, atol=0.0)


def test_full_slice_magnetic_norm():
    rng = np.random.default_rng(5)
    th = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    th[16] = 0.0
    mp = ModeParams(k1=3, k2=2)
    traj = ev.evolve_full_slice(ev.FullSliceState(mp=mp, theta=th),
                                0.05, 1.0)
    b = b_symbol((mp.k1, mp.k2, np.arange(-16, 17)), mp.phys)
    expect = np.sqrt(np.sum(np.abs(b) ** 2 * np.abs(th) ** 2))
    assert traj.magnetic_norm.shape == traj.norm.shape
    assert traj.magnetic_norm[0] == pytest.approx(expect, rel=1e-14)


def test_full_slice_max_dt_is_the_stability_margin():
    full = ev.embed_restricted(UNIT, np.ones(8))
    limit = ev.full_slice_max_dt(full)
    ev.evolve_full_slice(full, limit, 10.0 * limit)
    with pytest.raises(ValueError, match="stability margin"):
        ev.evolve_full_slice(full, 1.01 * limit, 10.0 * limit)


@pytest.mark.parametrize("mp, kappa", [
    (UNIT, 0.0), (UNIT, 1e-3), (ModeParams(a=2.0, k1=5, k2=2), 0.0),
])
def test_full_slice_max_dt_matches_sine_generator(mp, kappa):
    # the k3 = 0 row is held at zero, so it sets no step limit: the margin
    # is the one of the sine generator, 0.1 over its largest row sum
    mode = spectrum.solve_growth_rate(mp)
    full = ev.embed_restricted(mp, mode.c_tilde, kappa)
    gen = _sine_generator(mp, mode.c_tilde.size, kappa)
    limit = ev.full_slice_max_dt(full)
    assert limit == pytest.approx(0.1 / np.abs(gen).sum(axis=1).max(),
                                  rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 3), a=st.floats(0.25, 4.0), k1=st.integers(1, 12),
       k2=st.integers(1, 6), big_p=st.integers(8, 20),
       kappa=st.sampled_from([0.0, 1e-3, 0.05]), seed=st.integers(0, 2 ** 16))
def test_full_slice_rhs_is_the_lifted_sine_generator(m, a, k1, k2, big_p,
                                                     kappa, seed):
    # on a lifted state the profile generator acts as the dense sine
    # generator on c, for every vertical wavenumber m of the steady state
    mp = ModeParams(a=a, m=m, k1=k1, k2=k2)
    c = np.random.default_rng(seed).standard_normal(big_p)
    rhs = ev.full_slice_rhs(mp, ev.embed_restricted(mp, c).theta, kappa)
    lifted = ev.embed_restricted(mp, _sine_generator(mp, big_p, kappa) @ c)
    scale = np.abs(lifted.theta).max()
    # the sine generator truncates at P: row P loses the c_{P+1} source,
    # which the profile has no room for either
    assert np.allclose(rhs, lifted.theta, rtol=0.0, atol=1e-13 * scale)


def gronwall_constant(mp):
    """Growth-rate bound for the slice L2 norm:
    (mu k2^2 / (4 Omega^2)) (pi^2/(3 sqrt 5)) ||d3 Theta0||, where
    ||d3 Theta0|| = m a / sqrt 2 in coefficient l2."""
    om, mu = mp.phys.omega, mp.phys.mu
    grad_norm = mp.m * mp.a / np.sqrt(2.0)
    return mu * mp.k2 ** 2 / (4.0 * om * om) \
        * np.pi ** 2 / (3.0 * np.sqrt(5.0)) * grad_norm


def test_gronwall_bound_holds():
    # d/dt log ||theta||^2 between steps stays under 2 gronwall_constant;
    # diffusion only lowers the rate, so the kappa = 0 bound stands
    rng = np.random.default_rng(17)
    for trial in range(3):
        th = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        th[16] = 0.0
        full = ev.FullSliceState(mp=UNIT, theta=th)
        traj = ev.evolve_full_slice(full, 0.05, 3.0)
        rates = np.diff(2.0 * np.log(traj.norm)) / np.diff(traj.t)
        assert np.all(rates <= 2.0 * gronwall_constant(UNIT) + 1e-9)


def test_gronwall_constant_value():
    c = gronwall_constant(UNIT)
    # (mu k2^2 / 4 Omega^2) * (pi^2 / 3 sqrt 5) * ||d3 Theta0||
    expect = 0.25 * (np.pi ** 2 / (3.0 * np.sqrt(5.0))) * (1.0 / np.sqrt(2.0))
    assert c == pytest.approx(expect, rel=1e-12)


def test_measure_growth_rate_exact_exponential():
    t = np.linspace(0.0, 2.0, 60)
    y = 3.0 * np.exp(0.7 * t)
    assert ev.measure_growth_rate(t, y, (0.0, 2.0)) == pytest.approx(
        0.7, rel=1e-12)
    with pytest.raises(ValueError):
        ev.measure_growth_rate(t[:5], y[:5], (0.0, 2.0))


def test_eigenmode_field_structure():
    mode = spectrum.solve_growth_rate(UNIT)
    f = ev.eigenmode_field(mode, 6)
    assert np.linalg.norm(f.coeffs.ravel()) == pytest.approx(1.0, rel=1e-13)
    # support sits at (+-1, +-1, p) only
    nz = np.argwhere(np.abs(f.coeffs) > 0)
    ks = nz - 6
    assert np.all(np.abs(ks[:, 0]) == 1)
    assert np.all(np.abs(ks[:, 1]) == 1)
    assert np.all(ks[:, 2] != 0)
    # hermitian symmetry
    c = f.coeffs
    assert np.allclose(c, np.conj(c[::-1, ::-1, ::-1]), atol=1e-15)


def test_eigenmode_field_stays_in_dealias_band():
    mode = spectrum.solve_growth_rate(UNIT)
    n = 8
    cut = (2 * n + 1) // 3
    f = ev.eigenmode_field(mode, n)
    ks = np.argwhere(np.abs(f.coeffs) > 0) - n
    assert np.abs(ks).max() <= cut
    assert np.linalg.norm(f.coeffs.ravel()) == pytest.approx(1.0, rel=1e-13)
    # a horizontal mode outside the band would only be aliased
    wide = spectrum.solve_growth_rate(ModeParams(k1=30, k2=1))
    with pytest.raises(ValueError):
        ev.eigenmode_field(wide, 32)


def test_steady_fields():
    base = ev.steady_state_field(8, 2.0, 3)
    assert base[(0, 0, 3)] == -1.0j
    assert base[(0, 0, -3)] == 1.0j
    src = ev.steady_source_field(8, 2.0, 3, 0.1)
    assert src[(0, 0, 3)] == pytest.approx(-0.9j)


def _final(steps):
    """The last band state of a nonlinear_steps run."""
    for _, c, _ in steps:
        pass
    return c


def test_nonlinear_rejects_bad_initial():
    c = np.zeros((9, 9, 9), dtype=complex)
    c[4, 4, 4] = 1.0  # nonzero mean
    with pytest.raises(ValueError):
        ev.nonlinear_steps(fields.SpectralField(c), 0.1, None, 0.01, 0.05)
    c2 = np.zeros((9, 9, 9), dtype=complex)
    c2[5, 4, 4] = 1.0
    c2[3, 4, 4] = 1.0  # vertical-mean plane populated
    with pytest.raises(ValueError):
        ev.nonlinear_steps(fields.SpectralField(c2), 0.1, None, 0.01, 0.05)
    c3 = np.zeros((9, 9, 9), dtype=complex)
    c3[5, 4, 5] = 1.0
    c3[3, 4, 3] = 1.0j  # c(-k) != conj(c(k)): not a real field
    with pytest.raises(ValueError, match="real"):
        ev.nonlinear_steps(fields.SpectralField(c3), 0.1, None, 0.01, 0.05)
    # a real mode pair k = +-(8, 0, 1) at n = 8 lies outside the band
    # |k_i| <= 5, where the solver holds no state
    wide = np.zeros((17, 17, 17), dtype=complex)
    wide[16, 8, 9] = wide[0, 8, 7] = 0.5
    with pytest.raises(ValueError, match="band"):
        ev.nonlinear_steps(fields.SpectralField(wide), 0.1, None, 0.01, 0.05)
    # the source is held to the same contract
    base = ev.steady_state_field(8, 1.0, 1)
    with pytest.raises(ValueError, match="source must lie inside"):
        ev.nonlinear_steps(base, 0.1, fields.SpectralField(wide), 0.01, 0.05)
    # a source on a larger cube than theta0 is refused, even when it lies
    # inside its own band: modes at +-(7, 0, 1) fall outside theta0's band
    big = np.zeros((33, 33, 33), dtype=complex)
    big[23, 16, 17] = big[9, 16, 15] = 0.5
    with pytest.raises(ValueError, match="source must share"):
        ev.nonlinear_steps(base, 0.1, fields.SpectralField(big), 0.01, 0.05)


def test_nonlinear_steps_contract():
    base = ev.steady_state_field(8, 1.0, 1)
    # bad input raises at the call, before any step is asked for
    with pytest.raises(ValueError, match="positive"):
        ev.nonlinear_steps(base, 0.1, None, -0.01, 0.05)
    # an inviscid run is refused without its analytic window
    with pytest.raises(ev.AnalyticWindowError, match="analytic window"):
        ev.nonlinear_steps(base, 0.0, None, 0.01, 0.05)
    steps = ev.nonlinear_steps(base, 0.0, None, 0.01, 0.05,
                               window=ev.analytic_window(base, 3.0))
    seen = []
    for t, c, adv in steps:
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0, 0] = 1.0
        assert c.shape == adv.shape == (11, 11, 11)
        seen.append(t)
    assert seen == [0.01 * i for i in range(6)]
    # the yielded state is the band of theta0 padded back by band_field
    first = next(iter(ev.nonlinear_steps(base, 0.1, None, 0.01, 0.05)))[1]
    assert np.array_equal(ev.band_field(first, 8).coeffs, base.coeffs)


def test_nonlinear_steady_state_fixed():
    base = ev.steady_state_field(8, 1.0, 1)
    src = ev.steady_source_field(8, 1.0, 1, 0.1)
    final = ev.band_field(_final(ev.nonlinear_steps(base, 0.1, src, 0.02,
                                                    0.1)), 8)
    drift = np.linalg.norm((final.coeffs - base.coeffs).ravel())
    assert drift <= 1e-15


def _smooth_real_field(n, seed):
    """Seeded real coefficients, e^{-|k|} decay, inside the dealias band,
    zero vertical mean."""
    rng = np.random.default_rng(seed)
    shape = (2 * n + 1,) * 3
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k = np.arange(-n, n + 1)
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
    c *= np.exp(-1.0 * np.sqrt((k1 ** 2 + k2 ** 2 + k3 ** 2).astype(float)))
    c[:, :, n] = 0.0
    cut = (2 * n + 1) // 3
    c *= (np.abs(k1) <= cut) & (np.abs(k2) <= cut) & (np.abs(k3) <= cut)
    return 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))


def _triad_sum(c, phys):
    """Truncated Galerkin product sum over p + q = k of (M(p).iq) c(p) c(q)
    on the band of the centred cube c, with the k3 = 0 plane zeroed: no FFT,
    no grid.  Loops over q and is vectorised over p."""
    n = c.shape[0] // 2
    cut = (2 * n + 1) // 3
    side = 2 * cut + 1
    band = c[n - cut:n + cut + 1, n - cut:n + cut + 1, n - cut:n + cut + 1]
    k = np.arange(-cut, cut + 1)
    m = m_symbol((k[:, None, None], k[None, :, None], k[None, None, :]),
                 phys)
    mc = m * band
    out = np.zeros_like(band)
    for q in np.argwhere(band != 0):
        w = 1j * np.tensordot(q - cut, mc, axes=1) * band[tuple(q)]
        # p + q = k: shift p's index by q's wavenumber, keep k in the band
        dst = tuple(slice(max(0, s), side + min(0, s)) for s in q - cut)
        src = tuple(slice(max(0, -s), side - max(0, s)) for s in q - cut)
        out[dst] += w[src]
    out[:, :, cut] = 0.0
    return out


@pytest.mark.parametrize("n", [4, 6, 8])
def test_advection_matches_triad_sum(n):
    # band-limited real data: the alias-free product is the Galerkin sum;
    # the solver reads the band of the full cube it is given
    phys = PhysicalParams(omega=1.3, beta=0.9)
    c = _smooth_real_field(n, n)
    adv = ev.NonlinearSolver(n, phys=phys).advection(c)
    ref = _triad_sum(c, phys)
    assert np.abs(adv - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
       kappa=st.floats(0.0, 2.0), dt=st.floats(1e-3, 0.1))
def test_rk4_step_properties(n, seed, kappa, dt):
    solver = ev.NonlinearSolver(n, kappa=kappa)
    cut = solver.cut
    c = ev.band(_smooth_real_field(n, seed), cut)
    adv = solver.advection(c)
    # energy: <c, U.grad c> = 0 for the band-limited product
    assert abs(np.vdot(c, adv)) <= 1e-13 * np.linalg.norm(c) \
        * np.linalg.norm(adv)

    def rhs(y):
        return solver.rhs(y)[0]

    y = ev._rk4_step(rhs, c, dt, rhs(c))
    assert np.array_equal(y, np.conj(y[::-1, ::-1, ::-1]))
    assert np.all(y[:, :, cut] == 0.0)


def _advection_allocating(solver, c):
    """(advection, max |U_j|) by the transform path with a fresh array per
    transform and product: the reference for the solver's in-place path."""
    c = ev.band(c, solver.cut)
    m1, m2, m3 = solver.msym

    def to_phys(spec):
        grid = np.zeros(solver._z.shape, dtype=np.complex128)
        np.put(grid, solver._put, spec)
        return scipy.fft.ifftn(grid, norm="forward")

    z = to_phys(c + 1j * (m3 * c))
    theta = z.real
    u = to_phys(m1 * c + 1j * (m2 * c))
    max_u = max(float(np.abs(u.real).max()), float(np.abs(u.imag).max()),
                float(np.abs(z.imag).max()))
    f = scipy.fft.fftn(u * theta, norm="forward").ravel()
    r = scipy.fft.rfftn(z.imag * theta, norm="forward").ravel()
    fp = f[solver._half]
    fm = np.conj(f[solver._mirror])
    half = solver._ik1 * (fp + fm) + solver._k2 * (fp - fm) \
        + solver._ik3 * r[solver._half_r]
    adv = np.zeros_like(solver.source)
    adv[:, :, solver.cut + 1:] = half
    adv[:, :, :solver.cut] = np.conj(half[::-1, ::-1, ::-1])
    return adv, max_u


@pytest.mark.parametrize("n,side", [(8, 16), (16, 35), (12, 25), (27, 55),
                                    (32, 64)])
def test_advection_in_place_matches_allocating_path(n, side):
    solver = ev.NonlinearSolver(n, phys=PhysicalParams(omega=1.3, beta=0.9))
    assert solver._z.shape == (side,) * 3
    c = _smooth_real_field(n, n + 1)
    adv, max_u = _advection_allocating(solver, c)
    assert np.array_equal(solver.advection(c), adv)
    assert solver.max_speed() == max_u > 0.0


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([4, 8, 11, 12, 13, 16]),
       seed=st.integers(0, 2 ** 32 - 1), prune_all=st.booleans())
def test_pruned_advection_matches_full_transforms(n, seed, prune_all):
    # random Hermitian band data, with no decay and no zero plane: the
    # pruned 1-D passes (side >= _PRUNE_SIDE, or every side when prune_all)
    # give the n-d transforms' advection and max |U| bit for bit
    rng = np.random.default_rng(seed)
    shape = (2 * n + 1,) * 3
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = ev.band_limit(0.5 * (c + np.conj(c[::-1, ::-1, ::-1])))
    gate = 0 if prune_all else ev._PRUNE_SIDE
    with mock.patch.object(ev, "_PRUNE_SIDE", gate):
        solver = ev.NonlinearSolver(n, phys=PhysicalParams(omega=0.7,
                                                           beta=1.1))
    assert (solver._bands is not None) == (solver.side >= gate)
    adv, max_u = _advection_allocating(solver, c)
    assert np.array_equal(solver.advection(c), adv)
    assert solver.max_speed() == max_u


def _count_fft_calls(monkeypatch):
    """Count every scipy.fft entry point call, by name, from here on."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "rfftn", "irfftn"):
        def counted(*args, _fn=getattr(scipy.fft, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


def test_transform_calls_below_and_above_the_gate(monkeypatch):
    # below the gate each advection makes its four 3-D transforms as four
    # n-d calls; above it, as 25 pruned 1-D passes: 7 per inverse, 7 for
    # the complex forward and 4 for the real one
    small, large = ev.NonlinearSolver(4), ev.NonlinearSolver(12)
    assert small.side < ev._PRUNE_SIDE <= large.side
    calls = _count_fft_calls(monkeypatch)
    for _ in range(2):
        small.advection(_smooth_real_field(4, 1))
    assert calls == ["ifftn", "ifftn", "fftn", "rfftn"] * 2
    del calls[:]
    large.advection(_smooth_real_field(12, 1))
    assert calls == ["ifft"] * 14 + ["fft"] * 7 + ["rfft"] + ["fft"] * 3
    assert small.counts == {"rhs": 0, "transforms": 8}
    assert large.counts == {"rhs": 0, "transforms": 4}


def test_solver_grids_keep_nothing_between_calls():
    n = 8
    used = ev.NonlinearSolver(n, kappa=0.3)
    fresh = ev.NonlinearSolver(n, kappa=0.3)
    a, b = (ev.band(_smooth_real_field(n, seed), used.cut)
            for seed in (21, 22))
    used.rhs(a)
    out, adv = used.rhs(b)
    out_fresh, adv_fresh = fresh.rhs(b)
    assert np.array_equal(adv, adv_fresh)
    assert np.array_equal(out, out_fresh)
    assert used.max_speed() == fresh.max_speed()


def test_warm_rhs_allocates_no_grid():
    # n = 32: each complex 64^3 grid is 4 MiB; the transforms run in place
    # on the solver's grids, and only the real transform's 2.1 MiB half
    # spectrum and band-sized arrays are new per call
    solver = ev.NonlinearSolver(32, kappa=0.1)
    c = ev.band(_smooth_real_field(32, 5), solver.cut)
    solver.rhs(c)
    tracemalloc.start()
    try:
        solver.rhs(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_cfl_warning_fires_once_on_the_coarse_order_run():
    # the dt = 0.1 run of nonlinear-energy's RK4 order case, default seed
    smooth = experiments._random_smooth_field(12, 1.0, 8, scale=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _final(ev.nonlinear_steps(smooth, 0.02, None, 0.1, 0.4))
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "CFL heuristic exceeded: max|U| dt N = 2.31 > 0.5")]


def test_nonlinear_final_independent_of_workers():
    c = _smooth_real_field(16, 3)
    c *= 0.3 / np.linalg.norm(c.ravel())
    final = [_final(ev.nonlinear_steps(fields.SpectralField(c), 0.1, None,
                                       0.01, 0.05, workers=w))
             for w in (1, 2)]
    assert np.array_equal(final[0], final[1])


def test_nonlinear_energy_identity_small():
    c = _smooth_real_field(8, 2)
    c *= 0.3 / np.linalg.norm(c.ravel())
    steps = ev.nonlinear_steps(fields.SpectralField(c), 0.2, None, 0.01, 0.1)
    residual, l2 = zip(*((ev.energy_residual(c, adv, 0.2), np.linalg.norm(c))
                         for _, c, adv in steps))
    assert max(residual) <= 1e-10
    assert np.all(np.diff(l2) < 0.0)


def test_nonlinear_analytic_window_guard():
    # inviscid runs refuse horizons beyond the guaranteed analytic window
    base = ev.steady_state_field(8, 1.0, 1)
    window = ev.analytic_window(base, 3.0)
    with pytest.raises(ev.AnalyticWindowError, match="analytic window"):
        ev.nonlinear_steps(base, 0.0, None, 0.01, 1e6, window=window)
    assert issubclass(ev.AnalyticWindowError, ValueError)
    # the window of theta0's band; a radius under the floor 0.02 is refused
    rough = experiments._synthetic_decay_field(16, 0.01, 3.0, 5e-4, seed=11)
    with pytest.raises(ev.AnalyticWindowError, match="below the floor"):
        ev.analytic_window(rough, 3.0)


def test_nonlinear_tracks_perturbation_and_magnetic():
    n = 8
    base = ev.steady_state_field(n, 1.0, 1)
    mode = spectrum.solve_growth_rate(UNIT)
    psi = ev.eigenmode_field(mode, n)
    init = fields.SpectralField(base.coeffs + 1e-4 * psi.coeffs)
    # the perturbation and its induced field, as nonlinear-energy reads them
    ref = ev.band(base.coeffs, ev.dealias_cut(n))
    b_sym = b_symbol_grids(ev.dealias_cut(n), PhysicalParams())
    pert, mag = [], []
    for _, c, _ in ev.nonlinear_steps(
            init, 0.05, ev.steady_source_field(n, 1.0, 1, 0.05), 0.01, 0.1):
        pert.append(np.linalg.norm(c - ref))
        mag.append(np.sqrt(np.sum(np.abs(b_sym * (c - ref)) ** 2)))
    assert pert[0] == pytest.approx(1e-4, rel=1e-10)
    assert len(mag) == 11 and min(mag) > 0.0


def test_divergence_error():
    # explicit diffusion with a huge dt blows up immediately
    n = 8
    c = np.zeros((17, 17, 17), dtype=complex)
    c[9, 8, 9] = 0.5
    c[7, 8, 7] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ev.DivergenceError):
            _final(ev.nonlinear_steps(fields.SpectralField(c), 50.0, None,
                                      1.0, 40.0))


def test_rk4_step_is_the_textbook_formula():
    a = np.array([[-0.3, 1.2, 0.0], [-0.7, 0.1, 0.4], [0.2, -0.5, -0.9]])

    def rhs(y):
        return a @ y

    y = np.array([1.0, -2.0, 0.5])
    dt = 0.1
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    textbook = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(ev._rk4_step(rhs, y, dt, k1), textbook)
