import warnings

import numpy as np
import pytest

from mg_spectra.params import ModeParams, PhysicalParams
from mg_spectra import evolution as ev
from mg_spectra import fields, spectrum

UNIT = ModeParams()
SIGMA_UNIT = 0.028619204092995829


def test_slice_rhs_hand_check():
    # P = 8, only c_1 nonzero: dc_2/dt = -c_1/alpha_1, others untouched
    st = ev.SliceState(mp=UNIT, c=np.array([1.0] + [0.0] * 7))
    rhs = ev.slice_rhs(st)
    assert rhs[0] == 0.0
    assert rhs[1] == pytest.approx(-1.0 / 13.0)
    assert np.all(rhs[2:] == 0.0)
    # diffusion adds -kappa (K + m^2 p^2) on the diagonal
    st2 = ev.SliceState(mp=UNIT, c=np.array([1.0] + [0.0] * 7), kappa=0.5)
    rhs2 = ev.slice_rhs(st2)
    assert rhs2[0] == pytest.approx(-0.5 * 3.0)


def test_evolve_slice_eigen_rate():
    mode = spectrum.solve_growth_rate(UNIT)
    st = ev.SliceState(mp=UNIT, c=mode.c_tilde.copy())
    traj = ev.evolve_slice(st, 0.05, 40.0)
    fit = ev.measure_growth_rate(traj.t, traj.norm, (0.0, 40.0))
    assert fit.rate == pytest.approx(SIGMA_UNIT, rel=1e-10)


def test_evolve_slice_dt_margin():
    st = ev.SliceState(mp=UNIT, c=np.ones(16))
    with pytest.raises(ValueError):
        ev.evolve_slice(st, 5.0, 10.0)


def test_evolve_slice_decay_with_strong_diffusion():
    # kappa large enough that no unstable root survives (kappa K > sigma*)
    st = ev.SliceState(mp=UNIT, c=np.ones(16), kappa=0.05)
    traj = ev.evolve_slice(st, 0.005, 0.5)
    assert traj.norm[-1] < traj.norm[0]


def test_embed_extract_roundtrip():
    st = ev.SliceState(mp=UNIT, c=np.arange(1.0, 9.0))
    full = ev.embed_restricted(st)
    back = ev.extract_restricted(full, 8)
    assert np.allclose(back, st.c, atol=1e-15)
    # hermitian profile for a real restricted state
    th = full.theta
    assert np.allclose(th, np.conj(th[::-1]), atol=1e-15)


def test_full_slice_matches_restricted():
    mode = spectrum.solve_growth_rate(UNIT)
    keep = 24
    st = ev.SliceState(mp=UNIT, c=mode.c_tilde[:keep].copy())
    full = ev.embed_restricted(st)
    steady = ev.sine_steady_coeffs(UNIT.a, UNIT.m)
    dt, t_end = 0.05, 5.0
    traj_r = ev.evolve_slice(st, dt, t_end)
    traj_f = ev.evolve_full_slice(full, steady, dt, t_end)
    # both trajectories track the same coefficients; norms differ by the
    # embedding factor sqrt(2)/2
    ratio = traj_f.norm / traj_r.norm
    assert np.allclose(ratio, ratio[0], rtol=1e-12)
    assert ratio[0] == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_sine_steady_coeffs():
    co = ev.sine_steady_coeffs(2.0, 3)
    assert co == {3: -1.0j, -3: 1.0j}


def test_gronwall_bound_holds():
    steady = ev.sine_steady_coeffs(UNIT.a, UNIT.m)
    rng = np.random.default_rng(17)
    for trial in range(3):
        th = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        th[16] = 0.0
        full = ev.FullSliceState(mp=UNIT, theta=th)
        traj = ev.evolve_full_slice(full, steady, 0.05, 3.0)
        rates = traj.log_derivative()
        assert np.all(rates <= traj.rate_bound + 1e-9)


def test_gronwall_constant_value():
    steady = ev.sine_steady_coeffs(1.0, 1)
    c = ev.gronwall_constant(UNIT, steady)
    # (mu k2^2 / 4 Omega^2) * (pi^2 / 3 sqrt 5) * ||d3 Theta0||
    expect = 0.25 * (np.pi ** 2 / (3.0 * np.sqrt(5.0))) * (1.0 / np.sqrt(2.0))
    assert c == pytest.approx(expect, rel=1e-12)


def test_measure_growth_rate_exact_exponential():
    t = np.linspace(0.0, 2.0, 60)
    y = 3.0 * np.exp(0.7 * t)
    fit = ev.measure_growth_rate(t, y, (0.0, 2.0))
    assert fit.rate == pytest.approx(0.7, rel=1e-12)
    assert fit.residual_rms <= 1e-12
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


def test_nonlinear_rejects_bad_initial():
    c = np.zeros((9, 9, 9), dtype=complex)
    c[4, 4, 4] = 1.0  # nonzero mean
    with pytest.raises(ValueError):
        ev.evolve_nonlinear(fields.SpectralField(c), 0.1, None, 0.01, 0.05,
                            settings=ev.NonlinearSettings(track_tau=False))
    c2 = np.zeros((9, 9, 9), dtype=complex)
    c2[5, 4, 4] = 1.0
    c2[3, 4, 4] = 1.0  # vertical-mean plane populated
    with pytest.raises(ValueError):
        ev.evolve_nonlinear(fields.SpectralField(c2), 0.1, None, 0.01, 0.05,
                            settings=ev.NonlinearSettings(track_tau=False))
    c3 = np.zeros((9, 9, 9), dtype=complex)
    c3[5, 4, 5] = 1.0
    c3[3, 4, 3] = 1.0j  # c(-k) != conj(c(k)): not a real field
    with pytest.raises(ValueError, match="real"):
        ev.evolve_nonlinear(fields.SpectralField(c3), 0.1, None, 0.01, 0.05,
                            settings=ev.NonlinearSettings(track_tau=False))


def test_nonlinear_steady_state_fixed():
    base = ev.steady_state_field(8, 1.0, 1)
    src = ev.steady_source_field(8, 1.0, 1, 0.1)
    traj = ev.evolve_nonlinear(base, 0.1, src, 0.02, 0.1,
                               settings=ev.NonlinearSettings(track_tau=False))
    drift = np.linalg.norm((traj.final.coeffs - base.coeffs).ravel())
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


def test_nonlinear_energy_identity_small():
    c = _smooth_real_field(8, 2)
    c *= 0.3 / np.linalg.norm(c.ravel())
    traj = ev.evolve_nonlinear(fields.SpectralField(c), 0.2, None, 0.01, 0.1,
                               settings=ev.NonlinearSettings(track_tau=False))
    assert np.max(traj.energy_residual) <= 1e-10
    assert np.all(np.diff(traj.l2) < 0.0)


def test_nonlinear_analytic_window_guard():
    # inviscid runs refuse horizons beyond the guaranteed analytic window
    base = ev.steady_state_field(8, 1.0, 1)
    with pytest.raises(ValueError):
        ev.evolve_nonlinear(base, 0.0, None, 0.01, 1e6)


def test_resolution_rule():
    assert ev._resolution_for(1, 1) == 8
    assert ev._resolution_for(4, 1) == 9
    assert ev._resolution_for(9, 1) == 16
    assert ev._resolution_for(16, 1) == 27


def test_nonlinear_tracks_perturbation_and_magnetic():
    n = 8
    base = ev.steady_state_field(n, 1.0, 1)
    mode = spectrum.solve_growth_rate(UNIT)
    psi = ev.eigenmode_field(mode, n)
    init = fields.SpectralField(base.coeffs + 1e-4 * psi.coeffs)
    settings = ev.NonlinearSettings(track_tau=False, reference=base,
                                    track_magnetic=True)
    traj = ev.evolve_nonlinear(init, 0.05, ev.steady_source_field(n, 1.0, 1, 0.05),
                               0.01, 0.1, settings=settings)
    assert traj.pert_l2[0] == pytest.approx(1e-4, rel=1e-10)
    assert np.all(traj.magnetic_l2 > 0.0)


def test_divergence_error():
    # explicit diffusion with a huge dt blows up immediately
    n = 8
    c = np.zeros((17, 17, 17), dtype=complex)
    c[9, 8, 9] = 0.5
    c[7, 8, 7] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ev.DivergenceError):
            ev.evolve_nonlinear(fields.SpectralField(c), 50.0, None, 1.0,
                                40.0,
                                settings=ev.NonlinearSettings(
                                    track_tau=False))


def test_integrating_factor_rk4_order_and_agreement():
    c = _smooth_real_field(8, 2)
    theta = fields.SpectralField(c / np.linalg.norm(c.ravel()))

    def terminal(theta, dt, integrating_factor):
        settings = ev.NonlinearSettings(
            track_tau=False, integrating_factor=integrating_factor)
        return ev.evolve_nonlinear(theta, 0.5, None, dt, 0.4,
                                   settings=settings).final.coeffs

    # one real mode pair k = +-(1, 2, 1): k.M(k) = 0 removes the advection,
    # so the factor alone gives the exact decay exp(-kappa |k|^2 t)
    pair = np.zeros_like(c)
    pair[9, 10, 9] = pair[7, 6, 7] = 0.5
    # kappa |k|^2 dt reaches 9.6 at dt = 0.1: explicit RK4 would diverge
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = terminal(theta, 0.00625, True)
        err = [np.linalg.norm((terminal(theta, dt, True) - ref).ravel())
               for dt in (0.1, 0.05, 0.025)]
        decayed = terminal(fields.SpectralField(pair), 0.1, True)
    for ratio in (err[0] / err[1], err[1] / err[2]):
        assert 12.8 <= ratio <= 19.2
    explicit = terminal(theta, 0.00625, False)
    gap = np.linalg.norm((explicit - ref).ravel())
    assert gap <= 1e-8 * np.linalg.norm(explicit.ravel())
    exact = pair * np.exp(-0.5 * 6.0 * 0.4)
    assert np.linalg.norm((decayed - exact).ravel()) \
        <= 1e-14 * np.linalg.norm(exact.ravel())


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
    # integrating factor: RK4 on exp(D t) y with D = diag(d) taken out of
    # the right-hand side (Lawson's scheme), written out stage by stage
    d = np.array([0.5, 2.0, 4.0])
    e = np.exp(-d * 0.5 * dt)
    k2 = rhs(e * (y + 0.5 * dt * k1))
    k3 = rhs(e * y + 0.5 * dt * k2)
    k4 = rhs(e * e * y + dt * e * k3)
    lawson = e * e * y + dt / 6.0 * (e * e * k1 + 2.0 * e * (k2 + k3) + k4)
    assert np.allclose(ev._rk4_step(rhs, y, dt, k1, e), lawson,
                       rtol=1e-15, atol=0.0)
