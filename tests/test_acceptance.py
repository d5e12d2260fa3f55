"""End-to-end acceptance checks, one per numbered claim.

Each test prints a single pass/fail line (bypassing capture) and asserts
the stated tolerance.  Budgets are wall-clock seconds on one desk-scale
core; each check also asserts its own runtime stays inside the budget.
Criteria 04 and 08-10 run the shipped experiment on its default config;
08 and 09 share one nonlinear-energy run and hold its wall time to each
of their budgets.
"""

import json
import time

import numpy as np
import pytest

from mg_spectra.params import ModeParams, PhysicalParams
from mg_spectra import evolution as ev
from mg_spectra import experiments, fields, spectrum, symbols

UNIT = ModeParams()


def _report(capsys, num, ok, name, detail):
    with capsys.disabled():
        print("criterion %02d %s  %s (%s)"
              % (num, "PASS" if ok else "FAIL", name, detail))


def _run(name, out_dir):
    """The shipped experiment on its default config: (result, wall time)."""
    result = experiments.run_experiment(name, None, str(out_dir))
    with open(out_dir / "summary.json") as fh:
        return result, json.load(fh)["wall_time_s"]


def _rows(result, key):
    return {row[key]: row for row in result.rows}


def _measured(result):
    return {check["name"]: check["measured"] for check in result.checks}


def test_criterion_01_symbol_identities(capsys):
    start = time.monotonic()
    n = 16
    k = np.arange(-n, n + 1)
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
    knorm = np.sqrt((k1 ** 2 + k2 ** 2 + k3 ** 2).astype(float))
    off = k3 != 0
    worst_div = 0.0
    worst_t = 0.0
    for om in (1.0, 2.0):
        for mu in (1.0, 2.0):
            phys = PhysicalParams.from_mu(omega=om, mu=mu)
            m1, m2, m3 = symbols.m_symbol_grids(n, phys)
            div = k1 * m1 + k2 * m2 + k3 * m3
            mag = np.sqrt(m1 ** 2 + m2 ** 2 + m3 ** 2)
            denom = np.where(mag > 0, knorm * mag, 1.0)
            worst_div = max(worst_div,
                            float(np.max(np.abs(div[off]) / denom[off])))
            # double contraction of the divergence-form matrix, full cube
            T = symbols.t_symbol((k1, k2, k3), phys)
            kvec = np.array([k1, k2, k3], dtype=float)
            ktk = np.abs(np.einsum("i...,ij...,j...->...", kvec, T, kvec))
            tnorm = np.sqrt((np.abs(T) ** 2).sum(axis=(0, 1)))
            keep = off & (tnorm > 0.0)
            ksq = (kvec * kvec).sum(axis=0)
            worst_t = max(worst_t, float(np.max(
                ktk[keep] / (ksq[keep] * tnorm[keep]))))
            # exact rational mode on a smaller cube
            for e1 in range(-3, 4):
                for e2 in range(-3, 4):
                    for e3 in (-3, -1, 1, 3):
                        assert symbols.divergence_exact((e1, e2, e3), om,
                                                        mu) == 0
    elapsed = time.monotonic() - start
    ok = worst_div <= 1e-13 and worst_t <= 1e-13 and elapsed < 5.0
    _report(capsys, 1, ok, "symbol identities",
            "max rel divergence %.2e, max rel contraction %.2e, %.1fs"
            % (worst_div, worst_t, elapsed))
    assert ok


def test_criterion_02_bracket_containment(capsys):
    start = time.monotonic()
    lo, hi = spectrum.analytic_bracket(UNIT)
    assert lo == pytest.approx(0.028163, abs=1e-5)
    assert hi == pytest.approx(0.030261, abs=1e-5)
    worst_res = 0.0
    inside = True
    for a in (1, 2, 4):
        for m in (1, 2, 4):
            for kk1 in (1, 2, 4):
                for kk2 in (1, 2, 4):
                    mp = ModeParams(a=float(a), m=m, k1=kk1, k2=kk2)
                    mode = spectrum.solve_growth_rate(mp)
                    inside &= mode.bracket_lo < mode.sigma < mode.bracket_hi
                    worst_res = max(worst_res,
                                    mode.residual / spectrum.alpha(1, mp))
    elapsed = time.monotonic() - start
    ok = inside and worst_res <= 1e-12 and elapsed < 2.0
    _report(capsys, 2, ok, "bracket containment",
            "81 combos inside, worst residual/alpha1 %.2e, %.1fs"
            % (worst_res, elapsed))
    assert ok


def test_criterion_03_oracle_equivalence(capsys):
    start = time.monotonic()
    worst = 0.0
    worst_absent = -np.inf
    n_roots = n_absent = 0
    for a in (1, 2, 4):
        for m in (1, 2, 4):
            for kk1 in (1, 2, 4):
                for kk2 in (1, 2, 4):
                    mp = ModeParams(a=float(a), m=m, k1=kk1, k2=kk2)
                    for kap in (0.0, 1e-3):
                        if kap == 0.0:
                            mode = spectrum.solve_growth_rate(mp, P=128)
                        else:
                            mode = spectrum.solve_growth_rate_diffusive(
                                mp, kap, P=128)
                        lam = spectrum.truncated_matrix_eigenvalue(
                            mp, kappa=kap, P=128)
                        if mode is None:
                            n_absent += 1
                            worst_absent = max(worst_absent, lam)
                        else:
                            n_roots += 1
                            worst = max(worst,
                                        abs(mode.sigma - lam) / mode.sigma)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and worst_absent <= 1e-10 and elapsed < 30.0
    _report(capsys, 3, ok, "oracle equivalence",
            "%d roots max rel %.2e, %d rootless max eig %.2e, %.1fs"
            % (n_roots, worst, n_absent, worst_absent, elapsed))
    assert ok


def test_criterion_04_eigen_growth(capsys, tmp_path):
    start = time.monotonic()
    rows = _rows(_run("slice-growth", tmp_path)[0], "case")
    rel_eigen = rows["eigenvector"]["rel_err"]
    rel_generic = rows["generic"]["rel_err"]
    elapsed = time.monotonic() - start
    ok = rel_eigen <= 1e-3 and rel_generic <= 1e-2 and elapsed < 10.0
    _report(capsys, 4, ok, "eigen-growth reproduction",
            "eigenvector rel %.2e, generic rel %.2e, %.1fs"
            % (rel_eigen, rel_generic, elapsed))
    assert ok


def test_criterion_05_illposedness_scaling(capsys):
    start = time.monotonic()
    sigmas = []
    ok_bound = True
    for j in (1, 4, 9, 16, 25, 36, 49, 64):
        mp = ModeParams(a=1.0, m=1, k1=j, k2=int(round(j ** 0.5)))
        mode = spectrum.solve_growth_rate(mp)
        sigmas.append(mode.sigma)
        ok_bound &= mode.sigma > j / 258.0
    increasing = all(b > a for a, b in zip(sigmas, sigmas[1:]))
    elapsed = time.monotonic() - start
    ok = ok_bound and increasing and elapsed < 5.0
    _report(capsys, 5, ok, "ill-posedness scaling",
            "sigma(64) = %.3f > 64/258 = %.3f, strictly increasing %s, %.1fs"
            % (sigmas[-1], 64 / 258.0, increasing, elapsed))
    assert ok


def test_criterion_06_dynamo_scaling(capsys):
    start = time.monotonic()
    phys = PhysicalParams()
    ok = True
    details = []
    for kap in (1e-2, 3e-3, 1e-3):
        k1p, k2p = spectrum.predicted_optimal_mode(kap, 4.0, 1, phys)
        box1 = int(np.ceil(4.0 * k1p))
        box2 = int(np.ceil(4.0 * k2p))
        res = spectrum.optimal_diffusive_mode(kap, 4.0, 1, phys, box1, box2)
        ok &= res.mode.sigma >= 16.0 / (1024.0 * kap)
        ok &= 0.5 <= res.k1 / k1p <= 2.0
        ok &= 0.5 <= res.k2 / k2p <= 2.0
        details.append("%g:(%d,%d)s=%.2f" % (kap, res.k1, res.k2,
                                             res.mode.sigma))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _report(capsys, 6, ok, "dynamo scaling",
            "%s, %.1fs" % (" ".join(details), elapsed))
    assert ok


def test_criterion_07_gevrey_radius(capsys):
    start = time.monotonic()
    worst = 0.0
    n = 64
    k = np.arange(-n, n + 1)
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
    kn = np.sqrt((k1 ** 2 + k2 ** 2 + k3 ** 2).astype(float))
    for tau in (0.1, 0.5, 2.0):
        with np.errstate(divide="ignore"):
            c = np.exp(-tau * kn) * np.where(kn > 0, kn, 1.0) ** -4.0
        c[n, n, n] = 0.0
        est = fields.radius_estimate(fields.SpectralField(c.astype(complex)))
        worst = max(worst, abs(est.radius - tau) / tau)
    tr = fields.GevreyTracker(tau0=0.7, k0=2.0, c_r=1.0, max_gap=0.05)
    for t in np.linspace(0.0, 1.0, 41):
        tr.append(float(t), 0.0)
    ref = fields.radius_ode_refined(tr)
    gap = float(np.max(np.abs(ref.tau - 0.7 * np.exp(-4.0 * ref.t))))
    elapsed = time.monotonic() - start
    ok = worst <= 5e-2 and gap <= 1e-12 and elapsed < 5.0
    _report(capsys, 7, ok, "Gevrey radius estimation",
            "worst fit rel %.2e, ODE closed-form gap %.2e, %.1fs"
            % (worst, gap, elapsed))
    assert ok


@pytest.fixture(scope="module")
def nonlinear_energy(tmp_path_factory):
    """One nonlinear-energy run serves criteria 08 and 09."""
    return _run("nonlinear-energy", tmp_path_factory.mktemp("nonlinear"))


def test_criterion_08_nonlinear_invariants(capsys, nonlinear_energy):
    result, elapsed = nonlinear_energy
    rows = _rows(result, "case")
    energy = rows["energy_identity"]["measured"]
    drift = rows["steady_state_drift"]["measured"]
    r1 = rows["rk4_ratio_coarse"]["measured"]
    r2 = rows["rk4_ratio_fine"]["measured"]
    order_ok = 12.8 <= r1 <= 19.2 and 12.8 <= r2 <= 19.2
    ok = (energy <= 1e-8 and drift <= 1e-10 and order_ok
          and elapsed < 120.0)
    _report(capsys, 8, ok, "nonlinear solver invariants",
            "energy %.2e, steady drift %.2e, RK4 ratios %.1f/%.1f, %.1fs"
            % (energy, drift, r1, r2, elapsed))
    assert ok


def test_criterion_09_linearization_consistency(capsys, nonlinear_energy):
    result, elapsed = nonlinear_energy
    measured = _measured(result)
    rel_t = measured["linearized_rate"]
    rel_b = measured["magnetic_rate"]
    ceiling = measured["perturbation_stays_linear"]
    ok = (rel_t <= 2e-2 and rel_b <= 2e-2 and ceiling < 1e-3
          and elapsed < 180.0)
    _report(capsys, 9, ok, "linearization consistency",
            "theta rate rel %.2e, magnetic rel %.2e, pert max %.2e, %.1fs"
            % (rel_t, rel_b, ceiling, elapsed))
    assert ok


def test_criterion_10_lipschitz_blowup(capsys, tmp_path):
    start = time.monotonic()
    table = _run("lipschitz-blowup", tmp_path)[0].rows
    ratios = [row["ratio_nonlinear"] for row in table]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    worst = max(row["gap_vs_closed"] for row in table)
    elapsed = time.monotonic() - start
    ok = increasing and worst <= 5e-2 and elapsed < 300.0
    _report(capsys, 10, ok, "Lipschitz blowup",
            "ratios %s increasing %s, worst gap %.2e, %.1fs"
            % (["%.3f" % r for r in ratios], increasing, worst, elapsed))
    assert ok


def test_criterion_11_uniqueness_gronwall(capsys):
    start = time.monotonic()
    steady = ev.sine_steady_coeffs(UNIT.a, UNIT.m)
    zero = ev.FullSliceState(mp=UNIT, theta=np.zeros(33, dtype=complex))
    traj0 = ev.evolve_full_slice(zero, steady, 0.05, 2.0)
    zero_max = float(np.max(traj0.norm))
    rng = np.random.default_rng(23)
    worst_excess = -np.inf
    for trial in range(10):
        th = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        th[16] = 0.0
        st = ev.FullSliceState(mp=UNIT, theta=th)
        traj = ev.evolve_full_slice(st, steady, 0.05, 3.0)
        excess = float(np.max(traj.log_derivative()) - traj.rate_bound)
        worst_excess = max(worst_excess, excess)
    elapsed = time.monotonic() - start
    ok = zero_max <= 1e-14 and worst_excess <= 0.0 and elapsed < 30.0
    _report(capsys, 11, ok, "uniqueness Gronwall bound",
            "zero-data max %.1e, worst log-deriv excess %.2e, %.1fs"
            % (zero_max, worst_excess, elapsed))
    assert ok
