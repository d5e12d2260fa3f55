"""End-to-end acceptance checks, one per numbered claim.

Each test prints a single pass/fail line (bypassing capture) and asserts
the stated tolerance.  Budgets are wall-clock seconds on one desk-scale
core; each check also asserts its own runtime stays inside the budget.
Criteria 02-06 and 08-10 run the shipped experiment on its default
config; 08 and 09 share one nonlinear-energy run and hold its wall time
to each of their budgets.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from mg_spectra.params import ModeParams, PhysicalParams
from mg_spectra import evolution as ev
from mg_spectra import experiments, fields, spectrum, symbols
from symbols_exact import divergence_exact

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


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
                        assert divergence_exact((e1, e2, e3), om, mu) == 0
    elapsed = time.monotonic() - start
    ok = worst_div <= 1e-13 and worst_t <= 1e-13 and elapsed < 5.0
    _report(capsys, 1, ok, "symbol identities",
            "max rel divergence %.2e, max rel contraction %.2e, %.1fs"
            % (worst_div, worst_t, elapsed))
    assert ok


def test_criterion_02_bracket_containment(capsys, tmp_path):
    start = time.monotonic()
    lo, hi = spectrum.analytic_bracket(UNIT)
    assert lo == pytest.approx(0.028163, abs=1e-5)
    assert hi == pytest.approx(0.030261, abs=1e-5)
    rows = _run("sigma-table", tmp_path)[0].rows
    inside = len(rows) == 81 and all(row["inside"] for row in rows)
    worst_res = max(row["residual"] / row["alpha1"] for row in rows)
    elapsed = time.monotonic() - start
    ok = inside and worst_res <= 1e-12 and elapsed < 2.0
    _report(capsys, 2, ok, "bracket containment",
            "81 combos inside, worst residual/alpha1 %.2e, %.1fs"
            % (worst_res, elapsed))
    assert ok


def test_criterion_03_oracle_equivalence(capsys, tmp_path):
    start = time.monotonic()
    rows = _run("oracle-xcheck", tmp_path)[0].rows
    roots = [row for row in rows if row["root"]]
    absent = [row["lambda_matrix"] for row in rows if not row["root"]]
    worst = max(row["rel_diff"] for row in roots)
    worst_absent = max(absent, default=-np.inf)
    n_roots, n_absent = len(roots), len(absent)
    elapsed = time.monotonic() - start
    ok = (n_roots + n_absent == 162 and worst <= 1e-8
          and worst_absent <= 1e-10 and elapsed < 30.0)
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


def test_criterion_05_illposedness_scaling(capsys, tmp_path):
    start = time.monotonic()
    rows = _run("illposed-scaling", tmp_path)[0].rows
    assert [row["j"] for row in rows] == [1, 4, 9, 16, 25, 36, 49, 64]
    sigmas = [row["sigma"] for row in rows]
    ok_bound = all(row["sigma"] > row["j"] / 258.0 for row in rows)
    increasing = all(b > a for a, b in zip(sigmas, sigmas[1:]))
    elapsed = time.monotonic() - start
    ok = ok_bound and increasing and elapsed < 5.0
    _report(capsys, 5, ok, "ill-posedness scaling",
            "sigma(64) = %.3f > 64/258 = %.3f, strictly increasing %s, %.1fs"
            % (sigmas[-1], 64 / 258.0, increasing, elapsed))
    assert ok


def test_criterion_06_dynamo_scaling(capsys, tmp_path):
    start = time.monotonic()
    rows = _run("dynamo-scaling", tmp_path)[0].rows
    assert [row["kappa"] for row in rows] == [1e-2, 3e-3, 1e-3]
    ok = True
    details = []
    for row in rows:
        kap, sigma = row["kappa"], row["sigma_max"]
        ok &= sigma >= 16.0 / (1024.0 * kap)
        ok &= 0.5 <= row["k1_argmax"] / row["k1_predicted"] <= 2.0
        ok &= 0.5 <= row["k2_argmax"] / row["k2_predicted"] <= 2.0
        # b = M[theta] grows at the theta rate, which is the root's
        ok &= abs(row["rate_theta"] - sigma) <= 2e-2 * sigma
        ok &= abs(row["rate_magnetic"] - row["rate_theta"]) \
            <= 2e-2 * row["rate_theta"]
        details.append("%g:(%d,%d)s=%.2f" % (kap, row["k1_argmax"],
                                             row["k2_argmax"], sigma))
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
    t = np.linspace(0.0, 1.0, 41)
    tau = fields.radius_ode_refined(t, np.zeros(41), 0.7, 2.0, c_r=1.0)
    gap = float(np.max(np.abs(tau - 0.7 * np.exp(-4.0 * t))))
    elapsed = time.monotonic() - start
    ok = worst <= 5e-2 and gap <= 1e-12 and elapsed < 5.0
    _report(capsys, 7, ok, "Gevrey radius estimation",
            "worst fit rel %.2e, ODE closed-form gap %.2e, %.1fs"
            % (worst, gap, elapsed))
    assert ok


@pytest.fixture(scope="module")
def nonlinear_energy(tmp_path_factory):
    """One nonlinear-energy run serves criteria 08 and 09 and the pinned
    output: (result, wall time, output directory)."""
    out_dir = tmp_path_factory.mktemp("nonlinear")
    return _run("nonlinear-energy", out_dir) + (out_dir,)


# sha256 of the nonlinear family's default outputs at 17 digits: every
# case of nonlinear-energy and lipschitz-blowup, and the tracked
# gevrey-breakdown run with its refined radius; no norm goes through BLAS,
# so they hold at any BLAS thread count
NONLINEAR_SHA256 = {
    "gevrey-breakdown/results.csv":
        "b2af7378fa2e6e3a0951ec75922267e6d784febfa03134b11d387e9a59867b5f",
    "gevrey-breakdown/tracker.csv":
        "9f70f933598e681a47772831a78c8f14b89ce45663aafaefe6977c7927581923",
    "lipschitz-blowup/results.csv":
        "f31b3604e379b55d931873f031ee0f5f882fa2d9cbdfc0fe5abed27221c9b8d5",
    "nonlinear-energy/results.csv":
        "70c64332c8bd130f17b5eff108aa32ea82b84cab7dc9b6e8655d2197fe9cd7aa",
}


def test_criterion_08_nonlinear_invariants(capsys, nonlinear_energy):
    result, elapsed, _ = nonlinear_energy
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
    result, elapsed, _ = nonlinear_energy
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


def test_nonlinear_energy_results_frozen(nonlinear_energy):
    out_dir = nonlinear_energy[2]
    assert _sha256(out_dir / "results.csv") \
        == NONLINEAR_SHA256["nonlinear-energy/results.csv"]


def test_gevrey_breakdown_outputs_frozen(tmp_path):
    assert experiments.run_experiment("gevrey-breakdown", None,
                                      str(tmp_path)).passed
    for name in ("results.csv", "tracker.csv"):
        assert _sha256(tmp_path / name) \
            == NONLINEAR_SHA256["gevrey-breakdown/" + name]


@pytest.fixture(scope="module")
def lipschitz_blowup(tmp_path_factory):
    """One default lipschitz-blowup run serves criterion 10 and the slice
    counters: (result, wall time, output directory)."""
    out_dir = tmp_path_factory.mktemp("lipschitz")
    start = time.monotonic()
    result = _run("lipschitz-blowup", out_dir)[0]
    return result, time.monotonic() - start, out_dir


def test_criterion_10_lipschitz_blowup(capsys, lipschitz_blowup):
    result, elapsed, out_dir = lipschitz_blowup
    table = result.rows
    ratios = [row["ratio_nonlinear"] for row in table]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    worst = max(row["gap_vs_closed"] for row in table)
    ok = increasing and worst <= 5e-2 and elapsed < 300.0
    _report(capsys, 10, ok, "Lipschitz blowup",
            "ratios %s increasing %s, worst gap %.2e, %.1fs"
            % (["%.3f" % r for r in ratios], increasing, worst, elapsed))
    assert ok
    assert _sha256(out_dir / "results.csv") \
        == NONLINEAR_SHA256["lipschitz-blowup/results.csv"]


def test_illposed_slice_counters_match_traced_rhs_calls(tmp_path,
                                                        lipschitz_blowup):
    # the benchmark's illposed round runs slice-growth and lipschitz-blowup
    # on their default configs (at every seed); a traced round counts
    # 32,348 full_slice_rhs calls, which the counters give from the steps
    _run("slice-growth", tmp_path)
    total = 0
    for out_dir in (tmp_path, lipschitz_blowup[2]):
        with open(out_dir / "summary.json") as fh:
            total += sum(r["rhs"] for r in json.load(fh)["counters"]["slice"])
    assert total == 32348


def test_criterion_11_uniqueness_gronwall(capsys):
    start = time.monotonic()
    zero = ev.FullSliceState(mp=UNIT, theta=np.zeros(33, dtype=complex))
    traj0 = ev.evolve_full_slice(zero, 0.05, 2.0)
    zero_max = float(max(np.max(traj0.norm), np.max(traj0.magnetic_norm)))
    # d/dt log ||theta||^2 <= 2 (mu k2^2 / (4 Omega^2)) (pi^2 / (3 sqrt 5))
    # ||d3 Theta0||, with ||d3 Theta0|| = m a / sqrt 2 in coefficient l2
    phys = UNIT.phys
    bound = 2.0 * phys.mu * UNIT.k2 ** 2 / (4.0 * phys.omega ** 2) \
        * math.pi ** 2 / (3.0 * math.sqrt(5.0)) \
        * UNIT.m * UNIT.a / math.sqrt(2.0)
    rng = np.random.default_rng(23)
    worst_excess = -np.inf
    for trial in range(10):
        th = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        th[16] = 0.0
        st = ev.FullSliceState(mp=UNIT, theta=th)
        traj = ev.evolve_full_slice(st, 0.05, 3.0)
        rates = np.diff(2.0 * np.log(traj.norm)) / np.diff(traj.t)
        excess = float(np.max(rates) - bound)
        worst_excess = max(worst_excess, excess)
    elapsed = time.monotonic() - start
    ok = zero_max <= 1e-14 and worst_excess <= 0.0 and elapsed < 30.0
    _report(capsys, 11, ok, "uniqueness Gronwall bound",
            "zero-data max %.1e, worst log-deriv excess %.2e, %.1fs"
            % (zero_max, worst_excess, elapsed))
    assert ok
