"""Named desk-scale experiments with JSON config in, CSV/JSON results out.

Each experiment reproduces one family of claims: growth-rate brackets,
oracle agreement, measured slice growth, unbounded eigenvalue scaling,
diffusive sweeps and the 1/kappa dynamo rate, analyticity-radius tracking
with the breakdown criterion, the Lipschitz-blowup ratio table, and the
nonlinear solver invariants.

Every experiment writes results.csv (deterministic bytes for a fixed
config) and summary.json (pass/fail per check, measured values,
tolerances, wall time, and the work counters a runner keeps) into its
output directory, and exits nonzero when any check fails.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import platform
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from . import evolution, fields, spectrum, symbols
from .params import ModeParams, PhysicalParams

EXPERIMENT_NAMES = (
    "sigma-table", "oracle-xcheck", "slice-growth", "illposed-scaling",
    "diffusive-sweep", "dynamo-scaling", "gevrey-breakdown",
    "lipschitz-blowup", "nonlinear-energy",
)


class ExperimentError(ValueError):
    """A config the experiment cannot serve: a schema violation, or a value
    the run finds out of reach; the message names the field or value."""


# ---------------------------------------------------------------------------
# config validation

_SCHEMAS = {
    "sigma-table": {
        "params": {"values": [1, 2, 4], "omega": 1.0, "mu": 1.0},
        "tolerances": {"residual_scale": 1e-12},
    },
    "oracle-xcheck": {
        "params": {"values": [1, 2, 4], "kappas": [0.0, 1e-3], "P": 128,
                   "omega": 1.0, "mu": 1.0},
        "tolerances": {"rel_diff": 1e-8, "absent_eig": 1e-10},
        "minimums": {"params.P": 8},
    },
    "slice-growth": {
        "params": {"a": 1.0, "m": 1, "k1": 1, "k2": 1, "omega": 1.0,
                   "mu": 1.0, "P": 128, "dt": 0.05},
        "tolerances": {"eigen_rel": 1e-3, "generic_rel": 1e-2},
        "minimums": {"params.P": 8},
    },
    "illposed-scaling": {
        "params": {"j_list": [1, 4, 9, 16, 25, 36, 49, 64], "a": 1.0, "m": 1,
                   "omega": 1.0, "mu": 1.0},
        "tolerances": {},
    },
    "diffusive-sweep": {
        "params": {"kappa": 1e-3, "a": 1.0, "m": 1, "k1_max": 64,
                   "k2_max": 20, "omega": 1.0, "mu": 1.0},
        "tolerances": {"argmax_rel": 1e-9},
    },
    "dynamo-scaling": {
        "params": {"kappas": [1e-2, 3e-3, 1e-3], "a": 4.0, "m": 1,
                   "omega": 1.0, "mu": 1.0, "slice_P": 48},
        "tolerances": {"argmax_factor": 2.0, "rate_rel": 2e-2},
        "minimums": {"params.slice_P": 8},
    },
    "gevrey-breakdown": {
        "params": {"n": 16, "n_fit": 64, "tau_field": 0.5, "decay_power": 3,
                   "amplitude": 5e-4, "dt": 0.01, "t_end": 2.0, "seed": 11,
                   "c_r_list": [0.5, 1.0, 2.0], "r": 3.0},
        "tolerances": {"fit_rel": 5e-2, "closed_form": 1e-12,
                       "ode_residual": 1e-6},
    },
    "lipschitz-blowup": {
        "params": {"j_list": [1, 4, 9, 16], "eps": 1e-6, "t_probe": 2.0,
                   "a": 1.0, "m": 1, "dt": 0.02, "omega": 1.0, "mu": 1.0},
        "tolerances": {"nonlinear_rel": 5e-2, "linear_rel": 5e-3},
    },
    "nonlinear-energy": {
        "params": {"n": 32, "kappa_energy": 0.1, "kappa_lin": 1e-2,
                   "a_lin": 4.0, "m_lin": 1, "k1_lin": 12, "k2_lin": 7,
                   "eps_lin": 1e-6, "steps_lin": 150, "dt_lin": 0.01,
                   "seed": 7},
        "tolerances": {"energy_residual": 1e-8, "steady_drift": 1e-10,
                       "rk4_low": 12.8, "rk4_high": 19.2, "rate_rel": 2e-2,
                       "pert_ceiling": 1e-3},
        "minimums": {"params.steps_lin": 9},
    },
}


def _number(path: str, default, value, may_be_zero: bool):
    """A config number as the type of its schema default, int or float.

    JSON true and false are not numbers, an integer field takes only
    integral values, and a float field only finite ones.  The number must
    be positive, or non-negative where may_be_zero.
    """
    integral = isinstance(default, int)
    try:
        ok = not isinstance(value, bool) and math.isfinite(value) \
            and (not integral or float(value).is_integer())
    except (TypeError, OverflowError):  # not a number, or beyond a float
        ok = False
    if not ok:
        raise ExperimentError("%s: expected %s" % (
            path, "an integer" if integral else "a finite number"))
    value = int(value) if integral else float(value)
    if value < 0 or (value == 0 and not may_be_zero):
        raise ExperimentError("%s: expected a %s number" % (
            path, "non-negative" if may_be_zero else "positive"))
    return value


def _square_root(path: str, j: int) -> int:
    """k2 = sqrt(j) of a j_list entry, the mode k1 = j, k2 = sqrt(j)."""
    k2 = math.isqrt(j)
    if k2 * k2 != j:
        raise ExperimentError("%s: %d is not a perfect square" % (path, j))
    return k2


def validate_config(name: str, config: dict):
    """Merge a raw config dict over the experiment defaults.

    Unknown fields, wrong types, numbers out of range and j_list entries
    that are not perfect squares or repeat an earlier one are rejected
    with the field path in the message, down to the list entry
    (params.j_list[0]).  Every number must be positive, except the seeds
    and the oracle-xcheck kappas, which may be zero.  A field listed in
    the schema's minimums must reach it: the slice truncations P and
    slice_P >= 8, and steps_lin >= 9 (a rate fit takes 10 samples).
    """
    if name not in _SCHEMAS:
        raise ExperimentError("unknown experiment %r" % name)
    if not isinstance(config, dict):
        raise ExperimentError("config root: expected an object")
    schema = _SCHEMAS[name]
    declared = config.get("experiment")
    if declared is not None and declared != name:
        raise ExperimentError(
            "experiment: config declares %r, requested %r" % (declared, name))
    for key in config:
        if key not in ("experiment", "params", "tolerances", "out"):
            raise ExperimentError("%s: unknown field" % key)
    out = {}
    for section in ("params", "tolerances"):
        merged = dict(schema[section])
        overrides = config.get(section, {})
        if not isinstance(overrides, dict):
            raise ExperimentError("%s: expected an object" % section)
        for key, value in overrides.items():
            if key not in merged:
                raise ExperimentError("%s.%s: unknown field" % (section, key))
            path = "%s.%s" % (section, key)
            default = merged[key]
            may_be_zero = key == "seed" or (name, key) == ("oracle-xcheck",
                                                           "kappas")
            if isinstance(default, list):
                if not isinstance(value, list) or not value:
                    raise ExperimentError("%s: expected a non-empty list"
                                          % path)
                value = [_number("%s[%d]" % (path, i), default[0], v,
                                 may_be_zero) for i, v in enumerate(value)]
                if key == "j_list":
                    for i, j in enumerate(value):
                        _square_root("%s[%d]" % (path, i), j)
                        first = value.index(j)
                        if first < i:
                            raise ExperimentError("%s[%d]: %d repeats %s[%d]"
                                                  % (path, i, j, path, first))
            else:
                value = _number(path, default, value, may_be_zero)
                floor = schema.get("minimums", {}).get(path)
                if floor is not None and value < floor:
                    raise ExperimentError("%s: expected at least %d, got %d"
                                          % (path, floor, value))
            merged[key] = value
        out[section] = merged
    return out["params"], out["tolerances"]


# ---------------------------------------------------------------------------
# shared plumbing


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError("not JSON serializable: %r" % type(obj))


def _check(name, passed, measured, tolerance) -> dict:
    return {"name": name, "passed": bool(passed), "measured": measured,
            "tolerance": tolerance}


@dataclass
class ExperimentResult:
    columns: list
    rows: list
    checks: list
    counters: dict = None
    solver: dict = None

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _mode(a, m, k1, k2, omega, mu) -> ModeParams:
    return ModeParams(a=float(a), m=int(m), k1=int(k1), k2=int(k2),
                      phys=PhysicalParams.from_mu(omega=float(omega),
                                                  mu=float(mu)))


def _hermitianize(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))


def _random_smooth_field(n: int, decay: float, seed: int,
                         scale: float = 1.0) -> fields.SpectralField:
    """Seeded random real field, band-limited, zero vertical mean."""
    rng = np.random.default_rng(seed)
    shape = (2 * n + 1,) * 3
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= np.exp(-decay * fields.wavenumber_norms(n))
    c[:, :, n] = 0.0
    c = _hermitianize(evolution.band_limit(c))
    nrm = fields.l2_norm(c)
    return fields.SpectralField(c * (scale / nrm))


def _synthetic_decay_field(n: int, tau: float, q: float, amplitude: float,
                           seed: int = None) -> fields.SpectralField:
    """|c(k)| = amplitude e^{-tau |k|} |k|^{-q} exactly, phases seeded or 0."""
    shape = (2 * n + 1,) * 3
    mag = np.empty(shape, dtype=complex if seed is None else float)
    for plane, kn in zip(mag, fields._slab_norms(n)):
        plane[...] = (amplitude * np.exp(-tau * kn)
                      * np.where(kn > 0, kn, 1.0) ** (-q))
    mag[n, n, n] = 0.0
    if seed is None:
        mag.flags.writeable = False  # read-only: SpectralField keeps it
        return fields.SpectralField(mag)
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.random(shape))
    c = _hermitianize(mag * phase)
    # keep the prescribed magnitudes exactly; hermitianize only phases
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(np.abs(c) > 0, c / np.abs(c), 1.0)
    c = mag * unit
    c[:, :, n] = 0.0
    return fields.SpectralField(_hermitianize(c))


def _final_field(steps, n: int) -> fields.SpectralField:
    """The last state of a nonlinear_steps run, on the cube |k_i| <= n."""
    for _, c, _ in steps:
        pass
    return evolution.band_field(c, n)


# ---------------------------------------------------------------------------
# runners


def _root_counters(kappa, solved):
    """One solve_growth_rates batch: its modes, and those with a root."""
    return {"kappa": kappa, "modes": len(solved),
            "roots": sum(mode is not None for mode in solved)}


def _run_sigma_table(params, tols, out_dir, threads):
    omega, mu = params["omega"], params["mu"]
    combos = sorted(itertools.product(params["values"], repeat=4))
    mps = [_mode(*combo, omega, mu) for combo in combos]
    solved = spectrum.solve_growth_rates(mps)
    rows = []
    for (a, m, k1, k2), mp, mode in zip(combos, mps, solved):
        a1 = spectrum.alpha(1, mp)
        rows.append({
            "a": a, "m": m, "k1": k1, "k2": k2,
            "alpha1": a1, "alpha2": spectrum.alpha(2, mp),
            "bracket_lo": mode.bracket_lo, "sigma": mode.sigma,
            "bracket_hi": mode.bracket_hi, "residual": mode.residual,
            "inside": mode.bracket_lo < mode.sigma < mode.bracket_hi,
            "residual_ok": mode.residual <= tols["residual_scale"] * a1})
    checks = [
        _check("all_inside_bracket", all(r["inside"] for r in rows),
               sum(r["inside"] for r in rows), len(rows)),
        _check("residual_below_scale", all(r["residual_ok"] for r in rows),
               max(r["residual"] / r["alpha1"] for r in rows),
               tols["residual_scale"]),
    ]
    columns = ["a", "m", "k1", "k2", "alpha1", "alpha2", "bracket_lo",
               "sigma", "bracket_hi", "residual", "inside", "residual_ok"]
    return ExperimentResult(columns, rows, checks,
                            counters={"roots": [_root_counters(0.0, solved)]})


def _run_oracle_xcheck(params, tols, out_dir, threads):
    omega, mu = params["omega"], params["mu"]
    big_p = params["P"]
    kappas = params["kappas"]
    combos = sorted(itertools.product(params["values"], repeat=4))
    mps = [_mode(*combo, omega, mu) for combo in combos]
    solved = [spectrum.solve_growth_rates(mps, kap, P=big_p)
              for kap in kappas]
    lams = [spectrum.truncated_matrix_eigenvalue(mp, kappa=kap, P=big_p)
            for mp in mps for kap in kappas]
    rows = []
    for i, (a, m, k1, k2) in enumerate(combos):
        for j, kap in enumerate(kappas):
            mode, lam = solved[j][i], lams[i * len(kappas) + j]
            row = {"a": a, "m": m, "k1": k1, "k2": k2, "kappa": kap}
            if mode is None:
                row.update(root=False, sigma_cf=float("nan"),
                           lambda_matrix=lam, rel_diff=float("nan"),
                           ok=lam <= tols["absent_eig"])
            else:
                rel = abs(mode.sigma - lam) / mode.sigma
                row.update(root=True, sigma_cf=mode.sigma, lambda_matrix=lam,
                           rel_diff=rel, ok=rel <= tols["rel_diff"])
            rows.append(row)
    with_root = [r for r in rows if r["root"]]
    without = [r for r in rows if not r["root"]]
    checks = [
        _check("cf_matches_matrix", all(r["ok"] for r in with_root),
               max((r["rel_diff"] for r in with_root), default=0.0),
               tols["rel_diff"]),
        _check("no_root_means_stable", all(r["ok"] for r in without),
               max((r["lambda_matrix"] for r in without), default=0.0),
               tols["absent_eig"]),
    ]
    columns = ["a", "m", "k1", "k2", "kappa", "root", "sigma_cf",
               "lambda_matrix", "rel_diff", "ok"]
    return ExperimentResult(columns, rows, checks, counters={
        "roots": [_root_counters(kap, s) for kap, s in zip(kappas, solved)]},
        solver={"lapack": "d" + spectrum._ORACLE_DRIVER, "P": big_p,
                "depth": spectrum._DEPTH})


def _run_slice_growth(params, tols, out_dir, threads):
    mp = _mode(params["a"], params["m"], params["k1"], params["k2"],
               params["omega"], params["mu"])
    big_p = params["P"]
    mode = spectrum.solve_growth_rate(mp, P=big_p)
    sigma = mode.sigma
    dt, slices = params["dt"], []

    traj_e = evolution.evolve_full_slice(
        evolution.embed_restricted(mp, mode.c_tilde), dt, 3.0 / sigma, slices)
    rate_e = evolution.measure_growth_rate(traj_e.t, traj_e.norm,
                                           (0.0, 3.0 / sigma))
    rel_e = abs(rate_e - sigma) / sigma

    traj_g = evolution.evolve_full_slice(
        evolution.embed_restricted(mp, np.ones(big_p)), dt, 8.0 / sigma,
        slices)
    rate_g = evolution.measure_growth_rate(traj_g.t, traj_g.norm,
                                           (5.0 / sigma, 8.0 / sigma))
    rel_g = abs(rate_g - sigma) / sigma

    rows = [
        {"case": "eigenvector", "sigma": sigma, "fitted": rate_e,
         "rel_err": rel_e, "tolerance": tols["eigen_rel"],
         "ok": rel_e <= tols["eigen_rel"]},
        {"case": "generic", "sigma": sigma, "fitted": rate_g,
         "rel_err": rel_g, "tolerance": tols["generic_rel"],
         "ok": rel_g <= tols["generic_rel"]},
    ]
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ["case", "t", "norm"],
               [{"case": case, "t": t, "norm": nv} for case, traj in
                (("eigenvector", traj_e), ("generic", traj_g))
                for t, nv in zip(traj.t, traj.norm)])
    checks = [
        _check("eigenvector_rate", rows[0]["ok"], rel_e, tols["eigen_rel"]),
        _check("generic_rate", rows[1]["ok"], rel_g, tols["generic_rel"]),
    ]
    columns = ["case", "sigma", "fitted", "rel_err", "tolerance", "ok"]
    return ExperimentResult(columns, rows, checks, counters={"slice": slices})


def _run_illposed_scaling(params, tols, out_dir, threads):
    omega, mu = params["omega"], params["mu"]
    a, m = params["a"], params["m"]
    phys = PhysicalParams.from_mu(omega=omega, mu=mu)
    const = spectrum.growth_bound_constant(a, m, phys)
    js = sorted(params["j_list"])
    k2s = [_square_root("params.j_list", j) for j in js]
    solved = spectrum.solve_growth_rates(
        [_mode(a, m, j, k2, omega, mu) for j, k2 in zip(js, k2s)])
    rows = [{"j": j, "k1": j, "k2": k2, "sigma": mode.sigma,
             "bound": j * const, "ratio": mode.sigma / (j * const),
             "above_bound": mode.sigma > j * const}
            for j, k2, mode in zip(js, k2s, solved)]
    sigmas = [r["sigma"] for r in rows]
    increasing = all(b > a_ for a_, b in zip(sigmas, sigmas[1:]))
    checks = [
        _check("sigma_above_j_bound", all(r["above_bound"] for r in rows),
               min(r["ratio"] for r in rows), 1.0),
        _check("sigma_strictly_increasing", increasing,
               min((b - a_ for a_, b in zip(sigmas, sigmas[1:])),
                   default=0.0), 0.0),
    ]
    columns = ["j", "k1", "k2", "sigma", "bound", "ratio", "above_bound"]
    return ExperimentResult(columns, rows, checks,
                            counters={"roots": [_root_counters(0.0, solved)]})


def _argmax_mode(sweep, kappa, a, m, phys):
    """The fastest-growing mode of a sweep_growth_rates box, re-solved by
    the scalar solver: (the box's sigma there, the UnstableMode)."""
    k1g, k2g, sigma = sweep
    if np.all(np.isnan(sigma)):
        raise ExperimentError(
            "kappa = %g: no unstable mode in the box [1, %d] x [1, %d]"
            % ((kappa,) + k1g.shape))
    idx = np.nanargmax(sigma)
    mp = ModeParams(a=a, m=m, k1=int(k1g.flat[idx]), k2=int(k2g.flat[idx]),
                    phys=phys)
    return float(sigma.flat[idx]), \
        spectrum.solve_growth_rate_diffusive(mp, kappa)


def _run_diffusive_sweep(params, tols, out_dir, threads):
    omega, mu = params["omega"], params["mu"]
    phys = PhysicalParams.from_mu(omega=omega, mu=mu)
    kappa, a, m = params["kappa"], params["a"], params["m"]
    boxes = []
    sweep = spectrum.sweep_growth_rates(kappa, a, m, phys, params["k1_max"],
                                        params["k2_max"], counters=boxes)
    grid_sigma, mode = _argmax_mode(sweep, kappa, a, m, phys)
    k1g, k2g, sigma = sweep
    rows = []
    bound_violations = 0
    worst_margin = float("inf")
    for i in range(k1g.shape[0]):
        for j in range(k1g.shape[1]):
            k1v, k2v = int(k1g[i, j]), int(k2g[i, j])
            mp = _mode(a, m, k1v, k2v, omega, mu)
            lb = spectrum.diffusive_lower_bound(mp, kappa)
            sv = float(sigma[i, j])
            if lb > 0:
                if not (np.isfinite(sv) and sv > lb):
                    bound_violations += 1
                else:
                    worst_margin = min(worst_margin, sv - lb)
            rows.append({"k1": k1v, "k2": k2v, "sigma": sv,
                         "lower_bound": lb})
    rel = abs(mode.sigma - grid_sigma) / mode.sigma
    checks = [
        _check("argmax_matches_scalar_solver", rel <= tols["argmax_rel"],
               rel, tols["argmax_rel"]),
        _check("lower_bound_respected", bound_violations == 0,
               bound_violations, 0),
    ]
    columns = ["k1", "k2", "sigma", "lower_bound"]
    return ExperimentResult(columns, rows, checks, counters={
        "sweep": [dict(kappa=kappa, **boxes[0])]})


def _slice_rate_pair(mode, slice_p, counters):
    """theta and magnetic growth rates from the linear slice evolution."""
    keep = min(slice_p, mode.c_tilde.size)
    full = evolution.embed_restricted(mode.params, mode.c_tilde[:keep],
                                      mode.kappa)
    t_end = 3.0 / mode.sigma
    dt = min(t_end / 60.0, evolution.full_slice_max_dt(full))
    traj = evolution.evolve_full_slice(full, dt, t_end, counters)
    window = (t_end / 3.0, t_end)
    return tuple(evolution.measure_growth_rate(traj.t, norm, window)
                 for norm in (traj.norm, traj.magnetic_norm))


def _run_dynamo_scaling(params, tols, out_dir, threads):
    omega, mu = params["omega"], params["mu"]
    phys = PhysicalParams.from_mu(omega=omega, mu=mu)
    a, m = params["a"], params["m"]

    rows, sweeps, slices = [], [], []
    for kappa in sorted(params["kappas"], reverse=True):
        k1p, k2p = spectrum.predicted_optimal_mode(kappa, a, m, phys)
        box1 = int(math.ceil(4.0 * k1p))
        box2 = int(math.ceil(4.0 * k2p))
        boxes = []
        sweep = spectrum.sweep_growth_rates(kappa, a, m, phys, box1, box2,
                                            largest_only=True, counters=boxes)
        sweeps.append(dict(kappa=kappa, **boxes[0]))
        _, mode = _argmax_mode(sweep, kappa, a, m, phys)
        bound = spectrum.dynamo_bound(kappa, a, phys)
        rate_t, rate_b = _slice_rate_pair(mode, params["slice_P"], slices)
        rows.append({"kappa": kappa, "k1_max": box1, "k2_max": box2,
                     "k1_argmax": mode.params.k1, "k2_argmax": mode.params.k2,
                     "k1_predicted": k1p, "k2_predicted": k2p,
                     "sigma_max": mode.sigma, "sigma_bound": bound,
                     "sigma_times_kappa": mode.sigma * kappa,
                     "rate_theta": rate_t, "rate_magnetic": rate_b,
                     "bound_met": mode.sigma >= bound})
    factor = tols["argmax_factor"]
    argmax_ok = all(
        1.0 / factor <= r["k1_argmax"] / r["k1_predicted"] <= factor
        and 1.0 / factor <= r["k2_argmax"] / r["k2_predicted"] <= factor
        for r in rows)
    rate_ok = all(
        abs(r["rate_theta"] - r["sigma_max"]) <= tols["rate_rel"]
        * r["sigma_max"]
        and abs(r["rate_magnetic"] - r["rate_theta"]) <= tols["rate_rel"]
        * r["rate_theta"] for r in rows)
    checks = [
        _check("sigma_above_inverse_kappa_bound",
               all(r["bound_met"] for r in rows),
               min(r["sigma_max"] / r["sigma_bound"] for r in rows), 1.0),
        _check("argmax_near_prediction", argmax_ok, factor, factor),
        _check("magnetic_tracks_theta", rate_ok,
               max(abs(r["rate_magnetic"] - r["rate_theta"])
                   / r["rate_theta"] for r in rows), tols["rate_rel"]),
    ]
    columns = ["kappa", "k1_max", "k2_max", "k1_argmax", "k2_argmax",
               "k1_predicted", "k2_predicted", "sigma_max", "sigma_bound",
               "sigma_times_kappa", "rate_theta", "rate_magnetic",
               "bound_met"]
    return ExperimentResult(columns, rows, checks,
                            counters={"sweep": sweeps, "slice": slices})


def _run_gevrey_breakdown(params, tols, out_dir, threads):
    rows, checks = [], []

    n_steps = int(round(params["t_end"] / params["dt"]))
    if n_steps < 1:
        raise ExperimentError(
            "params.t_end: %g is less than half a step dt = %g; the radius "
            "ODE needs two samples" % (params["t_end"], params["dt"]))

    # synthetic radius fits at the larger resolution
    worst_fit = 0.0
    for tau in (0.1, 0.5, 2.0):
        est = fields.radius_estimate(  # no name keeps a fit field alive
            _synthetic_decay_field(params["n_fit"], tau, 4.0, 1.0))
        rel = abs(est.radius - tau) / tau
        worst_fit = max(worst_fit, rel)
        rows.append({"series": "radius_fit", "x": tau, "value": est.radius,
                     "extra": rel})
    checks.append(_check("radius_fit_within_tolerance",
                         worst_fit <= tols["fit_rel"], worst_fit,
                         tols["fit_rel"]))

    # refined ODE against the closed exponential form for a constant-free run
    probe_t = np.linspace(0.0, 1.0, 41)
    refined = fields.radius_ode_refined(probe_t, np.zeros(41), 0.7, 2.0)
    closed = 0.7 * np.exp(-2.0 * 2.0 * probe_t)
    gap = float(np.max(np.abs(refined - closed)))
    checks.append(_check("refined_matches_closed_form",
                         gap <= tols["closed_form"], gap,
                         tols["closed_form"]))

    # spike series must fail the continuation criterion
    spike = np.where(probe_t < 0.5, 0.0, 50.0)
    checks.append(_check("spike_fails_criterion",
                         not fields.breakdown_criterion(probe_t, spike, 0.1,
                                                        1.0), False, False))

    # tracked nonlinear run, on the band the solver holds, inside the
    # analytic window of its initial data
    n = params["n"]
    theta0 = _synthetic_decay_field(n, params["tau_field"],
                                    float(params["decay_power"]),
                                    params["amplitude"],
                                    seed=params["seed"])
    theta0 = fields.SpectralField(evolution.band_limit(theta0.coeffs))
    try:
        tau0, k0 = evolution.analytic_window(theta0, params["r"])
    except fields.InsufficientShellsError as exc:
        raise ExperimentError(
            "params.n, params.tau_field: the dealias band of n = %d holds "
            "too few shells of the initial data to estimate its analyticity "
            "radius (%s)" % (n, exc))
    except evolution.AnalyticWindowError as exc:
        raise ExperimentError("params.tau_field: %s" % exc)
    except fields.GevreyOverflowError as exc:
        raise ExperimentError("params.r: %s" % exc)
    # the refined ODE residual is absolute: rounding tau to its ulp leaves
    # about 2^-52 tau0 (1/dt + 2 K0) in it, which the check cannot resolve
    floor = 2.0 ** -52 * tau0 * (1.0 / params["dt"] + 2.0 * k0)
    if floor > tols["ode_residual"]:
        raise ExperimentError(
            "params.dt, params.r: the refined ODE residual has a rounding "
            "floor 2^-52 tau0 (1/dt + 2 K0) = %.3g above its tolerance %g "
            "(dt = %g, K0 = %.3g at r = %g)"
            % (floor, tols["ode_residual"], params["dt"], k0, params["r"]))
    runs = []
    try:
        steps = evolution.nonlinear_steps(theta0, 0.0, None, params["dt"],
                                          params["t_end"], window=(tau0, k0),
                                          counters=runs)
    except evolution.AnalyticWindowError as exc:
        raise ExperimentError("params.t_end: %s" % exc)
    # the Gevrey norm stays under K0 while tau follows the linear decay;
    # checked at every stride-th step inside the window
    tau_lin, t_star = fields.radius_ode_linear(
        tau0, k0, 1.0, np.arange(n_steps + 1) * params["dt"])
    stride = max(1, n_steps // 4)
    worst_ratio = 0.0
    t, a = [], []
    for i, (t_now, c, _) in enumerate(steps):
        t.append(t_now)
        a.append(fields.sobolev_a(fields.SpectralField(c)))
        if i % stride == 0 and t_now < t_star:
            try:
                val = fields.gevrey_norm(evolution.band_field(c, n),
                                         tau_lin[i], params["r"])
            except fields.GevreyOverflowError as exc:
                raise ExperimentError("params.r: %s" % exc)
            worst_ratio = max(worst_ratio, val / k0)

    t, a = np.array(t), np.array(a)
    tau = fields.radius_ode_refined(t, a, tau0, k0)
    acc = fields.accumulated(t, a)
    for t_i, acc_i, tau_i in zip(t, acc, tau):
        rows.append({"series": "run", "x": t_i, "value": tau_i,
                     "extra": acc_i})
    tracker_columns = ["t", "a", "A", "tau"]
    _write_csv(os.path.join(out_dir, "tracker.csv"), tracker_columns,
               [dict(zip(tracker_columns, row))
                for row in zip(t, a, acc, tau)])

    # refined tau must satisfy its own ODE (c_r = 1) on the sample grid
    mid_t = 0.5 * (t[1:] + t[:-1])
    tau_dot = np.diff(tau) / np.diff(t)
    a_mid = np.interp(mid_t, t, a)
    acc_mid = np.interp(mid_t, t, acc)
    tau_mid = np.interp(mid_t, t, tau)
    ode_res = float(np.max(np.abs(
        tau_dot + 3.0 * a_mid + 2.0 * k0 * tau_mid * np.exp(-acc_mid))))
    checks.append(_check("refined_ode_residual",
                         ode_res <= tols["ode_residual"], ode_res,
                         tols["ode_residual"]))
    checks.append(_check("norm_bounded_inside_window",
                         worst_ratio <= 1.0 + 1e-6, worst_ratio, 1.0))

    # continuation criterion for the tame run across the C_r list, plus the
    # sign-convention comparison with positivity of the refined radius
    agree = True
    for c_r in params["c_r_list"]:
        holds = fields.breakdown_criterion(t, a, tau0, k0, c_r)
        positive = bool(fields.radius_ode_refined(t, a, tau0, k0, c_r)[-1] > 0)
        rows.append({"series": "criterion_c_r", "x": c_r,
                     "value": float(holds), "extra": float(positive)})
        if holds != positive:
            agree = False
    checks.append(_check("tame_run_continues",
                         all(r["value"] == 1.0 for r in rows
                             if r["series"] == "criterion_c_r"), 1.0, 1.0))
    rows.append({"series": "criterion_vs_refined_sign_agreement", "x": 0.0,
                 "value": float(agree), "extra": 0.0})

    columns = ["series", "x", "value", "extra"]
    return ExperimentResult(columns, rows, checks,
                            counters={"nonlinear": runs})


def _resolution_for(j: int, m: int) -> int:
    # dealias band must keep the linear coupling modes (j, sqrt j, p +- m)
    return max((3 * (j + 2 * m)) // 2, 8)


def _run_lipschitz_blowup(params, tols, out_dir, threads):
    """Growth ratios ||Theta(t_probe) - Theta0|| / eps over j = k1 = k2^2.

    Each j gets a non-diffusive nonlinear run from Theta0 + eps times the
    unit eigenmode, a linear slice surrogate run, and the closed form
    exp(sigma* t_probe).  The nonlinear run is held inside the analytic
    window of the perturbation data (tau0 = 1/|k_base|, K0 its Gevrey
    norm); a j whose window cannot reach t_probe is refused rather than
    run outside the regime.
    """
    phys = PhysicalParams.from_mu(omega=params["omega"], mu=params["mu"])
    a, m, eps, dt = params["a"], params["m"], params["eps"], params["dt"]
    t_probe = params["t_probe"]
    rows, runs, slices = [], [], []
    for j in sorted(params["j_list"]):
        mp = ModeParams(a=a, m=m, k1=j, k2=_square_root("params.j_list", j),
                        phys=phys)
        mode = spectrum.solve_growth_rate(mp)
        n = _resolution_for(j, m)
        psi = evolution.eigenmode_field(mode, n)
        tau0 = 1.0 / math.sqrt(j * j + j + m * m)
        window = (tau0, eps * fields.gevrey_norm(psi, tau0, 3.0))
        base = evolution.steady_state_field(n, a, m)
        try:
            steps = evolution.nonlinear_steps(
                fields.SpectralField(base.coeffs + eps * psi.coeffs), 0.0,
                None, dt, t_probe, phys=phys, window=window, workers=threads,
                counters=runs)
        except evolution.AnalyticWindowError as exc:
            raise ExperimentError("params.t_probe: j = %d: %s" % (j, exc))
        final = _final_field(steps, n)
        ratio_nl = fields.l2_norm(final.coeffs - base.coeffs) / eps

        p_keep = max(8, min(mode.truncation_P, n // m))
        lin = evolution.evolve_full_slice(
            evolution.embed_restricted(mp, mode.c_tilde[:p_keep]), dt,
            t_probe, slices)
        closed = math.exp(mode.sigma * t_probe)
        rows.append({"j": j, "sigma": mode.sigma, "ratio_nonlinear": ratio_nl,
                     "ratio_linear_run": float(lin.norm[-1] / lin.norm[0]),
                     "ratio_closed_form": closed,
                     "gap_vs_closed": abs(ratio_nl - closed) / closed})
    ratios = [r["ratio_nonlinear"] for r in rows]
    increasing = all(b > a_ for a_, b in zip(ratios, ratios[1:]))
    worst_gap = max(r["gap_vs_closed"] for r in rows)
    worst_lin = max(abs(r["ratio_linear_run"] - r["ratio_closed_form"])
                    / r["ratio_closed_form"] for r in rows)
    checks = [
        _check("ratios_strictly_increasing", increasing,
               min((b - a_ for a_, b in zip(ratios, ratios[1:])),
                   default=0.0), 0.0),
        _check("nonlinear_near_linear_surrogate",
               worst_gap <= tols["nonlinear_rel"], worst_gap,
               tols["nonlinear_rel"]),
        _check("linear_run_near_closed_form",
               worst_lin <= tols["linear_rel"], worst_lin,
               tols["linear_rel"]),
    ]
    columns = ["j", "sigma", "ratio_nonlinear", "ratio_linear_run",
               "ratio_closed_form", "gap_vs_closed"]
    return ExperimentResult(columns, rows, checks,
                            counters={"nonlinear": runs, "slice": slices})


def _run_nonlinear_energy(params, tols, out_dir, threads):
    n = params["n"]
    rows, checks, runs = [], [], []

    def case(name, measured, tol, check=None):
        """A row of measured against its tolerance, and its check."""
        ok = measured <= tol
        rows.append({"case": name, "measured": measured, "target": tol,
                     "ok": ok})
        checks.append(_check(check or name, ok, measured, tol))

    # the linearized case needs an unstable mode inside the dealias band;
    # find out before any run starts
    a_l, m_l = params["a_lin"], params["m_lin"]
    kap_l = params["kappa_lin"]
    mp = _mode(a_l, m_l, params["k1_lin"], params["k2_lin"], 1.0, 1.0)
    mode = spectrum.solve_growth_rate_diffusive(mp, kap_l)
    if mode is None:
        raise ExperimentError(
            "params.k1_lin, params.k2_lin: the mode (%d, %d) is stable at "
            "kappa_lin = %g (a_lin = %g, m_lin = %d)"
            % (mp.k1, mp.k2, kap_l, a_l, m_l))
    cut = evolution.dealias_cut(n)
    if max(mp.k1, mp.k2, mp.m) > cut:
        raise ExperimentError(
            "params.n: the dealias band |k_i| <= %d of n = %d does not hold "
            "the mode (k1, k2, m) = (%d, %d, %d)"
            % (cut, n, mp.k1, mp.k2, mp.m))

    # energy identity with kappa > 0 and no source
    theta0 = _random_smooth_field(n, 0.6, params["seed"], scale=0.5)
    kap_e = params["kappa_energy"]
    worst_energy = max(
        evolution.energy_residual(c, adv, kap_e) for _, c, adv in
        evolution.nonlinear_steps(theta0, kap_e, None, 0.01, 0.2,
                                  workers=threads, counters=runs))
    case("energy_identity", worst_energy, tols["energy_residual"])

    # balanced source holds the steady state fixed
    a_s, m_s, kap_s = 1.0, 1, params["kappa_energy"]
    base = evolution.steady_state_field(n, a_s, m_s)
    source = evolution.steady_source_field(n, a_s, m_s, kap_s)
    final = _final_field(evolution.nonlinear_steps(
        base, kap_s, source, 0.02, 1.0, workers=threads, counters=runs), n)
    drift = (fields.l2_norm(final.coeffs - base.coeffs)
             / fields.l2_norm(base.coeffs))
    case("steady_state_drift", drift, tols["steady_drift"])

    # RK4 order under dt halving on a smaller grid
    n_small = 12
    smooth = _random_smooth_field(n_small, 1.0, params["seed"] + 1, scale=1.0)
    terminal = {}
    # coarse dt trips the advisory CFL heuristic by design here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for dt in (0.1, 0.05, 0.025, 0.00625):
            terminal[dt] = _final_field(evolution.nonlinear_steps(
                smooth, 0.02, None, dt, 0.4, counters=runs), n_small).coeffs
    err = {dt: fields.l2_norm(terminal[dt] - terminal[0.00625])
           for dt in (0.1, 0.05, 0.025)}
    ratio1 = err[0.1] / err[0.05]
    ratio2 = err[0.05] / err[0.025]
    order_ok = all(tols["rk4_low"] <= rv <= tols["rk4_high"]
                   for rv in (ratio1, ratio2))
    rows.append({"case": "rk4_ratio_coarse", "measured": ratio1,
                 "target": 16.0, "ok": order_ok})
    rows.append({"case": "rk4_ratio_fine", "measured": ratio2,
                 "target": 16.0, "ok": order_ok})
    checks.append(_check("rk4_order", order_ok, (ratio1 + ratio2) / 2.0,
                         16.0))

    # linearization about the steady state at kappa > 0, with the magnetic
    # perturbation rate from the induced field
    base = evolution.steady_state_field(n, a_l, m_l)
    source = evolution.steady_source_field(n, a_l, m_l, kap_l)
    psi = evolution.eigenmode_field(mode, n)
    init = fields.SpectralField(base.coeffs + params["eps_lin"] * psi.coeffs)
    t_end = params["steps_lin"] * params["dt_lin"]
    ref = evolution.band(base.coeffs, cut)
    b_sym = symbols.b_symbol_grids(cut, PhysicalParams())
    t, pert, mag = [], [], []
    for t_now, c, _ in evolution.nonlinear_steps(
            init, kap_l, source, params["dt_lin"], t_end, workers=threads,
            counters=runs):
        d = c - ref
        t.append(t_now)
        pert.append(fields.l2_norm(d))
        mag.append(math.sqrt(sum(float(np.sum(np.abs(b * d) ** 2))
                                 for b in b_sym)))
    rate_t = evolution.measure_growth_rate(t, pert, (0.0, t_end))
    rate_b = evolution.measure_growth_rate(t, mag, (0.0, t_end))
    rel_t = abs(rate_t - mode.sigma) / mode.sigma
    rel_b = abs(rate_b - rate_t) / rate_t
    ceiling = max(pert)
    rows.append({"case": "linearized_rate", "measured": rate_t,
                 "target": mode.sigma, "ok": rel_t <= tols["rate_rel"]})
    rows.append({"case": "magnetic_rate", "measured": rate_b,
                 "target": rate_t, "ok": rel_b <= tols["rate_rel"]})
    checks.append(_check("linearized_rate", rel_t <= tols["rate_rel"],
                         rel_t, tols["rate_rel"]))
    checks.append(_check("magnetic_rate", rel_b <= tols["rate_rel"],
                         rel_b, tols["rate_rel"]))
    case("perturbation_ceiling", ceiling, tols["pert_ceiling"],
         "perturbation_stays_linear")

    columns = ["case", "measured", "target", "ok"]
    return ExperimentResult(columns, rows, checks,
                            counters={"nonlinear": runs})


_RUNNERS = {
    "sigma-table": _run_sigma_table,
    "oracle-xcheck": _run_oracle_xcheck,
    "slice-growth": _run_slice_growth,
    "illposed-scaling": _run_illposed_scaling,
    "diffusive-sweep": _run_diffusive_sweep,
    "dynamo-scaling": _run_dynamo_scaling,
    "gevrey-breakdown": _run_gevrey_breakdown,
    "lipschitz-blowup": _run_lipschitz_blowup,
    "nonlinear-energy": _run_nonlinear_energy,
}


def run_experiment(name: str, config: dict = None, out_dir: str = ".",
                   threads: int = 1) -> ExperimentResult:
    """Validate, run, and write results.csv plus summary.json.

    Returns the result object; the caller maps .passed to the exit status.
    """
    params, tols = validate_config(name, config or {})
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    result = _RUNNERS[name](params, tols, out_dir, threads)
    elapsed = time.monotonic() - start
    _write_csv(os.path.join(out_dir, "results.csv"), result.columns,
               result.rows)
    summary = {
        "experiment": name,
        "passed": result.passed,
        "checks": result.checks,
        "params": params,
        "tolerances": tols,
        "wall_time_s": round(elapsed, 3),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": threads,
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    }
    for key in ("counters", "solver"):
        if getattr(result, key) is not None:
            summary[key] = getattr(result, key)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return result


# plot series read straight from one CSV: (its name, the x column, the
# y columns, each its own series, in this order per row)
_PLOT_SERIES = {
    "gevrey-breakdown": ("tracker.csv", "t", ("tau", "A", "a")),
    "illposed-scaling": ("results.csv", "j", ("sigma", "bound")),
    "lipschitz-blowup": ("results.csv", "j",
                         ("ratio_nonlinear", "ratio_closed_form")),
    "dynamo-scaling": ("results.csv", "kappa", ("sigma_max", "sigma_bound")),
}


def emit_plot_data(results_dir: str, out_path: str) -> None:
    """Flatten an experiment's results into (experiment, series, x, y) rows."""
    summary_path = os.path.join(results_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise FileNotFoundError("no summary.json under %s" % results_dir)
    with open(summary_path) as fh:
        summary = json.load(fh)
    name = summary["experiment"]
    out_rows = []

    def read_rows(path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    results = read_rows(os.path.join(results_dir, "results.csv"))
    if name == "slice-growth":
        sigma = float(results[0]["sigma"])
        out_rows = [(name, row["case"] + "_log_norm", float(row["t"]),
                     math.log(float(row["norm"]))) for row in read_rows(
                         os.path.join(results_dir, "trajectory.csv"))]
        # the eigenvector's log norm from t = 0 at the rate sigma
        eig = [row[2:] for row in out_rows
               if row[1] == "eigenvector_log_norm"]
        out_rows += [(name, "sigma_reference", t, eig[0][1] + sigma * t)
                     for t, _ in eig]
    elif name == "diffusive-sweep":
        for row in results:
            out_rows.append((name, "k2=%s" % row["k2"], float(row["k1"]),
                             float(row["sigma"])))
    elif name in _PLOT_SERIES:
        table, x, series = _PLOT_SERIES[name]
        for row in read_rows(os.path.join(results_dir, table)):
            out_rows.extend((name, y, float(row[x]), float(row[y]))
                            for y in series)
    else:
        raise ExperimentError("no plot-data mapping for %r" % name)
    with open(out_path, "w") as fh:
        fh.write("experiment,series,x,y\n")
        for exp, series, x, y in out_rows:
            fh.write("%s,%s,%.17g,%.17g\n" % (exp, series, x, y))
