"""Output checks: the experiments' own verdicts plus independent ones.

Every check is one operation.  The independent checks compare the
numbers an experiment wrote to results.csv with the dense oracle in
`oracle.py` and with properties of the method, using bounds fixed here
rather than the tolerances the experiment reports.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import NamedTuple

import oracle

REL_TOL = 1e-8          # growth rate against the dense top eigenvalue
ABSENT_EIG = 1e-10      # "no root" is right only where dense lambda <= this
ENERGY_RESIDUAL_MAX = 1e-8
RK4_RATIO = (12.8, 19.2)  # error ratio under dt halving: 16 +- 20%
RADIUS_FIT_REL = 5e-2


class Op(NamedTuple):
    name: str
    passed: bool
    detail: str
    known_fault: bool = False


class Dense:
    """Memoized dense top eigenvalues, shared across rounds of one run."""

    def __init__(self):
        self._memo = {}

    def __call__(self, a, m, k1, k2, kappa=0.0):
        key = (float(a), int(m), int(k1), int(k2), float(kappa))
        if key not in self._memo:
            self._memo[key] = oracle.dense_lambda(*key)
        return self._memo[key]


def read_outputs(out_dir):
    """(summary dict, results.csv rows) of one experiment run."""
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    return summary, rows


def summary_ops(summary):
    return [Op("%s:%s" % (summary["experiment"], c["name"]), bool(c["passed"]),
               "measured %r, tolerance %r" % (c["measured"], c["tolerance"]))
            for c in summary["checks"]]


def root_op(name, sigma, lam):
    """A solver root (None or NaN: no root) against the dense eigenvalue."""
    if sigma is None or math.isnan(sigma):
        return Op(name, lam <= ABSENT_EIG,
                  "no root, dense lambda %.6g" % lam)
    rel = oracle.relative_error(sigma, lam) if lam > 0 else math.inf
    return Op(name, rel <= REL_TOL,
              "sigma %.17g, dense lambda %.17g, rel %.3g" % (sigma, lam, rel))


def _mode(row, keys=("a", "m", "k1", "k2")):
    a, m, k1, k2 = (row[k] for k in keys)
    return float(a), int(m), int(k1), int(k2)


def oracle_xcheck_ops(rows, dense):
    ops = []
    for r in rows:
        a, m, k1, k2 = _mode(r)
        kappa = float(r["kappa"])
        label = "oracle-xcheck[%g,%d,%d,%d,kappa=%g]" % (a, m, k1, k2, kappa)
        sigma = float(r["sigma_cf"]) if r["root"] == "true" else None
        ops.append(root_op(label + ":dense", sigma,
                           dense(a, m, k1, k2, kappa)))
        if kappa == 0.0:
            ops.append(bracket_op(label + ":bracket", sigma, a, m, k1, k2))
    return ops


def bracket_op(name, sigma, a, m, k1, k2):
    lo, hi = oracle.bracket(a, m, k1, k2)
    inside = sigma is not None and lo < sigma < hi
    return Op(name, inside, "%r in (%.17g, %.17g)" % (sigma, lo, hi))


def sigma_table_ops(rows, dense):
    ops = []
    for r in rows:
        a, m, k1, k2 = _mode(r)
        label = "sigma-table[%g,%d,%d,%d]" % (a, m, k1, k2)
        sigma = float(r["sigma"])
        ops.append(bracket_op(label + ":bracket", sigma, a, m, k1, k2))
        ops.append(root_op(label + ":dense", sigma, dense(a, m, k1, k2)))
    return ops


def probe_op(probe, sigma):
    """A near-critical probe passes when the solver finds the dense root.

    A missing root where the dense eigenvalue is positive is the
    log-scan fault of solve_growth_rate_diffusive, marked known_fault.
    """
    op = root_op(probe.label, sigma, probe.lam)
    missed = sigma is None and probe.lam > ABSENT_EIG
    return op._replace(known_fault=missed)


def dynamo_scaling_ops(rows, params, dense):
    ops = []
    a, m = params["a"], params["m"]
    for r in rows:
        kappa = float(r["kappa"])
        k1, k2 = int(r["k1_argmax"]), int(r["k2_argmax"])
        sigma = float(r["sigma_max"])
        label = "dynamo-scaling[kappa=%g]" % kappa
        ops.append(root_op(label + ":dense", sigma,
                           dense(a, m, k1, k2, kappa)))
        floor = oracle.dynamo_bound(kappa, a)
        ops.append(Op(label + ":inverse_kappa_floor", sigma >= floor,
                      "sigma %.6g, floor %.6g" % (sigma, floor)))
    return ops


def sweep_sample_ops(rows, params, sample, dense):
    """Sampled (k1, k2) entries of the diffusive sweep against the oracle."""
    ops = []
    for i in sample:
        r = rows[i]
        k1, k2 = int(r["k1"]), int(r["k2"])
        ops.append(root_op("diffusive-sweep[%d,%d]" % (k1, k2),
                           float(r["sigma"]),
                           dense(params["a"], params["m"], k1, k2,
                                 params["kappa"])))
    return ops


def nonlinear_energy_ops(rows, params, dense):
    by_case = {r["case"]: r for r in rows}
    target = float(by_case["linearized_rate"]["target"])
    ops = [root_op("nonlinear-energy:linearized_target", target,
                   dense(params["a_lin"], params["m_lin"], params["k1_lin"],
                         params["k2_lin"], params["kappa_lin"]))]
    energy = float(by_case["energy_identity"]["measured"])
    ops.append(Op("nonlinear-energy:energy_identity",
                  energy <= ENERGY_RESIDUAL_MAX,
                  "residual %.3g, bound %.3g" % (energy, ENERGY_RESIDUAL_MAX)))
    lo, hi = RK4_RATIO
    for case in ("rk4_ratio_coarse", "rk4_ratio_fine"):
        ratio = float(by_case[case]["measured"])
        ops.append(Op("nonlinear-energy:" + case, lo <= ratio <= hi,
                      "ratio %.4g, want [%g, %g]" % (ratio, lo, hi)))
    return ops


def slice_growth_ops(rows, params, dense):
    sigma = float(rows[0]["sigma"])
    return [root_op("slice-growth:sigma", sigma,
                    dense(params["a"], params["m"], params["k1"],
                          params["k2"]))]


def illposed_scaling_ops(rows, params, dense):
    a, m = params["a"], params["m"]
    slope = oracle.growth_bound_constant(a, m, params["omega"], params["mu"])
    ops = []
    for r in rows:
        j, k2 = int(r["j"]), int(r["k2"])
        sigma = float(r["sigma"])
        ops.append(root_op("illposed-scaling[j=%d]:dense" % j, sigma,
                           dense(a, m, j, k2)))
        ops.append(Op("illposed-scaling[j=%d]:above_j_bound" % j,
                      sigma > j * slope,
                      "sigma %.6g, bound %.6g" % (sigma, j * slope)))
    return ops


def lipschitz_ops(rows, params, dense):
    ops = []
    for r in rows:
        j = int(r["j"])
        ops.append(root_op("lipschitz-blowup[j=%d]:dense" % j,
                           float(r["sigma"]),
                           dense(params["a"], params["m"], j, math.isqrt(j))))
    for lo, hi in zip(rows, rows[1:]):
        r_lo, r_hi = float(lo["ratio_nonlinear"]), float(hi["ratio_nonlinear"])
        ops.append(Op("lipschitz-blowup[j=%s<%s]:ratio_increasing"
                      % (lo["j"], hi["j"]), r_hi > r_lo,
                      "ratios %.6g, %.6g" % (r_lo, r_hi)))
    return ops


def radius_fit_ops(rows):
    ops = []
    for r in rows:
        if r["series"] != "radius_fit":
            continue
        tau, radius = float(r["x"]), float(r["value"])
        rel = oracle.relative_error(radius, tau)
        ops.append(Op("gevrey-breakdown[tau=%g]:radius_fit" % tau,
                      rel <= RADIUS_FIT_REL,
                      "radius %.6g, built with tau %.6g" % (radius, tau)))
    return ops
