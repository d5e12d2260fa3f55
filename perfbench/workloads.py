"""The four workloads: one per claim family of the paper.

A workload is the list of experiment configs it runs through
`experiments.run_experiment`, in order, plus (for `oracle`) the
near-critical probes.  Every parameter an experiment reads is spelled
out, so a change of a built-in default cannot change the workload.
`--seed` selects only what the README lists: the probe modes, the
sampled sweep pairs, and the `seed` params of `gevrey-breakdown` and
`nonlinear-energy`.  The shape of the work is the same for every seed.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

import checks
import oracle

WORKLOAD_NAMES = ("oracle", "dynamo", "nonlinear", "illposed")

PROBE_FIXED_MODE = (1.0, 1, 1, 1)  # the unit mode, in every run
PROBE_FIXED_J = range(1, 8)        # kappa = kappa_c (1 - 10^-j)
PROBE_SEEDED_MODES = 3
PROBE_SEEDED_J = range(1, 6)
PROBE_POOL = [(float(a), m, k1, k2) for a, m, k1, k2
              in itertools.product((1, 2, 4), repeat=4)
              if (a, m, k1, k2) != (1, 1, 1, 1)]
SWEEP_SAMPLE = 32


class Probe(NamedTuple):
    label: str
    mode: tuple   # (a, m, k1, k2) with omega = mu = 1
    kappa: float
    lam: float    # dense top eigenvalue at kappa


class Workload(NamedTuple):
    name: str
    runs: list           # [(experiment name, config)]
    sweep_sample: list   # row indices of diffusive-sweep results to check
    probe_modes: list    # [(mode, js)] for the near-critical probes


def _sigma_table():
    return ("sigma-table", {"params": {"values": [1, 2, 4], "omega": 1.0,
                                       "mu": 1.0}})


def _oracle_xcheck():
    return ("oracle-xcheck", {"params": {"values": [1, 2, 4],
                                         "kappas": [0.0, 1e-3], "P": 128,
                                         "omega": 1.0, "mu": 1.0}})


def _dynamo_scaling():
    return ("dynamo-scaling", {"params": {"kappas": [1e-2, 3e-3, 1e-3],
                                          "a": 4.0, "m": 1, "omega": 1.0,
                                          "mu": 1.0, "slice_P": 48}})


def _diffusive_sweep():
    return ("diffusive-sweep", {"params": {"kappa": 1e-3, "a": 1.0, "m": 1,
                                           "k1_max": 64, "k2_max": 20,
                                           "omega": 1.0, "mu": 1.0}})


def _nonlinear_energy(seed):
    # steps_lin is cut from 150 to 20 so that a run fits the time budget;
    # the eigenmode-seeded rate fit starts at t = 0 and still holds
    return ("nonlinear-energy", {"params": {
        "n": 32, "kappa_energy": 0.1, "kappa_lin": 1e-2, "a_lin": 4.0,
        "m_lin": 1, "k1_lin": 12, "k2_lin": 7, "eps_lin": 1e-6,
        "steps_lin": 20, "dt_lin": 0.01, "seed": seed}})


def _slice_growth():
    return ("slice-growth", {"params": {"a": 1.0, "m": 1, "k1": 1, "k2": 1,
                                        "omega": 1.0, "mu": 1.0, "P": 128,
                                        "dt": 0.05}})


def _illposed_scaling():
    return ("illposed-scaling", {"params": {
        "j_list": [1, 4, 9, 16, 25, 36, 49, 64], "a": 1.0, "m": 1,
        "omega": 1.0, "mu": 1.0}})


def _lipschitz_blowup():
    return ("lipschitz-blowup", {"params": {
        "j_list": [1, 4, 9, 16], "eps": 1e-6, "t_probe": 2.0, "a": 1.0,
        "m": 1, "dt": 0.02, "omega": 1.0, "mu": 1.0}})


def _gevrey_breakdown(seed):
    return ("gevrey-breakdown", {"params": {
        "n": 16, "n_fit": 64, "tau_field": 0.5, "decay_power": 3,
        "amplitude": 5e-4, "dt": 0.01, "t_end": 2.0, "seed": seed,
        "c_r_list": [0.5, 1.0, 2.0], "r": 3.0}})


def make(name, seed):
    """The workload `name` with its inputs drawn from `seed` (>= 0)."""
    rng = np.random.default_rng(seed)
    sample, probes = [], []
    if name == "oracle":
        runs = [_oracle_xcheck(), _sigma_table()]
        picks = rng.choice(len(PROBE_POOL), PROBE_SEEDED_MODES, replace=False)
        probes = [(PROBE_FIXED_MODE, PROBE_FIXED_J)] + [
            (PROBE_POOL[i], PROBE_SEEDED_J) for i in sorted(picks)]
    elif name == "dynamo":
        runs = [_dynamo_scaling(), _diffusive_sweep()]
        p = runs[1][1]["params"]
        sample = sorted(int(i) for i in rng.choice(
            p["k1_max"] * p["k2_max"], SWEEP_SAMPLE, replace=False))
    elif name == "nonlinear":
        runs = [_nonlinear_energy(seed)]
    elif name == "illposed":
        runs = [_slice_growth(), _illposed_scaling(), _lipschitz_blowup(),
                _gevrey_breakdown(seed)]
    else:
        raise ValueError("unknown workload %r" % name)
    return Workload(name, runs, sample, probes)


def make_probes(workload):
    """kappa = kappa_c (1 - 10^-j) per probe, kappa_c from the dense oracle."""
    probes = []
    for mode, js in workload.probe_modes:
        kappa_c = oracle.critical_kappa(*mode)
        for j in js:
            kappa = kappa_c * (1.0 - 10.0 ** -j)
            probes.append(Probe("probe[%g,%d,%d,%d,j=%d]" % (mode + (j,)),
                                mode, kappa, oracle.dense_lambda(*mode, kappa)))
    return probes


def check(workload, outputs, probe_sigmas, probes, dense):
    """Every operation of one round: the experiments' own checks, the
    independent checks, and the probes.  outputs maps experiment name to
    (summary, rows)."""
    ops = []
    for exp, config in workload.runs:
        summary, rows = outputs[exp]
        params = config["params"]
        ops += checks.summary_ops(summary)
        if exp == "oracle-xcheck":
            ops += checks.oracle_xcheck_ops(rows, dense)
        elif exp == "sigma-table":
            ops += checks.sigma_table_ops(rows, dense)
        elif exp == "dynamo-scaling":
            ops += checks.dynamo_scaling_ops(rows, params, dense)
        elif exp == "diffusive-sweep":
            ops += checks.sweep_sample_ops(rows, params,
                                           workload.sweep_sample, dense)
        elif exp == "nonlinear-energy":
            ops += checks.nonlinear_energy_ops(rows, params, dense)
        elif exp == "slice-growth":
            ops += checks.slice_growth_ops(rows, params, dense)
        elif exp == "illposed-scaling":
            ops += checks.illposed_scaling_ops(rows, params, dense)
        elif exp == "lipschitz-blowup":
            ops += checks.lipschitz_ops(rows, params, dense)
        elif exp == "gevrey-breakdown":
            ops += checks.radius_fit_ops(rows)
    ops += [checks.probe_op(p, s) for p, s in zip(probes, probe_sigmas)]
    return ops
