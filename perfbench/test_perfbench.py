"""Tests of the benchmark itself: each independent check must reject a
perturbed output, probes must count a missing root as failed, and the
tracer must attribute time and restore what it wrapped.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

UNIT = (1.0, 1, 1, 1)


@pytest.fixture(scope="module")
def dense():
    return checks.Dense()


def _fmt(x):
    return "%.17g" % x


def test_dense_oracle_matches_known_unit_mode():
    lam = oracle.dense_lambda(*UNIT)
    lo, hi = oracle.bracket(*UNIT)
    assert lo < lam < hi
    kappa_c = oracle.critical_kappa(*UNIT)
    assert abs(kappa_c - 0.0066671056) < 1e-9
    assert oracle.dense_lambda(*UNIT, kappa_c * (1 - 1e-7)) > 0.0
    assert oracle.dense_lambda(*UNIT, kappa_c * (1 + 1e-7)) < 0.0


def test_sigma_off_by_1e6_relative_is_rejected(dense):
    lam = dense(*UNIT)
    row = {"a": "1", "m": "1", "k1": "1", "k2": "1", "sigma": _fmt(lam)}
    assert all(op.passed for op in checks.sigma_table_ops([row], dense))
    row["sigma"] = _fmt(lam * (1 + 1e-6))
    failed = [op.name for op in checks.sigma_table_ops([row], dense)
              if not op.passed]
    assert failed == ["sigma-table[1,1,1,1]:dense"]


def test_oracle_xcheck_rows_are_rejected_when_perturbed(dense):
    lam = dense(*UNIT, 1e-3)
    row = {"a": "1", "m": "1", "k1": "1", "k2": "1", "kappa": "0.001",
           "root": "true", "sigma_cf": _fmt(lam)}
    assert all(op.passed for op in checks.oracle_xcheck_ops([row], dense))
    row["sigma_cf"] = _fmt(lam * (1 - 1e-6))
    assert not checks.oracle_xcheck_ops([row], dense)[0].passed
    row.update(root="false", sigma_cf="nan")
    assert not checks.oracle_xcheck_ops([row], dense)[0].passed


def test_bracket_containment_rejects_sigma_outside(dense):
    lo, hi = oracle.bracket(*UNIT)
    assert checks.bracket_op("b", 0.5 * (lo + hi), *UNIT).passed
    assert not checks.bracket_op("b", hi * (1 + 1e-12), *UNIT).passed
    assert not checks.bracket_op("b", None, *UNIT).passed


def test_nan_sweep_entry_with_positive_dense_lambda_is_rejected(dense):
    params = {"a": 1.0, "m": 1, "kappa": 1e-3}
    lam = dense(1.0, 1, 3, 2, 1e-3)
    assert lam > 0
    rows = [{"k1": "3", "k2": "2", "sigma": _fmt(lam)}]
    assert checks.sweep_sample_ops(rows, params, [0], dense)[0].passed
    rows[0]["sigma"] = "nan"
    assert not checks.sweep_sample_ops(rows, params, [0], dense)[0].passed


def test_nan_sweep_entry_is_accepted_where_dense_lambda_is_negative(dense):
    params = {"a": 1.0, "m": 1, "kappa": 1e-3}
    assert dense(1.0, 1, 64, 1, 1e-3) < 0
    rows = [{"k1": "64", "k2": "1", "sigma": "nan"}]
    assert checks.sweep_sample_ops(rows, params, [0], dense)[0].passed


def test_dynamo_argmax_checks(dense):
    params = {"a": 4.0, "m": 1}
    lam = dense(4.0, 1, 17, 8, 1e-2)
    row = {"kappa": "0.01", "k1_argmax": "17", "k2_argmax": "8",
           "sigma_max": _fmt(lam)}
    assert all(op.passed for op in checks.dynamo_scaling_ops([row], params,
                                                             dense))
    row["sigma_max"] = _fmt(lam * (1 + 1e-6))
    assert not checks.dynamo_scaling_ops([row], params, dense)[0].passed


def _lipschitz_rows(dense, ratios):
    return [{"j": str(j), "sigma": _fmt(dense(1.0, 1, j, math.isqrt(j))),
             "ratio_nonlinear": _fmt(r)} for j, r in zip((1, 4, 9, 16), ratios)]


def test_swapped_lipschitz_pair_is_rejected(dense):
    params = {"a": 1.0, "m": 1}
    rows = _lipschitz_rows(dense, (1.06, 1.52, 2.78, 6.34))
    assert all(op.passed for op in checks.lipschitz_ops(rows, params, dense))
    rows = _lipschitz_rows(dense, (1.06, 2.78, 1.52, 6.34))
    failed = [op.name for op in checks.lipschitz_ops(rows, params, dense)
              if not op.passed]
    assert failed == ["lipschitz-blowup[j=4<9]:ratio_increasing"]


def _nonlinear_rows(dense, params, energy):
    target = dense(params["a_lin"], params["m_lin"], params["k1_lin"],
                   params["k2_lin"], params["kappa_lin"])
    return [{"case": "energy_identity", "measured": _fmt(energy)},
            {"case": "rk4_ratio_coarse", "measured": "16.7"},
            {"case": "rk4_ratio_fine", "measured": "16.4"},
            {"case": "linearized_rate", "measured": _fmt(target),
             "target": _fmt(target)}]


def test_energy_residual_above_bound_is_rejected(dense):
    params = workloads.make("nonlinear", 0).runs[0][1]["params"]
    rows = _nonlinear_rows(dense, params, 2.7e-17)
    assert all(op.passed for op in
               checks.nonlinear_energy_ops(rows, params, dense))
    rows = _nonlinear_rows(dense, params, 2.0 * checks.ENERGY_RESIDUAL_MAX)
    failed = [op.name for op in checks.nonlinear_energy_ops(rows, params, dense)
              if not op.passed]
    assert failed == ["nonlinear-energy:energy_identity"]


def test_rk4_ratio_far_from_16_is_rejected(dense):
    params = workloads.make("nonlinear", 0).runs[0][1]["params"]
    rows = _nonlinear_rows(dense, params, 0.0)
    rows[1]["measured"] = "8.0"
    failed = [op.name for op in checks.nonlinear_energy_ops(rows, params, dense)
              if not op.passed]
    assert failed == ["nonlinear-energy:rk4_ratio_coarse"]


def test_radius_fit_off_by_more_than_5_percent_is_rejected():
    rows = [{"series": "radius_fit", "x": "0.5", "value": "0.51"},
            {"series": "run", "x": "0.0", "value": "9.0"}]
    assert [op.passed for op in checks.radius_fit_ops(rows)] == [True]
    rows[0]["value"] = "0.53"
    assert [op.passed for op in checks.radius_fit_ops(rows)] == [False]


def test_probe_without_root_counts_as_failed_known_fault():
    kappa_c = oracle.critical_kappa(*UNIT)
    kappa = kappa_c * (1 - 1e-7)
    probe = workloads.Probe("p", UNIT, kappa,
                            oracle.dense_lambda(*UNIT, kappa))
    missed = checks.probe_op(probe, None)
    assert not missed.passed and missed.known_fault
    assert checks.probe_op(probe, probe.lam).passed
    wrong = checks.probe_op(probe, probe.lam * 2)
    assert not wrong.passed and not wrong.known_fault


def test_workload_inputs_follow_the_seed():
    for name in workloads.WORKLOAD_NAMES:
        assert workloads.make(name, 5) == workloads.make(name, 5)
    a, b = workloads.make("oracle", 1), workloads.make("oracle", 2)
    assert a.probe_modes[0] == b.probe_modes[0]
    assert [len(js) for _, js in a.probe_modes] == \
        [len(js) for _, js in b.probe_modes]
    assert workloads.make("dynamo", 1).sweep_sample != \
        workloads.make("dynamo", 2).sweep_sample
    assert len(workloads.make("dynamo", 3).sweep_sample) == \
        workloads.SWEEP_SAMPLE


def test_benchmark_json_lists_the_emitted_per_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        bench.PER_LAYER


def test_tracer_self_time_and_restore():
    from mg_spectra import evolution, spectrum
    from mg_spectra.params import ModeParams
    original = spectrum.solve_growth_rate
    assert evolution.solve_growth_rate is original
    tracer = Tracer()
    tracer.install()
    try:
        assert spectrum.solve_growth_rate is not original
        assert evolution.solve_growth_rate is spectrum.solve_growth_rate
        spectrum.solve_growth_rate(ModeParams())
    finally:
        tracer.uninstall()
    assert spectrum.solve_growth_rate is original
    assert evolution.solve_growth_rate is original
    summary = tracer.summary()
    assert summary["spectrum.solve_growth_rate"][0] == 1
    assert summary["spectrum.f_continued_fraction"][0] > 10
    root = list(tracer.parent).index(-1)
    duration = tracer.end[root] - tracer.start[root]
    covered = sum(tracer.end[i] - tracer.start[i]
                  for i, p in enumerate(tracer.parent) if p == root)
    assert 0.0 <= summary["spectrum.solve_growth_rate"][1] \
        == pytest.approx(duration - covered)


def test_tracer_counts_fft_calls_and_points():
    from mg_spectra import evolution
    solver = evolution.NonlinearSolver(4)
    c = np.zeros((9, 9, 9), dtype=complex)
    c[5, 5, 5] = c[3, 3, 3] = 1.0
    tracer = Tracer()
    tracer.install()
    try:
        solver.advection(c)
        np.fft.rfftn(np.ones((4, 4, 4)))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["evolution.fft"][0] == 5
    assert tracer.counters["evolution.fft.points"] == 4 * 10 ** 3 + 64
    assert summary["evolution.NonlinearSolver.advection"][0] == 1
