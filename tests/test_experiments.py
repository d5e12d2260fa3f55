import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mg_spectra import cli, experiments, fields, spectrum


def test_validate_config_defaults():
    params, tols = experiments.validate_config("sigma-table", {})
    assert params["values"] == [1, 2, 4]
    assert tols["residual_scale"] == 1e-12


def test_validate_config_merge_and_types():
    params, tols = experiments.validate_config(
        "sigma-table", {"params": {"values": [1, 2]},
                        "tolerances": {"residual_scale": 1e-10}})
    assert params["values"] == [1, 2]
    assert tols["residual_scale"] == 1e-10


@pytest.mark.parametrize("config,fragment", [
    ({"params": {"nope": 1}}, "params.nope"),
    ({"tolerances": {"nope": 1}}, "tolerances.nope"),
    ({"bogus_section": {}}, "bogus_section"),
    ({"params": {"values": "x"}}, "params.values"),
    ({"params": {"omega": "fast"}}, "params.omega"),
    ({"tolerances": {"residual_scale": -1}}, "residual_scale"),
    ({"experiment": "oracle-xcheck"}, "experiment"),
    # JSON true is not a number, in any field
    pytest.param({"experiment": "slice-growth", "params": {"dt": True}},
                 "params.dt: expected a finite number", id="dt-true"),
    pytest.param({"experiment": "slice-growth", "params": {"P": True}},
                 "params.P: expected an integer", id="P-true"),
    pytest.param({"tolerances": {"residual_scale": True}},
                 "tolerances.residual_scale: expected a finite number",
                 id="tolerance-true"),
    pytest.param({"params": {"omega": float("nan")}},
                 "params.omega: expected a finite number", id="omega-nan"),
    # list entries are checked like scalars, and named by their index
    pytest.param({"params": {"values": [1.5, 2]}},
                 "params.values[0]: expected an integer", id="values-1.5"),
    pytest.param({"params": {"values": [1, True]}},
                 "params.values[1]: expected an integer", id="values-true"),
    pytest.param({"params": {"values": [None]}},
                 "params.values[0]: expected an integer", id="values-null"),
    pytest.param({"experiment": "illposed-scaling",
                  "params": {"j_list": ["a"]}},
                 "params.j_list[0]: expected an integer", id="j_list-string"),
    # every number is positive; seeds and the oracle kappas may be zero
    pytest.param({"experiment": "slice-growth", "params": {"dt": -0.05}},
                 "params.dt: expected a positive number", id="dt-negative"),
    pytest.param({"experiment": "slice-growth", "params": {"P": 0}},
                 "params.P: expected a positive number", id="P-zero"),
    pytest.param({"experiment": "dynamo-scaling",
                  "params": {"kappas": [1e-2, 0.0]}},
                 "params.kappas[1]: expected a positive number",
                 id="dynamo-kappa-zero"),
    pytest.param({"experiment": "oracle-xcheck",
                  "params": {"kappas": [0.0, -1e-3]}},
                 "params.kappas[1]: expected a non-negative number",
                 id="oracle-kappa-negative"),
    pytest.param({"experiment": "gevrey-breakdown", "params": {"seed": -1}},
                 "params.seed: expected a non-negative number",
                 id="seed-negative"),
    # j_list entries are the modes k1 = j, k2 = sqrt(j)
    pytest.param({"experiment": "illposed-scaling",
                  "params": {"j_list": [2]}},
                 "params.j_list[0]: 2 is not a perfect square",
                 id="illposed-j-2"),
    pytest.param({"experiment": "lipschitz-blowup",
                  "params": {"j_list": [1, 2]}},
                 "params.j_list[1]: 2 is not a perfect square",
                 id="lipschitz-j-2"),
    # a repeated j would fail the strictly-increasing checks as a claim
    pytest.param({"experiment": "illposed-scaling",
                  "params": {"j_list": [4, 4]}},
                 "params.j_list[1]: 4 repeats params.j_list[0]",
                 id="illposed-j-repeat"),
    pytest.param({"experiment": "lipschitz-blowup",
                  "params": {"j_list": [9, 1, 4, 1.0]}},
                 "params.j_list[3]: 1 repeats params.j_list[1]",
                 id="lipschitz-j-repeat"),
])
def test_validate_config_rejects(config, fragment):
    name = config.get("experiment", "sigma-table")
    if config == {"experiment": "oracle-xcheck"}:
        name = "sigma-table"  # the mismatch is the fault under test
    with pytest.raises(experiments.ExperimentError) as err:
        experiments.validate_config(name, config)
    assert fragment in str(err.value)


def test_validate_config_takes_zero_seeds_and_oracle_kappas():
    params, _ = experiments.validate_config(
        "gevrey-breakdown", {"params": {"seed": 0}})
    assert params["seed"] == 0
    params, _ = experiments.validate_config(
        "oracle-xcheck", {"params": {"kappas": [0, 1e-3]}})
    assert params["kappas"] == [0.0, 1e-3]


def test_validate_config_keeps_integral_floats():
    params, _ = experiments.validate_config(
        "slice-growth", {"params": {"P": 64.0, "dt": 1}})
    assert params["P"] == 64 and isinstance(params["P"], int)
    assert params["dt"] == 1.0 and isinstance(params["dt"], float)


def test_unknown_experiment():
    with pytest.raises(experiments.ExperimentError):
        experiments.validate_config("sigma-tablez", {})


def test_fmt_spells_numpy_bools_like_python_bools():
    # a comparison of numpy floats yields np.bool_, which must not flip a
    # CSV boolean from "true" to "True"
    assert experiments._fmt(np.float64(1.0) < 2.0) == "true"
    assert experiments._fmt(np.bool_(False)) == "false"
    assert experiments._fmt(True) == "true"


def test_run_sigma_table_small(tmp_path):
    cfg = {"params": {"values": [1, 2]}}
    res = experiments.run_experiment("sigma-table", cfg, str(tmp_path), 1)
    assert res.passed
    assert len(res.rows) == 16
    results = os.path.join(tmp_path, "results.csv")
    summary = os.path.join(tmp_path, "summary.json")
    assert os.path.exists(results)
    with open(summary) as fh:
        s = json.load(fh)
    assert s["experiment"] == "sigma-table"
    assert s["passed"] is True
    assert {c["name"] for c in s["checks"]} == {"all_inside_bracket",
                                               "residual_below_scale"}
    assert s["wall_time_s"] >= 0


def test_determinism_bytes(tmp_path):
    # nonlinear runs hand the thread count to the scipy.fft workers
    # dynamo-scaling runs one slice rate pair per kappa under the pool
    for name, cfg in (("sigma-table", {"params": {"values": [1, 2]}}),
                      ("lipschitz-blowup", {"params": {"j_list": [1, 4]}}),
                      ("dynamo-scaling",
                       {"params": {"kappas": [1e-2, 3e-3]}})):
        d1, d2 = str(tmp_path / name / "a"), str(tmp_path / name / "b")
        experiments.run_experiment(name, cfg, d1, 1)
        experiments.run_experiment(name, cfg, d2, 2)
        b1 = open(os.path.join(d1, "results.csv"), "rb").read()
        b2 = open(os.path.join(d2, "results.csv"), "rb").read()
        assert b1 == b2


def test_resolution_rule():
    assert experiments._resolution_for(1, 1) == 8
    assert experiments._resolution_for(4, 1) == 9
    assert experiments._resolution_for(9, 1) == 16
    assert experiments._resolution_for(16, 1) == 27


def test_optimal_mode_small_case(tmp_path):
    # kappa = 1e-2 sweeps the box ceil(4 k_pred) = (50, 29)
    res = experiments.run_experiment(
        "dynamo-scaling", {"params": {"kappas": [1e-2]}}, str(tmp_path), 1)
    (row,) = res.rows
    assert (row["k1_max"], row["k2_max"]) == (50, 29)
    assert (row["k1_argmax"], row["k2_argmax"]) == (17, 8)
    assert row["sigma_max"] == pytest.approx(3.5794, abs=2e-4)
    assert row["bound_met"]
    assert row["sigma_bound"] == pytest.approx(16.0 / 10.24, rel=1e-12)


def test_sweep_counters_in_summary(tmp_path):
    # each sweep box counts its pairs and the pairs bisected, those with a
    # root; the counts are the same at one and two threads and stay out of
    # results.csv
    cases = (("diffusive-sweep", {}, [(1e-3, 1280, 1041)]),
             ("dynamo-scaling", {"kappas": [1e-3, 1e-2]},
              [(1e-2, 1450, 424), (1e-3, 45000, 15433)]))
    for name, params, boxes in cases:
        seen = []
        for threads in (1, 2):
            out = str(tmp_path / name / str(threads))
            experiments.run_experiment(name, {"params": params}, out, threads)
            with open(os.path.join(out, "summary.json")) as fh:
                seen.append(json.load(fh)["counters"])
            with open(os.path.join(out, "results.csv")) as fh:
                assert "pairs" not in fh.readline()
        assert seen[0] == seen[1]
        assert [(b["kappa"], b["pairs"], b["pairs_bisected"])
                for b in seen[0]["sweep"]] == boxes


def test_sweep_tests_in_summary(tmp_path):
    # the slice tests of each default box: the sigma = 0 screen of every
    # pair, then the live pairs of each bisection step; dynamo-scaling
    # bisects only the pairs that can hold its argmax
    cases = (("diffusive-sweep", [(1e-3, 1280 + 56430)]),
             ("dynamo-scaling", [(1e-2, 1450 + 1165), (3e-3, 8684 + 6419),
                                 (1e-3, 45000 + 32797)]))
    for name, boxes in cases:
        seen = []
        for threads in (1, 2):
            out = str(tmp_path / name / str(threads))
            experiments.run_experiment(name, {}, out, threads)
            with open(os.path.join(out, "summary.json")) as fh:
                seen.append(json.load(fh)["counters"]["sweep"])
        assert seen[0] == seen[1]
        assert [(b["kappa"], b["tests"]) for b in seen[0]] == boxes


def test_root_counters_in_summary(tmp_path):
    # each solve_growth_rates batch counts its modes and the modes with a
    # root; the counts are the same at one and two threads and stay out
    # of results.csv
    cases = (("sigma-table", [(0.0, 81, 81)]),
             ("oracle-xcheck", [(0.0, 81, 81), (1e-3, 81, 62)]),
             ("illposed-scaling", [(0.0, 8, 8)]))
    for name, batches in cases:
        seen = []
        for threads in (1, 2):
            out = str(tmp_path / name / str(threads))
            experiments.run_experiment(name, {}, out, threads)
            with open(os.path.join(out, "summary.json")) as fh:
                seen.append(json.load(fh)["counters"])
            with open(os.path.join(out, "results.csv")) as fh:
                assert "roots" not in fh.readline()
        assert seen[0] == seen[1]
        assert [(b["kappa"], b["modes"], b["roots"])
                for b in seen[0]["roots"]] == batches


def test_nonlinear_counters_in_summary(tmp_path):
    # each nonlinear_steps run counts its steps, rhs calls (4 per step + 1)
    # and 3-D transforms (4 per rhs) on either side of the pruning gate;
    # the counts are the same at one and two threads and stay out of
    # results.csv
    cases = (("nonlinear-energy",
              {"n": 8, "k1_lin": 2, "k2_lin": 1, "steps_lin": 10},
              [(8, 16, 20), (8, 16, 50), (12, 25, 4), (12, 25, 8),
               (12, 25, 16), (12, 25, 64), (8, 16, 10)]),
             ("lipschitz-blowup", {"j_list": [1, 4]},
              [(8, 16, 100), (9, 20, 100)]),
             ("gevrey-breakdown", {"n_fit": 32, "t_end": 0.1},
              [(16, 35, 10)]))
    for name, params, runs in cases:
        seen = []
        for threads in (1, 2):
            out = str(tmp_path / name / str(threads))
            experiments.run_experiment(name, {"params": params}, out, threads)
            with open(os.path.join(out, "summary.json")) as fh:
                seen.append(json.load(fh)["counters"])
            with open(os.path.join(out, "results.csv")) as fh:
                header = fh.readline()
            assert "rhs" not in header and "transforms" not in header
        assert seen[0] == seen[1]
        entries = seen[0]["nonlinear"]
        assert [(r["n"], r["side"], r["steps"]) for r in entries] == runs
        for r in entries:
            assert r["rhs"] == 4 * r["steps"] + 1
            assert r["transforms"] == 4 * r["rhs"]


def test_slice_counters_in_summary(tmp_path):
    # each evolve_full_slice run counts its profile half-width, its steps
    # and its full_slice_rhs calls, 4 per RK4 step; the counts are the
    # same at one and two threads and stay out of results.csv
    cases = (("slice-growth", {}, [(128, 2096), (128, 5591)]),
             ("dynamo-scaling", {"kappas": [1e-2]}, [(48, 223)]),
             ("lipschitz-blowup", {"j_list": [1]}, [(8, 100)]))
    for name, params, runs in cases:
        seen = []
        for threads in (1, 2):
            out = str(tmp_path / name / str(threads))
            experiments.run_experiment(name, {"params": params}, out, threads)
            with open(os.path.join(out, "summary.json")) as fh:
                seen.append(json.load(fh)["counters"])
            with open(os.path.join(out, "results.csv")) as fh:
                header = fh.readline()
            assert "half" not in header and "rhs" not in header
        assert seen[0] == seen[1]
        entries = seen[0]["slice"]
        assert [(r["half"], r["steps"]) for r in entries] == runs
        assert all(r["rhs"] == 4 * r["steps"] for r in entries)


def test_radius_fit_working_set_is_planar(tmp_path):
    # n = 48: the field is a 97^3 complex cube of 13.9 MiB; building it
    # and fitting its radius each need under 2 MiB besides, and a
    # gevrey-breakdown run never holds two of its n_fit fields at once
    cube = 97 ** 3 * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fld = experiments._synthetic_decay_field(48, 0.5, 4.0, 1.0)
        build = tracemalloc.get_traced_memory()[1] - base - cube
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fields.radius_estimate(fld)
        fit = tracemalloc.get_traced_memory()[1] - base
        del fld
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert experiments.run_experiment(
            "gevrey-breakdown", {"params": {"n_fit": 48, "t_end": 0.1}},
            str(tmp_path)).passed
        run = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert build < 2 * 2 ** 20
    assert fit < 2 * 2 ** 20
    assert cube < run < 2 * cube


def test_oracle_solver_in_summary(tmp_path):
    # the oracle's LAPACK routine, its P and the continued-fraction depth,
    # the same at one and two threads and kept out of results.csv
    seen = []
    for threads in (1, 2):
        out = str(tmp_path / str(threads))
        experiments.run_experiment(
            "oracle-xcheck", {"params": {"values": [1, 2], "P": 64}}, out,
            threads)
        with open(os.path.join(out, "summary.json")) as fh:
            seen.append(json.load(fh)["solver"])
        with open(os.path.join(out, "results.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert not set(header) & {"lapack", "P", "depth", "solver"}
    assert seen[0] == seen[1] == {"lapack": "dstevd", "P": 64,
                                  "depth": spectrum._DEPTH}
    experiments.run_experiment("sigma-table", {"params": {"values": [1]}},
                               str(tmp_path / "table"), 1)
    with open(tmp_path / "table" / "summary.json") as fh:
        assert "solver" not in json.load(fh)


def test_summary_environment(tmp_path):
    experiments.run_experiment("sigma-table", {"params": {"values": [1]}},
                               str(tmp_path), 2)
    with open(tmp_path / "summary.json") as fh:
        env = json.load(fh)["environment"]
    assert set(env) == {"python", "numpy", "scipy", "threads", "cpu_count",
                        "affinity"}
    assert env["numpy"] == np.__version__
    assert env["threads"] == 2
    assert env["affinity"] == len(os.sched_getaffinity(0))


def test_oracle_xcheck_without_any_root(tmp_path):
    # kappa = 10 kills the unit mode: nothing to match, and the dense
    # top eigenvalue is negative
    res = experiments.run_experiment(
        "oracle-xcheck", {"params": {"values": [1], "kappas": [10.0]}},
        str(tmp_path), 1)
    assert [r["root"] for r in res.rows] == [False]
    assert res.passed
    assert {c["name"]: c["measured"] for c in res.checks}[
        "cf_matches_matrix"] == 0.0


def test_illposed_small_and_plot_data(tmp_path):
    cfg = {"params": {"j_list": [1, 4, 9]}}
    res = experiments.run_experiment("illposed-scaling", cfg, str(tmp_path), 1)
    assert res.passed
    plot = os.path.join(tmp_path, "plot.csv")
    experiments.emit_plot_data(str(tmp_path), plot)
    lines = open(plot).read().strip().splitlines()
    assert lines[0] == "experiment,series,x,y"
    series = {ln.split(",")[1] for ln in lines[1:]}
    assert series == {"sigma", "bound"}
    assert len(lines) == 1 + 6


def test_emit_plot_data_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        experiments.emit_plot_data(str(tmp_path / "nope"), "x.csv")


def test_cli_validate_only(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"values": [1]}}))
    rc = cli.main(["sigma-table", "--config", str(cfg), "--validate-only"])
    assert rc == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"wrong": 1}}))
    with pytest.raises(SystemExit) as err:
        cli.main(["sigma-table", "--config", str(cfg), "--validate-only"])
    assert err.value.code == 2


def test_cli_bad_list_entry_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"j_list": ["a"]}}))
    with pytest.raises(SystemExit) as err:
        cli.main(["illposed-scaling", "--config", str(cfg), "--validate-only"])
    assert err.value.code == 2
    assert "usage error: params.j_list[0]" in capsys.readouterr().err


@pytest.mark.parametrize("name,params,fragment", [
    ("slice-growth", {"dt": -0.05}, "params.dt"),
    # validates, but the run finds no unstable mode in the box
    ("diffusive-sweep", {"kappa": 10.0, "k1_max": 4, "k2_max": 3},
     "kappa = 10: no unstable mode in the box [1, 4] x [1, 3]"),
    # validates, but j = 1 cannot reach the probe time analytically
    ("lipschitz-blowup", {"j_list": [1], "t_probe": 1e6},
     "params.t_probe: j = 1"),
    # the slice truncations have a floor of 8
    ("oracle-xcheck", {"values": [1], "P": 4},
     "params.P: expected at least 8, got 4"),
    ("slice-growth", {"P": 4}, "params.P: expected at least 8, got 4"),
    ("dynamo-scaling", {"slice_P": 7},
     "params.slice_P: expected at least 8, got 7"),
    # the default mode k1_lin = 12 lies outside the band |k_i| <= 3 of n = 4
    ("nonlinear-energy", {"n": 4}, "params.n: the dealias band |k_i| <= 3"),
    # (40, 7) is stable at kappa_lin, so there is no eigenmode to seed
    ("nonlinear-energy", {"k1_lin": 40},
     "params.k1_lin, params.k2_lin: the mode (40, 7) is stable"),
    ("nonlinear-energy", {"steps_lin": 8}, "params.steps_lin"),
    # no step is taken, so the tracker holds one sample
    ("gevrey-breakdown", {"t_end": 0.001}, "params.t_end"),
    # the band |k_i| <= 1 holds 2 shells, and a radius fit needs 6
    ("gevrey-breakdown", {"n": 2}, "params.n, params.tau_field"),
    # the inviscid run cannot reach t = 50 inside the analytic window
    ("gevrey-breakdown", {"t_end": 50},
     "params.t_end: horizon 50 exceeds the analytic window"),
    # the initial data's radius is under the floor an analytic window
    # is built from
    ("gevrey-breakdown", {"tau_field": 0.01},
     "params.tau_field: estimated analyticity radius"),
    # |k|^{2r} overflows on the band: no Gevrey norm, no window
    ("gevrey-breakdown", {"r": 200}, "params.r: Gevrey weight overflowed"),
    # K0 is about 1e134 at r = 110, so tau moves by less than its ulp in
    # one step: rounding alone puts the refined ODE residual far above
    # its tolerance
    ("gevrey-breakdown", {"r": 110, "dt": 1e-200, "t_end": 1e-200},
     "params.dt, params.r: the refined ODE residual has a rounding floor"),
])
def test_cli_range_faults_are_usage_errors(tmp_path, capsys, name, params,
                                           fragment):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": params}))
    with pytest.raises(SystemExit) as err:
        cli.main([name, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "usage error: " + fragment in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path):
    rc = cli.main(["sigma-table", "--config", str(tmp_path / "none.json")])
    assert rc == 2


def test_cli_run_and_exit_zero(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"values": [1, 2]}}))
    rc = cli.main(["sigma-table", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert os.path.exists(tmp_path / "out" / "results.csv")


def test_cli_env_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setenv("MG_SPECTRA_THREADS", "3")
    assert cli._resolve_threads(None) == 3
    monkeypatch.setenv("MG_SPECTRA_THREADS", "junk")
    with pytest.raises(SystemExit):
        cli._resolve_threads(None)
    assert cli._resolve_threads(2) == 2
    assert cli._resolve_threads(0) == 1


def test_cli_threads_capped_at_affinity(monkeypatch):
    # resolving the count starts no thread
    cpus = len(os.sched_getaffinity(0))
    assert cli._resolve_threads(10 ** 6) == cpus
    monkeypatch.setenv("MG_SPECTRA_THREADS", str(10 ** 6))
    assert cli._resolve_threads(None) == cpus


def test_cli_symbol_table(tmp_path, capsys):
    out = tmp_path / "sym.csv"
    rc = cli.main(["symbol-table", "--n", "1", "--out", str(out)])
    assert rc == 0
    assert out.exists()


# sha256 of `mg-spectra symbol-table --n 3` (343 rows at Omega = mu = 1);
# it pins every digit and every signed zero of M on that cube
SYMBOL_TABLE_N3_SHA256 = \
    "2078093f5f9fe5eed27e832b405a8fc9abbdf974c133770236680ecddb86b273"


def test_cli_symbol_table_frozen(tmp_path, capsys):
    out = tmp_path / "sym.csv"
    assert cli.main(["symbol-table", "--n", "3", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SYMBOL_TABLE_N3_SHA256


# sha256 of the default `slice-growth` trajectory.csv: every RK4 step of
# the slice generator, at 17 digits, on both the eigenvector and the
# generic run
SLICE_GROWTH_TRAJECTORY_SHA256 = \
    "aa7280ff232017e33b948b0c32ed1ec3dce11a24a024841a82f840a0ef00deef"


def test_slice_growth_trajectory_frozen(tmp_path):
    res = experiments.run_experiment("slice-growth", {}, str(tmp_path), 1)
    assert res.passed
    data = (tmp_path / "trajectory.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SLICE_GROWTH_TRAJECTORY_SHA256


# sha256 of the default `diffusive-sweep` and `dynamo-scaling` results.csv:
# every swept root with its lower bound, and each kappa's argmax, its
# scalar re-solve and its slice rates, at 17 digits
SWEEP_RESULTS_SHA256 = {
    "diffusive-sweep":
        "7fbb35be3033b50eec88a212302b205d1483cb4b772e8ebafb77381dd76ad55c",
    "dynamo-scaling":
        "7b4489ebdf3607ce7a3dc2e244585191737c0d9b136c26ac2adef6894c71c35a",
}


@pytest.mark.parametrize("name", sorted(SWEEP_RESULTS_SHA256))
def test_sweep_results_frozen(tmp_path, name):
    res = experiments.run_experiment(name, {}, str(tmp_path), 1)
    assert res.passed
    data = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SWEEP_RESULTS_SHA256[name]


# sha256 of the default `sigma-table` and `oracle-xcheck` results.csv: the
# 81 roots {1, 2, 4}^4 with their brackets and residuals, and the 162
# (mode, kappa) roots against the dense oracle, at 17 digits
ROOT_TABLE_RESULTS_SHA256 = {
    "sigma-table":
        "fa6204f8f40dd690d0287ef32632bab7de91da6f55a969016113f0673719cb7e",
    "oracle-xcheck":
        "4b7ee557339076e58c3b91dd4062cef600c6d3ed2508159e0e282d65cad9ff1b",
}


@pytest.mark.parametrize("name", sorted(ROOT_TABLE_RESULTS_SHA256))
def test_root_table_results_frozen(tmp_path, name):
    res = experiments.run_experiment(name, {}, str(tmp_path), 1)
    assert res.passed
    data = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == ROOT_TABLE_RESULTS_SHA256[name]


def test_cli_plot_data_unmapped(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"values": [1]}}))
    cli.main(["sigma-table", "--config", str(cfg),
              "--out", str(tmp_path / "out")])
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["plot-data", "--results", str(tmp_path / "out"),
                  "--out", str(tmp_path / "p.csv")])
    assert err.value.code == 2


_FIELD_DIGEST = """
import hashlib
from mg_spectra import experiments
c = experiments._random_smooth_field(32, 0.6, 7, scale=0.5).coeffs
print(hashlib.sha256(c.tobytes()).hexdigest())
"""


def test_random_field_bits_independent_of_blas_threads():
    # the nonlinear-energy initial data: its normalizing l2 norm must not
    # depend on the order a threaded BLAS sums in
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        digests.add(subprocess.run(
            [sys.executable, "-c", _FIELD_DIGEST], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(digests) == 1
