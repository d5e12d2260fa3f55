import hashlib
import json
import os

import numpy as np
import pytest

from mg_spectra import cli, experiments


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
])
def test_validate_config_rejects(config, fragment):
    with pytest.raises(experiments.ExperimentError) as err:
        experiments.validate_config("sigma-table", config)
    assert fragment in str(err.value)


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
    for name, cfg in (("sigma-table", {"params": {"values": [1, 2]}}),
                      ("lipschitz-blowup", {"params": {"j_list": [1, 4]}})):
        d1, d2 = str(tmp_path / name / "a"), str(tmp_path / name / "b")
        experiments.run_experiment(name, cfg, d1, 1)
        experiments.run_experiment(name, cfg, d2, 2)
        b1 = open(os.path.join(d1, "results.csv"), "rb").read()
        b2 = open(os.path.join(d2, "results.csv"), "rb").read()
        assert b1 == b2


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
    monkeypatch.setenv("MG_SPECTRA_THREADS", "3")
    assert cli._resolve_threads(None) == 3
    monkeypatch.setenv("MG_SPECTRA_THREADS", "junk")
    with pytest.raises(SystemExit):
        cli._resolve_threads(None)
    assert cli._resolve_threads(2) == 2


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
