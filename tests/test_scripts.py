"""The experiment scripts at small sizes, their refusals, and the one oracle
lambda-sweep that the alpha scan shares with the CLI and acceptance check 8."""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from conftest import README_CONFIG
from fracheat import acceptance, cli

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(monkeypatch, module, args):
    monkeypatch.setattr(sys, "argv", [module.__file__, *args])
    assert module.main() == 0


def test_excitation_alpha_scan_smoke(tmp_path, monkeypatch):
    scan = load_script("excitation_alpha_scan")
    args = ["--alpha-min", "1.5", "--alpha-max", "1.9", "--alpha-count", "2",
            "--n", "32", "--steps", "64", "--out", str(tmp_path), "--svg"]
    run_main(monkeypatch, scan, args)
    lines = (tmp_path / "alpha_scan.csv").read_text().splitlines()
    assert lines[0] == "alpha,e_hat,ci_lo,ci_hi,reference"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [1.5, 1.9]
    assert all(np.isfinite(r).all() and r[2] <= r[1] <= r[3] for r in rows)
    assert (tmp_path / "alpha_scan.svg").exists()


def run_mc_bias_study(tmp_path, monkeypatch, dt, t_end):
    study = load_script("mc_bias_study")
    args = ["--n", "16", "--dt", dt, "--t-end", t_end, "--paths", "32",
            "--workers", "1", "--out", str(tmp_path)]
    run_main(monkeypatch, study, args)
    return json.loads((tmp_path / "mc_bias.json").read_text())


def test_mc_bias_study_smoke(tmp_path, monkeypatch):
    report = run_mc_bias_study(tmp_path, monkeypatch, "0.0078125", "0.125")
    assert report["n_paths"] == 32 and report["flagged"] == [0, 0]
    assert np.isfinite(report["halving_ratio"])
    assert report["t_end"] == report["t"] == 0.125


def test_mc_bias_study_reports_the_time_it_measured_at(tmp_path, monkeypatch, capsys):
    # dt 0.03 does not divide t_end 0.1: the gaps are measured at 3 steps
    report = run_mc_bias_study(tmp_path, monkeypatch, "0.03", "0.1")
    assert report["t_end"] == 0.1 and report["t"] == 3 * 0.03
    assert "measured at t=0.09 (t_end 0.1 in whole coarse steps)" in capsys.readouterr().out


def test_cli_check_8_and_alpha_scan_share_one_oracle_sweep(tmp_path):
    doc = dict(README_CONFIG, outputs={"directory": str(tmp_path / "exc"), "emit_svg": False})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["excitation", "--config", str(cfg), "--oracle"]) == 0
    e_cli = cli.read_json_file(tmp_path / "exc" / "excitation.json")["e_hat"]
    e_check, _ = acceptance.excitation_index(1.5, (8.0, 16.0, 32.0, 64.0, 128.0), n=64, T=1.0, steps=256)
    e_scan, _ = acceptance.excitation_index(1.5, np.geomspace(8.0, 128.0, 5), n=64, T=1.0, steps=256)
    assert e_check == pytest.approx(e_cli, rel=1e-12)
    assert e_scan == pytest.approx(e_cli, rel=1e-12)


def test_alpha_scan_row_at_the_desk_alpha_is_check_8s_index(tmp_path, monkeypatch):
    indices = {}
    real = acceptance.excitation_index

    def recording(alpha, lambdas, n, T, steps):
        indices[alpha] = real(alpha, lambdas, n, T, steps)[0]
        return real(alpha, lambdas, n, T, steps)

    monkeypatch.setattr(acceptance, "excitation_index", recording)
    assert acceptance.check_excitation_index().passed
    monkeypatch.undo()
    scan = load_script("excitation_alpha_scan")
    args = ["--alpha-min", "1.5", "--alpha-max", "1.5", "--alpha-count", "1", "--out", str(tmp_path)]
    run_main(monkeypatch, scan, args)
    row = (tmp_path / "alpha_scan.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == indices[1.5]  # bit for bit: the scan reads check 8's levels


@pytest.mark.parametrize("name, args, message", [
    ("excitation_alpha_scan", ["--n", "32"], "grid too coarse for the row-mass window"),
    ("mc_bias_study", ["--n", "16", "--dt", "0.0078125", "--t-end", "0.125", "--paths", "3"], "antithetic"),
    ("excitation_alpha_scan", ["--alpha-count", "0", "--svg"], "--alpha-count must be at least 1, got 0"),
    ("excitation_alpha_scan", ["--alpha-count", "-1"], "--alpha-count must be at least 1, got -1"),
    ("mc_bias_study", ["--n", "32", "--paths", "16", "--lam", "8"], "second-moment march overflowed at lam=8.0"),
])
def test_a_library_value_error_is_a_usage_error(name, args, message, tmp_path, monkeypatch, capsys):
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [module.__file__, *args, "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
