"""End-to-end command tests: config validation, files, determinism, selftest."""

import copy
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracheat
from conftest import README_CONFIG
from fracheat import acceptance, bounds, cli, sde, specfun

SVG_NS = "{http://www.w3.org/2000/svg}"


def base_config(out_dir, **overrides):
    doc = {
        "model": {"alpha": 1.5, "lam": 1.0},
        "discretization": {
            "n": 32,
            "t_end": 0.25,
            "dt": 1.0 / 256.0,
            "snapshot_times": [0.125, 0.25],
        },
        "sweep": {"lambda_min": 8.0, "lambda_max": 128.0, "count": 5},
        "ensemble": {"n_paths": 12, "master_seed": 7, "worker_count": 2},
        "outputs": {"directory": str(out_dir), "emit_svg": False},
    }
    for path, value in overrides.items():
        cur = doc
        parts = path.split(".")
        for part in parts[:-1]:
            cur = cur.setdefault(part, {})
        if value is ...:
            del cur[parts[-1]]
        else:
            cur[parts[-1]] = value
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_files_and_echoes_config(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, base_config(out))
    assert cli.main(["simulate", "--config", cfg]) == 0
    meta = cli.read_json_file(out / "metadata.json")
    assert meta["model"]["alpha"] == 1.5
    assert meta["n_paths"] == 12
    assert meta["master_seed"] == 7
    assert meta["flagged_count"] == 0
    data = cli.read_ensemble_csv(out / "ensemble.csv")
    assert data["snapshots"].shape == (2, 12, 32)


def test_simulate_is_deterministic_across_runs_and_workers(tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cfg1 = write_config(tmp_path, base_config(out1), "c1.json")
    cfg2 = write_config(tmp_path, base_config(out2), "c2.json")
    cfg3 = write_config(
        tmp_path, base_config(out3, **{"ensemble.worker_count": 4}), "c3.json"
    )
    for cfg in (cfg1, cfg2, cfg3):
        assert cli.main(["simulate", "--config", cfg]) == 0
    b1 = (out1 / "ensemble.csv").read_bytes()
    assert b1 == (out2 / "ensemble.csv").read_bytes()
    assert b1 == (out3 / "ensemble.csv").read_bytes()


@pytest.mark.parametrize(
    ("override", "named_field"),
    [
        ({"model.alpha": ...}, "model.alpha"),
        ({"discretization.t_end": ...}, "discretization.t_end"),
        ({"ensemble.n_paths": ...}, "ensemble.n_paths"),
        ({"model.alpha": 2.5}, "model.alpha"),
        ({"model.sigma.kind": "cubic"}, "model.sigma"),
        ({"model.u0": [1.0, 2.0]}, "model.u0"),
        ({"discretization.snapshot_times": [0.5]}, "discretization.snapshot_times"),
        ({"sweep.lambda_min": -2.0}, "sweep.lambda_min"),
        ({"ensemble.worker_count": 0}, "ensemble.worker_count"),
        # JSON true is not a number, though Python counts bools as ints
        ({"model.u0": [True] * 32}, "model.u0"),
        (
            {"discretization.t_end": 1.0, "discretization.snapshot_times": [True]},
            "discretization.snapshot_times",
        ),
        ({"model.lam": -1.0}, "model.lam"),
        ({"model.p": math.inf}, "model.p"),
        ({"model.mu": 0.5}, "model.mu"),
        ({"discretization.dt": math.nan}, "discretization.dt"),
        ({"discretization.n": math.inf}, "discretization.n"),
        ({"sweep.count": 1001}, "sweep.count"),
        ({"model.alpha": None}, "model.alpha"),
        (
            {"model.sigma": {"kind": "custom-table", "l_sigma": 0.5, "L_sigma": 1.0,
                             "table_u": [0, math.nan, 2], "table_values": [0, 0.8, 1.2]}},
            "model.sigma.table_u",
        ),
        ({"sweep.count": 4}, "sweep.count"),
        # refused when the run is assembled, not by parse_config
        ({"model.u0": [0.0] * 32}, "config error: model: u0 must be strictly positive"),
        ({"discretization.dt": 0.5}, "config error: discretization: need 0 < dt <= t_end"),
        ({"discretization.snapshot_times": [0.2, 0.201]}, "snapshot times collide"),
        # refused by parse_config
        (
            {"discretization.t_end": 1.0, "discretization.snapshot_times": [0.5, 0.25]},
            "discretization.snapshot_times: entries must be increasing",
        ),
        # refused when the run is assembled: no node of 4 lies in the window [mu, L - mu]
        ({"discretization.n": 4, "model.mu": 0.45}, "config error: model: no grid nodes inside [0.45, 0.55]"),
        # refused by the sde.SigmaSpec that parse_config builds
        (
            {"model.sigma": {"kind": "custom-table", "l_sigma": 0.5, "L_sigma": 1.0, "table_u": [0, 1]}},
            "model.sigma: custom-table sigma requires table_u and table_values",
        ),
        (
            {"model.sigma": {"kind": "custom-table", "l_sigma": 0.5, "L_sigma": 1.0,
                             "table_u": [0, 1], "table_values": [0, 0.8, 1.2]}},
            "model.sigma: sigma table must be matching 1-d arrays with >= 2 points",
        ),
        (
            {"model.sigma": {"kind": "custom-table", "l_sigma": 0.5, "L_sigma": 1.0,
                             "table_u": [0.5, 1], "table_values": [0.4, 0.8]}},
            "model.sigma: sigma table must start at (0, 0) with increasing u",
        ),
        (
            {"model.sigma": {"kind": "custom-table", "l_sigma": 0.5, "L_sigma": 1.0,
                             "table_u": [0, 1, 1.5], "table_values": [0, 0.5, 1.5]}},
            "model.sigma: sigma table violates the Lipschitz bound",
        ),
        (
            {"model.sigma": {"kind": "linear", "table_u": [0, 1], "table_values": [0, 1]}},
            "model.sigma: table data is only valid for kind='custom-table', not 'linear'",
        ),
    ],
)
def test_config_errors_name_the_field(tmp_path, capsys, override, named_field):
    cfg = write_config(tmp_path, base_config(tmp_path / "o", **override))
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert named_field in err


def test_null_is_an_absent_field(tmp_path):
    doc = base_config(tmp_path, **{"model.lam": None, "discretization.dt": None, "sweep.count": None})
    cfg = cli.parse_config(doc)
    assert (cfg.lam, cfg.dt, len(cfg.lambdas)) == (1.0, None, 5)
    assert cli.parse_config(base_config(tmp_path, **{"sweep.count": cli._SWEEP_COUNT_MAX}))


def test_sweep_refuses_a_negative_lam_it_does_not_read(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path / "o", **{"model.lam": -1.0}))
    assert cli.main(["sweep", "--config", cfg, "--oracle"]) == 2
    assert "config error: model.lam: must be >= 0.0, got -1.0" in capsys.readouterr().err


# the README example config, the base of the parser fuzz below
CONFIG_FIELDS = [
    "model.alpha", "model.L", "model.mu", "model.lam", "model.p", "model.u0",
    "model.sigma.kind", "model.sigma.l_sigma", "model.sigma.L_sigma",
    "model.sigma.table_u", "model.sigma.table_values",
    "discretization.n", "discretization.dt", "discretization.t_end", "discretization.snapshot_times",
    "sweep.lambda_min", "sweep.lambda_max", "sweep.count",
    "ensemble.n_paths", "ensemble.master_seed", "ensemble.worker_count",
    "outputs.directory", "outputs.emit_svg",
]
# the fields whose rule reads another: a bad value of the other may fail them
READS = {
    "discretization.snapshot_times": "discretization.t_end",
    "sweep.lambda_max": "sweep.lambda_min",
    "model.u0": "discretization.n",
    "model.mu": "model.L",
}
ODD_VALUES = [None, math.nan, math.inf, -math.inf, 1e30, 2**63, -1, 0, 0.5, "a string", True, [], {}, [1.0, None]]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_FIELDS), st.sampled_from(range(len(ODD_VALUES))), min_size=1, max_size=3))
def test_parse_config_returns_or_names_a_replaced_field(replaced):
    doc = copy.deepcopy(README_CONFIG)
    for path, i in replaced.items():
        *parents, key = path.split(".")
        cur = doc
        for part in parents:
            cur = cur.setdefault(part, {})
        cur[key] = copy.deepcopy(ODD_VALUES[i])
    named = set(replaced) | {field for field, other in READS.items() if other in replaced}
    if any(path.startswith("model.sigma.") for path in replaced):
        named.add("model.sigma")
    try:
        cli.parse_config(doc)
    except cli.ConfigError as exc:
        assert exc.field in named, (exc, replaced)


@pytest.mark.parametrize(
    ("flag", "value", "field"),
    [("--seed", "-1", "ensemble.master_seed"), ("--workers", "0", "ensemble.worker_count"),
     ("--out", "", "outputs.directory")],
)
def test_a_bad_flag_is_refused_as_the_field_it_sets(tmp_path, capsys, flag, value, field):
    cfg = write_config(tmp_path, base_config(tmp_path / "o"))
    assert cli.main(["simulate", "--config", cfg, flag, value]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "moments"])
def test_svg_flag_only_on_the_commands_that_write_charts(tmp_path, command):
    cfg = write_config(tmp_path, base_config(tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--svg"])
    assert exc.value.code == 2


def test_missing_config_flag_is_a_config_error(capsys):
    assert cli.main(["simulate"]) == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("text", "error"),
    [
        (None, "config error: --config: cannot read "),
        ('{"model":\n  {"alpha": 1.5,}\n}', "config error: --config: .*config.json line 2: "),
        ("[1, 2]", "config error: --config: top level must be a JSON object"),
    ],
    ids=["missing", "invalid", "list"],
)
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, text, error):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert re.search(error, capsys.readouterr().err)


def test_output_directory_under_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    # refused before any ensemble runs or any check of the suite
    calls = []
    ensemble, selftest = cli.run_ensemble, acceptance.run_selftest
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **k: calls.append("ensemble") or ensemble(*a, **k))
    monkeypatch.setattr(acceptance, "run_selftest", lambda *a, **k: calls.append("check") or selftest(*a, **k))
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "o")
    cfg = write_config(tmp_path, base_config(out))
    for command in ("simulate", "moments", "sweep", "excitation"):
        assert cli.main([command, "--config", cfg]) == 2
        assert "config error: outputs.directory: not writable: " in capsys.readouterr().err
    assert cli.main(["selftest", "quick", "--out", out]) == 2
    assert "config error: --out: not writable: " in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_selftest_refuses_a_worker_count_below_one_before_any_check(workers, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "run_selftest", lambda *a, **k: calls.append(a))
    out = tmp_path / "o"
    for level in ("quick", "full"):
        assert cli.main(["selftest", level, "--workers", workers, "--out", str(out)]) == 2
        assert f"config error: --workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_out_flag_on_a_config_without_an_outputs_section(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, base_config(tmp_path / "unused", outputs=...))
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["ensemble.csv", "metadata.json"]


@pytest.mark.parametrize("command", ["simulate", "moments", "sweep", "excitation"])
def test_a_time_step_too_coarse_for_the_operator_is_a_config_error(tmp_path, capsys, command):
    # dt lambda1 = 20.2 at n 16: every Monte Carlo command refuses it before it runs
    doc = base_config(tmp_path / "o", **{"discretization.n": 16, "discretization.t_end": 4.0,
                                         "discretization.dt": 4.0, "discretization.snapshot_times": ...})
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config error: discretization.dt: dt lambda1 = 20.2 > 10; refine dt" in err
    assert not (tmp_path / "o").exists()


def test_flag_overrides_take_precedence(tmp_path):
    out = tmp_path / "orig"
    out2 = tmp_path / "forced"
    cfg = write_config(tmp_path, base_config(out))
    assert cli.main(["simulate", "--config", cfg, "--seed", "99", "--out", str(out2)]) == 0
    meta = cli.read_json_file(out2 / "metadata.json")
    assert meta["master_seed"] == 99
    assert not out.exists()


def test_simulate_and_oracle_sweep_print_no_p_advisory(tmp_path):
    # neither consumes p: the advisory belongs to the moment estimators.  A
    # fresh interpreter, so no test-suite warning filter hides it
    cfg = write_config(tmp_path, base_config(tmp_path / "out"))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fracheat.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for args in (["simulate"], ["sweep", "--oracle"]):
        proc = subprocess.run(
            [sys.executable, "-W", "always::UserWarning", "-m", "fracheat", *args, "--config", cfg],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "", proc.stderr


def test_estimator_commands_print_the_p_advisory_once(tmp_path):
    # the three estimators are called from one line, and the default filter
    # prints a warning once per calling line: one advisory per command
    cfg = write_config(tmp_path, base_config(tmp_path / "out"))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fracheat.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for args in (["moments"], ["sweep"], ["excitation"]):
        proc = subprocess.run(
            [sys.executable, "-W", "default::UserWarning", "-m", "fracheat", *args, "--config", cfg],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("is at or below") == 1, (args, proc.stderr)


def test_fits_and_excitation_payloads_carry_exactly_their_keys(tmp_path):
    shared = {"mode", "p", "alpha", "reference_slope", "lambda_grid", "t_end", "e_hat", "e_ci", "warnings"}
    out = tmp_path / "keys"
    cfg = write_config(tmp_path, base_config(out))
    for flags, mc_keys, excitation_key in (
        (["--oracle"], set(), "log_phi"),
        ([], {"flagged_total"}, "phi"),
    ):
        assert cli.main(["sweep", "--config", cfg, *flags]) == 0
        fits = cli.read_json_file(out / "fits.json")
        assert set(fits) == shared | {"gamma_hat", "gamma_ci"} | mc_keys
        assert cli.main(["excitation", "--config", cfg, *flags]) == 0
        payload = cli.read_json_file(out / "excitation.json")
        assert set(payload) == shared | {excitation_key}
        assert fits["e_hat"] is not None
        assert (payload["e_hat"], payload["e_ci"]) == (fits["e_hat"], fits["e_ci"])


def test_oracle_sweep_fits_and_svg(tmp_path):
    out = tmp_path / "sweep"
    doc = base_config(
        out,
        **{
            "discretization.t_end": 1.0,
            "discretization.snapshot_times": [0.5, 1.0],
            "outputs.emit_svg": True,
        },
    )
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg, "--oracle"]) == 0
    fits = cli.read_json_file(out / "fits.json")
    assert fits["mode"] == "oracle"
    assert fits["reference_slope"] == pytest.approx(6.0)
    assert 5.1 <= fits["e_hat"] <= 6.9
    assert fits["warnings"] == []

    result = cli.read_sweep_csv(out / "sweep.csv")
    assert len(result.rows) == 10  # 5 lambdas x 2 snapshot times
    assert result.to_csv() == (out / "sweep.csv").read_text()

    chart = ET.parse(out / "sweep_phi.svg").getroot()
    assert len(chart.findall(f"{SVG_NS}polyline")) == 5  # one per lambda
    exc_chart = ET.parse(out / "excitation.svg").getroot()
    assert len(exc_chart.findall(f"{SVG_NS}polyline")) == 1
    slope_labels = [el.text for el in exc_chart.iter(f"{SVG_NS}text")]
    assert any("reference slope 6" in (s or "") for s in slope_labels)


def test_oracle_moment_chart_shows_growth_at_every_lambda(tmp_path):
    # the README config: ln Phi_2(1) is 5101 at lambda 8 and 8.6e10 at lambda 128,
    # far past the e^700 a chart of Phi_p itself can reach
    out = tmp_path / "chart"
    doc = base_config(
        out,
        **{
            "model.lam": 4.0,
            "discretization.n": 64,
            "discretization.t_end": 1.0,
            "discretization.snapshot_times": [0.25, 0.5, 1.0],
            "outputs.emit_svg": True,
        },
    )
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc), "--oracle"]) == 0
    chart = ET.parse(out / "sweep_phi.svg").getroot()
    assert "asinh(ln Phi_2)" in [el.text for el in chart.iter(f"{SVG_NS}text")]
    curves = [
        np.array([float(pt.split(",")[1]) for pt in pl.get("points").split()])
        for pl in chart.findall(f"{SVG_NS}polyline")
    ]
    assert len(curves) == 5
    for y in curves:  # lambda 8 first; SVG y falls as ln Phi_p grows
        assert y.size == 257
        assert np.all(np.diff(y) < 0)
    # small noise: ln Phi_p < 0 at every time and lambda, and still drawn
    small = base_config(
        tmp_path / "small",
        **{"sweep.lambda_min": 0.05, "sweep.lambda_max": 0.8, "outputs.emit_svg": True},
    )
    assert cli.main(["sweep", "--config", write_config(tmp_path, small, "small.json"), "--oracle"]) == 0
    chart = ET.parse(tmp_path / "small" / "sweep_phi.svg").getroot()
    assert len(chart.findall(f"{SVG_NS}polyline")) == 5


def test_sweep_builds_charts_only_when_svg_is_emitted(tmp_path, monkeypatch):
    calls = []
    real_chart = cli.svgplot.line_chart

    def counting_chart(*args, **kwargs):
        calls.append(kwargs["title"])
        return real_chart(*args, **kwargs)

    monkeypatch.setattr(cli.svgplot, "line_chart", counting_chart)
    out = tmp_path / "nosvg"
    cfg = write_config(tmp_path, base_config(out))
    assert cli.main(["sweep", "--config", cfg, "--oracle"]) == 0
    assert calls == []
    assert not list(out.glob("*.svg"))
    assert cli.main(["sweep", "--config", cfg, "--oracle", "--svg"]) == 0
    assert sorted(p.name for p in out.glob("*.svg")) == ["excitation.svg", "sweep_phi.svg"]
    assert len(calls) == 2


def test_sweep_rejects_short_lambda_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path / "o", **{"sweep.count": 3}))
    assert cli.main(["sweep", "--config", cfg, "--oracle"]) == 2
    assert "sweep.count" in capsys.readouterr().err


def test_oracle_requires_linear_sigma(tmp_path, capsys):
    doc = base_config(
        tmp_path / "o",
        **{"model.sigma.kind": "bounded-linear", "model.sigma.l_sigma": 0.5},
    )
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg, "--oracle"]) == 2
    assert "model.sigma.kind" in capsys.readouterr().err


def test_oracle_requires_p_2(tmp_path, capsys):
    # the oracle solves the second-moment equation: Phi_2 must not be labelled Phi_6
    out = tmp_path / "o"
    cfg = write_config(tmp_path, base_config(out, **{"model.p": 6.0}))
    for command in ("sweep", "excitation"):
        assert cli.main([command, "--config", cfg, "--oracle"]) == 2
        assert "config error: model.p" in capsys.readouterr().err
    assert not out.exists()


def test_mc_sweep_with_small_noise_warns_and_writes_partial_output(tmp_path):
    out = tmp_path / "mc"
    doc = base_config(
        out,
        **{
            "discretization.n": 16,
            "ensemble.n_paths": 6,
            "sweep.lambda_min": 0.125,
            "sweep.lambda_max": 2.0,
        },
    )
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg]) == 0
    fits = cli.read_json_file(out / "fits.json")
    assert fits["e_hat"] is None
    assert any("excitation fit skipped" in w for w in fits["warnings"])
    assert (out / "sweep.csv").exists()  # partial output still lands


def test_excitation_command_oracle(tmp_path):
    out = tmp_path / "exc"
    doc = base_config(out, **{"discretization.t_end": 1.0, "outputs.emit_svg": True})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["excitation", "--config", cfg, "--oracle"]) == 0
    payload = cli.read_json_file(out / "excitation.json")
    assert 5.1 <= payload["e_hat"] <= 6.9
    assert payload["reference_slope"] == pytest.approx(6.0)
    ET.parse(out / "excitation.svg")


def test_mc_excitation_reads_the_last_snapshot_when_t_end_is_not_one(tmp_path):
    out = tmp_path / "exc"
    doc = base_config(
        out,
        **{
            "discretization.n": 16,
            "discretization.snapshot_times": [0.125],
            "ensemble.n_paths": 4,
        },
    )
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg]) == 0
    sweep_phi = {r.lam: r.phi_p.value for r in cli.read_sweep_csv(out / "sweep.csv").rows}
    assert cli.main(["excitation", "--config", cfg]) == 0
    payload = cli.read_json_file(out / "excitation.json")
    assert payload["phi"]
    assert {float(k): v for k, v in payload["phi"].items()} == {
        lam: sweep_phi[lam] for lam in map(float, payload["phi"])
    }


def test_snapshot_rows_take_the_finite_paths_from_the_ensemble(tmp_path, small_ensemble, monkeypatch):
    # the ensemble found its non-finite rows when it was built; the rows and
    # all three estimators read that mask and scan no snapshot again
    snaps = small_ensemble.snapshots.copy()
    snaps[1:, 5] = np.nan
    flagged = small_ensemble.flagged.copy()
    flagged[5] = True
    ens = sde.PathEnsemble(
        master_seed=small_ensemble.master_seed, snapshots=snaps, flagged=flagged,
        params=small_ensemble.params, disc=small_ensemble.disc,
    )
    cfg = cli.parse_config(base_config(tmp_path))
    calls = []
    isfinite = np.isfinite

    def spy(*args, **kwargs):
        calls.append(args)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    rows = cli._snapshot_rows(cfg, ens, 1.0, [])
    assert calls == []
    assert [r.phi_p.n_effective for r in rows] == [ens.n_paths, ens.n_paths - 1]


def test_moments_command(tmp_path):
    out = tmp_path / "mom"
    cfg = write_config(tmp_path, base_config(out))
    assert cli.main(["moments", "--config", cfg]) == 0
    result = cli.read_sweep_csv(out / "moments.csv")
    assert len(result.rows) == 2
    assert all(r.sup_moment.value >= r.inf_subinterval_moment.value for r in result.rows)
    summary = cli.read_json_file(out / "moments.json")
    assert summary["flagged_count"] == 0
    assert len(summary["estimates"]) == 2


def test_moments_command_at_lambda_zero(tmp_path):
    # the config accepts lam >= 0; lam 0 is the noiseless equation
    out = tmp_path / "mom"
    cfg = write_config(tmp_path, base_config(out, **{"model.lam": 0.0}))
    assert cli.main(["moments", "--config", cfg]) == 0
    result = cli.read_sweep_csv(out / "moments.csv")
    assert [(r.lam, r.t) for r in result.rows] == [(0.0, 0.125), (0.0, 0.25)]
    assert all(r.phi_p.value > 0.0 and r.phi_p.n_effective == 12 for r in result.rows)


def test_selftest_quick_passes_and_reports(tmp_path, capsys):
    rc = cli.main(["selftest", "quick", "--out", str(tmp_path)])
    report = cli.read_json_file(tmp_path / "selftest.json")
    assert rc == 0
    assert report["passed"] is True
    assert report["level"] == "quick"
    assert report["n_checks"] == 8
    names = {c["name"] for c in report["checks"]}
    assert "special-functions" in names
    assert "determinism-accounting" in names
    assert "mc-vs-oracle" not in names  # full tier only
    out = capsys.readouterr().out
    assert "PASS" in out


def test_selftest_corrupted_gamma_fails_naming_special_functions(tmp_path, monkeypatch):
    # every Mittag-Leffler series term ratio is a ratio of Gamma values: scale them all
    saved_cache = copy.copy(acceptance._CACHE)
    acceptance._CACHE.clear()  # no clean curve cached by an earlier test may stand in
    ratios = specfun._term_ratios
    monkeypatch.setattr(specfun, "_term_ratios", lambda beta, K: ratios(beta, K) * (1.0 + 1e-6))
    try:
        rc = cli.main(["selftest", "quick", "--out", str(tmp_path)])
    finally:
        acceptance._CACHE.clear()
        acceptance._CACHE.update(saved_cache)
    report = cli.read_json_file(tmp_path / "selftest.json")
    assert rc == 1
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "special-functions" in failed


def test_selftest_corrupted_series_table_fails_renewal_equality(tmp_path, monkeypatch):
    # scale every series term ratio.  Check 2 compares against
    # these series within 1%: 1 + 1e-6 moves its worst gap only from
    # 0.4760% to 0.4760%, 1 + 1e-3 to 5.6%.
    saved_cache = copy.copy(acceptance._CACHE)
    acceptance._CACHE.clear()  # no clean curve cached by an earlier test may stand in
    ratios = specfun._term_ratios
    monkeypatch.setattr(specfun, "_term_ratios", lambda beta, K: ratios(beta, K) * (1.0 + 1e-3))
    try:
        rc = cli.main(["selftest", "quick", "--out", str(tmp_path)])
    finally:
        acceptance._CACHE.clear()
        acceptance._CACHE.update(saved_cache)
    report = cli.read_json_file(tmp_path / "selftest.json")
    assert rc == 1
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "renewal-equality" in failed


def test_ensemble_csv_roundtrip_is_bitwise(tmp_path, small_ensemble):
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    data = cli.read_ensemble_csv(path)
    assert np.array_equal(data["snapshots"], small_ensemble.snapshots)
    assert np.array_equal(data["nodes"], small_ensemble.grid.nodes)
    assert data["snapshot_times"] == tuple(float(t) for t in small_ensemble.snapshot_times)


def held(line):
    """What a data line of an ensemble CSV holds, as the reader's refusals say it."""
    k, t, x, _ = line.rstrip("\n").split(",")
    return f"path {k}, t={t}, x={x}"


def refused(name, n, line, want):
    """The whole refusal of file line ``n``, holding ``line``, as a regex."""
    return re.escape(f"{name} line {n}: {held(line)} where the writer puts {want}") + "$"


def test_read_ensemble_csv_rejects_incomplete_file(tmp_path, small_ensemble):
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("".join(lines[:-10]))
    with pytest.raises(ValueError) as exc:
        cli.read_ensemble_csv(truncated)
    assert str(exc.value) == (
        f"{truncated}: the file ends inside snapshot 2 after 8182 data rows, in snapshots of 64 paths x 64 nodes"
    )
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("".join(lines[:-1] + [lines[-2]]))
    with pytest.raises(ValueError, match=refused("doubled.csv", len(lines), lines[-2], held(lines[-1]))):
        cli.read_ensemble_csv(doubled)
    huge = tmp_path / "huge.csv"
    # a path index past int64 on an otherwise valid last row
    huge.write_text("".join(lines[:-1] + ["1" + "0" * 20 + lines[-1][lines[-1].index(","):]]))
    with pytest.raises(ValueError, match=f"huge.csv line {len(lines)}: "):
        cli.read_ensemble_csv(huge)


def test_read_ensemble_csv_names_the_bad_line_past_a_chunk_boundary(tmp_path, small_ensemble, monkeypatch):
    # chunks of 5 data lines (file lines 2-6, 7-11, 12-16, ...): line 13 is
    # the second line of the third chunk
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 5)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    assert np.array_equal(cli.read_ensemble_csv(path)["snapshots"], small_ensemble.snapshots)
    lines = path.read_text().splitlines(keepends=True)
    n = 13
    good = lines[n - 1]
    for name, bad in {
        "three_fields": good[: good.rindex(",")] + "\n",
        "text_u": good[: good.rindex(",") + 1] + "abc\n",
        "blank": "\n",
        "comment": "#" + good,
    }.items():
        bad_file = tmp_path / f"{name}.csv"
        bad_file.write_text("".join(lines[: n - 1] + [bad] + lines[n:]))
        with pytest.raises(ValueError, match=f"{name}.csv line {n}: "):
            cli.read_ensemble_csv(bad_file)


def test_read_ensemble_csv_refuses_what_loadtxt_refuses(tmp_path, small_ensemble, monkeypatch):
    # Python's int and float take underscores ("1_0" is 10); the reader's
    # line-by-line pass uses loadtxt's grammar, which does not
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 5)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    n = 13
    k, t, x, _ = lines[n - 1].split(",")
    for name, bad in {"path": f"1_0,{t},{x},1.0\n", "value": f"{k},{t},{x},1_0.0\n"}.items():
        bad_file = tmp_path / f"{name}.csv"
        bad_file.write_text("".join(lines[: n - 1] + [bad] + lines[n:]))
        with pytest.raises(ValueError, match=f"{name}.csv line {n}: could not convert string '1_0"):
            cli.read_ensemble_csv(bad_file)


def test_read_ensemble_csv_says_which_field_of_a_line_it_refuses(tmp_path, small_ensemble, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 5)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    n = 13
    k, t, x, u = lines[n - 1].rstrip("\n").split(",")
    for name, bad, said in (
        ("three", f"{k},{t},{x}", "expected 4 fields, got 3"),
        ("five", f"{k},{t},{x},{u},", "expected 4 fields, got 5"),
        ("blank", "", "expected 4 fields, got 1"),
        ("path", f"1_0,{t},{x},{u}", "could not convert string '1_0' to int64 (field path)"),
        ("value", f"{k},{t},{x},1_0.0", "could not convert string '1_0.0' to float64 (field u)"),
        ("empty_t", f"{k},,{x},{u}", "could not convert string '' to float64 (field t)"),
    ):
        bad_file = tmp_path / f"{name}.csv"
        bad_file.write_text("".join(lines[: n - 1] + [bad + "\n"] + lines[n:]))
        with pytest.raises(ValueError) as exc:
            cli.read_ensemble_csv(bad_file)
        assert str(exc.value) == f"{bad_file} line {n}: {said}"


def test_read_ensemble_csv_new_time_inside_a_path_at_a_chunk_boundary(tmp_path, monkeypatch):
    # the first new time starts the second chunk but lands inside path 1
    # (X = 2): the file is not in the writer's order, whatever follows
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 3)
    path = tmp_path / "ens.csv"
    path.write_text("path,t,x,u\n0,0.125,0.5,1.0\n0,0.125,0.25,2.0\n1,0.125,0.5,3.0\n0,0.25,0.25,4.0\n")
    with pytest.raises(ValueError, match=refused("ens.csv", 5, "0,0.25,0.25,4.0", "path 1, t=0.125, x=0.25")):
        cli.read_ensemble_csv(path)


def through_a_fifo(src, read):
    """``read`` of a FIFO that a thread fills by copying the file ``src``
    in small blocks."""
    fifo = src.with_suffix(".fifo")
    os.mkfifo(fifo)

    def feed():
        try:
            with open(src, "rb") as fin, open(fifo, "wb") as fout:
                shutil.copyfileobj(fin, fout)
        except BrokenPipeError:  # the reader refused the file and closed the pipe
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


def test_read_ensemble_csv_reads_a_pipe_in_the_writers_order(tmp_path, small_ensemble):
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    data = through_a_fifo(path, cli.read_ensemble_csv)
    assert data["snapshot_times"] == tuple(float(t) for t in small_ensemble.snapshot_times)
    assert np.array_equal(data["snapshots"], small_ensemble.snapshots)
    # two rows of snapshot 2, path 6 swapped: refused at the first, past
    # the first chunk and before the writer has written the rest
    lines = path.read_text().splitlines(keepends=True)
    n = 1 + 64 * 70 + 10
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join(lines[: n - 1] + [lines[n], lines[n - 1]] + lines[n + 1 :]))
    with pytest.raises(ValueError, match=refused("swapped.fifo", n, lines[n], held(lines[n - 1]))):
        through_a_fifo(swapped, cli.read_ensemble_csv)


def test_read_ensemble_csv_names_a_row_out_of_order_before_a_later_malformed_line(tmp_path):
    # one chunk: its rows before the malformed line are order-checked first
    path = tmp_path / "ens.csv"
    path.write_text("path,t,x,u\n1,0.5,0.25,1.0\n0,0.5,0.5,1.0\n0,0.5,abc,1.0\n")
    message = "ens.csv line 2: path 1, t=0.5, x=0.25 where the writer puts path 0 at a finite time and node"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        cli.read_ensemble_csv(path)


def test_read_ensemble_csv_refuses_a_header_of_three_fields(tmp_path):
    path = tmp_path / "ens.csv"
    path.write_text("path,t,x\n0,0.5,0.25\n")
    with pytest.raises(ValueError, match="ens.csv: unexpected ensemble CSV header 'path,t,x'$"):
        cli.read_ensemble_csv(path)


@pytest.mark.parametrize(
    "row", ["0,nan,0.25,1.0", "0,inf,0.25,1.0", "0,0.5,-inf,1.0", "0,0.5,nan,1.0"]
)
def test_read_ensemble_csv_rejects_non_finite_time_or_node(tmp_path, row):
    path = tmp_path / "ens.csv"
    path.write_text(f"path,t,x,u\n0,0.5,0.25,1.0\n{row}\n")
    want = "path 0, t=0.5 at a new finite node, or path 1, t=0.5, x=0.25, or path 0, a finite t > 0.5, x=0.25"
    with pytest.raises(ValueError, match=refused("ens.csv", 3, row, want)):
        cli.read_ensemble_csv(path)
    path.write_text(f"path,t,x,u\n{row}\n")
    with pytest.raises(ValueError, match=refused("ens.csv", 2, row, "path 0 at a finite time and node")):
        cli.read_ensemble_csv(path)


def test_read_ensemble_csv_rejects_off_grid_rows(tmp_path, small_ensemble, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 100)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    n = 64 * 5 + 3  # path 5, node 1 of the first snapshot
    k, t, x, u = lines[n - 1].split(",")
    for name, row in (("negative", f"-1,{t},{x},{u}"), ("stray_node", f"{k},{t},0.123,{u}")):
        bad_file = tmp_path / f"{name}.csv"
        bad_file.write_text("".join(lines[: n - 1] + [row] + lines[n:]))
        with pytest.raises(ValueError, match=refused(f"{name}.csv", n, row, held(lines[n - 1]))):
            cli.read_ensemble_csv(bad_file)
    far = tmp_path / "far_path.csv"
    far_row = str(10**15) + lines[-1][lines[-1].index(","):]
    far.write_text("".join(lines[:-1] + [far_row]))
    with pytest.raises(ValueError, match=refused("far_path.csv", len(lines), far_row, held(lines[-1]))):
        cli.read_ensemble_csv(far)
    header_only = tmp_path / "empty.csv"
    header_only.write_text(lines[0])
    with pytest.raises(ValueError, match="empty.csv: no data rows$"):
        cli.read_ensemble_csv(header_only)


def test_read_ensemble_csv_counts_a_row_written_twice_within_and_across_chunks(tmp_path, small_ensemble, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 100)  # file lines 2-101, 102-201, ...
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    x0 = lines[1].split(",")[2]
    # within path 0 at the first time, whose nodes are still being read;
    # and after the last snapshot, where only a new snapshot may begin
    for name, doubled, n, want in (
        ("within", lines[:50] + [lines[49]] + lines[50:], 51,
         f"path 0, t=0.125 at a new finite node, or path 1, t=0.125, x={x0}, or path 0, a finite t > 0.125, x={x0}"),
        ("across", lines + [lines[49]], len(lines) + 1, f"path 0, a finite t > 0.25, x={x0}"),
    ):
        bad_file = tmp_path / f"{name}.csv"
        bad_file.write_text("".join(doubled))
        with pytest.raises(ValueError, match=refused(f"{name}.csv", n, lines[49], want)):
            cli.read_ensemble_csv(bad_file)


def test_read_ensemble_csv_counts_a_far_path_in_little_memory(tmp_path, small_ensemble):
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    far = tmp_path / "far_path.csv"
    far.write_text("".join(lines[:-1] + [str(10**15) + lines[-1][lines[-1].index(","):]]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"far_path.csv line {len(lines)}: path {10**15}, "):
            cli.read_ensemble_csv(far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_read_ensemble_csv_reads_a_grid_wider_than_a_chunk_in_one_pass(tmp_path, small_ensemble, monkeypatch):
    # 64 nodes, 16 lines a chunk: path 0 at the first time spans four chunks
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 16)
    parsed, parse_rows = [], cli._parse_rows

    def counted(path, lines, lineno, row):
        parsed.append(len(lines))
        return parse_rows(path, lines, lineno, row)

    monkeypatch.setattr(cli, "_parse_rows", counted)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    data = cli.read_ensemble_csv(path)
    assert np.array_equal(data["snapshots"], small_ensemble.snapshots)
    assert np.array_equal(data["nodes"], small_ensemble.grid.nodes)
    assert sum(parsed) == small_ensemble.snapshots.size


def test_read_ensemble_csv_memory_grows_with_its_output_only(tmp_path, desk_grid, desk_params):
    growth = {}
    for n_paths in (512, 2048):
        snaps = np.random.default_rng(n_paths).standard_normal((2, n_paths, desk_grid.n))
        disc = sde.Discretization(grid=desk_grid, dt=0.125, t_end=0.25, snapshot_times=(0.125, 0.25))
        path = tmp_path / f"ens{n_paths}.csv"
        sde.PathEnsemble(
            master_seed=0, snapshots=snaps, flagged=np.zeros(n_paths, dtype=bool),
            params=desk_params, disc=disc,
        ).write_csv(path)
        tracemalloc.start()
        try:
            data = cli.read_ensemble_csv(path)
            growth[n_paths] = (tracemalloc.get_traced_memory()[1], data["snapshots"].nbytes)
        finally:
            tracemalloc.stop()
        assert np.array_equal(data["snapshots"], snaps)
        del data
    # 4x the paths: the peak may grow by the output and slack, not by
    # arrays of one entry per row
    (peak_1, out_1), (peak_4, out_4) = growth[512], growth[2048]
    assert peak_4 - peak_1 <= 3 * (out_4 - out_1)


def test_read_ensemble_csv_memory_through_a_pipe_grows_with_its_output_only(tmp_path, desk_grid, desk_params):
    # the bound of the test above, on a FIFO that a thread fills
    def traced_read(fifo):
        tracemalloc.start()
        try:
            data = cli.read_ensemble_csv(fifo)
            return data, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = {}
    for n_paths in (512, 2048):
        snaps = np.random.default_rng(n_paths).standard_normal((2, n_paths, desk_grid.n))
        disc = sde.Discretization(grid=desk_grid, dt=0.125, t_end=0.25, snapshot_times=(0.125, 0.25))
        path = tmp_path / f"ens{n_paths}.csv"
        sde.PathEnsemble(
            master_seed=0, snapshots=snaps, flagged=np.zeros(n_paths, dtype=bool),
            params=desk_params, disc=disc,
        ).write_csv(path)
        data, peak = through_a_fifo(path, traced_read)
        assert np.array_equal(data["snapshots"], snaps)
        growth[n_paths] = (peak, data["snapshots"].nbytes)
        del data
    (peak_1, out_1), (peak_4, out_4) = growth[512], growth[2048]
    assert peak_4 - peak_1 <= 3 * (out_4 - out_1)


SWEEP_HEADER = "lambda,t,phi_p,phi_p_se,sup_m,sup_m_se,inf_m,inf_m_se,n_eff,flagged\n"
SWEEP_ROW = "8.0,0.25,1.5,0.0,2.5,0.0,0.5,0.0,0,0.0\n"


@pytest.mark.parametrize(
    ("text", "error"),
    [
        (SWEEP_HEADER + SWEEP_ROW + "8.0,0.5\n", "sweep.csv line 3: expected 10 fields, got 2"),
        (SWEEP_HEADER + SWEEP_ROW.replace("2.5", "abc2.5"), "sweep.csv line 2: could not convert .*'abc2.5'"),
        ("wrong\n" + SWEEP_ROW, "sweep.csv: unexpected sweep CSV header 'wrong'"),
        # Python's float and int take underscores; the rows are read with loadtxt's grammar
        (SWEEP_HEADER + SWEEP_ROW + SWEEP_ROW.replace("2.5", "1_5.0"),
         r"sweep.csv line 3: could not convert string '1_5.0' to float64 \(field sup_m\)$"),
        (SWEEP_HEADER + SWEEP_ROW.replace(",0,", ",4_00,"),
         r"sweep.csv line 2: could not convert string '4_00' to int64 \(field n_eff\)$"),
        (SWEEP_HEADER + SWEEP_ROW.replace("0.0,0,", "-1.0,0,"), "sweep.csv line 2: stderr must be nonnegative"),
        # the first bad line is named, though a later one in its chunk is malformed
        (SWEEP_HEADER + SWEEP_ROW.replace("0.0,0,", "-1.0,0,") + SWEEP_ROW + "8.0,0.5\n",
         "sweep.csv line 2: stderr must be nonnegative"),
    ],
    ids=["short-row", "non-numeric", "header", "underscore-float", "underscore-int", "negative-stderr",
         "negative-stderr-before-a-short-row"],
)
def test_read_sweep_csv_names_file_and_line(tmp_path, text, error):
    path = tmp_path / "sweep.csv"
    path.write_text(SWEEP_HEADER + SWEEP_ROW)
    assert cli.read_sweep_csv(path).to_csv() == SWEEP_HEADER + SWEEP_ROW
    path.write_text(text)
    with pytest.raises(ValueError, match=error):
        cli.read_sweep_csv(path)


def test_read_ensemble_csv_refuses_rows_out_of_the_writers_order(tmp_path, small_ensemble, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 1000)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    header, *rows = path.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[i] for i in np.random.default_rng(0).permutation(len(rows))))
    first = shuffled.read_text().splitlines()[1]
    assert not first.startswith("0,")
    with pytest.raises(ValueError, match=refused("shuffled.csv", 2, first, "path 0 at a finite time and node")):
        cli.read_ensemble_csv(shuffled)


@pytest.mark.parametrize("key", [lambda r: r.split(",")[0], lambda r: r.split(",")[2]], ids=["by-path", "by-node"])
def test_read_ensemble_csv_refuses_rows_grouped_by_path_or_node(tmp_path, small_ensemble, monkeypatch, key):
    # grouped by path, path 0 reads as one path of two snapshots; grouped by
    # node, the first node reads as a grid of one node.  Either way the
    # second group starts where the writer begins a third snapshot
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 300)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    header, *rows = path.read_text().splitlines(keepends=True)
    grouped = tmp_path / "grouped.csv"
    rows = sorted(rows, key=key)
    grouped.write_text(header + "".join(rows))
    x0 = rows[0].split(",")[2]
    with pytest.raises(ValueError, match=refused("grouped.csv", 130, rows[128], f"path 0, a finite t > 0.25, x={x0}")):
        cli.read_ensemble_csv(grouped)


def reference_read_ensemble_csv(path):
    """The writer's order checked one row at a time, the cells kept in a
    dict keyed by (snapshot, path, node): what read_ensemble_csv returns, or
    the start of the ValueError it raises, for files of well-formed lines."""
    _header, *lines = pathlib.Path(path).read_text().splitlines()
    times, nodes, cells, X, P = [], [], {}, 0, 0
    for r, line in enumerate(lines):
        k, t, x, u = int(line.split(",")[0]), *map(float, line.split(",")[1:])
        times = times or [t]
        if not X and k == 0 and t == times[0]:  # path 0 at the first time: a grid node
            ok, cell = math.isfinite(t) and math.isfinite(x) and x not in nodes, (0, 0, len(nodes))
            nodes.append(x)
        else:
            X = X or len(nodes)
            b, j = divmod(r, X) if X else (0, 0)
            if X and not P and not j and t != times[0]:  # the first new time
                P = b
            s, path_k = divmod(b, P) if P else (0, b)
            ok = X > 0 and (s < len(times) or math.isfinite(t) and t > times[-1])
            times += [t] * (s == len(times))
            ok = ok and (k, t, x) == (path_k, times[s], nodes[j])
            cell = (s, path_k, j)
        if not ok:
            raise ValueError(f"{path} line {r + 2}: ")
        cells[cell] = u
    if not lines:
        raise ValueError(f"{path}: no data rows")
    X = X or len(nodes)
    P = P or -(-len(lines) // X)
    if len(lines) != len(times) * P * X:
        raise ValueError(
            f"{path}: the file ends inside snapshot {len(times)} after {len(lines)} data rows, "
            f"in snapshots of {P} paths x {X} nodes"
        )
    snaps = np.empty((len(times), P, X))
    for (s, k, j), u in cells.items():
        snaps[s, k, j] = u
    return {"snapshot_times": tuple(times), "nodes": np.array(nodes), "snapshots": snaps}


READER_EDITS = ["duplicate", "drop", "far_path", "off_grid", "negative_path", "swap", "truncate", "repeat_time",
                "retime", "renode"]


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 10), st.integers(1, 10)),
    chunk=st.integers(1, 64),
    edits=st.lists(st.sampled_from(READER_EDITS), max_size=3),
    in_order=st.booleans(),
    data=st.data(),
)
def test_read_ensemble_csv_agrees_with_a_dict_reader(tmp_path, shape, chunk, edits, in_order, data):
    # rows in the writer's order with edits in place, or the same rows in a
    # random order; grids of up to 10 nodes against chunks of 1-64 lines
    n_t, n_paths, n_x = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = [
        f"{k},{0.125 * (i + 1)!r},{(j + 1) / (n_x + 1)!r},{u!r}"
        for (i, k, j), u in zip(np.ndindex(n_t, n_paths, n_x), rng.standard_normal(n_t * n_paths * n_x).tolist())
    ]
    for edit in edits:
        i = data.draw(st.integers(0, max(len(rows) - 1, 0)))
        k, t, x, u = rows[i].split(",") if rows else ("0", "0.125", "0.5", "1.0")
        if edit == "duplicate":
            rows.insert(i, f"{k},{t},{x},{u}")
        elif edit == "drop" and rows:
            del rows[i]
        elif edit == "far_path":
            rows.insert(i, f"{10**15},{t},{x},{u}")
        elif edit == "off_grid":
            rows.insert(i, f"{k},{t},0.123,{u}")
        elif edit == "negative_path":
            rows.insert(i, f"-{abs(int(k)) + 1},{t},{x},{u}")
        elif edit == "swap" and i + 1 < len(rows):
            rows[i : i + 2] = rows[i + 1], rows[i]
        elif edit == "truncate":
            del rows[i:]
        elif edit == "retime" and rows:  # one row moved to a drawn snapshot time
            rows[i] = f"{k},{0.125 * data.draw(st.integers(1, n_t))!r},{x},{u}"
        elif edit == "renode" and rows:  # one row moved to a drawn node
            rows[i] = f"{k},{t},{data.draw(st.integers(1, n_x)) / (n_x + 1)!r},{u}"
        elif edit == "repeat_time" and n_t > 1:  # the last snapshot at the first's time
            rows = [re.sub(rf"^(-?\d+),{re.escape(repr(0.125 * n_t))},", r"\1,0.125,", r) for r in rows]
    if not in_order:
        rows = data.draw(st.permutations(rows))
    path = tmp_path / "ens.csv"
    path.write_text("".join(line + "\n" for line in ["path,t,x,u", *rows]))
    try:
        want = reference_read_ensemble_csv(path)
    except ValueError as exc:
        want = exc
    with mock.patch.object(cli, "_CSV_CHUNK_LINES", chunk):
        if isinstance(want, ValueError):
            with pytest.raises(ValueError) as got:
                cli.read_ensemble_csv(path)
            assert str(got.value).startswith(str(want))
        else:
            got = cli.read_ensemble_csv(path)
            assert got["snapshot_times"] == want["snapshot_times"]
            assert np.array_equal(got["nodes"], want["nodes"])
            assert np.array_equal(got["snapshots"], want["snapshots"])


def test_custom_table_sigma_from_config_simulates(tmp_path):
    out = tmp_path / "table"
    doc = base_config(
        out,
        **{
            "model.sigma": {
                "kind": "custom-table", "l_sigma": 0.5, "L_sigma": 1.0,
                "table_u": [0, 1, 2], "table_values": [0, 0.8, 1.2],
            },
        },
    )
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    meta = cli.read_json_file(out / "metadata.json")
    assert meta["model"]["sigma_kind"] == "custom-table"
    assert meta["flagged_count"] == 0


def test_custom_table_sigma_outside_sandwich_is_config_error(tmp_path, capsys):
    doc = base_config(
        tmp_path / "o",
        **{
            "model.sigma": {
                "kind": "custom-table", "l_sigma": 0.5, "L_sigma": 1.0,
                "table_u": [0, 1, 2], "table_values": [0, 2.0, 2.5],
            },
        },
    )
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "model.sigma" in err
    assert "sandwich" in err


def test_mc_sweep_and_excitation_with_all_paths_flagged_write_partial_output(tmp_path):
    out = tmp_path / "flagged"
    doc = base_config(
        out,
        **{
            "discretization.n": 16,
            "discretization.t_end": 1.0,
            "discretization.snapshot_times": [0.5, 1.0],
            "ensemble.n_paths": 4,
        },
    )
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg]) == 0
    fits = cli.read_json_file(out / "fits.json")
    omitted = [w for w in fits["warnings"] if "all 4 paths are flagged" in w]
    assert any("lambda=128.0, t=1.0" in w for w in omitted)
    rows = cli.read_sweep_csv(out / "sweep.csv").rows
    assert len(rows) == 5 * 2 - len(omitted)
    assert not any(r.lam == 128.0 and r.t == 1.0 for r in rows)

    assert cli.main(["excitation", "--config", cfg]) == 0
    payload = cli.read_json_file(out / "excitation.json")
    assert any("lambda=128.0, t=1.0" in w for w in payload["warnings"])
    assert "128.0" not in payload["phi"]


def test_mc_sweep_with_every_level_flagged_at_a_snapshot_skips_the_moment_chart(tmp_path):
    # every level from 128 up loses all 4 paths by t=1, so no level has a complete table
    out = tmp_path / "o"
    doc = base_config(out, **{"discretization.n": 16, "discretization.t_end": 1.0,
                              "discretization.snapshot_times": [0.5, 1.0], "ensemble.n_paths": 4,
                              "sweep.lambda_min": 128.0, "sweep.lambda_max": 256.0, "outputs.emit_svg": True})
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
    assert sorted(os.listdir(out)) == ["fits.json", "sweep.csv"]
    warns = cli.read_json_file(out / "fits.json")["warnings"]
    assert sum("paths are flagged" in w and "t=1.0" in w for w in warns) == 5
    assert "moment chart skipped: line_chart needs at least one series" in warns


def test_oracle_commands_on_a_grid_too_coarse_for_the_row_mass_window(tmp_path, capsys):
    # at n=16, 2 dx^alpha > 0.02: the growth model's row-mass window is empty
    cfg = write_config(tmp_path, base_config(tmp_path / "o", **{"discretization.n": 16}))
    for command in ("sweep", "excitation"):
        assert cli.main([command, "--config", cfg, "--oracle"]) == 2
        err = capsys.readouterr().err
        assert "config error: discretization.n" in err
        assert "row-mass window" in err


def test_mc_excitation_chart_names_the_fitted_snapshot_time(tmp_path):
    out = tmp_path / "exc"
    doc = base_config(
        out,
        **{
            "discretization.n": 16,
            "discretization.snapshot_times": [0.125],
            "ensemble.n_paths": 4,
            "outputs.emit_svg": True,
        },
    )
    cfg = write_config(tmp_path, doc)
    for command in ("excitation", "sweep"):
        assert cli.main([command, "--config", cfg]) == 0
        texts = [el.text or "" for el in ET.parse(out / "excitation.svg").getroot().iter(f"{SVG_NS}text")]
        titles = [s for s in texts if s.startswith("Excitation fit")]
        assert titles == ["Excitation fit (alpha=1.5, t=0.125)"]


def test_overflowed_moments_are_inf_and_named_in_the_warnings(tmp_path):
    out = tmp_path / "over"
    doc = base_config(
        out,
        **{
            "model.lam": 128.0,
            "discretization.n": 16,
            "discretization.t_end": 1.0,
            "discretization.snapshot_times": [0.5, 1.0],
            "ensemble.n_paths": 4,
        },
    )
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["moments", "--config", cfg]) == 0
        assert cli.main(["sweep", "--config", cfg]) == 0
    summary = cli.read_json_file(out / "moments.json")
    (est,) = summary["estimates"]  # t=1.0 has every path flagged
    assert est["t"] == 0.5 and math.isinf(est["phi_p"]) and math.isinf(est["phi_p_se"])
    assert any("left double range at lambda=128.0, t=0.5" in w for w in summary["warnings"])

    fits = cli.read_json_file(out / "fits.json")
    rows = cli.read_sweep_csv(out / "sweep.csv").rows
    for r in rows:
        ests = (r.phi_p, r.sup_moment, r.inf_subinterval_moment)
        assert not any(math.isnan(e.stderr) for e in ests)
        if any(math.isinf(e.value) or math.isinf(e.stderr) for e in ests):
            assert any(f"left double range at lambda={r.lam!r}, t={r.t!r}" in w for w in fits["warnings"])
    assert any(math.isinf(r.sup_moment.value) for r in rows)


def test_oracle_rows_write_every_finite_moment(tmp_path):
    # e^705 is a finite double; e^710 is past the largest one
    cfg = cli.parse_config(base_config(tmp_path))
    logs = np.array([0.0, 705.0, 710.0])
    curves = bounds.OracleCurves(
        alpha=1.5, lam=8.0, l_sigma=1.0, L_sigma=1.0, lambda1=1.0, t=np.array([0.0, 0.125, 0.25]),
        log_inf=logs, log_sup=logs, log_energy=2.0 * logs, branch="renewal",
    )
    rows = cli._oracle_rows(cfg, curves)
    for field in ("phi_p", "sup_moment", "inf_subinterval_moment"):
        assert [getattr(r, field).value for r in rows] == [math.exp(705.0), math.inf]
