"""End-to-end command tests: config validation, files, determinism, selftest."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import fracheat
from fracheat import acceptance, bounds, cli, specfun

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
    ],
)
def test_config_errors_name_the_field(tmp_path, capsys, override, named_field):
    cfg = write_config(tmp_path, base_config(tmp_path / "o", **override))
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert named_field in err


def test_missing_config_flag_is_a_config_error(capsys):
    assert cli.main(["simulate"]) == 2
    assert "--config" in capsys.readouterr().err


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
    first = specfun._RatioTable.first
    monkeypatch.setattr(specfun._RatioTable, "first", lambda self, K: first(self, K) * (1.0 + 1e-6))
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
    # scale every term ratio of the array path.  Check 2 compares against
    # these series within 1%: 1 + 1e-6 moves its worst gap only from
    # 0.4760% to 0.4760%, 1 + 1e-3 to 5.6%.
    saved_cache = copy.copy(acceptance._CACHE)
    acceptance._CACHE.clear()  # no clean curve cached by an earlier test may stand in
    first = specfun._RatioTable.first
    monkeypatch.setattr(specfun._RatioTable, "first", lambda self, K: first(self, K) * (1.0 + 1e-3))
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


def test_read_ensemble_csv_rejects_incomplete_file(tmp_path, small_ensemble):
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("".join(lines[:-10]))
    with pytest.raises(ValueError, match="truncated.csv.*10 .* cells missing"):
        cli.read_ensemble_csv(truncated)
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("".join(lines[:-1] + [lines[-2]]))
    with pytest.raises(ValueError, match="doubled.csv.*1 written more than once"):
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


@pytest.mark.parametrize(
    "row", ["0,nan,0.25,1.0", "0,inf,0.25,1.0", "0,0.5,-inf,1.0", "0,0.5,nan,1.0"]
)
def test_read_ensemble_csv_rejects_non_finite_time_or_node(tmp_path, row):
    path = tmp_path / "ens.csv"
    path.write_text(f"path,t,x,u\n0,0.5,0.25,1.0\n{row}\n")
    with pytest.raises(ValueError, match="ens.csv line 3: time t=.* and node x=.* must be finite"):
        cli.read_ensemble_csv(path)


def test_read_ensemble_csv_rejects_off_grid_rows(tmp_path, small_ensemble, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 100)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    n = 64 * 5 + 3  # path 5, node 1 of the first snapshot
    k, t, x, u = lines[n - 1].split(",")
    for name, row, off in (("negative", f"-1,{t},{x},{u}", f"path -1, node x={x}"),
                           ("stray_node", f"{k},{t},0.123,{u}", "path 5, node x=0.123")):
        bad_file = tmp_path / f"{name}.csv"
        bad_file.write_text("".join(lines[: n - 1] + [row] + lines[n:]))
        with pytest.raises(ValueError, match=f"{name}.csv line {n}: {off} is off the ensemble grid"):
            cli.read_ensemble_csv(bad_file)
    # a path index far past the others: counted without a 1e17-cell array
    far = tmp_path / "far_path.csv"
    far.write_text("".join(lines[:-1] + [str(10**15) + lines[-1][lines[-1].index(","):]]))
    with pytest.raises(ValueError, match="far_path.csv: .* cells missing and 0 written more than once"):
        cli.read_ensemble_csv(far)
    header_only = tmp_path / "empty.csv"
    header_only.write_text(lines[0])
    with pytest.raises(ValueError, match="empty.csv: no data rows"):
        cli.read_ensemble_csv(header_only)


SWEEP_HEADER = "lambda,t,phi_p,phi_p_se,sup_m,sup_m_se,inf_m,inf_m_se,n_eff,flagged\n"
SWEEP_ROW = "8.0,0.25,1.5,0.0,2.5,0.0,0.5,0.0,0,0.0\n"


@pytest.mark.parametrize(
    ("text", "error"),
    [
        (SWEEP_HEADER + SWEEP_ROW + "8.0,0.5\n", "sweep.csv line 3: expected 10 fields, got 2"),
        (SWEEP_HEADER + SWEEP_ROW.replace("2.5", "abc2.5"), "sweep.csv line 2: could not convert .*'abc2.5'"),
        ("wrong\n" + SWEEP_ROW, "sweep.csv: unexpected sweep CSV header 'wrong'"),
    ],
    ids=["short-row", "non-numeric", "header"],
)
def test_read_sweep_csv_names_file_and_line(tmp_path, text, error):
    path = tmp_path / "sweep.csv"
    path.write_text(SWEEP_HEADER + SWEEP_ROW)
    assert cli.read_sweep_csv(path).to_csv() == SWEEP_HEADER + SWEEP_ROW
    path.write_text(text)
    with pytest.raises(ValueError, match=error):
        cli.read_sweep_csv(path)


def test_read_ensemble_csv_accepts_rows_in_any_order(tmp_path, small_ensemble, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_LINES", 1000)
    path = tmp_path / "ens.csv"
    small_ensemble.write_csv(path)
    header, *rows = path.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[i] for i in np.random.default_rng(0).permutation(len(rows))))
    data = cli.read_ensemble_csv(shuffled)
    t_order, x_order = np.argsort(data["snapshot_times"]), np.argsort(data["nodes"])
    assert np.array_equal(data["nodes"][x_order], small_ensemble.grid.nodes)
    assert np.array_equal(data["snapshots"][t_order][:, :, x_order], small_ensemble.snapshots)


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
