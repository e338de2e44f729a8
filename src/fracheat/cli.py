"""Batch experiment driver.

Subcommands: ``simulate`` (one ensemble, snapshot CSV + metadata),
``sweep`` (moment estimates over a geometric noise-level grid, with fitted
growth and excitation exponents), ``moments`` (per-snapshot estimates for a
single configuration), ``excitation`` (the excitation-index fit alone), and
``selftest`` (the acceptance suite, quick or full tier).

Configuration is one JSON document; command-line flags override config
fields.  Exit codes: 0 success, 1 acceptance failure, 2 configuration error.
Every file written here can be re-read losslessly by the ``read_*``
functions in this module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import acceptance, bounds, moments, svgplot
from .laplacian import DiscreteOperator, Grid, OperatorConfig, assemble, build_grid
from .sde import (
    Discretization,
    ModelParams,
    SigmaSpec,
    default_dt,
    run_ensemble,
    tent_profile,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "read_ensemble_csv",
    "read_sweep_csv",
    "read_json_file",
    "main",
]

_ORACLE_STEPS = 256


class ConfigError(Exception):
    """Configuration problem, attributed to a specific field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (one JSON document)."""

    alpha: float
    L: float
    n: int
    mu: float
    lam: float
    p: float
    sigma: SigmaSpec
    u0_values: Optional[tuple]     # None means the default tent profile
    dt: Optional[float]            # None means default_dt(op)
    t_end: float
    snapshot_times: tuple
    lambdas: tuple                 # geometric sweep grid
    n_paths: int
    master_seed: int
    worker_count: int
    out_dir: str
    emit_svg: bool


_MISSING = object()


def _get(doc: dict, path: str, default=_MISSING):
    cur = doc
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if default is _MISSING:
                raise ConfigError(path, "missing required field")
            return default
        cur = cur[part]
    return cur


def _number(doc: dict, path: str, default=_MISSING, *, integer: bool = False):
    v = _get(doc, path, default)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return int(v) if integer else float(v)


def _sigma_table(doc: dict, key: str) -> Optional[np.ndarray]:
    v = _get(doc, f"model.sigma.{key}", None)
    if v is None:
        return None
    if not isinstance(v, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        raise ConfigError("model.sigma", f"{key} must be a list of numbers, got {v!r}")
    return np.array(v, dtype=float)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document; raise ConfigError naming the field."""
    alpha = _number(doc, "model.alpha")
    n = _number(doc, "discretization.n", integer=True)
    t_end = _number(doc, "discretization.t_end")
    n_paths = _number(doc, "ensemble.n_paths", integer=True)

    L = _number(doc, "model.L", 1.0)
    mu = _number(doc, "model.mu", 0.1)
    lam = _number(doc, "model.lam", 1.0)
    p = _number(doc, "model.p", 2.0)
    if not 1.0 < alpha < 2.0:
        raise ConfigError("model.alpha", f"alpha must lie in (1, 2), got {alpha}")
    if n < 3:
        raise ConfigError("discretization.n", f"need at least 3 nodes, got {n}")
    if t_end <= 0.0:
        raise ConfigError("discretization.t_end", f"horizon must be positive, got {t_end}")
    if n_paths < 1:
        raise ConfigError("ensemble.n_paths", f"need at least one path, got {n_paths}")

    try:
        sigma = SigmaSpec(
            kind=_get(doc, "model.sigma.kind", "linear"),
            l_sigma=_number(doc, "model.sigma.l_sigma", 1.0),
            L_sigma=_number(doc, "model.sigma.L_sigma", 1.0),
            table_u=_sigma_table(doc, "table_u"),
            table_values=_sigma_table(doc, "table_values"),
        )
    except ValueError as exc:
        raise ConfigError("model.sigma", str(exc)) from exc

    u0 = _get(doc, "model.u0", "tent")
    if u0 == "tent":
        u0_values: Optional[tuple] = None
    elif isinstance(u0, list) and all(isinstance(v, (int, float)) for v in u0):
        if len(u0) != n:
            raise ConfigError("model.u0", f"need {n} values to match the grid, got {len(u0)}")
        u0_values = tuple(float(v) for v in u0)
    else:
        raise ConfigError("model.u0", f'expected "tent" or a list of {n} numbers')

    dt = _number(doc, "discretization.dt", None)
    if dt is not None and dt <= 0.0:
        raise ConfigError("discretization.dt", f"time step must be positive, got {dt}")
    snaps = _get(doc, "discretization.snapshot_times", [t_end])
    if not isinstance(snaps, list) or not snaps:
        raise ConfigError("discretization.snapshot_times", "expected a non-empty list of times")
    snap_t = []
    for v in snaps:
        if not isinstance(v, (int, float)) or not 0.0 < v <= t_end * (1 + 1e-12):
            raise ConfigError(
                "discretization.snapshot_times", f"times must lie in (0, t_end], got {v!r}"
            )
        snap_t.append(float(v))
    if snap_t != sorted(snap_t):
        raise ConfigError("discretization.snapshot_times", "times must be increasing")

    lam_min = _number(doc, "sweep.lambda_min", 8.0)
    lam_max = _number(doc, "sweep.lambda_max", 128.0)
    count = _number(doc, "sweep.count", 5, integer=True)
    if lam_min <= 0.0:
        raise ConfigError("sweep.lambda_min", f"must be positive, got {lam_min}")
    if lam_max <= lam_min:
        raise ConfigError("sweep.lambda_max", f"must exceed lambda_min, got {lam_max}")
    if count < 2:
        raise ConfigError("sweep.count", f"need at least 2 grid points, got {count}")
    lambdas = tuple(
        float(v) for v in np.geomspace(lam_min, lam_max, count)
    )

    master_seed = _number(doc, "ensemble.master_seed", 1, integer=True)
    worker_count = _number(doc, "ensemble.worker_count", 1, integer=True)
    if master_seed < 0:
        raise ConfigError("ensemble.master_seed", f"must be nonnegative, got {master_seed}")
    if worker_count < 1:
        raise ConfigError("ensemble.worker_count", f"need at least one worker, got {worker_count}")

    out_dir = _get(doc, "outputs.directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("outputs.directory", "expected a non-empty path string")
    emit_svg = _get(doc, "outputs.emit_svg", False)
    if not isinstance(emit_svg, bool):
        raise ConfigError("outputs.emit_svg", f"expected true/false, got {emit_svg!r}")

    return ExperimentConfig(
        alpha=alpha, L=L, n=n, mu=mu, lam=lam, p=p, sigma=sigma, u0_values=u0_values,
        dt=dt, t_end=t_end, snapshot_times=tuple(snap_t), lambdas=lambdas,
        n_paths=n_paths, master_seed=master_seed, worker_count=worker_count,
        out_dir=out_dir, emit_svg=emit_svg,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("--config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("--config", f"{path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("--config", "top level must be a JSON object")
    return parse_config(doc)


# ---------------------------------------------------------------------------
# Shared experiment assembly


def _operator(cfg: ExperimentConfig) -> tuple[Grid, DiscreteOperator]:
    try:
        grid = build_grid(L=cfg.L, n=cfg.n, mu=cfg.mu)
        op = assemble(grid, OperatorConfig(alpha=cfg.alpha))
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc
    return grid, op


def _params(cfg: ExperimentConfig, grid: Grid, lam: Optional[float] = None) -> ModelParams:
    u0 = (
        np.array(cfg.u0_values, dtype=float)
        if cfg.u0_values is not None
        else tent_profile(grid)
    )
    try:
        return ModelParams(
            alpha=cfg.alpha, L=cfg.L, lam=cfg.lam if lam is None else lam,
            sigma=cfg.sigma, u0=u0, mu=cfg.mu, p=cfg.p,
        )
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc


def _discretization(cfg: ExperimentConfig, grid: Grid, op: DiscreteOperator) -> Discretization:
    dt = cfg.dt if cfg.dt is not None else default_dt(op)
    try:
        return Discretization(
            grid=grid, dt=dt, t_end=cfg.t_end, snapshot_times=cfg.snapshot_times
        )
    except ValueError as exc:
        raise ConfigError("discretization", str(exc)) from exc


def _outdir(cfg: ExperimentConfig) -> str:
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("outputs.directory", f"not writable: {exc}") from exc
    return cfg.out_dir


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: ExperimentConfig) -> int:
    grid, op = _operator(cfg)
    params = _params(cfg, grid)
    disc = _discretization(cfg, grid, op)
    ens = run_ensemble(
        params, disc, op,
        n_paths=cfg.n_paths, master_seed=cfg.master_seed, worker_count=cfg.worker_count,
    )
    out = _outdir(cfg)
    csv_path = os.path.join(out, "ensemble.csv")
    meta_path = os.path.join(out, "metadata.json")
    ens.write_csv(csv_path)
    ens.write_metadata_json(meta_path)
    print(f"wrote {csv_path} and {meta_path}")
    print(
        f"paths {ens.n_paths}, snapshots {len(ens.snapshot_times)}, "
        f"flagged {ens.flagged_count}"
    )
    return 0


# ---------------------------------------------------------------------------
# moments


def _all_flagged(ens, t: float) -> bool:
    return not np.any(np.all(np.isfinite(ens.snapshot(t)), axis=1))


def _flagged_warning(ens, lam: float, t: float) -> str:
    return f"all {ens.n_paths} paths are flagged at lambda={lam!r}, t={float(t)!r}; estimate omitted"


def _snapshot_rows(
    cfg: ExperimentConfig, ens, lam: float, warnings: list
) -> list[moments.SweepRow]:
    """One row per snapshot; a snapshot where every path is flagged has
    nothing to estimate, so it is omitted and reported in ``warnings``."""
    rows = []
    for t in ens.snapshot_times:
        if _all_flagged(ens, t):
            warnings.append(_flagged_warning(ens, lam, t))
            continue
        rows.append(
            moments.SweepRow(
                lam=lam,
                t=float(t),
                phi_p=moments.estimate_energy(ens, t, cfg.p),
                sup_moment=moments.estimate_sup_moment(ens, t, cfg.p),
                inf_subinterval_moment=moments.estimate_inf_subinterval_moment(ens, t, cfg.p),
            )
        )
    return rows


def cmd_moments(cfg: ExperimentConfig) -> int:
    grid, op = _operator(cfg)
    params = _params(cfg, grid)
    disc = _discretization(cfg, grid, op)
    ens = run_ensemble(
        params, disc, op,
        n_paths=cfg.n_paths, master_seed=cfg.master_seed, worker_count=cfg.worker_count,
    )
    warnings: list = []
    rows = _snapshot_rows(cfg, ens, params.lam, warnings)
    result = moments.SweepResult(rows=rows)
    out = _outdir(cfg)
    csv_path = os.path.join(out, "moments.csv")
    result.write_csv(csv_path)
    summary = {
        "lambda": params.lam,
        "p": cfg.p,
        "flagged_count": ens.flagged_count,
        "estimates": [
            {
                "t": r.t,
                "phi_p": r.phi_p.value,
                "phi_p_se": r.phi_p.stderr,
                "sup_moment": r.sup_moment.value,
                "inf_subinterval_moment": r.inf_subinterval_moment.value,
            }
            for r in rows
        ],
        "warnings": warnings,
    }
    _write_json(os.path.join(out, "moments.json"), summary)
    print(f"wrote {csv_path} and moments.json; flagged {ens.flagged_count}")
    for w in warnings:
        print(f"warning: {w}")
    return 0


# ---------------------------------------------------------------------------
# sweep and excitation


def _oracle_tables(cfg: ExperimentConfig) -> tuple[dict, list]:
    """Oracle curves per lambda, and the excitation table (lambda, ln Phi_p at t_end)."""
    grid, op = _operator(cfg)
    if cfg.sigma.kind != "linear":
        raise ConfigError("model.sigma.kind", "--oracle requires the linear coefficient")
    base = _params(cfg, grid, lam=1.0)
    model = bounds.measure_growth_model(op, grid, base, horizon=cfg.t_end)
    curves = {}
    for lam in cfg.lambdas:
        curves[lam] = bounds.oracle_moment_curves(
            _params(cfg, grid, lam=lam), op, grid,
            T=cfg.t_end, steps=_ORACLE_STEPS, model=model,
        )
    table = [(lam, 0.5 * float(curves[lam].log_energy[-1])) for lam in cfg.lambdas]
    return curves, table


def _mc_tables(cfg: ExperimentConfig, warnings: list) -> tuple[dict, int, list]:
    """One ensemble per lambda: its snapshot rows, the flagged-path total, and
    the excitation table (lambda, Phi_p at the last snapshot).  A lambda whose
    last snapshot has no estimate is left out of the table."""
    grid, op = _operator(cfg)
    disc = _discretization(cfg, grid, op)
    per_lambda_rows: dict = {}
    flagged_total = 0
    for lam in cfg.lambdas:
        ens = run_ensemble(
            _params(cfg, grid, lam=lam), disc, op,
            n_paths=cfg.n_paths, master_seed=cfg.master_seed,
            worker_count=cfg.worker_count,
        )
        flagged_total += ens.flagged_count
        per_lambda_rows[lam] = _snapshot_rows(cfg, ens, lam, warnings)
    t_last = disc.snapshot_times[-1]
    table = [
        (lam, rows[-1].phi_p.value)
        for lam, rows in per_lambda_rows.items()
        if rows and rows[-1].t == t_last
    ]
    return per_lambda_rows, flagged_total, table


def _log_table(table: list) -> list:
    return [(lam, math.log(v)) for lam, v in table if v > 0 and math.isfinite(v)]


def _excitation_fit(fit, table: list, payload: dict):
    """Run ``fit`` on the excitation table and record e_hat/e_ci, or a warning."""
    try:
        exc_fit = fit(table)
    except ValueError as exc:
        payload["warnings"].append(f"excitation fit skipped: {exc}")
        return None
    payload["e_hat"], payload["e_ci"] = exc_fit[0], list(exc_fit[1])
    return exc_fit


def _oracle_estimate(log_value: float) -> moments.MomentEstimate:
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return moments.MomentEstimate(value=value, stderr=0.0, n_effective=0)


def _oracle_rows(cfg: ExperimentConfig, curves: dict) -> list[moments.SweepRow]:
    rows = []
    for lam in cfg.lambdas:
        c = curves[lam]
        for t in cfg.snapshot_times:
            i = int(np.argmin(np.abs(c.t - t)))
            rows.append(
                moments.SweepRow(
                    lam=lam,
                    t=float(c.t[i]),
                    phi_p=_oracle_estimate(0.5 * float(c.log_energy[i])),
                    sup_moment=_oracle_estimate(float(c.log_sup[i])),
                    inf_subinterval_moment=_oracle_estimate(float(c.log_inf[i])),
                )
            )
    return rows


def _fit_payload(cfg: ExperimentConfig, mode: str) -> dict:
    return {
        "mode": mode,
        "p": cfg.p,
        "alpha": cfg.alpha,
        "reference_slope": 2.0 * cfg.alpha / (cfg.alpha - 1.0),
        "lambda_grid": list(cfg.lambdas),
        "t_end": cfg.t_end,
        "gamma_hat": None,
        "gamma_ci": None,
        "e_hat": None,
        "e_ci": None,
        "warnings": [],
    }


def _sweep_oracle(cfg: ExperimentConfig) -> tuple[moments.SweepResult, dict, dict]:
    curves, table = _oracle_tables(cfg)
    rows = _oracle_rows(cfg, curves)
    payload = _fit_payload(cfg, "oracle")

    top = curves[cfg.lambdas[-1]]
    lyap = None
    try:
        lyap = moments.fit_lyapunov_from_log(
            list(zip(top.t.tolist(), (0.5 * top.log_energy).tolist()))
        )
        payload["gamma_hat"], payload["gamma_ci"] = lyap[0], list(lyap[1])
    except ValueError as exc:
        payload["warnings"].append(f"growth-rate fit skipped: {exc}")

    exc_fit = _excitation_fit(moments.fit_excitation_from_log, table, payload)
    result = moments.SweepResult(rows=rows, lyapunov_hat=lyap, excitation_hat=exc_fit)
    charts = _oracle_charts(cfg, curves, table, exc_fit, payload)
    return result, payload, charts


def _oracle_charts(cfg, curves, table, exc_fit, payload) -> dict:
    charts = {}
    try:
        phi_curves = [
            (lam, np.exp(np.minimum(0.5 * curves[lam].log_energy, 700.0))) for lam in cfg.lambdas
        ]
        charts["sweep_phi.svg"] = svgplot.moment_chart(
            curves[cfg.lambdas[0]].t, phi_curves, p=cfg.p,
            title=f"Oracle moment growth (alpha={cfg.alpha:g})",
        )
    except ValueError as exc:
        payload["warnings"].append(f"moment chart skipped: {exc}")
    if exc_fit is not None:
        charts["excitation.svg"] = _excitation_svg(cfg, table, exc_fit)
    return charts


def _excitation_svg(cfg: ExperimentConfig, table, fit) -> str:
    pts = [(lam, lp) for lam, lp in table if lp > 1.0]
    log_lam = np.log([lam for lam, _ in pts])
    loglog = np.log([lp for _, lp in pts])
    slope, _ = fit
    intercept = float(np.mean(loglog - slope * log_lam))
    return svgplot.excitation_chart(
        log_lam, loglog,
        fitted_slope=slope, fitted_intercept=intercept,
        reference_slope=2.0 * cfg.alpha / (cfg.alpha - 1.0),
        title=f"Excitation fit (alpha={cfg.alpha:g}, t={cfg.t_end:g})",
    )


def _sweep_mc(cfg: ExperimentConfig) -> tuple[moments.SweepResult, dict, dict]:
    payload = _fit_payload(cfg, "mc")
    per_lambda_rows, payload["flagged_total"], table = _mc_tables(cfg, payload["warnings"])
    all_rows = [r for lam in cfg.lambdas for r in per_lambda_rows[lam]]

    lyap = None
    try:
        top_rows = per_lambda_rows[cfg.lambdas[-1]]
        lyap = moments.fit_lyapunov([(r.t, r.phi_p.value) for r in top_rows])
        payload["gamma_hat"], payload["gamma_ci"] = lyap[0], list(lyap[1])
    except ValueError as exc:
        payload["warnings"].append(f"growth-rate fit skipped: {exc}")

    exc_fit = _excitation_fit(moments.fit_excitation, table, payload)
    result = moments.SweepResult(rows=all_rows, lyapunov_hat=lyap, excitation_hat=exc_fit)
    charts = {}
    try:
        t = np.array(cfg.snapshot_times)
        complete = [lam for lam in cfg.lambdas if len(per_lambda_rows[lam]) == len(t)]
        charts["sweep_phi.svg"] = svgplot.moment_chart(
            t,
            [(lam, np.array([r.phi_p.value for r in per_lambda_rows[lam]])) for lam in complete],
            p=cfg.p,
            title=f"Monte Carlo moment growth (alpha={cfg.alpha:g})",
        )
    except ValueError as exc:
        payload["warnings"].append(f"moment chart skipped: {exc}")
    if exc_fit is not None:
        charts["excitation.svg"] = _excitation_svg(cfg, _log_table(table), exc_fit)
    return result, payload, charts


def _report(out: str, written: list, payload: dict) -> None:
    print(f"wrote {', '.join(written)} in {out}")
    for w in payload["warnings"]:
        print(f"warning: {w}")
    if payload["e_hat"] is not None:
        print(
            f"excitation index e_hat {payload['e_hat']:.4f} "
            f"(reference {payload['reference_slope']:.4f})"
        )


def cmd_sweep(cfg: ExperimentConfig, oracle: bool) -> int:
    if len(cfg.lambdas) < 5:
        raise ConfigError("sweep.count", "a sweep needs at least 5 lambda points")
    result, payload, charts = _sweep_oracle(cfg) if oracle else _sweep_mc(cfg)
    out = _outdir(cfg)
    result.write_csv(os.path.join(out, "sweep.csv"))
    _write_json(os.path.join(out, "fits.json"), payload)
    written = ["sweep.csv", "fits.json"]
    if cfg.emit_svg:
        for name, text in charts.items():
            svgplot.write_svg(os.path.join(out, name), text)
            written.append(name)
    _report(out, written, payload)
    return 0


def cmd_excitation(cfg: ExperimentConfig, oracle: bool) -> int:
    if len(cfg.lambdas) < 5:
        raise ConfigError("sweep.count", "an excitation fit needs at least 5 lambda points")
    payload = _fit_payload(cfg, "oracle" if oracle else "mc")
    del payload["gamma_hat"], payload["gamma_ci"]
    if oracle:
        _, log_table = _oracle_tables(cfg)
        payload["log_phi"] = {repr(lam): lp for lam, lp in log_table}
        exc_fit = _excitation_fit(moments.fit_excitation_from_log, log_table, payload)
    else:
        _, _, table = _mc_tables(cfg, payload["warnings"])
        payload["phi"] = {repr(lam): v for lam, v in table}
        exc_fit = _excitation_fit(moments.fit_excitation, table, payload)
        log_table = _log_table(table)
    out = _outdir(cfg)
    _write_json(os.path.join(out, "excitation.json"), payload)
    written = ["excitation.json"]
    if cfg.emit_svg and exc_fit is not None:
        svgplot.write_svg(
            os.path.join(out, "excitation.svg"), _excitation_svg(cfg, log_table, exc_fit)
        )
        written.append("excitation.svg")
    _report(out, written, payload)
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(level: str, out_dir: str, mc_worker_count: int) -> int:
    results = acceptance.run_selftest(level, mc_worker_count=mc_worker_count)
    passed = all(r.passed for r in results)
    report = {
        "level": level,
        "passed": passed,
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_s": round(r.elapsed, 3),
            }
            for r in results
        ],
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "selftest.json")
    _write_json(path, report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL':4} {r.elapsed:7.2f}s {r.name}: {r.detail}")
    print(f"{'PASS' if passed else 'FAIL'}: {len(results)} checks, report at {path}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Readers: every writer in the artifact has a lossless counterpart here


def read_ensemble_csv(path: str) -> dict:
    """Parse an ensemble snapshot CSV back into arrays.

    Returns {"snapshot_times", "nodes", "snapshots"} with snapshots shaped
    (n_snapshots, n_paths, n).  Values round-trip exactly (the writers emit
    full-precision reprs).  Raises ValueError naming the file unless every
    (snapshot, path, node) cell is written exactly once.
    """
    t_index: dict = {}
    x_index: dict = {}
    ti, ks, xi, us = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "path,t,x,u":
            raise ValueError(f"{path}: unexpected ensemble CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                ps, ts, xs, u = line.rstrip("\n").split(",")
                k, t, x = int(ps), float(ts), float(xs)
                us.append(float(u))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from exc
            i = t_index.setdefault(t, len(t_index))
            if i == 0 and k == 0:
                x_index.setdefault(x, len(x_index))
            if k < 0 or x not in x_index:
                raise ValueError(f"{path} line {lineno}: path {k}, node x={x!r} is off the ensemble grid")
            ti.append(i)
            ks.append(k)
            xi.append(x_index[x])
    if not us:
        raise ValueError(f"{path}: no data rows")
    shape = (len(t_index), max(ks) + 1, len(x_index))
    cells = np.ravel_multi_index((ti, ks, xi), shape)
    written = np.bincount(cells, minlength=math.prod(shape))
    if np.any(written != 1):
        raise ValueError(
            f"{path}: {np.count_nonzero(written == 0)} (snapshot, path, node) cells missing and "
            f"{np.count_nonzero(written > 1)} written more than once, of {written.size}"
        )
    snapshots = np.empty(shape)
    snapshots.flat[cells] = us
    return {
        "snapshot_times": tuple(t_index),
        "nodes": np.array(list(x_index)),
        "snapshots": snapshots,
    }


def read_sweep_csv(path: str) -> moments.SweepResult:
    """Parse a sweep/moments CSV back into a SweepResult (rows only; fitted
    exponents live in the JSON payloads)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "lambda,t,phi_p,phi_p_se,sup_m,sup_m_se,inf_m,inf_m_se,n_eff,flagged"
        if header != expected:
            raise ValueError(f"unexpected sweep CSV header {header!r}")
        for line in fh:
            f = line.rstrip("\n").split(",")
            n_eff, flagged = int(f[8]), float(f[9])
            rows.append(
                moments.SweepRow(
                    lam=float(f[0]),
                    t=float(f[1]),
                    phi_p=moments.MomentEstimate(float(f[2]), float(f[3]), n_eff, flagged),
                    sup_moment=moments.MomentEstimate(float(f[4]), float(f[5]), n_eff, flagged),
                    inf_subinterval_moment=moments.MomentEstimate(
                        float(f[6]), float(f[7]), n_eff, flagged
                    ),
                )
            )
    return moments.SweepResult(rows=rows)


def read_json_file(path: str) -> dict:
    """Reader for metadata/fits/excitation/selftest JSON files."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Moment-growth experiments for the fractional stochastic heat equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_config: bool) -> None:
        p.add_argument("--config", metavar="PATH", help="experiment config JSON")
        p.add_argument("--seed", type=int, metavar="U64", help="override ensemble.master_seed")
        p.add_argument("--workers", type=int, metavar="K", help="override ensemble.worker_count")
        p.add_argument("--out", metavar="DIR", help="override outputs.directory")
        p.add_argument("--svg", action="store_true", help="emit SVG charts")
        p.set_defaults(needs_config=needs_config)

    add_common(sub.add_parser("simulate", help="run one ensemble, write snapshots"), True)
    for name, hlp in (
        ("sweep", "moment estimates over a geometric lambda grid"),
        ("excitation", "fit the excitation index over the lambda grid"),
    ):
        p = sub.add_parser(name, help=hlp)
        add_common(p, True)
        p.add_argument(
            "--oracle", action="store_true",
            help="use the deterministic second-moment oracle instead of ensembles",
        )
    add_common(sub.add_parser("moments", help="per-snapshot moment estimates"), True)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("level", nargs="?", default="quick", choices=("quick", "full"))
    p.add_argument("--workers", type=int, default=2, metavar="K",
                   help="worker count for the full-tier Monte Carlo check")
    p.add_argument("--out", default="out", metavar="DIR", help="report directory")
    p.set_defaults(needs_config=False)
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    import dataclasses

    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed", "must be nonnegative")
        updates["master_seed"] = args.seed
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers", "need at least one worker")
        updates["worker_count"] = args.workers
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.svg:
        updates["emit_svg"] = True
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest(args.level, args.out, args.workers)
        if args.config is None:
            raise ConfigError("--config", f"required for the {args.command} command")
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "moments":
            return cmd_moments(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.oracle)
        if args.command == "excitation":
            return cmd_excitation(cfg, args.oracle)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
