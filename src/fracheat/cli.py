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
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import acceptance, bounds, moments, svgplot
from .laplacian import DiscreteOperator, OperatorConfig, assemble, build_grid
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
_LOG_MAX_FLOAT = math.log(sys.float_info.max)  # the largest x with math.exp(x) finite
# the moment estimators, called from one line so the p advisory prints once
# per command; a flat tuple, which the perfbench span recorder can patch
_ESTIMATORS = (
    moments.estimate_energy, moments.estimate_sup_moment, moments.estimate_inf_subinterval_moment
)
_ESTIMATED = ("phi_p", "sup_moment", "inf_subinterval_moment")  # the SweepRow fields they fill
# data lines per np.loadtxt call in read_ensemble_csv
_CSV_CHUNK_LINES = 1 << 16
_CSV_ROW = np.dtype([("k", "i8"), ("t", "f8"), ("x", "f8"), ("u", "f8")])


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
    elif isinstance(u0, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in u0
    ):
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
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not number or not 0.0 < v <= t_end * (1 + 1e-12):
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


def _operator(cfg: ExperimentConfig) -> DiscreteOperator:
    try:
        grid = build_grid(L=cfg.L, n=cfg.n, mu=cfg.mu)
        return assemble(grid, OperatorConfig(alpha=cfg.alpha))
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc


def _params(cfg: ExperimentConfig, op: DiscreteOperator, lam: float) -> ModelParams:
    u0 = (
        np.array(cfg.u0_values, dtype=float)
        if cfg.u0_values is not None
        else tent_profile(op.grid)
    )
    try:
        params = ModelParams(
            alpha=cfg.alpha, L=cfg.L, lam=lam,
            sigma=cfg.sigma, u0=u0, mu=cfg.mu, p=cfg.p,
        )
        params.check_operator(op)
        return params
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc


def _discretization(cfg: ExperimentConfig, op: DiscreteOperator) -> Discretization:
    dt = cfg.dt if cfg.dt is not None else default_dt(op)
    try:
        return Discretization(
            grid=op.grid, dt=dt, t_end=cfg.t_end, snapshot_times=cfg.snapshot_times
        )
    except ValueError as exc:
        raise ConfigError("discretization", str(exc)) from exc


def _ensemble(cfg: ExperimentConfig, op: DiscreteOperator, disc: Discretization, lam: float):
    return run_ensemble(
        _params(cfg, op, lam), disc, op,
        n_paths=cfg.n_paths, master_seed=cfg.master_seed, worker_count=cfg.worker_count,
    )


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
    op = _operator(cfg)
    ens = _ensemble(cfg, op, _discretization(cfg, op), cfg.lam)
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


def _snapshot_rows(
    cfg: ExperimentConfig, ens, lam: float, warnings: list
) -> list[moments.SweepRow]:
    """One row per snapshot; a snapshot where every path is flagged has
    nothing to estimate, so it is omitted and reported in ``warnings``, as
    is a moment or standard error that overflowed to inf on finite paths."""
    rows = []
    for t in ens.snapshot_times:
        if not np.any(np.all(np.isfinite(ens.snapshot(t)), axis=1)):
            warnings.append(
                f"all {ens.n_paths} paths are flagged at lambda={lam!r}, t={float(t)!r}; estimate omitted"
            )
            continue
        est = dict(zip(_ESTIMATED, [estimate(ens, t, cfg.p) for estimate in _ESTIMATORS]))
        over = [name for name, e in est.items() if math.isinf(e.value) or math.isinf(e.stderr)]
        if over:
            warnings.append(
                f"{', '.join(over)} left double range at lambda={lam!r}, t={float(t)!r}; "
                "the overflowed values and standard errors are reported as inf"
            )
        rows.append(moments.SweepRow(lam=lam, t=float(t), **est))
    return rows


def cmd_moments(cfg: ExperimentConfig) -> int:
    op = _operator(cfg)
    ens = _ensemble(cfg, op, _discretization(cfg, op), cfg.lam)
    warnings: list = []
    rows = _snapshot_rows(cfg, ens, cfg.lam, warnings)
    result = moments.SweepResult(rows=rows)
    out = _outdir(cfg)
    csv_path = os.path.join(out, "moments.csv")
    result.write_csv(csv_path)
    summary = {
        "lambda": cfg.lam,
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


def _oracle_rows(cfg: ExperimentConfig, curves: bounds.OracleCurves) -> list[moments.SweepRow]:
    def estimate(log_value: float) -> moments.MomentEstimate:
        value = math.exp(log_value) if log_value <= _LOG_MAX_FLOAT else math.inf
        return moments.MomentEstimate(value=value, stderr=0.0, n_effective=0)

    logs = dict(zip(_ESTIMATED, (curves.log_phi2(), curves.log_sup, curves.log_inf)))
    rows = []
    for t in cfg.snapshot_times:
        i = int(np.argmin(np.abs(curves.t - t)))
        est = {name: estimate(float(log[i])) for name, log in logs.items()}
        rows.append(moments.SweepRow(lam=curves.lam, t=float(curves.t[i]), **est))
    return rows


class _Sweep(NamedTuple):
    """Per lambda, the sweep rows and the (t, ln Phi_p) table, from the
    oracle or from Monte Carlo, with the time axis a complete table covers.
    A Monte Carlo table is shorter when every path is flagged from some
    snapshot on."""

    rows: dict
    tables: dict
    times: list
    warnings: list
    flagged_total: Optional[int]  # None for the oracle

    def complete(self) -> dict:
        return {lam: tab for lam, tab in self.tables.items() if len(tab) == len(self.times)}


def _oracle_source(cfg: ExperimentConfig) -> _Sweep:
    op = _operator(cfg)
    if cfg.sigma.kind != "linear":
        raise ConfigError("model.sigma.kind", "--oracle requires the linear coefficient")
    if cfg.p != 2.0:
        raise ConfigError(
            "model.p", f"--oracle solves the second-moment equation, so p must be 2, got {cfg.p!r}"
        )
    u0 = _params(cfg, op, cfg.lambdas[0]).u0  # a bad u0 is a ConfigError here
    try:
        curves = bounds.oracle_sweep(op, u0, cfg.sigma, cfg.lambdas, T=cfg.t_end, steps=_ORACLE_STEPS)
    except ValueError as exc:  # u0 passed check_operator, so the row-mass window is empty at this n
        raise ConfigError("discretization.n", str(exc)) from exc
    rows = {lam: _oracle_rows(cfg, c) for lam, c in curves.items()}
    tables = {lam: list(zip(c.t.tolist(), c.log_phi2().tolist())) for lam, c in curves.items()}
    return _Sweep(rows, tables, curves[cfg.lambdas[0]].t.tolist(), [], None)


def _mc_source(cfg: ExperimentConfig) -> _Sweep:
    """One ensemble per lambda, its rows at the snapshot times."""
    op = _operator(cfg)
    disc = _discretization(cfg, op)
    rows: dict = {}
    warnings: list = []
    flagged_total = 0
    for lam in cfg.lambdas:
        ens = _ensemble(cfg, op, disc, lam)
        flagged_total += ens.flagged_count
        rows[lam] = _snapshot_rows(cfg, ens, lam, warnings)
    tables = {
        lam: [(r.t, math.log(r.phi_p.value) if r.phi_p.value > 0.0 else -math.inf) for r in rs]
        for lam, rs in rows.items()
    }
    return _Sweep(rows, tables, list(disc.snapshot_times), warnings, flagged_total)


def _sweep_source(cfg: ExperimentConfig, oracle: bool) -> _Sweep:
    if len(cfg.lambdas) < 5:
        raise ConfigError("sweep.count", "the excitation fit needs at least 5 lambda points")
    return _oracle_source(cfg) if oracle else _mc_source(cfg)


def _excitation_fit(sweep: _Sweep) -> tuple[list, Optional[tuple]]:
    """The excitation table (lambda, ln Phi_p at the last time) of the
    complete tables, and its fit, or None and a warning."""
    table = [(lam, tab[-1][1]) for lam, tab in sweep.complete().items()]
    try:
        return table, moments.fit_excitation_from_log(table)
    except ValueError as exc:
        sweep.warnings.append(f"excitation fit skipped: {exc}")
        return table, None


def _fit_payload(cfg: ExperimentConfig, oracle: bool, sweep: _Sweep, fit: Optional[tuple]) -> dict:
    """The keys fits.json and excitation.json share."""
    return {
        "mode": "oracle" if oracle else "mc",
        "p": cfg.p,
        "alpha": cfg.alpha,
        "reference_slope": 2.0 * cfg.alpha / (cfg.alpha - 1.0),
        "lambda_grid": list(cfg.lambdas),
        "t_end": cfg.t_end,
        "e_hat": None if fit is None else fit[0],
        "e_ci": None if fit is None else list(fit[1]),
        "warnings": sweep.warnings,
    }


def _excitation_svg(cfg: ExperimentConfig, table, fit, t: float) -> Optional[str]:
    """Chart of the fitted table, whose values were read at time ``t``; None
    without a fit."""
    if fit is None:
        return None
    pts = [(lam, lp) for lam, lp in table if lp > 1.0]
    log_lam = np.log([lam for lam, _ in pts])
    loglog = np.log([lp for _, lp in pts])
    slope, _ = fit
    ref = 2.0 * cfg.alpha / (cfg.alpha - 1.0)
    lines = [
        svgplot.RefLine(slope, float(np.mean(loglog - slope * log_lam)), f"fit slope {slope:.3f}"),
        # the predicted slope, anchored at the first point
        svgplot.RefLine(ref, float(loglog[0] - ref * log_lam[0]), f"reference slope {ref:.3f}"),
    ]
    return svgplot.line_chart(
        [svgplot.Series("measured", log_lam, loglog)],
        title=f"Excitation fit (alpha={cfg.alpha:g}, t={t:g})",
        xlabel="log lambda",
        ylabel="log log Phi",
        ref_lines=lines,
        markers=True,
    )


def _moment_svg(cfg: ExperimentConfig, oracle: bool, sweep: _Sweep) -> Optional[str]:
    """asinh(ln Phi_p) of the complete tables against time; an infinite
    ln Phi_p is not drawn."""
    t = np.array(sweep.times)
    # asinh is linear near 0 and logarithmic far out, so decaying curves and
    # ones growing like lambda^(2 alpha/(alpha-1)) share one chart
    series = [
        svgplot.Series(f"lambda={lam:g}", t, np.arcsinh([lp for _, lp in tab]))
        for lam, tab in sweep.complete().items()
    ]
    source = "Oracle" if oracle else "Monte Carlo"
    try:
        return svgplot.line_chart(
            series,
            title=f"{source} moment growth (alpha={cfg.alpha:g})",
            xlabel="t",
            ylabel=f"asinh(ln Phi_{cfg.p:g})",
        )
    except ValueError as exc:
        sweep.warnings.append(f"moment chart skipped: {exc}")
        return None


def _finish(cfg: ExperimentConfig, payload: dict, written: list, charts: dict) -> int:
    """Write the charts that could be drawn, then print the files written,
    the warnings and the excitation index."""
    for name, text in charts.items():
        if text is not None:
            svgplot.write_svg(os.path.join(cfg.out_dir, name), text)
            written.append(name)
    print(f"wrote {', '.join(written)} in {cfg.out_dir}")
    for w in payload["warnings"]:
        print(f"warning: {w}")
    if payload["e_hat"] is not None:
        print(
            f"excitation index e_hat {payload['e_hat']:.4f} "
            f"(reference {payload['reference_slope']:.4f})"
        )
    return 0


def cmd_sweep(cfg: ExperimentConfig, oracle: bool) -> int:
    sweep = _sweep_source(cfg, oracle)
    try:
        gamma_hat, gamma_ci = moments.fit_lyapunov_from_log(sweep.tables[cfg.lambdas[-1]])
        gamma_ci = list(gamma_ci)
    except ValueError as exc:
        sweep.warnings.append(f"growth-rate fit skipped: {exc}")
        gamma_hat = gamma_ci = None
    table, fit = _excitation_fit(sweep)
    payload = _fit_payload(cfg, oracle, sweep, fit)
    payload.update(gamma_hat=gamma_hat, gamma_ci=gamma_ci)
    if not oracle:
        payload["flagged_total"] = sweep.flagged_total
    charts = {}
    if cfg.emit_svg:
        charts["sweep_phi.svg"] = _moment_svg(cfg, oracle, sweep)
        charts["excitation.svg"] = _excitation_svg(cfg, table, fit, sweep.times[-1])
    out = _outdir(cfg)
    moments.SweepResult(rows=[r for lam in cfg.lambdas for r in sweep.rows[lam]]).write_csv(
        os.path.join(out, "sweep.csv")
    )
    _write_json(os.path.join(out, "fits.json"), payload)
    return _finish(cfg, payload, ["sweep.csv", "fits.json"], charts)


def cmd_excitation(cfg: ExperimentConfig, oracle: bool) -> int:
    sweep = _sweep_source(cfg, oracle)
    table, fit = _excitation_fit(sweep)
    payload = _fit_payload(cfg, oracle, sweep, fit)
    if oracle:
        payload["log_phi"] = {repr(lam): lp for lam, lp in table}
    else:  # the estimates themselves, not exp(ln Phi_p)
        payload["phi"] = {repr(lam): sweep.rows[lam][-1].phi_p.value for lam, _ in table}
    _write_json(os.path.join(_outdir(cfg), "excitation.json"), payload)
    svg = _excitation_svg(cfg, table, fit, sweep.times[-1]) if cfg.emit_svg else None
    return _finish(cfg, payload, ["excitation.json"], {"excitation.svg": svg})


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


def _first_appearance(values: np.ndarray, index: dict) -> np.ndarray:
    """int32 positions of ``values`` in ``index`` (value -> position in order
    of first appearance), extending it with the values new in this chunk."""
    uniq, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    for j in np.argsort(first):
        index.setdefault(float(values[first[j]]), len(index))
    return np.array([index[v] for v in uniq.tolist()], dtype=np.int32)[inverse]


def _concat_chunks(chunks: list) -> np.ndarray:
    """A column's chunks as one array.  Clearing the list frees the chunks
    before the next column is joined."""
    out = np.concatenate(chunks)
    chunks.clear()
    return out


def _parse_rows(path, lines: list, lineno: int) -> np.ndarray:
    """One chunk of ensemble CSV data lines, the first at file line
    ``lineno``.  A chunk the C parser rejects, or one where it skipped blank
    lines, is parsed again line by line so the error names its line."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt on an all-blank chunk
        try:
            rows = np.loadtxt(lines, delimiter=",", dtype=_CSV_ROW, comments=None, ndmin=1)
            if len(rows) == len(lines):
                return rows
        except ValueError:
            pass
    rows = np.empty(len(lines), dtype=_CSV_ROW)
    for j, line in enumerate(lines):
        try:
            ps, ts, xs, u = line.rstrip("\n").split(",")
            rows[j] = int(ps), float(ts), float(xs), float(u)
        except (ValueError, OverflowError) as exc:  # OverflowError: k outside int64
            raise ValueError(f"{path} line {lineno + j}: {exc}") from exc
    return rows


def read_ensemble_csv(path: str) -> dict:
    """Parse an ensemble snapshot CSV back into arrays.

    Returns {"snapshot_times", "nodes", "snapshots"} with snapshots shaped
    (n_snapshots, n_paths, n); times and nodes are numbered in order of first
    appearance, so rows may come in any order.  Values round-trip exactly
    (the writers emit full-precision reprs).  Raises ValueError naming the
    file, and the line of any malformed, non-finite or off-grid row, unless
    every (snapshot, path, node) cell is written exactly once.
    """
    t_index: dict = {}
    x_index: dict = {}
    ti, ks, xi, us = [], [], [], []
    lineno = 2
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "path,t,x,u":
            raise ValueError(f"{path}: unexpected ensemble CSV header {header!r}")
        while lines := list(itertools.islice(fh, _CSV_CHUNK_LINES)):
            rows = _parse_rows(path, lines, lineno)
            k, t, x = rows["k"], rows["t"], rows["x"]
            bad = (k < 0) | ~np.isfinite(t) | ~np.isfinite(x)
            if bad.any():
                j = int(np.argmax(bad))
                kj, tj, xj, _ = rows[j].tolist()
                where = f"{path} line {lineno + j}"
                if kj < 0:
                    raise ValueError(f"{where}: path {kj}, node x={xj!r} is off the ensemble grid")
                raise ValueError(f"{where}: time t={tj!r} and node x={xj!r} must be finite")
            ti.append(_first_appearance(t, t_index))
            xi.append(_first_appearance(x, x_index))
            ks.append(k.copy())  # copies, so the 32-byte rows are freed
            us.append(rows["u"].copy())
            lineno += len(lines)
    if not us:
        raise ValueError(f"{path}: no data rows")
    ti, ks, xi, us = map(_concat_chunks, (ti, ks, xi, us))
    nodes = np.array(list(x_index))
    # the nodes of path 0 at the first time are the grid
    on_grid = np.zeros(nodes.size, dtype=bool)
    on_grid[xi[(ti == 0) & (ks == 0)]] = True
    if not on_grid.all():
        r = int(np.argmax(~on_grid[xi]))
        raise ValueError(
            f"{path} line {r + 2}: path {ks[r]}, node x={float(nodes[xi[r]])!r} is off the ensemble grid"
        )
    shape = (len(t_index), int(ks.max()) + 1, nodes.size)
    n_cells = math.prod(shape)
    if n_cells == us.size:  # otherwise some cell is missing or written twice
        cells = np.ravel_multi_index((ti, ks, xi), shape)
        if np.all(np.bincount(cells, minlength=n_cells) == 1):
            snapshots = np.empty(shape)
            snapshots.flat[cells] = us
            return {"snapshot_times": tuple(t_index), "nodes": nodes, "snapshots": snapshots}
    # counted without a dense array: a stray path index can make n_cells huge
    _, counts = np.unique(np.stack((ti, ks, xi), axis=1), axis=0, return_counts=True)
    raise ValueError(
        f"{path}: {n_cells - counts.size} (snapshot, path, node) cells missing and "
        f"{np.count_nonzero(counts > 1)} written more than once, of {n_cells}"
    )


def read_sweep_csv(path: str) -> moments.SweepResult:
    """Parse a sweep/moments CSV back into a SweepResult (rows only; fitted
    exponents live in the JSON payloads).  Raises ValueError naming the file,
    and the line of any row that is not ten numeric fields."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "lambda,t,phi_p,phi_p_se,sup_m,sup_m_se,inf_m,inf_m_se,n_eff,flagged"
        if header != expected:
            raise ValueError(f"{path}: unexpected sweep CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            f = line.rstrip("\n").split(",")
            if len(f) != 10:
                raise ValueError(f"{path} line {lineno}: expected 10 fields, got {len(f)}")
            try:
                lam, t, phi, phi_se, sup, sup_se, inf, inf_se = map(float, f[:8])
                n_eff, flagged = int(f[8]), float(f[9])
                rows.append(
                    moments.SweepRow(
                        lam=lam,
                        t=t,
                        phi_p=moments.MomentEstimate(phi, phi_se, n_eff, flagged),
                        sup_moment=moments.MomentEstimate(sup, sup_se, n_eff, flagged),
                        inf_subinterval_moment=moments.MomentEstimate(inf, inf_se, n_eff, flagged),
                    )
                )
            except ValueError as exc:  # a non-numeric field, a negative stderr or n_eff
                raise ValueError(f"{path} line {lineno}: {exc}") from exc
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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="experiment config JSON")
        p.add_argument("--seed", type=int, metavar="U64", help="override ensemble.master_seed")
        p.add_argument("--workers", type=int, metavar="K", help="override ensemble.worker_count")
        p.add_argument("--out", metavar="DIR", help="override outputs.directory")
        p.add_argument("--svg", action="store_true", help="emit SVG charts")

    add_common(sub.add_parser("simulate", help="run one ensemble, write snapshots"))
    for name, hlp in (
        ("sweep", "moment estimates over a geometric lambda grid"),
        ("excitation", "fit the excitation index over the lambda grid"),
    ):
        p = sub.add_parser(name, help=hlp)
        add_common(p)
        p.add_argument(
            "--oracle", action="store_true",
            help="use the deterministic second-moment oracle instead of ensembles",
        )
    add_common(sub.add_parser("moments", help="per-snapshot moment estimates"))

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("level", nargs="?", default="quick", choices=("quick", "full"))
    p.add_argument("--workers", type=int, default=2, metavar="K",
                   help="worker count for the full-tier Monte Carlo check")
    p.add_argument("--out", default="out", metavar="DIR", help="report directory")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
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
    return replace(cfg, **updates) if updates else cfg


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
