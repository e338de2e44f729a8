"""Batch experiment driver.

Subcommands: ``simulate`` (one ensemble, snapshot CSV + metadata),
``sweep`` (moment estimates over a geometric noise-level grid, with fitted
growth and excitation exponents), ``moments`` (per-snapshot estimates for a
single configuration), ``excitation`` (the excitation-index fit alone), and
``selftest`` (the acceptance suite, quick or full tier).

Configuration is one JSON document; command-line flags override config
fields.  Exit codes: 0 success, 1 acceptance failure, 2 configuration error.
Every CSV and JSON file written here can be re-read losslessly by the
``read_*`` functions in this module; the SVG charts have no reader.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass
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
# data lines per np.loadtxt call in the CSV readers: beside the snapshot
# array it fills, read_ensemble_csv holds about one chunk's lines and rows
_CSV_CHUNK_LINES = 1 << 12
_CSV_ROW = np.dtype([("path", "i8"), ("t", "f8"), ("x", "f8"), ("u", "f8")])


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
_BOUNDS = {"above": (">", operator.gt), "at_least": (">=", operator.ge),
           "below": ("<", operator.lt), "at_most": ("<=", operator.le)}
# the excitation fit needs 5 levels, and each level of a sweep is one
# ensemble or one oracle march: a count past 1000 is a typo, not a grid
_SWEEP_COUNT_MAX = 1000
# the config field each command-line flag sets
_FLAG_FIELDS = {
    "seed": "ensemble.master_seed",
    "workers": "ensemble.worker_count",
    "out": "outputs.directory",
    "svg": "outputs.emit_svg",
}


def _get(doc: dict, path: str, default=_MISSING):
    """The value at a dotted path; a JSON null counts as an absent key."""
    cur = doc
    for part in path.split("."):
        cur = cur.get(part) if isinstance(cur, dict) else None
        if cur is None:
            if default is _MISSING:
                raise ConfigError(path, "missing required field")
            return default
    return cur


def _checked(path: str, v, integer: bool = False, **bounds):
    """``v`` as an int or a float, if it is a finite number (an integer with
    ``integer``) inside ``bounds``, each a keyword of ``_BOUNDS``: above=a
    requires v > a, at_least=a v >= a, and so on."""
    finite = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    if not finite or (integer and v != int(v)):
        raise ConfigError(path, f"expected {'an integer' if integer else 'a finite number'}, got {v!r}")
    v = int(v) if integer else float(v)
    if not all(_BOUNDS[name][1](v, bound) for name, bound in bounds.items()):
        rule = " and ".join(f"{_BOUNDS[name][0]} {bound!r}" for name, bound in bounds.items())
        raise ConfigError(path, f"must be {rule}, got {v!r}")
    return v


def _number(doc: dict, path: str, default=_MISSING, **rule):
    """The number at ``path`` under ``_checked``'s rule; None only as a default."""
    v = _get(doc, path, default)
    return None if v is None else _checked(path, v, **rule)


def _numbers(doc: dict, path: str, default=_MISSING, *, length: Optional[int] = None,
             increasing: bool = False, **rule):
    """The non-empty list at ``path`` as a tuple, each entry under
    ``_checked``'s rule.  A value equal to ``default`` (u0's "tent") is
    returned as it is."""
    v = _get(doc, path, default)
    if v is None or v == default:
        return v
    if not isinstance(v, list) or not v or len(v) != (length or len(v)):
        got = f"{len(v)} entries" if isinstance(v, list) else repr(v)
        raise ConfigError(path, f"expected a list of {length or 'one or more'} numbers, got {got}")
    values = tuple(_checked(path, x, **rule) for x in v)
    if increasing and list(values) != sorted(values):
        raise ConfigError(path, f"entries must be increasing, got {v!r}")
    return values


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document; raise ConfigError naming the field.

    Every value is read once, by ``_get`` (a JSON null is an absent key) and
    ``_number`` or ``_numbers``, which check it against its field's range."""
    n = _number(doc, "discretization.n", integer=True, at_least=3)
    t_end = _number(doc, "discretization.t_end", above=0.0)
    L = _number(doc, "model.L", 1.0, above=0.0)
    u0 = _numbers(doc, "model.u0", "tent", length=n, at_least=0.0)
    try:
        sigma = SigmaSpec(
            kind=_get(doc, "model.sigma.kind", "linear"),
            l_sigma=_number(doc, "model.sigma.l_sigma", 1.0, above=0.0),
            L_sigma=_number(doc, "model.sigma.L_sigma", 1.0, above=0.0),
            table_u=_numbers(doc, "model.sigma.table_u", None),
            table_values=_numbers(doc, "model.sigma.table_values", None),
        )
    except ValueError as exc:
        raise ConfigError("model.sigma", str(exc)) from exc
    lam_min = _number(doc, "sweep.lambda_min", 8.0, above=0.0)
    lam_max = _number(doc, "sweep.lambda_max", 128.0, above=lam_min)
    count = _number(doc, "sweep.count", 5, integer=True, at_least=5, at_most=_SWEEP_COUNT_MAX)
    out_dir = _get(doc, "outputs.directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("outputs.directory", "expected a non-empty path string")
    emit_svg = _get(doc, "outputs.emit_svg", False)
    if not isinstance(emit_svg, bool):
        raise ConfigError("outputs.emit_svg", f"expected true/false, got {emit_svg!r}")
    return ExperimentConfig(
        alpha=_number(doc, "model.alpha", above=1.0, below=2.0),
        L=L,
        n=n,
        mu=_number(doc, "model.mu", 0.1, above=0.0, below=L / 2),
        lam=_number(doc, "model.lam", 1.0, at_least=0.0),
        p=_number(doc, "model.p", 2.0, at_least=2.0),
        sigma=sigma,
        u0_values=None if u0 == "tent" else u0,
        dt=_number(doc, "discretization.dt", None, above=0.0),
        t_end=t_end,
        snapshot_times=_numbers(
            doc, "discretization.snapshot_times", (t_end,), increasing=True,
            above=0.0, at_most=t_end * (1 + 1e-12),
        ),
        lambdas=tuple(float(v) for v in np.geomspace(lam_min, lam_max, count)),
        n_paths=_number(doc, "ensemble.n_paths", integer=True, at_least=1),
        master_seed=_number(doc, "ensemble.master_seed", 1, integer=True, at_least=0),
        worker_count=_number(doc, "ensemble.worker_count", 1, integer=True, at_least=1),
        out_dir=out_dir,
        emit_svg=emit_svg,
    )


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse the config file at ``path``.  ``overrides`` (dotted field path ->
    value) are written into the document first, so each is checked as the
    field it sets."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("--config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("--config", f"{path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("--config", "top level must be a JSON object")
    for field, value in (overrides or {}).items():
        *parents, key = field.split(".")
        cur = doc
        for part in parents:  # _get reads a non-object as absent, so it may be replaced
            if not isinstance(cur.get(part), dict):
                cur[part] = {}
            cur = cur[part]
        cur[key] = value
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
        disc = Discretization(
            grid=op.grid, dt=dt, t_end=cfg.t_end, snapshot_times=cfg.snapshot_times
        )
    except ValueError as exc:
        raise ConfigError("discretization", str(exc)) from exc
    try:
        disc.check_operator(op)  # the Monte Carlo engines' rule on dt
    except ValueError as exc:
        raise ConfigError("discretization.dt", str(exc)) from exc
    return disc


def _outdir(path: str, field: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(field, f"not writable: {exc}") from exc
    return path


def _ensembles(cfg: ExperimentConfig, lams: Sequence[float]):
    """One ensemble per level of ``lams``, each run as the result is iterated,
    after every config check (each level's too) and then the output directory:
    a config error leaves no directory, an unwritable one costs no ensemble."""
    op = _operator(cfg)
    disc = _discretization(cfg, op)
    params = [_params(cfg, op, lam) for lam in lams]
    _outdir(cfg.out_dir, "outputs.directory")
    run = dict(n_paths=cfg.n_paths, master_seed=cfg.master_seed, worker_count=cfg.worker_count)
    return (run_ensemble(par, disc, op, **run) for par in params)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: ExperimentConfig) -> int:
    (ens,) = _ensembles(cfg, [cfg.lam])
    csv_path = os.path.join(cfg.out_dir, "ensemble.csv")
    meta_path = os.path.join(cfg.out_dir, "metadata.json")
    ens.write_csv(csv_path)
    _write_json(meta_path, ens.metadata())
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
        if not np.any(ens.finite_paths(t)):
            warnings.append(
                f"all {ens.n_paths} paths are flagged at lambda={lam!r}, t={float(t)!r}; estimate omitted"
            )
            continue
        est = dict(zip(moments.ESTIMATED, [estimate(ens, t, cfg.p) for estimate in _ESTIMATORS]))
        over = [name for name, e in est.items() if math.isinf(e.value) or math.isinf(e.stderr)]
        if over:
            warnings.append(
                f"{', '.join(over)} left double range at lambda={lam!r}, t={float(t)!r}; "
                "the overflowed values and standard errors are reported as inf"
            )
        rows.append(moments.SweepRow(lam=lam, t=float(t), **est))
    return rows


def cmd_moments(cfg: ExperimentConfig) -> int:
    (ens,) = _ensembles(cfg, [cfg.lam])
    warnings: list = []
    rows = _snapshot_rows(cfg, ens, cfg.lam, warnings)
    result = moments.SweepResult(rows=rows)
    csv_path = os.path.join(cfg.out_dir, "moments.csv")
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
    _write_json(os.path.join(cfg.out_dir, "moments.json"), summary)
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

    logs = dict(zip(moments.ESTIMATED, (curves.log_phi2(), curves.log_sup, curves.log_inf)))
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
    _outdir(cfg.out_dir, "outputs.directory")
    rows = {lam: _oracle_rows(cfg, c) for lam, c in curves.items()}
    tables = {lam: list(zip(c.t.tolist(), c.log_phi2().tolist())) for lam, c in curves.items()}
    return _Sweep(rows, tables, curves[cfg.lambdas[0]].t.tolist(), [], None)


def _mc_source(cfg: ExperimentConfig) -> _Sweep:
    """One ensemble per lambda, its rows at the snapshot times."""
    rows: dict = {}
    warnings: list = []
    flagged_total = 0
    for lam, ens in zip(cfg.lambdas, _ensembles(cfg, cfg.lambdas)):
        flagged_total += ens.flagged_count
        rows[lam] = _snapshot_rows(cfg, ens, lam, warnings)
    tables = {
        lam: [(r.t, math.log(r.phi_p.value) if r.phi_p.value > 0.0 else -math.inf) for r in rs]
        for lam, rs in rows.items()
    }
    return _Sweep(rows, tables, list(ens.snapshot_times), warnings, flagged_total)


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
    sweep = _oracle_source(cfg) if oracle else _mc_source(cfg)
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
    moments.SweepResult(rows=[r for lam in cfg.lambdas for r in sweep.rows[lam]]).write_csv(
        os.path.join(cfg.out_dir, "sweep.csv")
    )
    _write_json(os.path.join(cfg.out_dir, "fits.json"), payload)
    return _finish(cfg, payload, ["sweep.csv", "fits.json"], charts)


def cmd_excitation(cfg: ExperimentConfig, oracle: bool) -> int:
    sweep = _oracle_source(cfg) if oracle else _mc_source(cfg)
    table, fit = _excitation_fit(sweep)
    payload = _fit_payload(cfg, oracle, sweep, fit)
    if oracle:
        payload["log_phi"] = {repr(lam): lp for lam, lp in table}
    else:  # the estimates themselves, not exp(ln Phi_p)
        payload["phi"] = {repr(lam): sweep.rows[lam][-1].phi_p.value for lam, _ in table}
    _write_json(os.path.join(cfg.out_dir, "excitation.json"), payload)
    svg = _excitation_svg(cfg, table, fit, sweep.times[-1]) if cfg.emit_svg else None
    return _finish(cfg, payload, ["excitation.json"], {"excitation.svg": svg})


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(level: str, out_dir: str, mc_worker_count: int) -> int:
    mc_worker_count = _checked("--workers", mc_worker_count, integer=True, at_least=1)
    path = os.path.join(_outdir(out_dir, "--out"), "selftest.json")
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
    _write_json(path, report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL':4} {r.elapsed:7.2f}s {r.name}: {r.detail}")
    print(f"{'PASS' if passed else 'FAIL'}: {len(results)} checks, report at {path}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Readers: every writer in the artifact has a lossless counterpart here


def _load_rows(lines: list, row: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt on blank lines only
        return np.loadtxt(lines, delimiter=",", dtype=row, comments=None, ndmin=1)


def _one_row(text: str, row: np.dtype) -> bool:
    """Whether ``np.loadtxt`` reads ``text`` as exactly one ``row``."""
    try:
        return len(_load_rows([text], row)) == 1
    except ValueError:
        return False


def _line_error(line: str, row: np.dtype) -> str:
    """Why ``line`` is not one ``row``: its field count, or the first field
    ``np.loadtxt`` does not read as one value of its type."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != len(row.names):
        return f"expected {len(row.names)} fields, got {len(fields)}"
    for name, field in zip(row.names, fields):
        if not _one_row(field, row[name]):
            return f"could not convert string {field!r} to {row[name]} (field {name})"
    return "not read as one row"


def _parse_rows(path, lines: list, lineno: int, row: np.dtype):
    """Yield one chunk of CSV data lines, the first at file line ``lineno``,
    as ``row`` records.  A chunk the parser rejects, or one where it skipped
    blank lines, is parsed again line by line with the same call; the rows
    before the first line it rejects or reads as no row are yielded, so the
    reader checks them first, and then ValueError names that line."""
    try:
        rows = _load_rows(lines, row)
        if len(rows) == len(lines):
            yield rows
            return
    except ValueError:
        pass
    for j, line in enumerate(lines):
        if not _one_row(line, row):
            if j:
                yield _load_rows(lines[:j], row)
            raise ValueError(f"{path} line {lineno + j}: {_line_error(line, row)}")
    # each line alone parsed where the chunk did not: still refuse the chunk
    raise ValueError(f"{path} lines {lineno}-{lineno + len(lines) - 1}: not parsed as rows")


def _chunks(path, fh, row: np.dtype):
    """The lines of ``fh`` after the header, parsed ``_CSV_CHUNK_LINES`` at a time."""
    lineno = 2
    while lines := list(itertools.islice(fh, _CSV_CHUNK_LINES)):
        yield from _parse_rows(path, lines, lineno, row)
        lineno += len(lines)
        del lines  # released before the next chunk is read, not after


def _writer_row(r: int, X: int, P: int, nodes: list, times: list) -> str:
    """What ``PathEnsemble.write_csv`` puts at data row ``r`` after the rows
    before it, which fix X nodes at row X and P paths at row P X (each 0
    until then)."""
    if not r:
        return "path 0 at a finite time and node"
    t0, later = times[0], f"path 0, a finite t > {{}}, x={nodes[0]!r}"
    if not X or r <= X:
        return f"path 0, t={t0!r} at a new finite node, or path 1, t={t0!r}, x={nodes[0]!r}, or {later.format(t0)}"
    (s, path), j = divmod(r // X, P or r + 1), r % X
    if not j and (not P or r <= P * X):
        return f"path {path}, t={t0!r}, x={nodes[0]!r}, or {later.format(t0)}"
    if not j and not path:
        return later.format(times[s - 1])
    return f"path {path}, t={times[s]!r}, x={nodes[j]!r}"


def _writer_order(path, chunks) -> dict:
    """The snapshots of rows in the order ``PathEnsemble.write_csv`` writes
    them: snapshot by snapshot at strictly increasing finite times, paths 0,
    1, ..., P-1 within a snapshot, and within a path the X distinct finite
    nodes path 0 has at the first time, in that order.  X is fixed at the
    first row that is not path 0 at the first time, and P at the first new
    time; a file of one snapshot takes P from its row count.  Each chunk's
    u column is appended to the snapshot array, and the first row out of
    that order raises ValueError naming its line, what it holds and what
    the writer puts there."""
    u, nodes, times, X, P, n = np.empty(0), np.empty(0), [], 0, 0, 0
    for rows in chunks:
        k, t, x = rows["path"], rows["t"], rows["x"]
        times = times or [float(t[0])]
        bad, m, new = np.zeros(len(rows), dtype=bool), 0, t[:0]
        if not X:  # path 0 at the first time: its nodes are the grid
            lead = (k == 0) & (t == times[0])
            m = len(rows) if lead.all() else int(np.argmin(lead))
            nodes = np.concatenate([nodes, x[:m]])
            again = np.ones(nodes.size, dtype=bool)
            again[np.unique(nodes, return_index=True)[1]] = False
            bad[:m] = (again | ~np.isfinite(nodes))[n:]
            bad[0] |= not (n or m and math.isfinite(times[0]))  # row 0: path 0 at a finite time
            X = nodes.size if m < len(rows) else 0
        if X:
            r = np.arange(n + m, n + len(rows))
            if not P and (t[m:] != times[0]).any():
                # P at the first new time; one inside a path leaves its row in snapshot 0, refused
                i = r[int(np.argmax(t[m:] != times[0]))]
                P = -(-i // X)
            b, j = np.divmod(r, X)
            s, path_of = np.divmod(b, P or b[-1] + 1)
            starts = np.arange(len(times), s[-1] + 1) * (P * X) - n  # of the snapshots begun here
            new = t[starts]
            bad[m:] = (k[m:] != path_of) | (t[m:] != np.array(times + new.tolist())[s]) | (x[m:] != nodes[j])
            bad[starts] |= ~(np.isfinite(new) & (np.diff(new, prepend=times[-1]) > 0))
        if bad.any():
            f = int(np.argmax(bad))
            k_f, t_f, x_f, _ = rows[f].tolist()
            raise ValueError(
                f"{path} line {n + f + 2}: path {k_f}, t={t_f!r}, x={x_f!r} where the writer puts "
                + _writer_row(n + f, X, P, nodes.tolist(), times + new.tolist())
            )
        times += new.tolist()
        u.resize(n + len(rows), refcheck=False)
        u[n:] = rows["u"]
        n += len(rows)
    if not n:
        raise ValueError(f"{path}: no data rows")
    X = X or n
    P = P or -(-n // X)
    if n != len(times) * P * X:
        raise ValueError(
            f"{path}: the file ends inside snapshot {len(times)} after {n} data rows, "
            f"in snapshots of {P} paths x {X} nodes"
        )
    return {"snapshot_times": tuple(times), "nodes": nodes, "snapshots": u.reshape(len(times), P, X)}


def read_ensemble_csv(path: str) -> dict:
    """Parse an ensemble snapshot CSV back into arrays.

    Returns {"snapshot_times", "nodes", "snapshots"} with snapshots shaped
    (n_snapshots, n_paths, n).  Values round-trip exactly (the writers emit
    full-precision reprs).  Files and pipes alike are read in one pass in
    the writer's order, ``_CSV_CHUNK_LINES`` lines at a time, so the reader
    holds about the returned array plus one chunk.  Raises ValueError
    naming the file, and the line of any malformed row or of the first row
    out of the writer's order; a file with no data rows, or one that ends
    inside a snapshot, is named without a line.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(_CSV_ROW.names):
            raise ValueError(f"{path}: unexpected ensemble CSV header {header!r}")
        return _writer_order(path, _chunks(path, fh, _CSV_ROW))


def read_sweep_csv(path: str) -> moments.SweepResult:
    """Parse a sweep/moments CSV back into a SweepResult (rows only; fitted
    exponents live in the JSON payloads).  Raises ValueError naming the file,
    and the line of any row that is not ten numeric fields, read as the
    ensemble reader reads its rows."""
    names = moments.SweepResult.CSV_COLUMNS
    row = np.dtype([(name, "i8" if name == "n_eff" else "f8") for name in names])
    result = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(names):
            raise ValueError(f"{path}: unexpected sweep CSV header {header!r}")
        records = itertools.chain.from_iterable(rows.tolist() for rows in _chunks(path, fh, row))
        # lambda, t, a value and its stderr per estimated field, n_eff, flagged
        for lineno, (lam, t, *pairs, n_eff, flagged) in enumerate(records, start=2):
            try:
                est = {
                    name: moments.MomentEstimate(value, se, n_eff, flagged)
                    for name, value, se in zip(moments.ESTIMATED, pairs[::2], pairs[1::2])
                }
                result.append(moments.SweepRow(lam=lam, t=t, **est))
            except ValueError as exc:  # a negative stderr or n_eff
                raise ValueError(f"{path} line {lineno}: {exc}") from exc
    return moments.SweepResult(rows=result)


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
        p.add_argument("--seed", type=int, metavar="U64", help=f"set {_FLAG_FIELDS['seed']}")
        p.add_argument("--workers", type=int, metavar="K", help=f"set {_FLAG_FIELDS['workers']}")
        p.add_argument("--out", metavar="DIR", help=f"set {_FLAG_FIELDS['out']}")

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
        p.add_argument("--svg", action="store_true", default=None,
                       help=f"emit SVG charts (sets {_FLAG_FIELDS['svg']})")
    add_common(sub.add_parser("moments", help="per-snapshot moment estimates"))

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("level", nargs="?", default="quick", choices=("quick", "full"))
    p.add_argument("--workers", type=int, default=2, metavar="K",
                   help="worker count for the full-tier Monte Carlo check")
    p.add_argument("--out", default="out", metavar="DIR", help="report directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest(args.level, args.out, args.workers)
        if args.config is None:
            raise ConfigError("--config", f"required for the {args.command} command")
        flags = {field: getattr(args, flag, None) for flag, field in _FLAG_FIELDS.items()}
        cfg = load_config(args.config, {f: v for f, v in flags.items() if v is not None})
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
