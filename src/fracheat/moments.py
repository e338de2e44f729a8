"""Moment estimation and exponent fitting for simulated ensembles.

Three moment functionals drive the quantitative checks: the p-th energy

    Phi_p(t, lambda) = (E ||u(t)||_{L^p}^p)^{1/p},

the sup-norm moment E ||u(t)||_inf^p, and the interior infimum
inf_{x in [mu, L-mu]} E |u(t,x)|^p.  On top of these sit two regression
fits: the Lyapunov exponent (tail log-slope of a moment curve in t) and
the excitation index (slope of log log Phi_p against log lambda on a
geometric noise-level grid).

Moment values grow like exp(c * lambda^{2 alpha/(alpha-1)} * t) and leave
double precision long before the fits stop being meaningful, so both fits
take ln(moment) directly.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sde import PathEnsemble

__all__ = [
    "MomentEstimate",
    "SweepRow",
    "SweepResult",
    "estimate_energy",
    "estimate_sup_moment",
    "estimate_inf_subinterval_moment",
    "fit_lyapunov_from_log",
    "fit_excitation_from_log",
]


@dataclass(frozen=True)
class MomentEstimate:
    """A scalar moment estimate with its sampling uncertainty.

    ``n_effective`` counts the paths actually used (flagged paths are
    excluded, never silently dropped); ``flagged_fraction`` reports the
    excluded share so consumers can reject contaminated estimates.
    """

    value: float
    stderr: float
    n_effective: int
    flagged_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if self.n_effective < 0:
            raise ValueError("n_effective must be nonnegative")


def _finite_paths(ensemble: PathEnsemble, t: float, p: float) -> tuple[np.ndarray, int, float]:
    """Every estimator's first step: reject p < 2 and non-finite p, warn,
    naming its caller, when p is at or below 2/(alpha-1), the threshold the
    moment theorems assume, and return the snapshot at time t without its
    non-finite paths (itself if none is), their count and flagged share."""
    if not (2.0 <= p < math.inf):
        raise ValueError(f"moment order p={p} must be finite and >= 2")
    threshold = 2.0 / (ensemble.params.alpha - 1.0)
    if p <= threshold:
        warnings.warn(
            f"p={p} is at or below 2/(alpha-1)={threshold:.4g}; the moment "
            "growth/decay theorems assume p above this threshold",
            stacklevel=3,
        )
    u = ensemble.snapshot(t)
    alive = ensemble.finite_paths(t)
    n_eff = int(np.count_nonzero(alive))
    if n_eff == 0:
        raise ValueError(f"all {len(u)} paths are flagged at t={t}; nothing to estimate")
    return (u if n_eff == len(u) else u[alive]), n_eff, 1.0 - n_eff / len(u)


def _mean_and_stderr(s: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-path values and its standard error.  Finite paths
    can still raise |u|^p past double range; such a mean is reported as
    (inf, inf) rather than the NaN spread numpy would give.  Call under
    ``np.errstate(over="ignore", invalid="ignore")``, as the sample needs."""
    mean = float(np.mean(s))
    if math.isinf(mean):
        return math.inf, math.inf
    return mean, float(np.std(s, ddof=1) / math.sqrt(s.size)) if s.size > 1 else 0.0


def estimate_energy(ensemble: PathEnsemble, t: float, p: float) -> MomentEstimate:
    """Estimate Phi_p(t) = (E integral |u(t,x)|^p dx)^{1/p}.

    The integral is the grid sum dx * sum_i |u_i|^p.  The standard error
    of the per-path integral is propagated through the 1/p power by the
    delta method.
    """
    u, n_eff, flagged = _finite_paths(ensemble, t, p)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se_mean = _mean_and_stderr(ensemble.grid.dx * np.sum(np.abs(u) ** p, axis=1))
    value = mean ** (1.0 / p)
    # d(m^{1/p})/dm = m^{1/p-1}/p; se_mean is 0 at a zero mean, inf at an overflowed one
    stderr = se_mean * value / (p * mean) if 0.0 < mean < math.inf else se_mean
    return MomentEstimate(value, stderr, n_eff, flagged)


def estimate_sup_moment(ensemble: PathEnsemble, t: float, p: float) -> MomentEstimate:
    """Estimate E ||u(t)||_inf^p = E (max_i |u_i|)^p.

    Reported as the p-th moment itself, without the 1/p root.
    """
    u, n_eff, flagged = _finite_paths(ensemble, t, p)
    with np.errstate(over="ignore", invalid="ignore"):
        return MomentEstimate(*_mean_and_stderr(np.max(np.abs(u), axis=1) ** p), n_eff, flagged)


def estimate_inf_subinterval_moment(ensemble: PathEnsemble, t: float, p: float) -> MomentEstimate:
    """Estimate inf over nodes in [mu, L-mu] of the per-node moment E|u(t,x)|^p."""
    u, n_eff, flagged = _finite_paths(ensemble, t, p)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(u[:, ensemble.grid.interior_indices()]) ** p
        means = vals.mean(axis=0)
        j = int(np.argmin(means))
        # node j's entry of the per-node means, which its column's own mean
        # need not equal bit for bit, so its overflow is checked here
        value = float(means[j])
        stderr = math.inf if math.isinf(value) else _mean_and_stderr(vals[:, j])[1]
    return MomentEstimate(value, stderr, n_eff, flagged)


# ---------------------------------------------------------------------------
# Regression fits


def _slope_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Least-squares slope with a 1.96-sigma confidence interval, from three
    or more points."""
    n = x.size
    A = np.vstack([x, np.ones(n)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    rss = float(res[0]) if res.size else float(np.sum((y - A @ coef) ** 2))
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(rss / (n - 2) / sxx) if sxx > 0.0 else 0.0
    return slope, (slope - 1.96 * se, slope + 1.96 * se)


def fit_lyapunov_from_log(
    series: Sequence[tuple[float, float]]
) -> tuple[float, tuple[float, float]]:
    """Lyapunov exponent: least-squares slope of ln(moment) vs t on the tail.

    ``series`` holds (t, ln moment) points.  Uses the window [t_end/2,
    t_end], which needs at least five points, all finite.
    """
    pts = sorted(series)
    if not pts:
        raise ValueError("empty moment series")
    t_end = pts[-1][0]
    tail = [(t, lv) for t, lv in pts if t >= 0.5 * t_end]
    if len(tail) < 5:
        raise ValueError(
            f"need >= 5 points in the tail window [{0.5 * t_end}, {t_end}]; got {len(tail)}"
        )
    for t, lv in tail:
        if not math.isfinite(lv):
            raise ValueError(f"ln moment {lv} at t={t} in the tail window is not finite")
    x = np.array([t for t, _ in tail])
    y = np.array([lv for _, lv in tail])
    return _slope_fit(x, y)


def _check_geometric(lams: np.ndarray) -> None:
    ratios = lams[1:] / lams[:-1]
    if np.any(ratios <= 1.0):
        raise ValueError("lambda grid must be strictly increasing")
    if np.max(ratios) / np.min(ratios) > 1.0 + 1e-6:
        raise ValueError("lambda grid must be geometric (constant ratio)")


def fit_excitation_from_log(
    table: Sequence[tuple[float, float]]
) -> tuple[float, tuple[float, float]]:
    """Excitation index: slope of log log Phi_p vs log lambda.

    ``table`` holds (lambda, ln Phi_p at fixed t) points on a geometric
    lambda grid, every ln Phi_p finite.  The fit uses the largest-lambda
    half, where every point must satisfy Phi_p > e, i.e. ln Phi_p > 1, so
    the double logarithm is defined and positive.
    """
    pts = sorted(table)
    for lam, logphi in pts:
        if not math.isfinite(logphi):
            raise ValueError(
                f"Phi_p={math.exp(logphi)} at lambda={lam} is not a positive finite value"
            )
    if len(pts) < 5:
        raise ValueError(f"need >= 5 lambda values; got {len(pts)}")
    lams = np.array([l for l, _ in pts])
    if np.any(lams <= 0.0):
        raise ValueError("all lambda must be positive")
    _check_geometric(lams)
    half = pts[(len(pts)) // 2 :]
    for lam, logphi in half:
        if not (logphi > 1.0):
            raise ValueError(
                f"Phi_p <= e at lambda={lam} (ln Phi={logphi}); "
                "excitation fit undefined there"
            )
    x = np.log(np.array([l for l, _ in half]))
    y = np.log(np.array([lp for _, lp in half]))
    return _slope_fit(x, y)


# ---------------------------------------------------------------------------
# Sweep results


# each estimated SweepRow field and the stem of its two CSV columns, value and stem_se
ESTIMATED = {"phi_p": "phi_p", "sup_moment": "sup_m", "inf_subinterval_moment": "inf_m"}


@dataclass(frozen=True)
class SweepRow:
    lam: float
    t: float
    phi_p: MomentEstimate
    sup_moment: MomentEstimate
    inf_subinterval_moment: MomentEstimate


@dataclass
class SweepResult:
    """Moment estimates over a (lambda, t) sweep."""

    # the CSV columns, in order; cli.read_sweep_csv reads them back
    CSV_COLUMNS = (
        "lambda", "t", *(c for stem in ESTIMATED.values() for c in (stem, f"{stem}_se")), "n_eff", "flagged"
    )

    rows: list[SweepRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        keys = [(r.lam, r.t) for r in self.rows]
        if keys != sorted(keys):
            raise ValueError("sweep rows must be sorted by (lambda, t)")
        if any(r.lam < 0.0 for r in self.rows):  # lam 0 is the noiseless equation
            raise ValueError("all lambda must be non-negative")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.CSV_COLUMNS) + "\n")
        for r in self.rows:
            values = [v for name in ESTIMATED for v in (getattr(r, name).value, getattr(r, name).stderr)]
            buf.write(",".join(map(repr, [r.lam, r.t, *values])))
            buf.write(f",{r.phi_p.n_effective},{r.phi_p.flagged_fraction!r}\n")
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())
