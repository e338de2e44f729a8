"""Moment estimation and exponent fitting for simulated ensembles.

Three moment functionals drive the quantitative checks: the p-th energy

    Phi_p(t, lambda) = (E ||u(t)||_{L^p}^p)^{1/p},

the sup-norm moment E ||u(t)||_inf^p, and the interior infimum
inf_{x in [mu, L-mu]} E |u(t,x)|^p.  On top of these sit two regression
fits: the Lyapunov exponent (tail log-slope of a moment curve in t) and
the excitation index (slope of log log Phi_p against log lambda on a
geometric noise-level grid).

Moment values grow like exp(c * lambda^{2 alpha/(alpha-1)} * t) and leave
double precision long before the fits stop being meaningful, so every
fit has a log-domain companion that accepts ln(moment) directly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .sde import PathEnsemble

__all__ = [
    "MomentEstimate",
    "SweepRow",
    "SweepResult",
    "estimate_energy",
    "estimate_sup_moment",
    "estimate_inf_subinterval_moment",
    "fit_lyapunov",
    "fit_lyapunov_from_log",
    "fit_excitation",
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


def _clean_snapshot(ensemble: PathEnsemble, t: float) -> tuple[np.ndarray, int, float]:
    """Snapshot at time t with flagged (non-finite) paths removed."""
    u = ensemble.snapshot(t)
    alive = np.all(np.isfinite(u), axis=1)
    n_total = u.shape[0]
    n_eff = int(np.count_nonzero(alive))
    if n_eff == 0:
        raise ValueError(f"all {n_total} paths are flagged at t={t}; nothing to estimate")
    return u[alive], n_eff, 1.0 - n_eff / n_total


def estimate_energy(ensemble: PathEnsemble, t: float, p: float) -> MomentEstimate:
    """Estimate Phi_p(t) = (E integral |u(t,x)|^p dx)^{1/p}.

    The integral is the grid sum dx * sum_i |u_i|^p.  The standard error
    of the per-path integral is propagated through the 1/p power by the
    delta method.
    """
    if p < 2.0:
        raise ValueError(f"moment order p={p} must be >= 2")
    u, n_eff, flagged = _clean_snapshot(ensemble, t)
    s = ensemble.grid.dx * np.sum(np.abs(u) ** p, axis=1)
    mean = float(np.mean(s))
    se_mean = float(np.std(s, ddof=1) / math.sqrt(n_eff)) if n_eff > 1 else 0.0
    value = mean ** (1.0 / p)
    # d(m^{1/p})/dm = m^{1/p-1}/p
    stderr = se_mean * value / (p * mean) if mean > 0.0 else 0.0
    return MomentEstimate(value, stderr, n_eff, flagged)


def estimate_sup_moment(ensemble: PathEnsemble, t: float, p: float) -> MomentEstimate:
    """Estimate E ||u(t)||_inf^p = E (max_i |u_i|)^p.

    Reported as the p-th moment itself, without the 1/p root.
    """
    if p < 2.0:
        raise ValueError(f"moment order p={p} must be >= 2")
    u, n_eff, flagged = _clean_snapshot(ensemble, t)
    s = np.max(np.abs(u), axis=1) ** p
    value = float(np.mean(s))
    stderr = float(np.std(s, ddof=1) / math.sqrt(n_eff)) if n_eff > 1 else 0.0
    return MomentEstimate(value, stderr, n_eff, flagged)


def estimate_inf_subinterval_moment(ensemble: PathEnsemble, t: float, p: float) -> MomentEstimate:
    """Estimate inf over nodes in [mu, L-mu] of the per-node moment E|u(t,x)|^p."""
    if p < 2.0:
        raise ValueError(f"moment order p={p} must be >= 2")
    inner = ensemble.grid.interior_indices()
    u, n_eff, flagged = _clean_snapshot(ensemble, t)
    vals = np.abs(u[:, inner]) ** p
    means = vals.mean(axis=0)
    j = int(np.argmin(means))
    value = float(means[j])
    stderr = float(np.std(vals[:, j], ddof=1) / math.sqrt(n_eff)) if n_eff > 1 else 0.0
    return MomentEstimate(value, stderr, n_eff, flagged)


# ---------------------------------------------------------------------------
# Regression fits


def _slope_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Least-squares slope with a 1.96-sigma confidence interval."""
    n = x.size
    A = np.vstack([x, np.ones(n)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    if n > 2:
        rss = float(res[0]) if res.size else float(np.sum((y - A @ coef) ** 2))
        sxx = float(np.sum((x - x.mean()) ** 2))
        se = math.sqrt(rss / (n - 2) / sxx) if sxx > 0.0 else 0.0
    else:
        se = 0.0
    return slope, (slope - 1.96 * se, slope + 1.96 * se)


def fit_lyapunov_from_log(
    series: Sequence[tuple[float, float]]
) -> tuple[float, tuple[float, float]]:
    """Tail log-slope fit from points (t, ln moment).

    Uses the window [t_end/2, t_end] and requires at least five points
    there.
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
    x = np.array([t for t, _ in tail])
    y = np.array([lv for _, lv in tail])
    return _slope_fit(x, y)


def fit_lyapunov(
    series: Sequence[tuple[float, float]]
) -> tuple[float, tuple[float, float]]:
    """Lyapunov exponent: least-squares slope of ln(moment) vs t on the tail.

    ``series`` holds (t, moment) pairs; moments in the tail window must
    be positive.
    """
    pts = sorted(series)
    if not pts:
        raise ValueError("empty moment series")
    t_end = pts[-1][0]
    logged = []
    for t, m in pts:
        if t < 0.5 * t_end:
            continue
        if not (m > 0.0):
            raise ValueError(f"nonpositive moment {m} at t={t} in the tail window")
        logged.append((t, math.log(m)))
    return fit_lyapunov_from_log(logged)


def _check_geometric(lams: np.ndarray) -> None:
    ratios = lams[1:] / lams[:-1]
    if np.any(ratios <= 1.0):
        raise ValueError("lambda grid must be strictly increasing")
    if np.max(ratios) / np.min(ratios) > 1.0 + 1e-6:
        raise ValueError("lambda grid must be geometric (constant ratio)")


def fit_excitation_from_log(
    table: Sequence[tuple[float, float]]
) -> tuple[float, tuple[float, float]]:
    """Excitation-index fit from points (lambda, ln Phi_p at fixed t).

    Regresses log log Phi_p on log lambda over the largest-lambda half of
    the geometric grid.  Every retained point must satisfy Phi_p > e,
    i.e. ln Phi_p > 1, so the double logarithm is defined and positive.
    """
    pts = sorted(table)
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


def fit_excitation(
    table: Sequence[tuple[float, float]]
) -> tuple[float, tuple[float, float]]:
    """Excitation index: slope of log log Phi_p vs log lambda.

    ``table`` holds (lambda, Phi_p) pairs on a geometric lambda grid; the
    fit uses the largest-lambda half.  For values beyond double range use
    :func:`fit_excitation_from_log`.
    """
    logged = []
    for lam, phi in table:
        if not (phi > 0.0) or not math.isfinite(phi):
            raise ValueError(f"Phi_p={phi} at lambda={lam} is not a positive finite value")
        logged.append((lam, math.log(phi)))
    return fit_excitation_from_log(logged)


# ---------------------------------------------------------------------------
# Sweep results


@dataclass(frozen=True)
class SweepRow:
    lam: float
    t: float
    phi_p: MomentEstimate
    sup_moment: MomentEstimate
    inf_subinterval_moment: MomentEstimate


@dataclass
class SweepResult:
    """Moment estimates over a (lambda, t) sweep, plus optional fitted exponents."""

    rows: list[SweepRow] = field(default_factory=list)
    lyapunov_hat: Optional[tuple[float, tuple[float, float]]] = None
    excitation_hat: Optional[tuple[float, tuple[float, float]]] = None

    def __post_init__(self) -> None:
        keys = [(r.lam, r.t) for r in self.rows]
        if keys != sorted(keys):
            raise ValueError("sweep rows must be sorted by (lambda, t)")
        if any(r.lam <= 0.0 for r in self.rows):
            raise ValueError("all lambda must be positive")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("lambda,t,phi_p,phi_p_se,sup_m,sup_m_se,inf_m,inf_m_se,n_eff,flagged\n")
        for r in self.rows:
            buf.write(
                f"{r.lam!r},{r.t!r},"
                f"{r.phi_p.value!r},{r.phi_p.stderr!r},"
                f"{r.sup_moment.value!r},{r.sup_moment.stderr!r},"
                f"{r.inf_subinterval_moment.value!r},{r.inf_subinterval_moment.stderr!r},"
                f"{r.phi_p.n_effective},{r.phi_p.flagged_fraction!r}\n"
            )
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())
