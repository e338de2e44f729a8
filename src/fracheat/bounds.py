"""Deterministic moment machinery: renewal inequalities, the second-moment
Volterra oracle, and the Mittag-Leffler / exponential envelope pair.

Three layers:

1. Scalar renewal tools.  volterra_lower_solve integrates
   v(t) = a(t) + b int_0^t (t-s)^(beta-1) v(s) ds by product integration
   (the singular factor is integrated exactly per step against piecewise
   constant v, right endpoint).  The constant-forcing solution is
   a F_beta(theta t), theta = (b Gamma(beta))^(1/beta).

2. The second-moment oracle.  For linear sigma the second moment
   m(t,x) = E u(t,x)^2 satisfies a closed 2-D Volterra equation with kernel
   p_D(t-s,x,y)^2; second_moment_volterra marches it on the operator grid
   with panel-exact matrix kernel integrals.  The discrete kernel saturates
   near the diagonal at 1/dx below time lags ~ dx^alpha, so the panel
   integrals are computed from the kernel itself (Gauss-Legendre per panel,
   geometrically graded first panel) instead of imposing the continuum
   (t-s)^(-1/alpha) weight, which would overcorrect the resolved lattice.

3. Envelope plumbing.  The growth rate theta(lambda) scales like
   lambda^(2 alpha/(alpha-1)); marching resolves it only while
   theta dt stays moderate.  Beyond that, oracle_moment_curves switches to
   closed-form renewal curves in the log domain, with rate constants
   measured from the operator's own kernel row masses (Chapman-Kolmogorov
   gives sum_j dx P(u)_ij^2 = P(2u)_ii exactly).  fit_envelope_constants
   turns oracle curves into the kappa constants of the two envelopes by a
   tight fit, to be verified on held-out noise levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import specfun
from .laplacian import DiscreteOperator, Grid
from .sde import ModelParams

__all__ = [
    "RenewalProblem",
    "VolterraSolution",
    "volterra_lower_solve",
    "SecondMomentTable",
    "second_moment_volterra",
    "ScalarGrowthModel",
    "measure_growth_model",
    "OracleCurves",
    "oracle_moment_curves",
    "EnvelopeConstants",
    "EnvelopeFitError",
    "log_lower_envelope",
    "log_upper_envelope",
    "fit_envelope_constants",
    "tail_log_slope",
]

@dataclass(frozen=True)
class RenewalProblem:
    """v(t) >= a + b int_0^t (t-s)^(beta-1) v(s) ds, with the derived rate theta."""

    a: float
    b: float
    beta: float
    theta: float = float("nan")

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"coefficient b must be >= 0, got {self.b}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"exponent beta must be > 0, got {self.beta}")
        theta = (self.b * specfun.gamma(self.beta)) ** (1.0 / self.beta) if self.b > 0.0 else 0.0
        object.__setattr__(self, "theta", theta)


class VolterraSolution(NamedTuple):
    t: np.ndarray
    v: np.ndarray


def volterra_lower_solve(prob: RenewalProblem, T: float, steps: int) -> VolterraSolution:
    """Solve the constant-forcing renewal equation with equality on a uniform grid of `steps` steps.

    Product-trapezoidal integration: per panel, the singular factor
    (t-s)^(beta-1) is integrated exactly against piecewise-linear v.  The
    scheme is implicit (v_k enters its own panel) and second order; a
    piecewise-constant rule would lag by O(theta dt) relative error, which
    compounds visibly once theta T is large.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"horizon T must be positive, got {T}")
    if steps < 64:
        raise ValueError(f"steps must be >= 64, got {steps}")
    beta, b = prob.beta, prob.b
    t = np.linspace(0.0, T, steps + 1)
    a = float(prob.a)
    dt = T / steps
    d = np.arange(0, steps + 1, dtype=float)
    # exact moments over the lag-d panel [(d-1) dt, d dt] of tau^(beta-1):
    # P_d = int tau^(beta-1) dtau / dt^beta, Q_d = int tau^beta dtau / dt^(beta+1)
    P = np.diff(d**beta) / beta
    Q = np.diff(d ** (beta + 1.0)) / (beta + 1.0)
    dgrid = np.arange(1, steps + 1, dtype=float)
    cA = dt**beta * (Q - (dgrid - 1.0) * P)  # weight on v_{k-d} (older endpoint)
    cB = dt**beta * (dgrid * P - Q)  # weight on v_{k-d+1} (newer endpoint)
    # combined interior weight: v_i with 1 <= i <= k-1 collects cA(k-i) + cB(k-i+1)
    R = cA[:-1] + cB[1:] if steps >= 2 else np.empty(0)
    self_w = cB[0]  # lag-1 newer endpoint multiplies v_k itself
    if b * self_w >= 1.0:
        raise ValueError(
            f"product-integration step not solvable: b w_self = {b * self_w:.3g} >= 1; refine steps"
        )
    v = np.empty(steps + 1)
    v[0] = a
    denom = 1.0 - b * self_w
    for k in range(1, steps + 1):
        acc = cA[k - 1] * v[0]
        if k >= 2:
            # R[d-1] pairs with v_{k-d} for d = 1..k-1, i.e. v[k-1], ..., v[1]
            acc += np.dot(R[: k - 1], v[k - 1 : 0 : -1])
        v[k] = (a + b * acc) / denom
    return VolterraSolution(t=t, v=v)


# ---------------------------------------------------------------------------
# second-moment Volterra oracle (marched branch)
# ---------------------------------------------------------------------------


def _kernel_panel_integrals(op: DiscreteOperator, T: float, steps: int) -> np.ndarray:
    """W[d] = int over panel [d dt, (d+1) dt] of K(u) du, K(u) = G(u)*G(u)/dx.

    G(u) is the spectral semigroup matrix; K is the squared transition
    density kernel of the second-moment equation.  Cached on the operator.
    """
    key = ("volterra_kernel", float(T), int(steps))
    cached = op._cache.get(key)
    if cached is not None:
        return cached
    n = op.grid.n
    dx = op.grid.dx
    V = op.eigenvectors
    w = op.eigenvalues
    dt = T / steps
    gx, gw = np.polynomial.legendre.leggauss(8)

    def accumulate(lo: float, hi: float, out: np.ndarray) -> None:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for node, wt in zip(gx, gw):
            u = mid + half * node
            G = (V * np.exp(u * w)) @ V.T
            out += (half * wt) * (G * G)

    W = np.zeros((steps, n, n))
    # first panel: the kernel relaxes from its t=0 saturation on the lattice
    # time scale dx^alpha, which can sit inside [0, dt]; grade geometrically.
    edges = np.concatenate([[0.0], dt * 0.5 ** np.arange(14, -1, -1.0)])
    for lo, hi in zip(edges[:-1], edges[1:]):
        accumulate(lo, hi, W[0])
    for d in range(1, steps):
        accumulate(d * dt, (d + 1) * dt, W[d])
    W /= dx
    op._cache[key] = W
    return W


@dataclass(frozen=True)
class SecondMomentTable:
    """m(t_k, x_i) = E u(t_k, x_i)^2 on the marching grid."""

    t: np.ndarray
    x: np.ndarray
    m: np.ndarray
    lam: float
    alpha: float
    grid: Grid

    def energy(self) -> np.ndarray:
        """int_0^L m(t, x) dx at each grid time (this is Phi_2(t)^2)."""
        return self.m.sum(axis=1) * self.grid.dx

    def sup(self) -> np.ndarray:
        return self.m.max(axis=1)

    def inf_interior(self) -> np.ndarray:
        """min over nodes in the grid's window [mu, L-mu] at each grid time."""
        return self.m[:, self.grid.interior_indices()].min(axis=1)


def second_moment_volterra(
    params: ModelParams, op: DiscreteOperator, grid: Grid, T: float, steps: int
) -> SecondMomentTable:
    """March the closed second-moment equation for linear sigma.

    m(t,x) = g(t,x)^2 + (lam L_sigma)^2 int_0^t int p_D(t-s,x,y)^2 m(s,y) dy ds
    with g the deterministic semigroup flow of u0.  Time quadrature: exact
    panel integrals of the matrix kernel against the trapezoidal average of
    m on each panel; the diagonal panel is handled implicitly.
    """
    if params.sigma.kind != "linear":
        raise ValueError("the second-moment equation is closed only for linear sigma")
    params.check_grid(grid)
    if not (T > 0.0 and steps >= 16):
        raise ValueError(f"need T > 0 and steps >= 16, got T={T}, steps={steps}")
    n = grid.n
    V = op.eigenvectors
    w = op.eigenvalues
    t = np.linspace(0.0, T, steps + 1)
    proj = V.T @ params.u0
    g = (np.exp(np.outer(t, w)) * proj) @ V.T  # deterministic flow at all grid times
    c = (params.lam * params.sigma.L_sigma) ** 2
    m = np.empty((steps + 1, n))
    m[0] = g[0] ** 2
    if c == 0.0:
        m[:] = g**2
        return SecondMomentTable(t=t, x=grid.nodes, m=m, lam=params.lam, alpha=params.alpha, grid=grid)
    W = _kernel_panel_integrals(op, T, steps)
    solve_new = np.linalg.inv(np.eye(n) - 0.5 * c * W[0])
    for k in range(1, steps + 1):
        rhs = g[k] ** 2 + 0.5 * c * (W[0] @ m[k - 1])
        if k >= 2:
            mavg = 0.5 * (m[0 : k - 1] + m[1:k])  # panel averages, oldest first
            rhs += c * np.einsum("dij,dj->i", W[k - 1 : 0 : -1], mavg)
        m[k] = solve_new @ rhs
    if not np.all(np.isfinite(m)):
        raise OverflowError(
            f"second-moment march overflowed at lam={params.lam}; use the renewal branch "
            "of oracle_moment_curves for this noise level"
        )
    return SecondMomentTable(t=t, x=grid.nodes, m=m, lam=params.lam, alpha=params.alpha, grid=grid)


# ---------------------------------------------------------------------------
# measured scalar growth model (renewal branch) and the hybrid oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarGrowthModel:
    """Rate constants for the closed-form renewal branch, measured on the operator.

    Row masses r_i(u) = sum_j dx P(u)_ij^2 = P(2u)_ii follow the continuum
    power law c u^(-1/alpha) on the window where the lattice resolves it
    (above the saturation lag ~ dx^alpha, below the spectral-gap decay).
    c_inf / c_sup are the min/max of r_i(u) u^(1/alpha) there; a_inf / a_sup
    floor and cap the squared deterministic forcing over [0, horizon].
    """

    alpha: float
    beta: float
    lambda1: float
    a_inf: float
    c_inf: float
    a_sup: float
    c_sup: float
    horizon: float

    def theta_inf(self, lam: float, l_sigma: float) -> float:
        return ((lam * l_sigma) ** 2 * self.c_inf * specfun.gamma(self.beta)) ** (1.0 / self.beta)

    def theta_sup(self, lam: float, L_sigma: float) -> float:
        return ((lam * L_sigma) ** 2 * self.c_sup * specfun.gamma(self.beta)) ** (1.0 / self.beta)

    def marching_resolves(self, lam: float, L_sigma: float, dt: float) -> bool:
        # marched curves are percent-accurate only while theta*dt stays well
        # under one growth e-folding per step
        return self.theta_sup(lam, L_sigma) * dt <= 0.25


def measure_growth_model(
    op: DiscreteOperator, grid: Grid, params: ModelParams, horizon: float = 1.0
) -> ScalarGrowthModel:
    params.check_grid(grid)
    alpha = params.alpha
    beta = 1.0 - 1.0 / alpha
    dx = grid.dx
    # row-mass window: above the lattice saturation lag, below the spectral-gap decay
    u_lo, u_hi = 2.0 * dx**alpha, 0.02
    if not u_lo < u_hi:
        raise ValueError(f"grid too coarse for the row-mass window: 2 dx^alpha = {u_lo} >= {u_hi}")
    V2 = op.eigenvectors**2
    inner = grid.interior_indices()
    u = np.geomspace(u_lo, u_hi, 96)
    rowmass = (V2 @ np.exp(np.outer(op.eigenvalues, 2.0 * u))) / dx  # (n, len(u))
    scaled = rowmass * u ** (1.0 / alpha)
    c_inf = float(scaled[inner].min())
    c_sup = float(scaled.max())
    # deterministic forcing floor/cap over the horizon
    t_scan = np.linspace(0.0, horizon, 65)
    proj = op.eigenvectors.T @ params.u0
    gflow = (np.exp(np.outer(t_scan, op.eigenvalues)) * proj) @ op.eigenvectors.T
    a_inf = float((gflow[:, inner] ** 2).min())
    a_sup = float((gflow**2).max())
    if not (0.0 < c_inf <= c_sup and 0.0 < a_inf <= a_sup):
        raise ValueError(
            f"degenerate growth model: c=({c_inf}, {c_sup}), a=({a_inf}, {a_sup}); "
            "check u0 positivity on the window"
        )
    return ScalarGrowthModel(
        alpha=alpha,
        beta=beta,
        lambda1=op.lambda1,
        a_inf=a_inf,
        c_inf=c_inf,
        a_sup=a_sup,
        c_sup=c_sup,
        horizon=horizon,
    )


@dataclass(frozen=True)
class OracleCurves:
    """Log-domain moment curves for one noise level.

    branch = "marched": exact lattice Volterra march (resolvable rates).
    branch = "renewal": closed-form renewal model with measured constants
    (rates beyond any feasible marching grid); log_energy is then the
    inf-curve times the window length (L - 2 mu), consistent with the
    energy >= (L - 2 mu) inf ordering.
    """

    alpha: float
    lam: float
    l_sigma: float
    L_sigma: float
    lambda1: float
    t: np.ndarray
    log_inf: np.ndarray
    log_sup: np.ndarray
    log_energy: np.ndarray
    branch: str


def oracle_moment_curves(
    params: ModelParams,
    op: DiscreteOperator,
    grid: Grid,
    T: float,
    steps: int,
    model: Optional[ScalarGrowthModel] = None,
) -> OracleCurves:
    """Hybrid second-moment oracle: marched when the time grid resolves the
    growth rate, measured closed-form renewal curves otherwise."""
    if params.sigma.kind != "linear":
        raise ValueError("oracle curves require linear sigma (closed second-moment equation)")
    params.check_grid(grid)
    if model is None:
        model = measure_growth_model(op, grid, params, horizon=T)
    lam, lsig, Lsig = params.lam, params.sigma.l_sigma, params.sigma.L_sigma
    dt = T / steps
    if model.marching_resolves(lam, Lsig, dt):
        table = second_moment_volterra(params, op, grid, T, steps)
        return OracleCurves(
            alpha=params.alpha,
            lam=lam,
            l_sigma=lsig,
            L_sigma=Lsig,
            lambda1=op.lambda1,
            t=table.t,
            log_inf=np.log(table.inf_interior()),
            log_sup=np.log(table.sup()),
            log_energy=np.log(table.energy()),
            branch="marched",
        )
    t = np.linspace(0.0, T, steps + 1)
    th_inf = model.theta_inf(lam, lsig)
    th_sup = model.theta_sup(lam, Lsig)
    log_inf = math.log(model.a_inf) + np.array([specfun.log_f_beta(model.beta, th_inf * tk) for tk in t])
    log_sup = math.log(model.a_sup) + np.array([specfun.log_f_beta(model.beta, th_sup * tk) for tk in t])
    log_energy = math.log(grid.L - 2.0 * grid.mu) + log_inf
    return OracleCurves(
        alpha=params.alpha,
        lam=lam,
        l_sigma=lsig,
        L_sigma=Lsig,
        lambda1=op.lambda1,
        t=t,
        log_inf=log_inf,
        log_sup=log_sup,
        log_energy=log_energy,
        branch="renewal",
    )


def tail_log_slope(t: np.ndarray, log_m: np.ndarray) -> float:
    """Least-squares slope of log m over the tail window [t_end/2, t_end]."""
    t = np.asarray(t, dtype=float)
    log_m = np.asarray(log_m, dtype=float)
    mask = t >= 0.5 * t[-1]
    if np.count_nonzero(mask) < 3:
        raise ValueError("tail window has fewer than 3 points")
    return float(np.polyfit(t[mask], log_m[mask], 1)[0])


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeConstants:
    """Fitted constants of the two-sided moment envelopes."""

    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    lambda1: float
    lambda_L: float
    lambda0: float
    alpha: float

    def __post_init__(self) -> None:
        vals = (self.kappa1, self.kappa2, self.kappa3, self.kappa4, self.lambda1, self.lambda_L, self.lambda0)
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError(f"envelope constants must all be positive and finite, got {self}")
        if self.lambda_L > self.lambda0:
            raise ValueError(f"lambda_L={self.lambda_L} must not exceed lambda0={self.lambda0}")


class EnvelopeFitError(ValueError):
    """Raised when oracle curves cannot be enclosed by the envelope family."""


def log_lower_envelope(t: float, k: EnvelopeConstants, lam: float, l_sigma: float, alpha: float) -> float:
    """log of kappa1 E_beta(lam^2 l_sigma^2 kappa2 t^beta), beta = 1 - 1/alpha."""
    if t < 0.0:
        raise ValueError(f"envelope time must be >= 0, got {t}")
    beta = 1.0 - 1.0 / alpha
    return math.log(k.kappa1) + specfun.log_mittag_leffler(beta, lam**2 * l_sigma**2 * k.kappa2 * t**beta)


def log_upper_envelope(t: float, k: EnvelopeConstants, lam: float, L_sigma_: float, alpha: float) -> float:
    """log of kappa3 exp(kappa4 (lam^2 L_sigma^2)^(alpha/(alpha-1)) t)."""
    if t < 0.0:
        raise ValueError(f"envelope time must be >= 0, got {t}")
    rate = (lam**2 * L_sigma_**2) ** (alpha / (alpha - 1.0))
    return math.log(k.kappa3) + k.kappa4 * rate * t


def _fit_slopes(curves: Sequence[OracleCurves], which: str) -> dict:
    return {c.lam: tail_log_slope(c.t, getattr(c, which)) for c in curves}


def fit_envelope_constants(
    oracle_table: Sequence[OracleCurves],
    alpha: float,
    l_sigma: float,
    L_sigma_: float,
) -> EnvelopeConstants:
    """Tight fit of the envelope constants on a set of oracle curves.

    kappa2 from the tail slope of the largest-lambda inf curve (the envelope
    argument is exact for the renewal family); kappa1 as the minimal
    inf-curve / Mittag-Leffler ratio so the lower envelope touches the data;
    kappa4 from the sup-curve tail slopes, kappa3 by the analogous maximal
    ratio.  lambda_L is the largest tabulated lambda with negative sup
    slope, or the kappa4 crossing with the spectral decay 2 lambda1 if all
    tabulated levels grow; lambda0 is the smallest tabulated lambda whose
    slope exceeds half its fitted lower-envelope rate.
    """
    curves = sorted(oracle_table, key=lambda c: c.lam)
    if len(curves) < 3:
        raise EnvelopeFitError(f"need >= 3 noise levels to fit, got {len(curves)}")
    if any(c.t.size < 8 for c in curves):
        raise EnvelopeFitError("each oracle curve needs >= 8 time points")
    if any(c.lam <= 0.0 for c in curves):
        raise EnvelopeFitError("noise levels must be positive")
    beta = 1.0 - 1.0 / alpha
    expo = alpha / (alpha - 1.0)
    for c in curves:
        if c.alpha != alpha:
            raise EnvelopeFitError(f"curve at lam={c.lam} has alpha={c.alpha}, expected {alpha}")
    lam1 = curves[0].lambda1

    top = curves[-1]
    slope_inf = tail_log_slope(top.t, top.log_inf)
    if slope_inf <= 0.0:
        raise EnvelopeFitError(
            f"largest noise level lam={top.lam} has nonpositive inf-curve slope {slope_inf:.3g}; "
            "cannot identify the growth rate kappa2"
        )
    kappa2 = slope_inf**beta / (top.lam**2 * l_sigma**2)

    # kappa1: minimal ratio across all cells (tight at the argmin)
    log_ratio_min = math.inf
    for c in curves:
        for tk, lv in zip(c.t, c.log_inf):
            log_env = specfun.log_mittag_leffler(beta, c.lam**2 * l_sigma**2 * kappa2 * tk**beta)
            log_ratio_min = min(log_ratio_min, lv - log_env)
    kappa1 = math.exp(log_ratio_min)

    sup_slopes = _fit_slopes(curves, "log_sup")
    growing = {lam: s for lam, s in sup_slopes.items() if s > 0.0}
    if not growing:
        raise EnvelopeFitError(
            f"no growing sup curve in the table (slopes {sup_slopes}); "
            "cannot identify the exponential rate kappa4"
        )
    kappa4 = max(s / (lam**2 * L_sigma_**2) ** expo for lam, s in growing.items())
    log_ratio_max = -math.inf
    for c in curves:
        rate = kappa4 * (c.lam**2 * L_sigma_**2) ** expo
        log_ratio_max = max(float(np.max(c.log_sup - rate * c.t)), log_ratio_max)
    kappa3 = math.exp(log_ratio_max)

    decaying = [lam for lam, s in sup_slopes.items() if s < 0.0]
    if decaying:
        lambda_L = max(decaying)
    else:
        # kappa4 rate crossing the spectral decay 2 lambda1
        lambda_L = ((2.0 * lam1 / kappa4) ** (1.0 / expo)) ** 0.5 / L_sigma_
        lambda_L = min(lambda_L, curves[0].lam)
    exceeding = [
        lam
        for lam, s in sup_slopes.items()
        if s > 0.5 * (kappa2 * lam**2 * l_sigma**2) ** expo
    ]
    lambda0 = min(exceeding) if exceeding else curves[-1].lam
    lambda0 = max(lambda0, lambda_L)

    constants = EnvelopeConstants(
        kappa1=kappa1,
        kappa2=kappa2,
        kappa3=kappa3,
        kappa4=kappa4,
        lambda1=lam1,
        lambda_L=lambda_L,
        lambda0=lambda0,
        alpha=alpha,
    )
    _verify_fit(constants, curves, l_sigma, L_sigma_)
    return constants


def _verify_fit(k: EnvelopeConstants, curves: Sequence[OracleCurves], l_sigma: float, L_sigma_: float) -> None:
    beta = 1.0 - 1.0 / k.alpha
    expo = k.alpha / (k.alpha - 1.0)
    violations = []
    for c in curves:
        for tk, lo, hi in zip(c.t, c.log_inf, c.log_sup):
            log_low = math.log(k.kappa1) + specfun.log_mittag_leffler(
                beta, c.lam**2 * l_sigma**2 * k.kappa2 * tk**beta
            )
            log_up = math.log(k.kappa3) + k.kappa4 * (c.lam**2 * L_sigma_**2) ** expo * tk
            if log_low > lo + 1e-9 or log_up < hi - 1e-9:
                violations.append((c.lam, float(tk), float(log_low - lo), float(hi - log_up)))
    if violations:
        head = ", ".join(f"(lam={v[0]}, t={v[1]:.3g})" for v in violations[:8])
        raise EnvelopeFitError(f"{len(violations)} envelope violations on the fitting set: {head}")

