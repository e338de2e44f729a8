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
   near the diagonal at 1/dx below time lags ~ dx^alpha, so the near panel
   integrals are computed from the kernel itself (Gauss-Legendre per panel,
   geometrically graded first panel) instead of imposing the continuum
   (t-s)^(-1/alpha) weight, which would overcorrect the resolved lattice.
   On the lattice the kernel is a finite sum of exponentials,
   K(u) = sum_ab e^((w_a+w_b) u) (v_a*v_b)(v_a*v_b)'/dx, so the far history
   advances by an exact recursion per eigen-pair (Lubich & Schaedle, SIAM
   J. Sci. Comput. 24 (2002) 161) and no kernel table is kept.

3. Envelope plumbing.  The growth rate theta(lambda) scales like
   lambda^(2 alpha/(alpha-1)); marching resolves it only while
   theta dt stays moderate.  Beyond that, oracle_moment_curves switches to
   closed-form renewal curves in the log domain, with rate constants
   measured from the operator's own kernel row masses (Chapman-Kolmogorov
   gives sum_j dx P(u)_ij^2 = P(2u)_ii exactly).  oracle_sweep measures
   that growth model once per horizon and passes it to one
   oracle_moment_curves call per noise level.  fit_envelope_constants
   turns oracle curves into the kappa constants of the two envelopes by a
   tight fit, to be verified on held-out noise levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import moments, specfun
from .laplacian import DiscreteOperator, Grid, apply_semigroup
from .sde import ModelParams, SigmaSpec

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
    "oracle_sweep",
    "EnvelopeConstants",
    "EnvelopeFitError",
    "log_lower_envelope",
    "log_upper_envelope",
    "fit_envelope_constants",
]


def _renewal_rate(b: float, beta: float) -> float:
    """theta = (b Gamma(beta))^(1/beta), the rate of the renewal solution a F_beta(theta t)."""
    return (b * specfun.gamma(beta)) ** (1.0 / beta)


@dataclass(frozen=True)
class RenewalProblem:
    """v(t) >= a + b int_0^t (t-s)^(beta-1) v(s) ds, with the derived rate theta."""

    a: float
    b: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"coefficient b must be >= 0, got {self.b}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"exponent beta must be > 0, got {self.beta}")

    @property
    def theta(self) -> float:
        return _renewal_rate(self.b, self.beta) if self.b > 0.0 else 0.0


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


# lags whose panel integrals the march applies in node space, for pointwise
# accuracy at the boundary nodes.  Later lags run as a recursion in
# eigen-pair coordinates, whose readout sum_ab V_ia H_ab V_ib cancels where m
# is small: at lam 8, dt 1/16384, 200 steps, m at node 0 sits 500-1000x below
# its row max, and the recursion from lag 1 leaves it 1.3e-13 relative off
# the node-space march; from lag 17 on, 4.7e-15.
_NEAR_LAGS = 16


def _near_panel_integrals(op: DiscreteOperator, dt: float) -> np.ndarray:
    """W[:, d, :] = int over panel [d dt, (d+1) dt] of K(u) du for d = 0.._NEAR_LAGS.

    K(u) = G(u)*G(u)/dx, with G(u) the spectral semigroup matrix, is the
    squared transition density kernel of the second-moment equation; each
    panel takes the 8-point Gauss-Legendre rule.  The layout (n, lags, n)
    makes W[:, 1:].reshape(n, _NEAR_LAGS * n) the lag-stacked matrix the
    march multiplies.
    """
    n = op.grid.n
    V = op.eigenvectors
    w = op.eigenvalues
    gx, gw = np.polynomial.legendre.leggauss(8)
    # first panel: the kernel relaxes from its t=0 saturation on the lattice
    # time scale dx^alpha, which can sit inside [0, dt]; grade geometrically.
    edges = np.concatenate([[0.0], dt * 0.5 ** np.arange(14, -1, -1.0)])
    panels = [(0, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    panels += [(d, d * dt, (d + 1) * dt) for d in range(1, _NEAR_LAGS + 1)]
    W = np.zeros((n, _NEAR_LAGS + 1, n))
    for d, lo, hi in panels:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for node, wt in zip(gx, gw):
            decay = np.exp((mid + half * node) * w)
            # subnormal factors cannot move an O(1) kernel entry, and subnormal
            # operands slow the GEMM several-fold
            decay[decay < np.finfo(float).tiny] = 0.0
            G = (V * decay) @ V.T
            W[:, d, :] += (half * wt) * (G * G)
    W /= op.grid.dx
    return W


@dataclass(frozen=True)
class SecondMomentTable:
    """m(t_k, x_i) = E u(t_k, x_i)^2 on the marching grid."""

    t: np.ndarray
    m: np.ndarray
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
    m on each panel; the diagonal panel is handled implicitly.  Lags up to
    _NEAR_LAGS take node-space panel integrals, one GEMM per step.  Later
    lags take the kernel's exact sum over eigen-pairs (a, b), where the
    lag-d panel integral e^(s d dt) expm1(s dt)/s, s = w_a + w_b, is
    geometric in d: their history H_ab advances by one product per step.
    Nothing is cached; the march holds m, g and O(n^2) more.  ``grid``
    must be ``op.grid``.
    """
    if params.sigma.kind != "linear":
        raise ValueError("the second-moment equation is closed only for linear sigma")
    if grid != op.grid:
        raise ValueError(f"grid={grid} is not the operator's grid {op.grid}")
    params.check_operator(op)
    if not (T > 0.0 and steps >= 16):
        raise ValueError(f"need T > 0 and steps >= 16, got T={T}, steps={steps}")
    n = grid.n
    dt = T / steps
    t = np.linspace(0.0, T, steps + 1)
    g = apply_semigroup(op, t, params.u0)  # deterministic flow at all grid times
    c = (params.lam * params.sigma.L_sigma) ** 2
    m = np.empty((steps + 1, n))
    m[0] = g[0] ** 2
    if c == 0.0:
        m[:] = g**2
        return SecondMomentTable(t=t, m=m, grid=grid)
    W = _near_panel_integrals(op, dt)
    W0 = W[:, 0, :]
    near = W[:, 1:, :].reshape(n, _NEAR_LAGS * n)
    solve_new = np.linalg.inv(np.eye(n) - 0.5 * c * W0)
    V = op.eigenvectors
    s = np.add.outer(op.eigenvalues, op.eigenvalues)
    rho = np.exp(s * dt)
    omega = np.exp((_NEAR_LAGS + 1) * dt * s) * np.expm1(s * dt) / s
    H = np.zeros((n, n))
    # recent[d - 1] is the trapezoidal average of m over the panel at lag d;
    # rows of panels before t=0 stay zero
    recent = np.zeros((_NEAR_LAGS + 1, n))
    for k in range(1, steps + 1):
        H *= rho
        H += omega * ((V.T * recent[_NEAR_LAGS]) @ V)
        rhs = g[k] ** 2 + 0.5 * c * (W0 @ m[k - 1])
        rhs += c * (near @ recent[:_NEAR_LAGS].ravel())
        rhs += (c / grid.dx) * ((V @ H) * V).sum(axis=1)
        m[k] = solve_new @ rhs
        recent[1:] = recent[:-1]
        recent[0] = 0.5 * (m[k - 1] + m[k])
    if not np.all(np.isfinite(m)):
        raise OverflowError(
            f"second-moment march overflowed at lam={params.lam}; use the renewal branch "
            "of oracle_moment_curves for this noise level"
        )
    if np.any(m < 0.0):
        raise ValueError(
            f"second-moment march went negative at lam={params.lam}, steps={steps}: the step does "
            "not resolve the growth rate; refine steps or use the renewal branch of "
            "oracle_moment_curves"
        )
    return SecondMomentTable(t=t, m=m, grid=grid)


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
    floor and cap the squared deterministic forcing over the horizon
    measure_growth_model was given.
    """

    beta: float
    a_inf: float
    c_inf: float
    a_sup: float
    c_sup: float

    def theta_inf(self, lam: float, l_sigma: float) -> float:
        return _renewal_rate((lam * l_sigma) ** 2 * self.c_inf, self.beta)

    def theta_sup(self, lam: float, L_sigma: float) -> float:
        return _renewal_rate((lam * L_sigma) ** 2 * self.c_sup, self.beta)

    def marching_resolves(self, lam: float, L_sigma: float, dt: float) -> bool:
        # marched curves are percent-accurate only while theta*dt stays well
        # under one growth e-folding per step
        return self.theta_sup(lam, L_sigma) * dt <= 0.25


def measure_growth_model(op: DiscreteOperator, params: ModelParams, horizon: float) -> ScalarGrowthModel:
    params.check_operator(op)
    grid = op.grid
    alpha = params.alpha
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
    gflow = apply_semigroup(op, np.linspace(0.0, horizon, 65), params.u0)
    a_inf = float((gflow[:, inner] ** 2).min())
    a_sup = float((gflow**2).max())
    if not (0.0 < c_inf <= c_sup and 0.0 < a_inf <= a_sup):
        raise ValueError(
            f"degenerate growth model: c=({c_inf}, {c_sup}), a=({a_inf}, {a_sup}); "
            "check u0 positivity on the window"
        )
    return ScalarGrowthModel(
        beta=1.0 - 1.0 / alpha, a_inf=a_inf, c_inf=c_inf, a_sup=a_sup, c_sup=c_sup
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

    def log_phi2(self) -> np.ndarray:
        """ln Phi_2 = ln(energy)/2 at each grid time."""
        return 0.5 * self.log_energy


def oracle_moment_curves(
    params: ModelParams, op: DiscreteOperator, T: float, steps: int, model: ScalarGrowthModel
) -> OracleCurves:
    """Hybrid second-moment oracle: marched when the time grid resolves the
    growth rate, closed-form renewal curves with the rates of ``model``
    (measured for horizon T) otherwise."""
    if params.sigma.kind != "linear":
        raise ValueError("oracle curves require linear sigma (closed second-moment equation)")
    params.check_operator(op)
    lam, lsig, Lsig = params.lam, params.sigma.l_sigma, params.sigma.L_sigma
    dt = T / steps
    if model.marching_resolves(lam, Lsig, dt):
        table = second_moment_volterra(params, op, op.grid, T, steps)
        t, branch = table.t, "marched"
        log_inf = np.log(table.inf_interior())
        log_sup = np.log(table.sup())
        log_energy = np.log(table.energy())
    else:
        t, branch = np.linspace(0.0, T, steps + 1), "renewal"
        th_inf = model.theta_inf(lam, lsig)
        th_sup = model.theta_sup(lam, Lsig)
        log_inf = math.log(model.a_inf) + specfun.log_f_beta(model.beta, th_inf * t)
        log_sup = math.log(model.a_sup) + specfun.log_f_beta(model.beta, th_sup * t)
        log_energy = math.log(op.grid.L - 2.0 * op.grid.mu) + log_inf
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
        branch=branch,
    )


def oracle_sweep(
    op: DiscreteOperator,
    u0: np.ndarray,
    sigma: SigmaSpec,
    lambdas: Sequence[float],
    T: float,
    steps: int,
) -> dict[float, OracleCurves]:
    """Oracle curves per noise level of ``lambdas``, keyed by level.

    Each level's ModelParams takes alpha, L and mu from ``op``, and p = 2.
    The growth model, which reads no noise level, is measured once and
    shared by one oracle_moment_curves call per level.
    """

    def level(lam: float) -> ModelParams:
        return ModelParams(
            alpha=op.config.alpha, L=op.grid.L, lam=float(lam), sigma=sigma, u0=u0, mu=op.grid.mu, p=2.0
        )

    model = measure_growth_model(op, level(0.0), horizon=T)
    return {float(lam): oracle_moment_curves(level(lam), op, T, steps, model) for lam in lambdas}


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
    lambda_L: float
    alpha: float

    def __post_init__(self) -> None:
        vals = (self.kappa1, self.kappa2, self.kappa3, self.kappa4, self.lambda_L)
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError(f"envelope constants must all be positive and finite, got {self}")


class EnvelopeFitError(ValueError):
    """Raised when oracle curves cannot be enclosed by the envelope family."""


def _envelope_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError(f"envelope time must be >= 0, got {t[t < 0.0][0]}")
    return t


def _log_ml_profile(t: np.ndarray, lam: float, l_sigma: float, kappa2: float, beta: float):
    """ln E_beta(lam^2 l_sigma^2 kappa2 t^beta): the lower envelope without kappa1.

    t^beta is taken element by element with the scalar pow; numpy's vector
    pow can differ from it in the last bit.
    """
    t_beta = np.array([v**beta for v in t.ravel().tolist()]).reshape(t.shape)
    return specfun.log_mittag_leffler(beta, lam**2 * l_sigma**2 * kappa2 * t_beta)


def _upper_rate(lam: float, L_sigma: float, alpha: float) -> float:
    """(lam^2 L_sigma^2)^(alpha/(alpha-1)): the upper envelope's rate without kappa4."""
    return (lam**2 * L_sigma**2) ** (alpha / (alpha - 1.0))


def log_lower_envelope(t, k: EnvelopeConstants, lam: float, l_sigma: float):
    """log of kappa1 E_beta(lam^2 l_sigma^2 kappa2 t^beta), beta = 1 - 1/k.alpha.

    t is a time >= 0 (float out) or an array of them (array of its shape out).
    """
    t = _envelope_times(t)
    return math.log(k.kappa1) + _log_ml_profile(t, lam, l_sigma, k.kappa2, 1.0 - 1.0 / k.alpha)


def log_upper_envelope(t, k: EnvelopeConstants, lam: float, L_sigma: float):
    """log of kappa3 exp(kappa4 (lam^2 L_sigma^2)^(alpha/(alpha-1)) t), alpha = k.alpha.

    t is a time >= 0 (float out) or an array of them (array of its shape out).
    """
    t = _envelope_times(t)
    return math.log(k.kappa3) + k.kappa4 * _upper_rate(lam, L_sigma, k.alpha) * t


def fit_envelope_constants(oracle_table: Sequence[OracleCurves]) -> EnvelopeConstants:
    """Tight fit of the envelope constants on a set of oracle curves.

    alpha, l_sigma and L_sigma are read from the curves, which must agree
    on them.  kappa2 from the tail slope of the largest-lambda inf curve
    (the envelope argument is exact for the renewal family); kappa1 as the
    minimal inf-curve / Mittag-Leffler ratio so the lower envelope touches
    the data; kappa4 from the sup-curve tail slopes, kappa3 by the analogous
    maximal ratio.  lambda_L is the largest tabulated lambda with negative
    sup slope, or the kappa4 crossing with the spectral decay 2 lambda1 if
    all tabulated levels grow.
    """
    curves = sorted(oracle_table, key=lambda c: c.lam)
    if len(curves) < 3:
        raise EnvelopeFitError(f"need >= 3 noise levels to fit, got {len(curves)}")
    if any(c.t.size < 9 for c in curves):  # 5 in the slope fit's window [t_end/2, t_end]
        raise EnvelopeFitError("each oracle curve needs >= 9 time points")
    if any(c.lam <= 0.0 for c in curves):
        raise EnvelopeFitError("noise levels must be positive")
    shared = (curves[0].alpha, curves[0].l_sigma, curves[0].L_sigma)
    for c in curves:
        if (c.alpha, c.l_sigma, c.L_sigma) != shared:
            raise EnvelopeFitError(
                f"curve at lam={c.lam} has (alpha, l_sigma, L_sigma) = {(c.alpha, c.l_sigma, c.L_sigma)}, "
                f"expected {shared} as at lam={curves[0].lam}"
            )
    alpha, l_sigma, L_sigma = shared
    beta = 1.0 - 1.0 / alpha
    expo = alpha / (alpha - 1.0)
    lam1 = curves[0].lambda1

    top = curves[-1]
    slope_inf = moments.fit_lyapunov_from_log(zip(top.t, top.log_inf))[0]
    if slope_inf <= 0.0:
        raise EnvelopeFitError(
            f"largest noise level lam={top.lam} has nonpositive inf-curve slope {slope_inf:.3g}; "
            "cannot identify the growth rate kappa2"
        )
    kappa2 = slope_inf**beta / (top.lam**2 * l_sigma**2)

    # kappa1: minimal ratio across all cells (tight at the argmin)
    log_ratio_min = min(
        float(np.min(c.log_inf - _log_ml_profile(c.t, c.lam, l_sigma, kappa2, beta))) for c in curves
    )
    kappa1 = math.exp(log_ratio_min)

    sup_slopes = {c.lam: moments.fit_lyapunov_from_log(zip(c.t, c.log_sup))[0] for c in curves}
    growing = {lam: s for lam, s in sup_slopes.items() if s > 0.0}
    if not growing:
        raise EnvelopeFitError(
            f"no growing sup curve in the table (slopes {sup_slopes}); "
            "cannot identify the exponential rate kappa4"
        )
    kappa4 = max(s / _upper_rate(lam, L_sigma, alpha) for lam, s in growing.items())
    log_ratio_max = max(
        float(np.max(c.log_sup - kappa4 * _upper_rate(c.lam, L_sigma, alpha) * c.t)) for c in curves
    )
    kappa3 = math.exp(log_ratio_max)

    decaying = [lam for lam, s in sup_slopes.items() if s < 0.0]
    if decaying:
        lambda_L = max(decaying)
    else:
        # kappa4 rate crossing the spectral decay 2 lambda1
        lambda_L = ((2.0 * lam1 / kappa4) ** (1.0 / expo)) ** 0.5 / L_sigma
        lambda_L = min(lambda_L, curves[0].lam)

    constants = EnvelopeConstants(
        kappa1=kappa1, kappa2=kappa2, kappa3=kappa3, kappa4=kappa4, lambda_L=lambda_L, alpha=alpha
    )
    _verify_fit(constants, curves)
    return constants


def _verify_fit(k: EnvelopeConstants, curves: Sequence[OracleCurves]) -> None:
    violations = []
    for c in curves:
        log_low = log_lower_envelope(c.t, k, c.lam, c.l_sigma)
        log_up = log_upper_envelope(c.t, k, c.lam, c.L_sigma)
        bad = (log_low > c.log_inf + 1e-9) | (log_up < c.log_sup - 1e-9)
        violations += [
            (c.lam, float(c.t[i]), float(log_low[i] - c.log_inf[i]), float(c.log_sup[i] - log_up[i]))
            for i in np.flatnonzero(bad).tolist()
        ]
    if violations:
        head = ", ".join(f"(lam={v[0]}, t={v[1]:.3g})" for v in violations[:8])
        raise EnvelopeFitError(f"{len(violations)} envelope violations on the fitting set: {head}")
