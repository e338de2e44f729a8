"""Quantitative acceptance checks shared by the CLI selftest and the test suite.

Each check is one function under the ``_check`` decorator and returns a
CheckResult with the measured numbers in ``detail`` so failures are
diagnosable from the selftest report alone.  Tolerances are module
constants, pinned here and nowhere else.  The measurements of checks 4 and
8, ``mc_oracle_gaps`` and ``excitation_index``, are public, as are their
inputs, ``desk_problem`` and check 8's levels ``EXCITATION_LAMBDAS``: the
experiment scripts run them at other parameters.

Tiers: QUICK_CHECKS run in well under a minute on a laptop; the full tier
adds the Monte-Carlo cross-check of the second-moment oracle (10^4 paths at
two time resolutions).
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bounds, kernels, moments, specfun
from .laplacian import DiscreteOperator, OperatorConfig, assemble, build_grid, heat_kernel_matrix
from .sde import (
    Discretization,
    ModelParams,
    SecondMomentEstimate,
    SigmaSpec,
    estimate_second_moment_pair,
    run_ensemble,
    tent_profile,
)

__all__ = [
    "CheckResult", "run_selftest", "QUICK_CHECKS", "desk_problem", "EXCITATION_LAMBDAS", "mc_oracle_gaps",
    "excitation_index",
]

# Pinned tolerances (one place only)
TOL_E1 = 1e-12              # E_1(z) vs exp(z) on [-5, 5]
TOL_FBETA = 1e-10           # F_{1/2}(z) vs e^z erfc(-sqrt z)
TOL_EHALF = 1e-8            # E_{1/2}(1) vs e*erfc(-1) quadrature
TOL_RENEWAL = 0.01          # constant-forcing Volterra vs a*F_beta(theta t)
TOL_LAMBDA1_GRID = 0.02     # lambda1 n=128 vs n=256
TOL_LAMBDA1_SCALE = 0.01    # lambda1(L=2) vs 2^-alpha lambda1(L=1)
TOL_CHAPMAN = 1e-8          # semigroup composition defect
TOL_DOMINATION = 0.05       # kernel domination excess, fraction of max p
TOL_MC_ORACLE = 0.05        # Monte Carlo vs Volterra oracle, grid max
RATIO_MC_WINDOW = (1.5, 2.5)  # dt-halving discrepancy ratio
TOL_DECAY_SLOPE = 0.02      # lambda=0 slope vs -2 lambda1
TOL_CONVEXITY = 0.10        # log-moment chord bound on [0.5, 1]
EXCITATION_WINDOW = (5.1, 6.9)   # alpha = 1.5, target 6
TOL_EXCITATION_19 = 0.15    # alpha = 1.9, target 4.222...

_DESK_ALPHA = 1.5
_DESK_N = 64
_DESK_MU = 0.1
EXCITATION_LAMBDAS = (8.0, 16.0, 32.0, 64.0, 128.0)  # check 8's noise levels
_DESK_LAMBDAS = (2.0, 4.0, *EXCITATION_LAMBDAS)
_LINEAR = SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0)
_MC_SEED = 31415            # check-4 master seed; the halving ratio stays in
                            # its window at all 42 benchmark master seeds tried


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _check(name: str) -> Callable:
    """Decorator: a check returns (passed, detail), and the decorated check a
    CheckResult named ``name`` with its elapsed time."""

    def decorate(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, detail = fn(*args, **kwargs)
            except Exception as exc:  # a crashed check is a failed check, with the reason
                return CheckResult(name, False, f"exception: {exc!r}", time.perf_counter() - t0)
            return CheckResult(name, passed, detail, time.perf_counter() - t0)

        return check

    return decorate


# ---------------------------------------------------------------------------
# Shared fixtures (built lazily, cached per process): the desk operator, the
# oracle curves of the desk sweep (alpha 1.5, n 64, T 1, 256 steps), which
# checks 5-8 read, and the envelope constants fitted on three of those curves.
# The operator and curves of any other problem are built per call: keeping
# them, though no later check reads them, raised the quick suite's peak memory.

_CACHE: dict = {}


def desk_problem(
    alpha: float = _DESK_ALPHA, n: int = _DESK_N, lam: float = 1.0
) -> tuple[DiscreteOperator, ModelParams]:
    """The desk problem on the n-node grid of [0, 1] with mu 0.1: its operator
    and its parameters at ``lam`` (tent u0, linear sigma, p = 2).  The
    operator at the desk's own alpha and n is assembled once per process."""
    ops = _CACHE.setdefault("desk_op", {}) if (alpha, n) == (_DESK_ALPHA, _DESK_N) else {}
    if (alpha, n) not in ops:
        ops[alpha, n] = assemble(build_grid(L=1.0, n=n, mu=_DESK_MU), OperatorConfig(alpha=alpha))
    op = ops[alpha, n]
    u0 = tent_profile(op.grid)
    return op, ModelParams(alpha=alpha, L=1.0, lam=lam, sigma=_LINEAR, u0=u0, mu=_DESK_MU, p=2.0)


def _desk_curves(
    lambdas: Sequence[float], alpha: float = _DESK_ALPHA, n: int = _DESK_N, T: float = 1.0, steps: int = 256
) -> dict[float, bounds.OracleCurves]:
    """Oracle curves of the desk problem at ``lambdas`` on t in [0, T]; each
    curve of the desk sweep is computed once per process."""
    op, params = desk_problem(alpha, n)
    desk_sweep = (alpha, n, T, steps) == (_DESK_ALPHA, _DESK_N, 1.0, 256)
    curves = _CACHE.setdefault("desk_sweep", {}) if desk_sweep else {}
    missing = [lam for lam in lambdas if lam not in curves]
    curves.update(bounds.oracle_sweep(op, params.u0, params.sigma, missing, T=T, steps=steps))
    return {float(lam): curves[lam] for lam in lambdas}


def _envelope_fit() -> bounds.EnvelopeConstants:
    if "env_fit" not in _CACHE:
        sweep = _desk_curves(_DESK_LAMBDAS)
        _CACHE["env_fit"] = bounds.fit_envelope_constants([sweep[lam] for lam in (2.0, 8.0, 32.0)])
    return _CACHE["env_fit"]


# ---------------------------------------------------------------------------
# Check 1: special functions


def _erfc_minus_one_quadrature() -> float:
    """erfc(-1) = 1 + 2/sqrt(pi) * int_0^1 e^{-s^2} ds by Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(48)
    s = 0.5 * (x + 1.0)
    val = 0.5 * float(np.sum(w * np.exp(-(s**2))))
    return 1.0 + 2.0 / math.sqrt(math.pi) * val


@_check("special-functions")
def check_special_functions() -> tuple[bool, str]:
    zs = np.linspace(-5.0, 5.0, 201)
    ref1 = np.array([math.exp(z) for z in zs.tolist()])
    err1 = float(np.max(np.abs(specfun.mittag_leffler(1.0, zs) - ref1)))
    ok1 = err1 <= TOL_E1

    betas = (1.0 / 3.0, 0.5, 2.0 / 3.0)
    ok0 = all(specfun.mittag_leffler(b, 0.0) == 1.0 for b in betas)

    # F_{1/2}(z) = E_{1/2}(sqrt z) = e^z erfc(-sqrt z), a reference outside the series
    zs = np.linspace(0.05, 12.0, 40)
    lhs = specfun.f_beta(0.5, zs)
    rhs = np.array([math.exp(z) * math.erfc(-math.sqrt(z)) for z in zs.tolist()])
    errf = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)))
    okf = errf <= TOL_FBETA

    target = math.e * _erfc_minus_one_quadrature()
    errh = abs(specfun.mittag_leffler(0.5, 1.0) - target)
    okh = errh <= TOL_EHALF

    detail = (
        f"E_1 vs exp max err {err1:.3e} (tol {TOL_E1}); E_beta(0)=1 {'ok' if ok0 else 'FAIL'}; "
        f"F_half vs e^z erfc(-sqrt z) max rel err {errf:.3e} (tol {TOL_FBETA}); "
        f"E_half(1) vs quadrature err {errh:.3e} (tol {TOL_EHALF})"
    )
    return ok1 and ok0 and okf and okh, detail


# ---------------------------------------------------------------------------
# Check 2: constant-forcing renewal equality


@_check("renewal-equality")
def check_renewal_equality() -> tuple[bool, str]:
    worst = {}
    for a, b, beta in ((1.0, 1.0, 1.0 / 3.0), (1.0, 2.0, 0.5)):
        prob = bounds.RenewalProblem(a=a, b=b, beta=beta)
        sol = bounds.volterra_lower_solve(prob, T=1.0, steps=4096)
        log_ref = specfun.log_f_beta(beta, prob.theta * sol.t)
        ref = a * np.array([math.exp(v) for v in log_ref.tolist()])
        worst[(a, b, beta)] = float(np.max(np.abs(sol.v - ref) / ref))
    ok = all(w <= TOL_RENEWAL for w in worst.values())
    detail = "; ".join(
        f"(a,b,beta)={k}: max rel {v:.4%} (tol {TOL_RENEWAL:.0%})" for k, v in worst.items()
    )
    return ok, detail


# ---------------------------------------------------------------------------
# Check 3: operator spectrum and kernel domination


@_check("operator-spectrum")
def check_operator_spectrum() -> tuple[bool, str]:
    cfg = OperatorConfig(alpha=_DESK_ALPHA)
    op256 = assemble(build_grid(L=1.0, n=256, mu=_DESK_MU), cfg)
    lam1 = {128: assemble(build_grid(L=1.0, n=128, mu=_DESK_MU), cfg).lambda1, 256: op256.lambda1}
    conv = abs(lam1[128] - lam1[256]) / lam1[256]
    ok_conv = conv <= TOL_LAMBDA1_GRID

    g2 = build_grid(L=2.0, n=128, mu=_DESK_MU)
    lam1_L2 = assemble(g2, cfg).lambda1
    scale = abs(lam1_L2 - 2.0**-_DESK_ALPHA * lam1[128]) / (2.0**-_DESK_ALPHA * lam1[128])
    ok_scale = scale <= TOL_LAMBDA1_SCALE

    op, _ = desk_problem()
    u = 0.1
    P1 = heat_kernel_matrix(op, u)
    P2 = heat_kernel_matrix(op, 2.0 * u)
    defect = float(np.max(np.abs(op.grid.dx * (P1 @ P1.T) - P2)))
    ok_ck = defect <= TOL_CHAPMAN

    worst_frac = 0.0
    for t in (0.01, 0.1, 1.0):
        excess = kernels.check_domination(op256, t)
        peak = kernels.stable_density(_DESK_ALPHA, t, 0.0)
        worst_frac = max(worst_frac, excess / peak)
    ok_dom = worst_frac <= TOL_DOMINATION

    detail = (
        f"lambda1 128/256 rel gap {conv:.4%} (tol {TOL_LAMBDA1_GRID:.0%}); "
        f"L-scaling rel err {scale:.4%} (tol {TOL_LAMBDA1_SCALE:.0%}); "
        f"Chapman-Kolmogorov defect {defect:.2e} (tol {TOL_CHAPMAN}); "
        f"domination excess {worst_frac:.4%} of max p (tol {TOL_DOMINATION:.0%})"
    )
    return ok_conv and ok_scale and ok_ck and ok_dom, detail


# ---------------------------------------------------------------------------
# Check 4: Monte Carlo vs the deterministic second-moment oracle


def mc_oracle_gaps(
    params: ModelParams, disc: Discretization, op: DiscreteOperator, n_paths: int, master_seed: int,
    worker_count: int,
) -> tuple[np.ndarray, SecondMomentEstimate, SecondMomentEstimate, float, float]:
    """The pair estimator at dt and dt/2 against the Volterra oracle at the
    time the scheme reached, disc.n_steps() * disc.dt, the estimates' ``t``.

    The oracle is marched first, in max(1024, disc.n_steps()) steps, so that
    a level it refuses fails before any path runs.  Returns the oracle, the
    coarse and fine estimates, and their grid-max relative gaps to it."""
    steps = disc.n_steps()
    oracle = bounds.second_moment_volterra(params, op, op.grid, T=steps * disc.dt, steps=max(1024, steps)).m[-1]
    coarse, fine = estimate_second_moment_pair(
        params, disc, op, n_paths=n_paths, master_seed=master_seed, worker_count=worker_count
    )
    dc, df = (float(np.max(np.abs(e.values - oracle) / oracle)) for e in (coarse, fine))
    return oracle, coarse, fine, dc, df


@_check("mc-vs-oracle")
def check_mc_oracle(worker_count: int = 2) -> tuple[bool, str]:
    op, params = desk_problem()
    disc = Discretization(grid=op.grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,))
    _, coarse, fine, dc, df = mc_oracle_gaps(params, disc, op, 10_000, _MC_SEED, worker_count)
    ratio = dc / df
    ok = (
        dc <= TOL_MC_ORACLE
        and RATIO_MC_WINDOW[0] <= ratio <= RATIO_MC_WINDOW[1]
        and coarse.flagged_count == 0
        and fine.flagged_count == 0
    )
    detail = (
        f"grid-max discrepancy dt=1/1024: {dc:.4%} (tol {TOL_MC_ORACLE:.0%}), dt=1/2048: {df:.4%}; "
        f"halving ratio {ratio:.3f} (window {RATIO_MC_WINDOW}); "
        f"flagged {coarse.flagged_count}/{fine.flagged_count} of {coarse.n_paths}"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# Check 5: small-noise stability


@_check("small-noise-stability")
def check_small_noise_stability() -> tuple[bool, str]:
    op, _ = desk_problem()
    lam_L = _envelope_fit().lambda_L
    below = [lam for lam in (0.25, 0.5, 1.0, 1.8) if lam < lam_L]
    curves = _desk_curves(below, T=2.0, steps=512)
    slopes = {lam: moments.fit_lyapunov_from_log(zip(c.t, c.log_sup))[0] for lam, c in curves.items()}
    ok_neg = all(s < 0.0 for s in slopes.values())

    # assemble makes each eigenvector's largest-magnitude entry positive
    phi1 = op.eigenvectors[:, -1] / op.eigenvectors[:, -1].max()
    c0 = bounds.oracle_sweep(op, phi1, _LINEAR, (0.0,), T=2.0, steps=512)[0.0]
    slope0 = moments.fit_lyapunov_from_log(zip(c0.t, c0.log_sup))[0]
    rel0 = abs(slope0 + 2.0 * op.lambda1) / (2.0 * op.lambda1)
    ok0 = rel0 <= TOL_DECAY_SLOPE

    detail = (
        f"lambda_L {lam_L:g}; sup-moment tail slopes below it: "
        + ", ".join(f"{l:g}: {s:+.3f}" for l, s in slopes.items())
        + f"; lambda=0 slope {slope0:+.4f} vs -2*lambda1 {-2.0 * op.lambda1:+.4f} "
        f"(rel err {rel0:.4%}, tol {TOL_DECAY_SLOPE:.0%})"
    )
    return ok_neg and ok0 and len(slopes) >= 3, detail


# ---------------------------------------------------------------------------
# Check 6: at-most-exponential growth


@_check("exponential-upper")
def check_exponential_upper() -> tuple[bool, str]:
    devs = []
    for c in _desk_curves(_DESK_LAMBDAS).values():
        sel = c.t >= 0.5 * c.t[-1]
        tw, yw = c.t[sel], c.log_sup[sel]
        # chord through the ends of the tail-fit window [t_end/2, t_end]; exponential growth = straight line
        chord = yw[0] + (yw[-1] - yw[0]) * (tw - tw[0]) / (tw[-1] - tw[0])
        devs.append(np.max(np.abs(yw - chord)) / np.max(np.abs(yw)))
    worst = float(np.max(devs))  # NaN, and a failed check, if any curve is not finite
    ok = worst <= TOL_CONVEXITY
    detail = (
        f"worst chord deviation of log m on [0.5, 1] for lambda up to 128: {worst:.4%} "
        f"(tol {TOL_CONVEXITY:.0%})"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# Check 7: envelope sandwich on a held-out noise level


@_check("envelope-sandwich")
def check_envelope_sandwich() -> tuple[bool, str]:
    k = _envelope_fit()
    held = _desk_curves((64.0,))[64.0]
    lo = bounds.log_lower_envelope(held.t, k, 64.0, 1.0)
    up = bounds.log_upper_envelope(held.t, k, 64.0, 1.0)
    ok_lo = bool(np.all(lo <= held.log_inf + 1e-9))
    ok_mid = bool(np.all(held.log_inf <= held.log_sup + 1e-9))
    ok_up = bool(np.all(held.log_sup <= up + 1e-9))
    margin_lo = float(np.min(held.log_inf - lo))
    margin_up = float(np.min(up - held.log_sup))
    detail = (
        f"held-out lambda=64 on t in [0, 1]: lower<=inf {ok_lo} (min log margin {margin_lo:.3g}), "
        f"inf<=sup {ok_mid}, sup<=upper {ok_up} (min log margin {margin_up:.3g}); "
        f"constants kappa1..4 = {k.kappa1:.3g}, {k.kappa2:.3g}, {k.kappa3:.3g}, {k.kappa4:.3g}"
    )
    return ok_lo and ok_mid and ok_up, detail


# ---------------------------------------------------------------------------
# Check 8: excitation index from the oracle


def excitation_index(
    alpha: float, lambdas: Sequence[float], n: int, T: float, steps: int
) -> tuple[float, tuple[float, float]]:
    """Excitation index and its interval, fitted from ln Phi_2(T) of the desk
    problem's oracle at ``lambdas`` on the n-node grid."""
    curves = _desk_curves(lambdas, alpha, n, T, steps)
    return moments.fit_excitation_from_log(
        [(lam, float(curves[lam].log_phi2()[-1])) for lam in lambdas]
    )


@_check("excitation-index")
def check_excitation_index() -> tuple[bool, str]:
    e15, _ = excitation_index(1.5, EXCITATION_LAMBDAS, _DESK_N, 1.0, 256)
    ok15 = EXCITATION_WINDOW[0] <= e15 <= EXCITATION_WINDOW[1]
    e19, _ = excitation_index(1.9, EXCITATION_LAMBDAS, _DESK_N, 1.0, 256)
    target19 = 2.0 * 1.9 / 0.9
    ok19 = abs(e19 - target19) / target19 <= TOL_EXCITATION_19 and e19 < e15
    detail = (
        f"alpha=1.5: e_hat {e15:.3f} (window {EXCITATION_WINDOW}, target 6); "
        f"alpha=1.9: e_hat {e19:.3f} vs {target19:.3f} "
        f"(tol {TOL_EXCITATION_19:.0%}, decreasing toward the alpha->2 limit 4)"
    )
    return ok15 and ok19, detail


# ---------------------------------------------------------------------------
# Check 9: determinism and flagged-path accounting


def _same_bytes(a: str, b: str, chunk: int = 1 << 16) -> bool:
    """Whether two files hold the same bytes, read ``chunk`` bytes at a time."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(chunk), fb.read(chunk)
            if x != y:
                return False
            if not x:
                return True


@_check("determinism-accounting")
def check_determinism_accounting() -> tuple[bool, str]:
    op, params = desk_problem()
    disc = Discretization(grid=op.grid, dt=1.0 / 256.0, t_end=0.25, snapshot_times=(0.125, 0.25))
    paths = []
    flagged = []
    try:
        for workers in (1, 4):
            ens = run_ensemble(
                params, disc, op, n_paths=300, master_seed=2024, worker_count=workers
            )
            fd, path = tempfile.mkstemp(suffix=".csv")
            os.close(fd)
            paths.append(path)
            ens.write_csv(path)
            flagged.append(ens.flagged_count)
        ok_bytes = _same_bytes(*paths)
        size = os.path.getsize(paths[0])
    finally:
        for path in paths:
            os.unlink(path)
    ok_flagged = flagged == [0, 0]
    detail = (
        f"ensemble CSV byte-identical across workers 1 vs 4: {ok_bytes} "
        f"({size} bytes); flagged counts {flagged} (expected [0, 0], always reported)"
    )
    return ok_bytes and ok_flagged, detail


# ---------------------------------------------------------------------------

QUICK_CHECKS: tuple = (
    check_special_functions,
    check_renewal_equality,
    check_operator_spectrum,
    check_small_noise_stability,
    check_exponential_upper,
    check_envelope_sandwich,
    check_excitation_index,
    check_determinism_accounting,
)


def run_selftest(level: str = "quick", mc_worker_count: int = 2) -> list[CheckResult]:
    """Run the acceptance suite; level is "quick" or "full"."""
    if level not in ("quick", "full"):
        raise ValueError(f"selftest level must be 'quick' or 'full', got {level!r}")
    results = [fn() for fn in QUICK_CHECKS]
    if level == "full":
        results.append(check_mc_oracle(worker_count=mc_worker_count))
    return results
