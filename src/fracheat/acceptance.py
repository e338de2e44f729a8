"""Quantitative acceptance checks shared by the CLI selftest and the test suite.

Each check returns a CheckResult with the measured numbers in ``detail`` so
failures are diagnosable from the selftest report alone.  Tolerances are
module constants, pinned here and nowhere else.

Tiers: QUICK_CHECKS run in well under a minute on a laptop; the full tier
adds the Monte-Carlo cross-check of the second-moment oracle (10^4 paths at
two time resolutions).
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds, kernels, moments, specfun
from .laplacian import (
    DiscreteOperator,
    Grid,
    OperatorConfig,
    assemble,
    build_grid,
    heat_kernel_matrix,
)
from .sde import (
    Discretization,
    ModelParams,
    SigmaSpec,
    estimate_second_moment_pair,
    run_ensemble,
    tent_profile,
)

__all__ = ["CheckResult", "run_selftest", "QUICK_CHECKS"]

# Pinned tolerances (one place only)
TOL_E1 = 1e-12              # E_1(z) vs exp(z) on [-5, 5]
TOL_FBETA = 1e-10           # F_beta(z) vs E_beta(z^beta)
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
_DESK_LAMBDAS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
_LINEAR = SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0)
_MC_SEED = 31415            # check-4 master seed (estimator passes for
                            # every seed tested; this one is noise-neutral)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _check(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check, with the reason
        return CheckResult(name, False, f"exception: {exc!r}", time.perf_counter() - t0)
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Shared fixtures (built lazily, cached per process): the desk operator, one
# oracle sweep of the desk problem whose curves checks 5-8 read, and the
# envelope constants fitted on three of those curves

_CACHE: dict = {}


def _desk() -> tuple[Grid, DiscreteOperator]:
    if "desk" not in _CACHE:
        grid = build_grid(L=1.0, n=_DESK_N, mu=_DESK_MU)
        _CACHE["desk"] = (grid, assemble(grid, OperatorConfig(alpha=_DESK_ALPHA)))
    return _CACHE["desk"]


def _desk_params() -> ModelParams:
    """The desk problem at lam 1: tent u0, linear sigma, p = 2."""
    grid, _ = _desk()
    return ModelParams(
        alpha=_DESK_ALPHA, L=grid.L, lam=1.0, sigma=_LINEAR, u0=tent_profile(grid), mu=_DESK_MU, p=2.0
    )


def _desk_sweep() -> dict[float, bounds.OracleCurves]:
    """Oracle curves of the desk problem at _DESK_LAMBDAS on t in [0, 1]."""
    if "desk_sweep" not in _CACHE:
        grid, op = _desk()
        _CACHE["desk_sweep"] = bounds.oracle_sweep(
            op, tent_profile(grid), _LINEAR, _DESK_LAMBDAS, T=1.0, steps=256
        )
    return _CACHE["desk_sweep"]


def _envelope_fit() -> bounds.EnvelopeConstants:
    if "env_fit" not in _CACHE:
        sweep = _desk_sweep()
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


def check_special_functions() -> CheckResult:
    def body():
        zs = np.linspace(-5.0, 5.0, 201)
        ref1 = np.array([math.exp(z) for z in zs.tolist()])
        err1 = float(np.max(np.abs(specfun.mittag_leffler(1.0, zs) - ref1)))
        ok1 = err1 <= TOL_E1

        betas = (1.0 / 3.0, 0.5, 2.0 / 3.0)
        ok0 = all(specfun.mittag_leffler(b, 0.0) == 1.0 for b in betas)

        errf = 0.0
        zs = np.linspace(0.05, 12.0, 40)
        for b in betas:
            lhs = specfun.f_beta(b, zs)
            rhs = specfun.mittag_leffler(b, [z**b for z in zs.tolist()])
            errf = max(errf, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0))))
        okf = errf <= TOL_FBETA

        target = math.e * _erfc_minus_one_quadrature()
        errh = abs(specfun.mittag_leffler(0.5, 1.0) - target)
        okh = errh <= TOL_EHALF

        detail = (
            f"E_1 vs exp max err {err1:.3e} (tol {TOL_E1}); E_beta(0)=1 {'ok' if ok0 else 'FAIL'}; "
            f"F_beta identity max rel err {errf:.3e} (tol {TOL_FBETA}); "
            f"E_half(1) vs quadrature err {errh:.3e} (tol {TOL_EHALF})"
        )
        return ok1 and ok0 and okf and okh, detail

    return _check("special-functions", body)


# ---------------------------------------------------------------------------
# Check 2: constant-forcing renewal equality


def check_renewal_equality() -> CheckResult:
    def body():
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

    return _check("renewal-equality", body)


# ---------------------------------------------------------------------------
# Check 3: operator spectrum and kernel domination


def check_operator_spectrum() -> CheckResult:
    def body():
        cfg = OperatorConfig(alpha=_DESK_ALPHA)
        op256 = assemble(build_grid(L=1.0, n=256, mu=_DESK_MU), cfg)
        lam1 = {128: assemble(build_grid(L=1.0, n=128, mu=_DESK_MU), cfg).lambda1, 256: op256.lambda1}
        conv = abs(lam1[128] - lam1[256]) / lam1[256]
        ok_conv = conv <= TOL_LAMBDA1_GRID

        g2 = build_grid(L=2.0, n=128, mu=_DESK_MU)
        lam1_L2 = assemble(g2, cfg).lambda1
        scale = abs(lam1_L2 - 2.0**-_DESK_ALPHA * lam1[128]) / (2.0**-_DESK_ALPHA * lam1[128])
        ok_scale = scale <= TOL_LAMBDA1_SCALE

        grid, op = _desk()
        u = 0.1
        P1 = heat_kernel_matrix(op, u)
        P2 = heat_kernel_matrix(op, 2.0 * u)
        defect = float(np.max(np.abs(grid.dx * (P1 @ P1.T) - P2)))
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

    return _check("operator-spectrum", body)


# ---------------------------------------------------------------------------
# Check 4: Monte Carlo vs the deterministic second-moment oracle


def check_mc_oracle(worker_count: int = 2) -> CheckResult:
    def body():
        grid, op = _desk()
        params = _desk_params()
        disc = Discretization(grid=grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,))
        oracle = bounds.second_moment_volterra(params, op, grid, T=0.5, steps=1024).m[-1]
        coarse, fine = estimate_second_moment_pair(
            params, disc, op, n_paths=10_000, master_seed=_MC_SEED, worker_count=worker_count
        )
        dc = float(np.max(np.abs(coarse.values - oracle) / oracle))
        df = float(np.max(np.abs(fine.values - oracle) / oracle))
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

    return _check("mc-vs-oracle", body)


# ---------------------------------------------------------------------------
# Check 5: small-noise stability


def check_small_noise_stability() -> CheckResult:
    def body():
        grid, op = _desk()
        lam_L = _envelope_fit().lambda_L
        below = [lam for lam in (0.25, 0.5, 1.0, 1.8) if lam < lam_L]
        curves = bounds.oracle_sweep(op, tent_profile(grid), _LINEAR, below, T=2.0, steps=512)
        slopes = {lam: moments.fit_lyapunov_from_log(zip(c.t, c.log_sup))[0] for lam, c in curves.items()}
        ok_neg = all(s < 0.0 for s in slopes.values())

        phi1 = op.eigenvectors[:, -1].copy()
        if phi1[np.argmax(np.abs(phi1))] < 0:
            phi1 = -phi1
        phi1 /= phi1.max()
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

    return _check("small-noise-stability", body)


# ---------------------------------------------------------------------------
# Check 6: at-most-exponential growth


def check_exponential_upper() -> CheckResult:
    def body():
        worst = 0.0
        slopes_ok = True
        for c in _desk_sweep().values():
            slope = moments.fit_lyapunov_from_log(zip(c.t, c.log_sup))[0]
            slopes_ok = slopes_ok and math.isfinite(slope)
            sel = c.t >= 0.5 * c.t[-1]
            tw, yw = c.t[sel], c.log_sup[sel]
            # chord through the ends of the fit's window [t_end/2, t_end]; exponential growth = straight line
            chord = yw[0] + (yw[-1] - yw[0]) * (tw - tw[0]) / (tw[-1] - tw[0])
            dev = float(np.max(np.abs(yw - chord)) / np.max(np.abs(yw)))
            worst = max(worst, dev)
        ok = slopes_ok and worst <= TOL_CONVEXITY
        detail = (
            f"tail slopes finite for lambda up to 128: {slopes_ok}; "
            f"worst chord deviation of log m on [0.5, 1]: {worst:.4%} (tol {TOL_CONVEXITY:.0%})"
        )
        return ok, detail

    return _check("exponential-upper", body)


# ---------------------------------------------------------------------------
# Check 7: envelope sandwich on a held-out noise level


def check_envelope_sandwich() -> CheckResult:
    def body():
        k = _envelope_fit()
        held = _desk_sweep()[64.0]
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

    return _check("envelope-sandwich", body)


# ---------------------------------------------------------------------------
# Check 8: excitation index from the oracle


def _excitation_for_alpha(alpha: float) -> tuple[float, tuple[float, float]]:
    lambdas = (8.0, 16.0, 32.0, 64.0, 128.0)
    if alpha == _DESK_ALPHA:
        curves = _desk_sweep()
    else:
        grid, _ = _desk()
        op = assemble(grid, OperatorConfig(alpha=alpha))
        curves = bounds.oracle_sweep(op, tent_profile(grid), _LINEAR, lambdas, T=1.0, steps=256)
    return moments.fit_excitation_from_log(
        [(lam, float(curves[lam].log_phi2()[-1])) for lam in lambdas]
    )


def check_excitation_index() -> CheckResult:
    def body():
        e15, ci15 = _excitation_for_alpha(1.5)
        ok15 = EXCITATION_WINDOW[0] <= e15 <= EXCITATION_WINDOW[1]
        e19, ci19 = _excitation_for_alpha(1.9)
        target19 = 2.0 * 1.9 / 0.9
        ok19 = abs(e19 - target19) / target19 <= TOL_EXCITATION_19 and e19 < e15
        detail = (
            f"alpha=1.5: e_hat {e15:.3f} (window {EXCITATION_WINDOW}, target 6); "
            f"alpha=1.9: e_hat {e19:.3f} vs {target19:.3f} "
            f"(tol {TOL_EXCITATION_19:.0%}, decreasing toward the alpha->2 limit 4)"
        )
        return ok15 and ok19, detail

    return _check("excitation-index", body)


# ---------------------------------------------------------------------------
# Check 9: determinism and flagged-path accounting


def check_determinism_accounting() -> CheckResult:
    def body():
        grid, op = _desk()
        params = _desk_params()
        disc = Discretization(
            grid=grid, dt=1.0 / 256.0, t_end=0.25, snapshot_times=(0.125, 0.25)
        )
        texts = []
        flagged = []
        for workers in (1, 4):
            ens = run_ensemble(
                params, disc, op, n_paths=300, master_seed=2024, worker_count=workers
            )
            fd, path = tempfile.mkstemp(suffix=".csv")
            os.close(fd)
            try:
                ens.write_csv(path)
                with open(path, "rb") as fh:
                    texts.append(fh.read())
            finally:
                os.unlink(path)
            flagged.append(ens.flagged_count)
        ok_bytes = texts[0] == texts[1]
        ok_flagged = flagged == [0, 0]
        detail = (
            f"ensemble CSV byte-identical across workers 1 vs 4: {ok_bytes} "
            f"({len(texts[0])} bytes); flagged counts {flagged} (expected [0, 0], always reported)"
        )
        return ok_bytes and ok_flagged, detail

    return _check("determinism-accounting", body)


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
