"""Deterministic second-moment machinery: renewal solver, Volterra oracle,
growth-rate tables, and envelope constants."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_params
from fracheat import bounds, specfun
from fracheat.laplacian import OperatorConfig, apply_semigroup, assemble, build_grid, heat_kernel_matrix
from fracheat.sde import SigmaSpec, tent_profile

# Desk-scale regression pins (alpha=1.5, L=1, n=64, mu=0.1, lam=1, tent u0)
ENERGY_AT_HALF = 0.007183856068648362
SUP_AT_HALF = 0.013336251390094455


@pytest.fixture(scope="module")
def desk_table(desk_grid, desk_op, desk_params):
    return bounds.second_moment_volterra(desk_params, desk_op, desk_grid, T=0.5, steps=1024)


def test_renewal_theta_definition():
    prob = bounds.RenewalProblem(a=1.0, b=2.0, beta=0.5)
    assert prob.theta == pytest.approx((2.0 * specfun.gamma(0.5)) ** 2.0, rel=1e-14)


def test_renewal_theta_is_derived_not_given():
    # theta follows from b and beta; a given one would be silently replaced
    with pytest.raises(TypeError, match="theta"):
        bounds.RenewalProblem(a=1.0, b=1.0, beta=0.5, theta=5.0)
    assert bounds.RenewalProblem(a=1.0, b=0.0, beta=0.5).theta == 0.0


# the singular panel slows convergence for small beta, hence the finer grid
@pytest.mark.parametrize(
    ("a", "b", "beta", "steps"), [(1.0, 1.0, 1.0 / 3.0, 4096), (1.0, 2.0, 0.5, 1024)]
)
def test_constant_forcing_renewal_equality(a, b, beta, steps):
    prob = bounds.RenewalProblem(a=a, b=b, beta=beta)
    sol = bounds.volterra_lower_solve(prob, T=1.0, steps=steps)
    for tk, vk in zip(sol.t, sol.v):
        ref = a * math.exp(specfun.log_f_beta(beta, prob.theta * tk))
        assert vk == pytest.approx(ref, rel=0.01)


def test_volterra_solution_monotone_for_constant_forcing():
    prob = bounds.RenewalProblem(a=1.0, b=1.0, beta=0.5)
    sol = bounds.volterra_lower_solve(prob, T=1.0, steps=512)
    assert np.all(np.diff(sol.v) >= -1e-12)
    assert sol.v[0] == pytest.approx(1.0)


def test_zero_noise_oracle_is_squared_semigroup(desk_grid, desk_op):
    params = make_params(desk_grid, lam=0.0)
    table = bounds.second_moment_volterra(params, desk_op, desk_grid, T=0.5, steps=64)
    for k, t in enumerate(table.t):
        if t == 0.0:
            continue
        g = desk_grid.dx * (heat_kernel_matrix(desk_op, float(t)) @ params.u0)
        assert np.allclose(table.m[k], g**2, rtol=1e-10, atol=1e-14)


def test_volterra_regression_and_self_convergence(desk_grid, desk_op, desk_params, desk_table):
    coarse = bounds.second_moment_volterra(desk_params, desk_op, desk_grid, T=0.5, steps=512)
    e_fine = desk_table.energy()[-1]
    e_coarse = coarse.energy()[-1]
    assert abs(e_fine - e_coarse) / e_fine < 5e-4
    assert e_fine == pytest.approx(ENERGY_AT_HALF, rel=1e-6)
    assert desk_table.sup()[-1] == pytest.approx(SUP_AT_HALF, rel=1e-6)


def _panel_loop_table(op, T, steps):
    """The kernel table panel by panel and node by node, (steps, n, n)."""
    V, w, dt = op.eigenvectors, op.eigenvalues, T / steps
    gx, gw = np.polynomial.legendre.leggauss(8)

    def accumulate(lo, hi, out):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for node, wt in zip(gx, gw):
            G = (V * np.exp((mid + half * node) * w)) @ V.T
            out += (half * wt) * (G * G)

    W = np.zeros((steps, op.grid.n, op.grid.n))
    edges = np.concatenate([[0.0], dt * 0.5 ** np.arange(14, -1, -1.0)])
    for lo, hi in zip(edges[:-1], edges[1:]):
        accumulate(lo, hi, W[0])
    for d in range(1, steps):
        accumulate(d * dt, (d + 1) * dt, W[d])
    return W / op.grid.dx


def _stepwise_march(params, op, grid, T, steps):
    """m marched one step at a time, summing the whole history at each step."""
    W = _panel_loop_table(op, T, steps)  # (lag, n, n)
    g = apply_semigroup(op, np.linspace(0.0, T, steps + 1), params.u0)
    c = (params.lam * params.sigma.L_sigma) ** 2
    m = np.empty((steps + 1, grid.n))
    m[0] = g[0] ** 2
    solve_new = np.linalg.inv(np.eye(grid.n) - 0.5 * c * W[0])
    for k in range(1, steps + 1):
        rhs = g[k] ** 2 + 0.5 * c * (W[0] @ m[k - 1])
        if k >= 2:
            mavg = 0.5 * (m[0 : k - 1] + m[1:k])  # panel averages, oldest first
            rhs += c * np.einsum("dij,dj->i", W[k - 1 : 0 : -1], mavg)
        m[k] = solve_new @ rhs
    return m


# 16 and 17 steps reach only the node-space lags 0..16; 18 is the first
# step count with a panel at lag 17, the first of the eigen-pair recursion.
# The longer marches run that recursion over many steps.  At lam=8 the
# march stays positive only on fine steps; on coarse ones it swings through
# sign changes, where relative agreement means nothing.
@pytest.mark.parametrize("steps", [16, 17, 18, 63, 64, 65, 66, 200])
@pytest.mark.parametrize(("lam", "dt"), [(1.0, 1.0 / 1024.0), (8.0, 1.0 / 16384.0)])
def test_blocked_march_matches_stepwise_march(desk_grid, desk_op, steps, lam, dt):
    params = make_params(desk_grid, lam=lam)
    table = bounds.second_moment_volterra(params, desk_op, desk_grid, T=steps * dt, steps=steps)
    ref = _stepwise_march(params, desk_op, desk_grid, T=steps * dt, steps=steps)
    assert np.all(ref > 0.0)
    np.testing.assert_allclose(table.m, ref, rtol=1e-13, atol=0.0)


def test_overflowing_march_raises(desk_grid, desk_op):
    params = make_params(desk_grid, lam=8.0)
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="lam=8.0"):
        bounds.second_moment_volterra(params, desk_op, desk_grid, T=1.0, steps=256)


def test_negative_march_raises(desk_grid, desk_op):
    # 16 steps cannot resolve the growth at lam=8: the march swings through
    # sign changes while every entry stays finite
    params = make_params(desk_grid, lam=8.0)
    with pytest.raises(ValueError, match=r"lam=8\.0, steps=16.*renewal branch"):
        bounds.second_moment_volterra(params, desk_op, desk_grid, T=0.25, steps=16)


# The 16 uniform panels and the 15 graded sub-panels at T/steps = 1/128
# reach subnormal exp factors.  The helper takes the loop's products node by
# node: at n=64, the size of every oracle grid the suite marches, and at
# n=32 it matched bit for bit when measured.  n=32 allows 1e-12, since BLAS
# may pick its kernel by size and move entries that cancel.
@pytest.mark.parametrize(("n", "rtol"), [(64, 0.0), (32, 1e-12)])
def test_batched_kernel_table_matches_the_panel_loop(n, rtol):
    op = assemble(build_grid(L=1.0, n=n, mu=0.1), OperatorConfig(alpha=1.5))
    W = bounds._near_panel_integrals(op, dt=0.5 / 64)
    assert W.shape == (n, 17, n)
    ref = _panel_loop_table(op, T=0.5, steps=64)[:17]
    np.testing.assert_allclose(W.transpose(1, 0, 2), ref, rtol=rtol, atol=0.0)
    assert W.reshape(n, -1).base is W  # the march's lag matrix is a view


def test_march_caches_nothing_on_the_operator(desk_grid, desk_params):
    op = assemble(desk_grid, OperatorConfig(alpha=1.5))
    before = dict(vars(op))
    bounds.second_moment_volterra(desk_params, op, desk_grid, T=0.25, steps=64)
    bounds.second_moment_volterra(desk_params, op, desk_grid, T=0.5, steps=128)
    assert vars(op).keys() == before.keys()
    assert all(vars(op)[k] is v for k, v in before.items())


def test_march_temporaries_stay_small(desk_grid, desk_params):
    # a cold call on a fresh operator.  Measured: 1.3 MiB beyond m.
    op = assemble(desk_grid, OperatorConfig(alpha=1.5))
    tracemalloc.start()
    try:
        table = bounds.second_moment_volterra(desk_params, op, desk_grid, T=0.5, steps=1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra_mib = (peak - table.m.nbytes) / 2**20
    assert extra_mib <= 3.0, f"march allocated {extra_mib:.2f} MiB beyond m"


def test_march_rejects_a_grid_that_is_not_the_operators(desk_params, desk_op):
    other = build_grid(L=1.0, n=64, mu=0.2)
    with pytest.raises(ValueError, match=r"grid=.* is not the operator's grid"):
        bounds.second_moment_volterra(desk_params, desk_op, other, T=0.25, steps=16)


def test_oracle_sweep_equals_curves_on_hand_built_params(desk_grid, desk_op):
    # the sweep builds each level from the operator: alpha, L and mu, with p = 2
    u0 = tent_profile(desk_grid)
    sigma = SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0)
    swept = bounds.oracle_sweep(desk_op, u0, sigma, (0.5, 64.0), T=1.0, steps=256)
    model = bounds.measure_growth_model(desk_op, make_params(desk_grid), horizon=1.0)
    assert list(swept) == [0.5, 64.0]
    assert [c.branch for c in swept.values()] == ["marched", "renewal"]
    for lam, got in swept.items():
        ref = bounds.oracle_moment_curves(make_params(desk_grid, lam=lam), desk_op, 1.0, 256, model)
        assert (got.alpha, got.lam, got.l_sigma, got.L_sigma, got.lambda1, got.branch) == (
            ref.alpha, ref.lam, ref.l_sigma, ref.L_sigma, ref.lambda1, ref.branch
        )
        for name in ("t", "log_inf", "log_sup", "log_energy"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


def test_second_moment_monotone_in_lambda(desk_grid, desk_op):
    m1 = bounds.second_moment_volterra(
        make_params(desk_grid, lam=1.0), desk_op, desk_grid, T=0.25, steps=128
    ).m[-1]
    m2 = bounds.second_moment_volterra(
        make_params(desk_grid, lam=2.0), desk_op, desk_grid, T=0.25, steps=128
    ).m[-1]
    assert np.all(m2 >= m1 - 1e-15)


def test_table_functional_orderings(desk_grid, desk_table):
    width = desk_grid.L - 2.0 * desk_grid.mu
    for k in range(1, desk_table.t.size):
        inf_k = desk_table.inf_interior()[k]
        sup_k = desk_table.sup()[k]
        energy_k = desk_table.energy()[k]
        assert inf_k <= sup_k + 1e-15
        assert width * inf_k <= energy_k + 1e-15
        assert energy_k <= desk_grid.L * sup_k + 1e-15


def test_growth_model_and_branch_selection(desk_grid, desk_op, desk_params):
    model = bounds.measure_growth_model(desk_op, desk_params, horizon=1.0)
    assert model.marching_resolves(1.0, 1.0, dt=1.0 / 256.0)
    assert not model.marching_resolves(128.0, 1.0, dt=1.0 / 256.0)
    low = bounds.oracle_moment_curves(
        make_params(desk_grid, lam=0.5), desk_op, T=1.0, steps=256, model=model
    )
    high = bounds.oracle_moment_curves(
        make_params(desk_grid, lam=64.0), desk_op, T=1.0, steps=256, model=model
    )
    assert low.branch == "marched"
    assert high.branch == "renewal"
    for c in (low, high):
        assert np.all(np.isfinite(c.log_inf[1:]))
        assert np.all(c.log_inf[1:] <= c.log_sup[1:] + 1e-12)


@pytest.fixture(scope="module")
def fitted_constants(desk_grid, desk_op, desk_params):
    model = bounds.measure_growth_model(desk_op, desk_params, horizon=1.0)
    curves = [
        bounds.oracle_moment_curves(
            make_params(desk_grid, lam=lam), desk_op, T=1.0, steps=256, model=model
        )
        for lam in (2.0, 8.0, 32.0)
    ]
    return bounds.fit_envelope_constants(curves), curves


def test_envelope_constants_structure(fitted_constants):
    k, _ = fitted_constants
    for v in (k.kappa1, k.kappa2, k.kappa3, k.kappa4, k.lambda_L):
        assert v > 0.0 and math.isfinite(v)
    assert k.alpha == 1.5


def test_envelopes_sandwich_the_fitted_curves(fitted_constants):
    k, curves = fitted_constants
    for c in curves:
        lo = np.array([bounds.log_lower_envelope(t, k, c.lam, 1.0) for t in c.t])
        up = np.array([bounds.log_upper_envelope(t, k, c.lam, 1.0) for t in c.t])
        # one call per curve gives the per-point values
        np.testing.assert_array_equal(bounds.log_lower_envelope(c.t, k, c.lam, 1.0), lo)
        np.testing.assert_array_equal(bounds.log_upper_envelope(c.t, k, c.lam, 1.0), up)
        assert np.all(lo <= c.log_inf + 1e-9)
        assert np.all(c.log_sup <= up + 1e-9)


def test_verify_fit_counts_and_names_every_violation(fitted_constants):
    k, curves = fitted_constants
    bad = replace(k, kappa1=1.5 * k.kappa1, kappa3=0.5 * k.kappa3)
    expected = []
    for c in curves:
        for t, lo, hi in zip(c.t, c.log_inf, c.log_sup):
            low = bounds.log_lower_envelope(t, bad, c.lam, 1.0)
            up = bounds.log_upper_envelope(t, bad, c.lam, 1.0)
            if low > lo + 1e-9 or up < hi - 1e-9:
                expected.append((c.lam, t))
    assert expected
    with pytest.raises(bounds.EnvelopeFitError, match=rf"^{len(expected)} envelope violations") as err:
        bounds._verify_fit(bad, curves)
    assert ", ".join(f"(lam={lam}, t={t:.3g})" for lam, t in expected[:8]) in str(err.value)


def test_fit_rejects_curves_that_disagree_on_sigma(fitted_constants):
    _, curves = fitted_constants
    mixed = [curves[0], replace(curves[1], l_sigma=2.0), curves[2]]
    with pytest.raises(bounds.EnvelopeFitError, match=r"curve at lam=8\.0 has .*expected \(1\.5, 1\.0, 1\.0\) as at lam=2\.0"):
        bounds.fit_envelope_constants(mixed)


def test_fit_rejects_curves_too_short_for_the_tail_slope(fitted_constants):
    # 8 points from t=0 leave 4 in the slope fit's window [t_end/2, t_end]; it needs 5
    _, curves = fitted_constants
    short = [replace(c, t=c.t[:8], log_inf=c.log_inf[:8], log_sup=c.log_sup[:8]) for c in curves]
    with pytest.raises(bounds.EnvelopeFitError, match=">= 9 time points"):
        bounds.fit_envelope_constants(short)


def test_envelope_rejects_negative_times(fitted_constants):
    k, _ = fitted_constants
    for fn in (bounds.log_lower_envelope, bounds.log_upper_envelope):
        with pytest.raises(ValueError, match=r"envelope time must be >= 0, got -0\.5"):
            fn(np.array([0.0, -0.5]), k, 2.0, 1.0)


def test_envelope_constants_validation():
    with pytest.raises(ValueError):
        bounds.EnvelopeConstants(
            kappa1=-1.0, kappa2=1.0, kappa3=1.0, kappa4=1.0, lambda_L=1.0, alpha=1.5
        )
    with pytest.raises(ValueError):
        bounds.EnvelopeConstants(
            kappa1=1.0, kappa2=1.0, kappa3=1.0, kappa4=1.0, lambda_L=math.inf, alpha=1.5
        )


def test_renewal_problem_validation():
    with pytest.raises(ValueError):
        bounds.RenewalProblem(a=1.0, b=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        bounds.RenewalProblem(a=1.0, b=1.0, beta=-0.5)
    with pytest.raises(ValueError):
        bounds.volterra_lower_solve(bounds.RenewalProblem(a=1.0, b=1.0, beta=0.5), T=1.0, steps=8)
