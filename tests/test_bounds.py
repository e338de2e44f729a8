"""Deterministic second-moment machinery: renewal solver, Volterra oracle,
growth-rate tables, and envelope constants."""

import math

import numpy as np
import pytest

from conftest import make_params
from fracheat import bounds, specfun
from fracheat.laplacian import apply_semigroup

# Desk-scale regression pins (alpha=1.5, L=1, n=64, mu=0.1, lam=1, tent u0)
ENERGY_AT_HALF = 0.007183856068648362
SUP_AT_HALF = 0.013336251390094455


@pytest.fixture(scope="module")
def desk_table(desk_grid, desk_op, desk_params):
    return bounds.second_moment_volterra(desk_params, desk_op, desk_grid, T=0.5, steps=1024)


def test_renewal_theta_definition():
    prob = bounds.RenewalProblem(a=1.0, b=2.0, beta=0.5)
    assert prob.theta == pytest.approx((2.0 * specfun.gamma(0.5)) ** 2.0, rel=1e-14)


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
        g = apply_semigroup(desk_op, float(t), params.u0)
        assert np.allclose(table.m[k], g**2, rtol=1e-10, atol=1e-14)


def test_volterra_regression_and_self_convergence(desk_grid, desk_op, desk_params, desk_table):
    coarse = bounds.second_moment_volterra(desk_params, desk_op, desk_grid, T=0.5, steps=512)
    e_fine = desk_table.energy()[-1]
    e_coarse = coarse.energy()[-1]
    assert abs(e_fine - e_coarse) / e_fine < 5e-4
    assert e_fine == pytest.approx(ENERGY_AT_HALF, rel=1e-6)
    assert desk_table.sup()[-1] == pytest.approx(SUP_AT_HALF, rel=1e-6)


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
    model = bounds.measure_growth_model(desk_op, desk_grid, desk_params, horizon=1.0)
    assert model.marching_resolves(1.0, 1.0, dt=1.0 / 256.0)
    assert not model.marching_resolves(128.0, 1.0, dt=1.0 / 256.0)
    low = bounds.oracle_moment_curves(
        make_params(desk_grid, lam=0.5), desk_op, desk_grid, T=1.0, steps=256, model=model
    )
    high = bounds.oracle_moment_curves(
        make_params(desk_grid, lam=64.0), desk_op, desk_grid, T=1.0, steps=256, model=model
    )
    assert low.branch == "marched"
    assert high.branch == "renewal"
    for c in (low, high):
        assert np.all(np.isfinite(c.log_inf[1:]))
        assert np.all(c.log_inf[1:] <= c.log_sup[1:] + 1e-12)


def test_tail_log_slope_recovers_exact_line():
    t = np.linspace(0.0, 2.0, 81)
    log_m = -3.0 + 1.75 * t
    assert bounds.tail_log_slope(t, log_m) == pytest.approx(1.75, abs=1e-12)


@pytest.fixture(scope="module")
def fitted_constants(desk_grid, desk_op, desk_params):
    model = bounds.measure_growth_model(desk_op, desk_grid, desk_params, horizon=1.0)
    curves = [
        bounds.oracle_moment_curves(
            make_params(desk_grid, lam=lam), desk_op, desk_grid, T=1.0, steps=256, model=model
        )
        for lam in (2.0, 8.0, 32.0)
    ]
    return bounds.fit_envelope_constants(curves, alpha=1.5, l_sigma=1.0, L_sigma_=1.0), curves


def test_envelope_constants_structure(fitted_constants):
    k, _ = fitted_constants
    for v in (k.kappa1, k.kappa2, k.kappa3, k.kappa4, k.lambda1, k.lambda_L, k.lambda0):
        assert v > 0.0 and math.isfinite(v)
    assert k.lambda_L <= k.lambda0
    assert k.alpha == 1.5


def test_envelopes_sandwich_the_fitted_curves(fitted_constants):
    k, curves = fitted_constants
    for c in curves:
        lo = np.array([bounds.log_lower_envelope(t, k, c.lam, 1.0, 1.5) for t in c.t])
        up = np.array([bounds.log_upper_envelope(t, k, c.lam, 1.0, 1.5) for t in c.t])
        assert np.all(lo <= c.log_inf + 1e-9)
        assert np.all(c.log_sup <= up + 1e-9)


def test_envelope_constants_validation():
    with pytest.raises(ValueError):
        bounds.EnvelopeConstants(
            kappa1=-1.0, kappa2=1.0, kappa3=1.0, kappa4=1.0,
            lambda1=4.7, lambda_L=1.0, lambda0=2.0, alpha=1.5,
        )
    with pytest.raises(ValueError):
        bounds.EnvelopeConstants(
            kappa1=1.0, kappa2=1.0, kappa3=1.0, kappa4=1.0,
            lambda1=4.7, lambda_L=3.0, lambda0=2.0, alpha=1.5,
        )


def test_renewal_problem_validation():
    with pytest.raises(ValueError):
        bounds.RenewalProblem(a=1.0, b=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        bounds.RenewalProblem(a=1.0, b=1.0, beta=-0.5)
    with pytest.raises(ValueError):
        bounds.volterra_lower_solve(bounds.RenewalProblem(a=1.0, b=1.0, beta=0.5), T=1.0, steps=8)
