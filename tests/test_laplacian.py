"""Discrete fractional Dirichlet operator: spectra, semigroup, grid window."""

import math
import re

import numpy as np
import pytest

from fracheat.laplacian import (
    OperatorConfig,
    apply_semigroup,
    assemble,
    build_grid,
    heat_kernel_matrix,
    implicit_factor,
    normalization_constant,
)

# Frozen principal eigenvalues (regression pins; the n-dependence is the
# grid-convergence story tested below and in the acceptance suite).
LAMBDA1_PINS = {
    (64, 1.5): 4.777047,
    (128, 1.5): 4.698058,
    (256, 1.5): 4.643731,
    (64, 1.95): 9.381354,
    (64, 1.8): 7.651639,
}


@pytest.mark.parametrize(("n", "alpha"), sorted(LAMBDA1_PINS))
def test_lambda1_regression(n, alpha):
    g = build_grid(L=1.0, n=n, mu=0.1)
    op = assemble(g, OperatorConfig(alpha=alpha))
    assert op.lambda1 == pytest.approx(LAMBDA1_PINS[(n, alpha)], rel=1e-6)


def test_lambda1_domain_scaling_is_exact():
    # (-Delta)^{alpha/2} on (0, 2L) has spectrum 2^-alpha times that on (0, L)
    cfg = OperatorConfig(alpha=1.5)
    lam_1 = assemble(build_grid(L=1.0, n=64, mu=0.1), cfg).lambda1
    lam_2 = assemble(build_grid(L=2.0, n=64, mu=0.1), cfg).lambda1
    assert lam_2 == pytest.approx(2.0**-1.5 * lam_1, rel=1e-12)


def test_matrix_structure(desk_op):
    A = desk_op.matrix
    assert np.allclose(A, A.T, atol=1e-12)
    off = A - np.diag(np.diag(A))
    assert np.min(off) >= -1e-14  # jumps in, nonnegative off-diagonal
    assert np.max(np.diag(A)) < 0.0
    assert np.all(desk_op.eigenvalues < 0.0)
    assert desk_op.lambda1 == pytest.approx(-np.max(desk_op.eigenvalues), rel=1e-15)


def test_chapman_kolmogorov(desk_grid, desk_op):
    u = 0.07
    P1 = heat_kernel_matrix(desk_op, u)
    P2 = heat_kernel_matrix(desk_op, 2.0 * u)
    defect = np.max(np.abs(desk_grid.dx * (P1 @ P1.T) - P2))
    assert defect <= 1e-12


def test_heat_kernel_positivity_and_mass(desk_grid, desk_op):
    for t in (0.01, 0.1, 1.0):
        P = heat_kernel_matrix(desk_op, t)
        assert np.min(P) >= -1e-10
        mass = desk_grid.dx * P.sum(axis=1)
        assert np.max(mass) <= 1.0 + 1e-10
    # Dirichlet loss: mass decreases in time
    m1 = desk_grid.dx * heat_kernel_matrix(desk_op, 0.1).sum(axis=1)
    m2 = desk_grid.dx * heat_kernel_matrix(desk_op, 0.5).sum(axis=1)
    assert np.all(m2 <= m1 + 1e-12)


def test_apply_semigroup_matches_kernel(desk_grid, desk_op):
    rng = np.random.default_rng(5)
    v = rng.normal(size=desk_grid.n)
    times = np.array([0.0, 0.1, 0.3])
    direct = apply_semigroup(desk_op, times, v)
    assert direct.shape == (times.size, desk_grid.n)
    for row, t in zip(direct, times):
        via_kernel = desk_grid.dx * (heat_kernel_matrix(desk_op, t) @ v)
        assert np.allclose(row, via_kernel, rtol=1e-10, atol=1e-12)
    with pytest.raises(ValueError):
        apply_semigroup(desk_op, np.array([0.1, -0.1]), v)


def test_implicit_factor_solves_backward_euler(desk_op, desk_grid):
    dt = 0.01
    F = implicit_factor(desk_op, dt)
    rng = np.random.default_rng(6)
    b = rng.normal(size=desk_grid.n)
    ref = np.linalg.solve(np.eye(desk_grid.n) - dt * desk_op.matrix, b)
    assert np.allclose(F @ b, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(("alpha", "L", "n"), [(1.5, 1.0, 64), (1.2, 2.0, 17), (1.9, 0.5, 33)])
def test_implicit_factor_is_reflection_symmetric(alpha, L, n):
    # the conditional forms of sde march half the nodes and mirror the rest:
    # that needs J M J = M for the reversal J
    op = assemble(build_grid(L=L, n=n, mu=0.1 * L), OperatorConfig(alpha=alpha))
    M = implicit_factor(op, 1.0 / 1024.0)
    assert np.abs(M[::-1, ::-1] - M).max() <= 1e-13 * np.abs(M).max()


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("n", [16, 17, 64])
def test_eigenvector_sign_makes_the_largest_magnitude_entry_positive(n, alpha):
    # check 5 scales the principal eigenvector by its max, which relies on this
    V = assemble(build_grid(L=1.0, n=n, mu=0.1), OperatorConfig(alpha=alpha)).eigenvectors
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(n)] > 0.0)


def test_grid_geometry():
    # n interior nodes at (i+1) dx with dx = L/(n+1); endpoints stay exterior
    g = build_grid(L=2.0, n=10, mu=0.3)
    assert g.dx == pytest.approx(2.0 / 11.0)
    assert g.nodes.size == 10
    assert g.nodes[0] == pytest.approx(g.dx)
    assert g.nodes[-1] == pytest.approx(2.0 - g.dx)
    # the [mu, L-mu] window: of the nodes 2/11 .. 20/11, 4/11 .. 18/11 lie in [0.3, 1.7]
    assert g.interior_indices().tolist() == list(range(1, 9))
    # nodes on mu and L - mu up to rounding belong to the window; the slack
    # scales with L (at L = 30000.5 node 6 overshoots L - mu by 3.6e-12)
    for L in (1.0, 30000.5):
        g = build_grid(L=L, n=9, mu=0.3 * L)
        assert g.interior_indices().tolist() == [2, 3, 4, 5, 6]


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(L=1.0, n=2, mu=0.1)
    with pytest.raises(ValueError):
        build_grid(L=1.0, n=16, mu=0.6)
    with pytest.raises(ValueError):
        build_grid(L=-1.0, n=16, mu=0.1)
    with pytest.raises(ValueError):
        OperatorConfig(alpha=2.0)
    with pytest.raises(ValueError):
        OperatorConfig(alpha=1.0)


@pytest.mark.parametrize(("call", "message"), [
    (lambda op: heat_kernel_matrix(op, -0.5), "heat_kernel_matrix requires t >= 0, got -0.5"),
    (lambda op: heat_kernel_matrix(op, math.nan), "heat_kernel_matrix requires t >= 0, got nan"),
    (lambda op: implicit_factor(op, 0.0), "implicit_factor requires dt > 0, got 0.0"),
    (lambda op: implicit_factor(op, math.inf), "implicit_factor requires dt > 0, got inf"),
])
def test_semigroup_and_implicit_factor_refuse_a_bad_time(desk_op, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(desk_op)


def test_normalization_constant_positive_and_smooth():
    values = [normalization_constant(a) for a in (1.05, 1.3, 1.5, 1.7, 1.95)]
    assert all(v > 0.0 and math.isfinite(v) for v in values)
