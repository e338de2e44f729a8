"""Symmetric stable transition density: closed-form anchors and domination."""

import math

import numpy as np
import pytest

from fracheat import kernels

ALPHA = 1.5


def gaussian_density(t: float, r: float) -> float:
    # alpha = 2: exp(-t xi^2) transform, variance 2t
    return math.exp(-r * r / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def cauchy_density(t: float, r: float) -> float:
    return t / (math.pi * (t * t + r * r))


@pytest.mark.parametrize("t", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("r", (0.0, 0.5, 1.0, 3.0))
def test_gaussian_endpoint(t, r):
    assert kernels.stable_density(2.0, t, r) == pytest.approx(
        gaussian_density(t, r), rel=1e-9
    )


@pytest.mark.parametrize("t", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("r", (0.0, 0.5, 1.0, 3.0))
def test_cauchy_endpoint(t, r):
    assert kernels.stable_density(1.0, t, r) == pytest.approx(
        cauchy_density(t, r), rel=1e-9
    )


def test_peak_value_closed_form():
    # p(1, 0) = (1/pi) int_0^inf e^{-xi^alpha} dxi = Gamma(1 + 1/alpha) / pi
    ref = math.gamma(1.0 + 1.0 / ALPHA) / math.pi
    assert kernels.stable_density(ALPHA, 1.0, 0.0) == pytest.approx(ref, rel=1e-10)


def test_self_similarity():
    s = 0.13 ** (-1.0 / ALPHA)
    for r in (0.0, 0.2, 0.9, 2.0):
        lhs = kernels.stable_density(ALPHA, 0.13, r)
        rhs = s * kernels.stable_density(ALPHA, 1.0, r * s)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def _gauss_legendre(f, lo, hi, panels, order=12):
    gx, gw = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        total += half * sum(w * f(mid + half * x) for x, w in zip(gx, gw))
    return total


def test_total_mass_with_tail_correction():
    R = 12.0
    core = _gauss_legendre(lambda r: kernels.stable_density(ALPHA, 1.0, r), 0.0, R, 24)
    # tail: r = R s^(-1/alpha) turns the r^(-1-k alpha) terms of the large-r
    # series into polynomials in s on (0, 1]
    tail = _gauss_legendre(
        lambda s: kernels.stable_density(ALPHA, 1.0, R * s ** (-1.0 / ALPHA))
        * (R / ALPHA) * s ** (-1.0 / ALPHA - 1.0),
        0.0, 1.0, 1,
    )
    assert 2.0 * (core + tail) == pytest.approx(1.0, abs=1e-6)
    # without the tail the mass visibly undershoots: the correction is real
    assert 2.0 * core < 1.0 - 1e-4


def test_density_positive_decreasing_in_r():
    rs = np.linspace(0.0, 6.0, 25)
    vals = [kernels.stable_density(ALPHA, 1.0, r) for r in rs]
    assert all(v > 0.0 for v in vals)
    assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))


def test_semigroup_dominated_by_free_kernel(desk_op):
    peak = kernels.stable_density(ALPHA, 0.1, 0.0)
    excess = kernels.check_domination(desk_op, 0.1)
    assert excess <= 0.05 * peak
    excess_late = kernels.check_domination(desk_op, 1.0)
    assert excess_late <= 0.05 * kernels.stable_density(ALPHA, 1.0, 0.0)


def test_argument_validation():
    with pytest.raises(ValueError):
        kernels.stable_density(0.9, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernels.stable_density(2.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernels.stable_density(1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernels.stable_density(1.5, 1.0, math.inf)
