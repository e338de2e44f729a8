"""Mittag-Leffler evaluation against independent references.

The references here never call back into the package: exp and erfc come
from the stdlib, and the direct series below is a naive lgamma summation
written independently of the production evaluator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat import specfun

BETAS = (1.0 / 3.0, 0.5, 2.0 / 3.0)

# e * erfc(-1), the closed form of E_{1/2}(1)
E_HALF_AT_ONE = 5.008980080762283


def naive_series(beta: float, z: float, terms: int = 400) -> float:
    """Independent reference: direct lgamma summation, no recurrences."""
    total = 0.0
    for n in range(terms):
        total += (
            math.copysign(abs(z) ** n, 1.0 if z >= 0 or n % 2 == 0 else -1.0)
            * math.exp(-math.lgamma(beta * n + 1.0))
        )
    return total


def test_e1_matches_exp_to_1e12():
    for z in np.linspace(-5.0, 5.0, 101):
        assert abs(specfun.mittag_leffler(1.0, z) - math.exp(z)) <= 1e-12


@pytest.mark.parametrize("beta", BETAS + (0.25, 1.0, 1.5))
def test_e_beta_at_zero_is_one(beta):
    assert specfun.mittag_leffler(beta, 0.0) == 1.0


@pytest.mark.parametrize("beta", BETAS)
def test_f_beta_identity(beta):
    for z in np.linspace(0.05, 12.0, 25):
        lhs = specfun.f_beta(beta, float(z))
        rhs = specfun.mittag_leffler(beta, float(z) ** beta)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_e_half_at_one_closed_form():
    val = specfun.mittag_leffler(0.5, 1.0)
    assert abs(val - math.e * math.erfc(-1.0)) <= 1e-12
    assert abs(val - E_HALF_AT_ONE) <= 1e-12


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("z", (0.3, 1.0, 2.5))
def test_against_naive_series(beta, z):
    ref = naive_series(beta, z)
    assert abs(specfun.mittag_leffler(beta, z) - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_log_matches_linear_in_overlap():
    for beta in BETAS:
        for z in (0.0, 0.4, 1.7, 4.0):
            lin = specfun.mittag_leffler(beta, z)
            assert abs(specfun.log_mittag_leffler(beta, z) - math.log(lin)) <= 1e-11


def test_log_branch_reaches_huge_arguments():
    # E_{1/3}(z) ~ 3 exp(z^3): far beyond double range, finite in the log domain
    z = 1e6
    val = specfun.log_mittag_leffler(1.0 / 3.0, z)
    rate = z**3.0
    assert math.isfinite(val)
    assert abs(val - (rate - math.log(1.0 / 3.0))) <= 1e-6 * rate


def test_log_f_beta_consistency():
    for beta in BETAS:
        for z in (0.5, 2.0, 9.0):
            lin = specfun.f_beta(beta, z)
            assert abs(specfun.log_f_beta(beta, z) - math.log(lin)) <= 1e-11


def test_linear_space_overflow_raises():
    with pytest.raises(specfun.PrecisionError):
        specfun.mittag_leffler(1.0 / 3.0, 20.0**3)


def test_gamma_positive_half_line():
    assert specfun.gamma(5.0) == 24.0
    assert abs(specfun.gamma(0.5) - math.sqrt(math.pi)) <= 1e-15
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            specfun.gamma(bad)


@pytest.mark.parametrize(
    ("beta", "z"),
    [(0.0, 1.0), (2.0, 1.0), (-0.5, 1.0), (0.5, math.inf), (0.5, math.nan)],
)
def test_argument_validation(beta, z):
    with pytest.raises(ValueError):
        specfun.mittag_leffler(beta, z)


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(min_value=0.25, max_value=1.75),
    z1=st.floats(min_value=0.0, max_value=5.0),
    z2=st.floats(min_value=0.0, max_value=5.0),
)
def test_monotone_and_at_least_one_on_nonnegative_axis(beta, z1, z2):
    lo, hi = sorted((z1, z2))
    v_lo = specfun.mittag_leffler(beta, lo)
    v_hi = specfun.mittag_leffler(beta, hi)
    assert v_lo >= 1.0 - 1e-12
    assert v_hi >= v_lo - 1e-12 * max(1.0, abs(v_hi))
