"""Gamma and Mittag-Leffler evaluation for moment-growth envelopes.

The one-parameter Mittag-Leffler function

    E_beta(z) = sum_{n>=0} z^n / Gamma(n*beta + 1)

and its companion

    F_beta(z) = sum_{n>=0} z^(n*beta) / Gamma(n*beta + 1) = E_beta(z^beta)

are the growth shapes produced by renewal inequalities with a weakly
singular kernel.  Arguments grow like lambda^2 * t^beta, so for large
noise levels the values leave double-precision range; the log-domain
companions (log_mittag_leffler, log_f_beta) stay finite there and are
what the envelope-fitting code consumes.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "PrecisionError",
    "gamma",
    "mittag_leffler",
    "log_mittag_leffler",
    "f_beta",
    "log_f_beta",
]


class PrecisionError(ArithmeticError):
    """Requested accuracy is unattainable with the given configuration."""


# The power series is summed (at most _SERIES_TERMS_MAX terms) below
# _SWITCH_THRESHOLD; at or above it the exponential asymptotic expansion with
# _ASYMPTOTIC_ORDER algebraic correction terms is used.
_SERIES_TERMS_MAX = 4000
_SWITCH_THRESHOLD = 12.0
_ASYMPTOTIC_ORDER = 3


def gamma(x: float) -> float:
    """Gamma function on the positive half line.

    Negative arguments are not needed by any caller and are rejected so a
    silent reflection-formula sign slip cannot propagate into envelopes.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires a finite positive argument, got {x}")
    return math.gamma(x)


def _recip_gamma(x: float) -> float:
    """1/Gamma(x) for real x, zero at the poles x = 0, -1, -2, ...

    The asymptotic correction terms divide by Gamma(1 - beta*k), which can
    land on a pole (e.g. beta = 1/2, k = 2); the reciprocal vanishes there.
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _series_exact_beta1(z: float) -> float:
    # For beta = 1 the coefficients are exact factorials, so the alternating
    # series at negative z can be summed in rational arithmetic; float
    # summation tops out near 1e-13 relative at z = -5 from cancellation.
    zf = Fraction(z)
    acc = Fraction(1)
    term = Fraction(1)
    for n in range(1, _SERIES_TERMS_MAX):
        term = term * zf / n
        acc += term
        if n >= 4 and abs(term) <= abs(acc) * Fraction(1, 10**22):
            return float(acc)
    raise PrecisionError(f"Mittag-Leffler series (beta=1) did not converge in {_SERIES_TERMS_MAX} terms at z={z}")


def _series_float(beta: float, z: float) -> float:
    # term_n = z^n / Gamma(n beta + 1); consecutive-term ratios are computed in
    # the log domain, starting from term_0 = 1
    terms = [1.0]
    t = 1.0
    lg_prev = 0.0  # lgamma(1)
    small_streak = 0
    running = 1.0
    for n in range(1, _SERIES_TERMS_MAX):
        lg_next = math.lgamma(n * beta + 1.0)
        t *= z * math.exp(lg_prev - lg_next)
        lg_next, lg_prev = 0.0, lg_next
        if not math.isfinite(t) or abs(t) > 1e290:
            raise PrecisionError(
                f"Mittag-Leffler series overflowed at term {n} (beta={beta}, z={z}); "
                "use log_mittag_leffler"
            )
        terms.append(t)
        running += t
        if abs(t) <= 1e-17 * max(abs(running), 1e-250):
            small_streak += 1
            if small_streak >= 2 and n >= 4:
                return math.fsum(terms)
        else:
            small_streak = 0
    raise PrecisionError(f"Mittag-Leffler series did not converge in {_SERIES_TERMS_MAX} terms (beta={beta}, z={z})")


def _series(beta: float, z: float) -> float:
    if beta == 1.0:
        return _series_exact_beta1(z)
    return _series_float(beta, z)


def _asymptotic_poly(beta: float, z: float) -> float:
    # sum_{k=1.._ASYMPTOTIC_ORDER} z^(-k) / Gamma(1 - beta*k); pole terms drop out.
    return math.fsum(z ** (-k) * _recip_gamma(1.0 - beta * k) for k in range(1, _ASYMPTOTIC_ORDER + 1))


def _validate_beta_z(beta: float, z: float) -> tuple[float, float]:
    beta = float(beta)
    z = float(z)
    if not (math.isfinite(beta) and 0.0 < beta < 2.0):
        raise ValueError(f"mittag_leffler requires beta in (0, 2), got {beta}")
    if not math.isfinite(z):
        raise ValueError(f"mittag_leffler requires finite z, got {z}")
    return beta, z


def mittag_leffler(beta: float, z: float) -> float:
    """E_beta(z) for beta in (0, 2) and finite real z.

    Power series below _SWITCH_THRESHOLD, exponential asymptotic
    expansion (1/beta) exp(z^(1/beta)) - sum_k z^(-k)/Gamma(1 - beta k)
    at or above it.  Raises PrecisionError when the value or the series
    leaves double range; log_mittag_leffler covers that regime.
    """
    beta, z = _validate_beta_z(beta, z)
    if z < _SWITCH_THRESHOLD:
        return _series(beta, z)
    rate = z ** (1.0 / beta)
    if rate > 700.0:
        raise PrecisionError(
            f"E_{beta}({z}) ~ exp({rate:.3g}) overflows double precision; use log_mittag_leffler"
        )
    return math.exp(rate) / beta - _asymptotic_poly(beta, z)


def log_mittag_leffler(beta: float, z: float) -> float:
    """log E_beta(z) for z >= 0, finite for arbitrarily large arguments."""
    beta, z = _validate_beta_z(beta, z)
    if z < 0.0:
        raise ValueError(f"log_mittag_leffler requires z >= 0, got {z}")
    rate = z ** (1.0 / beta) if z > 0.0 else 0.0
    if z < _SWITCH_THRESHOLD and rate <= 650.0:
        return math.log(_series(beta, z))
    # log((1/beta) e^rate - poly) = rate - log(beta) + log1p(-beta * poly * e^-rate)
    correction = 0.0
    if rate < 745.0:  # below this exp(-rate) underflows and the term is exactly negligible
        poly = _asymptotic_poly(beta, z)
        correction = math.log1p(-beta * poly * math.exp(-rate))
    return rate - math.log(beta) + correction


def f_beta(beta: float, z: float) -> float:
    """F_beta(z) = sum_n z^(n beta)/Gamma(n beta + 1) = E_beta(z^beta), z >= 0."""
    beta = float(beta)
    z = float(z)
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"f_beta requires beta > 0, got {beta}")
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"f_beta requires finite z >= 0, got {z}")
    if z == 0.0:
        return 1.0
    if beta < 2.0:
        return mittag_leffler(beta, z**beta)
    # beta >= 2: the series in z^beta converges rapidly; no asymptotic branch needed.
    return _series_float(beta, z**beta)


def log_f_beta(beta: float, z: float) -> float:
    """log F_beta(z) for z >= 0; finite even when F_beta(z) ~ exp(z) overflows."""
    beta = float(beta)
    z = float(z)
    if not (math.isfinite(beta) and 0.0 < beta < 2.0):
        raise ValueError(f"log_f_beta requires beta in (0, 2), got {beta}")
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"log_f_beta requires finite z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    # F_beta(z) = E_beta(y) with y = z^beta and y^(1/beta) = z exactly.
    if beta * math.log(z) < math.log(_SWITCH_THRESHOLD) and z <= 650.0:
        return math.log(_series(beta, z**beta))
    correction = 0.0
    if z < 745.0:
        poly = _asymptotic_poly(beta, z**beta)
        correction = math.log1p(-beta * poly * math.exp(-z))
    return z - math.log(beta) + correction

