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

All four functions take a scalar (float out) or an array (array of the
same shape out), so a whole curve is one call; mittag_leffler also takes
z < 0, where it raises PrecisionError once the alternating series cancels
more than four digits.  Their series rows share one table of term ratios
e_n = Gamma((n-1) beta + 1) / Gamma(n beta + 1) per call, extended as rows
need more terms: the terms of each row are a running product of y e_n,
summed with fsum once two consecutive terms fall below 1e-17 of the running
sum.  Powers and transcendentals are taken element by element with math, so
an element's value does not depend on the array it came in.  z is taken in
chunks of 512 points and rows in blocks of 64 KiB, and no table is kept
between calls.  The series/asymptotic switch applies per element.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
# At z < 0 the series alternates; a row whose terms sum in magnitude to more
# than _CANCELLATION_MAX times its value has lost too many digits and raises.
_CANCELLATION_MAX = 1e4
# The array path takes z in chunks of _CHUNK_POINTS and evaluates series
# rows in blocks of at most _CHUNK_DOUBLES doubles (64 KiB), which bounds
# each of its temporaries.
_CHUNK_DOUBLES = 1 << 13
_CHUNK_POINTS = 512


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


class _RatioTable:
    """e_n = exp(lgamma((n-1) beta + 1) - lgamma(n beta + 1)), n = 1..K, for one array call.

    Formed element by element with math.lgamma and math.exp, and extended
    when a row needs more terms.  It lives only for its call, so the array
    path holds no memory between calls.
    """

    def __init__(self, beta: float) -> None:
        self.beta = beta
        self.lg = [0.0]  # lgamma(n beta + 1) for n = 0, 1, ...
        self.e = np.empty(0)

    def first(self, K: int) -> np.ndarray:
        if self.e.size < K:
            lg = self.lg
            lg += [math.lgamma(n * self.beta + 1.0) for n in range(len(lg), K + 1)]
            self.e = np.array([math.exp(lg[n - 1] - lg[n]) for n in range(1, K + 1)])
        return self.e[:K]


def _series_rows(beta: float, y: np.ndarray, ratios: _RatioTable) -> np.ndarray:
    """E_beta(y) by the power series for each finite y of a 1-D array.

    Row i holds the terms 1, y_i e_1, (y_i e_1)(y_i e_2), ... and their
    running sums.  A row stops at the first n >= 4 whose terms n-1 and n are
    both at most 1e-17 |running sum|, and is summed with fsum; rows that have
    not stopped after K terms are redone with 2K.  A term beyond 1e290 in
    magnitude before the stop raises PrecisionError, as does a row at y < 0
    whose sum of |terms| exceeds _CANCELLATION_MAX times |sum|.  At beta = 1
    the sum is exact (_series_exact_beta1).
    """
    if beta == 1.0:
        return np.array([_series_exact_beta1(v) for v in y.tolist()])
    out = np.empty(y.size)
    pending = np.arange(y.size)
    K = 64
    while pending.size:
        e = ratios.first(K)
        rows = max(1, _CHUNK_DOUBLES // (K + 1))
        left = []
        for lo in range(0, pending.size, rows):
            idx = pending[lo : lo + rows]
            terms = np.empty((idx.size, K + 1))
            terms[:, 0] = 1.0
            np.multiply(y[idx, None], e, out=terms[:, 1:])
            # an overflowing row is reported as PrecisionError below
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply.accumulate(terms, axis=1, out=terms)
                mag = np.abs(terms)
                small = mag <= 1e-17 * np.maximum(np.abs(np.cumsum(terms, axis=1)), 1e-250)
            stop = small[:, 4:] & small[:, 3:-1]  # column j: terms j+3 and j+4 both small
            done = stop.any(axis=1)
            last = np.where(done, stop.argmax(axis=1) + 4, K)
            huge = ~(mag <= 1e290) & (np.arange(K + 1) <= last[:, None])
            if huge.any():
                i, n = np.argwhere(huge)[0]
                raise PrecisionError(
                    f"Mittag-Leffler series overflowed at term {n} (beta={beta}, z={y[idx[i]]}); "
                    "use log_mittag_leffler"
                )
            for i in np.flatnonzero(done).tolist():
                total = out[idx[i]] = math.fsum(terms[i, : last[i] + 1].tolist())
                if y[idx[i]] < 0.0 and mag[i, : last[i] + 1].sum() > _CANCELLATION_MAX * abs(total):
                    raise PrecisionError(
                        f"Mittag-Leffler series cancels at beta={beta}, z={y[idx[i]]}: its terms "
                        f"sum to more than {_CANCELLATION_MAX:g} times |E_beta(z)| in magnitude"
                    )
            left.append(idx[~done])
        pending = np.concatenate(left)
        if pending.size and K == _SERIES_TERMS_MAX - 1:
            raise PrecisionError(
                f"Mittag-Leffler series did not converge in {_SERIES_TERMS_MAX} terms "
                f"(beta={beta}, z={y[pending[0]]})"
            )
        K = min(2 * K, _SERIES_TERMS_MAX - 1)
    return out


def _asymptotic_poly(beta: float, z: float) -> float:
    # sum_{k=1.._ASYMPTOTIC_ORDER} z^(-k) / Gamma(1 - beta*k); pole terms drop out.
    return math.fsum(z ** (-k) * _recip_gamma(1.0 - beta * k) for k in range(1, _ASYMPTOTIC_ORDER + 1))


def _beta_in_range(name: str, beta: float) -> float:
    beta = float(beta)
    if not (math.isfinite(beta) and 0.0 < beta < 2.0):
        raise ValueError(f"{name} requires beta in (0, 2), got {beta}")
    return beta


def _ml_chunk(beta: float, zs: np.ndarray, ratios: _RatioTable) -> np.ndarray:
    out = np.empty(zs.size)
    series = zs < _SWITCH_THRESHOLD
    out[series] = _series_rows(beta, zs[series], ratios)
    p = 1.0 / beta
    big = zs[~series].tolist()
    rates = [v**p for v in big]
    for v, rate in zip(big, rates):
        if rate > 700.0:
            raise PrecisionError(
                f"E_{beta}({v}) ~ exp({rate:.3g}) overflows double precision; use log_mittag_leffler"
            )
    out[~series] = [math.exp(rate) / beta - _asymptotic_poly(beta, v) for v, rate in zip(big, rates)]
    return out


def mittag_leffler(beta: float, z):
    """E_beta(z) for beta in (0, 2) and finite real z.

    z is a scalar (float out) or an array (array of its shape out).  Power
    series below _SWITCH_THRESHOLD, exponential asymptotic expansion
    (1/beta) exp(z^(1/beta)) - sum_k z^(-k)/Gamma(1 - beta k) at or above
    it, per element.  Raises PrecisionError when a value or a series term
    leaves double range, which log_mittag_leffler covers for z >= 0, and
    when the alternating series at z < 0 cancels beyond 1e4 (beta < 1:
    from about z = -1.9 at beta 1/3, -2.6 at 1/2, -3.6 at 2/3).
    """
    beta = _beta_in_range("mittag_leffler", beta)
    zs = _checked_z("mittag_leffler", beta, z, nonneg=False)
    return _shaped(z, _by_chunks(_ml_chunk, beta, zs))


def _log_rows(
    beta: float, y: np.ndarray, rate: np.ndarray, series: np.ndarray, ratios: _RatioTable
) -> np.ndarray:
    """ln E_beta(y) per element, with rate = y^(1/beta) and the series mask given.

    Series elements take ln of the series sum; the others the asymptotic
    rate - ln(beta) + ln1p(-beta poly e^-rate), whose correction is exactly
    negligible from rate 745 on.  Transcendental functions are applied
    element by element with math, as mittag_leffler applies them.
    """
    out = np.empty(y.size)
    if series.any():
        out[series] = [math.log(v) for v in _series_rows(beta, y[series], ratios).tolist()]
    asym = ~series
    out[asym] = rate[asym] - math.log(beta)
    near = asym & (rate < 745.0)
    out[near] += [
        math.log1p(-beta * _asymptotic_poly(beta, v) * math.exp(-r))
        for v, r in zip(y[near].tolist(), rate[near].tolist())
    ]
    return out


def _checked_z(name: str, beta: float, z, nonneg: bool) -> np.ndarray:
    """z as a flat float array, or ValueError naming beta and the first bad element."""
    flat = np.asarray(z, dtype=float).ravel()
    ok = np.isfinite(flat) & (flat >= 0.0) if nonneg else np.isfinite(flat)
    bad = np.flatnonzero(~ok)
    if bad.size:
        where = f" at index {bad[0]}" if np.ndim(z) else ""
        need = "finite z >= 0" if nonneg else "finite z"
        raise ValueError(f"{name} requires {need}, got z={flat[bad[0]]}{where} (beta={beta})")
    return flat


def _shaped(z, out: np.ndarray):
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def _by_chunks(fn, beta: float, zs: np.ndarray) -> np.ndarray:
    """fn(beta, chunk, ratios) over consecutive chunks of zs, so its
    per-element lists and temporaries stay small; the chunks share one
    table of term ratios."""
    out = np.empty(zs.size)
    ratios = _RatioTable(beta)
    for lo in range(0, zs.size, _CHUNK_POINTS):
        out[lo : lo + _CHUNK_POINTS] = fn(beta, zs[lo : lo + _CHUNK_POINTS], ratios)
    return out


def _log_ml_chunk(beta: float, zs: np.ndarray, ratios: _RatioTable) -> np.ndarray:
    p = 1.0 / beta
    rate = np.array([v**p if v > 0.0 else 0.0 for v in zs.tolist()])
    series = (zs < _SWITCH_THRESHOLD) & (rate <= 650.0)
    return _log_rows(beta, zs, rate, series, ratios)


def log_mittag_leffler(beta: float, z):
    """log E_beta(z) for z >= 0, finite for arbitrarily large arguments.

    z is a scalar (float out) or an array (array of its shape out).
    """
    beta = _beta_in_range("log_mittag_leffler", beta)
    zs = _checked_z("log_mittag_leffler", beta, z, nonneg=True)
    return _shaped(z, _by_chunks(_log_ml_chunk, beta, zs))


def f_beta(beta: float, z):
    """F_beta(z) = sum_n z^(n beta)/Gamma(n beta + 1) = E_beta(z^beta), z >= 0.

    z is a scalar (float out) or an array (array of its shape out).
    """
    beta = _beta_in_range("f_beta", beta)
    zs = _checked_z("f_beta", beta, z, nonneg=True)
    y = np.array([v**beta for v in zs.tolist()])
    return _shaped(z, _by_chunks(_ml_chunk, beta, y))


def _log_f_chunk(beta: float, zs: np.ndarray, ratios: _RatioTable) -> np.ndarray:
    zl = zs.tolist()
    y = np.array([v**beta for v in zl])
    log_switch = math.log(_SWITCH_THRESHOLD)
    series = np.array([v == 0.0 or (beta * math.log(v) < log_switch and v <= 650.0) for v in zl], dtype=bool)
    return _log_rows(beta, y, zs, series, ratios)


def log_f_beta(beta: float, z):
    """log F_beta(z) for z >= 0; finite even when F_beta(z) ~ exp(z) overflows.

    z is a scalar (float out) or an array (array of its shape out).
    F_beta(z) = E_beta(y) with y = z^beta and y^(1/beta) = z exactly.
    """
    beta = _beta_in_range("log_f_beta", beta)
    zs = _checked_z("log_f_beta", beta, z, nonneg=True)
    return _shaped(z, _by_chunks(_log_f_chunk, beta, zs))
