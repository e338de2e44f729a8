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
more than four digits.  The terms of each series row are a running product
of y e_n with the term ratios e_n = Gamma((n-1) beta + 1) / Gamma(n beta + 1),
summed with fsum once two consecutive terms fall below 1e-17 of the running
sum.  Powers and transcendentals are taken element by element with math, so
an element's value does not depend on the array it came in.  The whole
array is one pass; series rows are evaluated in blocks of 64 KiB, and
nothing is kept between calls.  The series/asymptotic switch applies per
element.
"""

from __future__ import annotations

import math

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
# Series rows are evaluated in blocks of at most _CHUNK_DOUBLES doubles
# (64 KiB), which bounds each term-matrix temporary.
_CHUNK_DOUBLES = 1 << 13


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
    # series at negative z can be summed exactly; float summation tops out
    # near 1e-13 relative at z = -5 from cancellation.  With z = m / d (d a
    # power of 2) and den = d^n n!, the sum through term n is num / den and
    # term n is m^n / den: integers, so the stopping rule is exact and the
    # one division rounds the exact sum correctly.
    m, d = z.as_integer_ratio()
    num = den = power = 1
    for n in range(1, _SERIES_TERMS_MAX):
        power *= m
        num = num * d * n + power
        den *= d * n
        if n >= 4 and abs(power) * 10**22 <= abs(num):
            return num / den
    raise PrecisionError(f"Mittag-Leffler series (beta=1) did not converge in {_SERIES_TERMS_MAX} terms at z={z}")


def _term_ratios(beta: float, K: int) -> np.ndarray:
    """e_n = exp(lgamma((n-1) beta + 1) - lgamma(n beta + 1)) for n = 1..K, element by element."""
    lg = [math.lgamma(n * beta + 1.0) for n in range(K + 1)]
    return np.array([math.exp(lg[n - 1] - lg[n]) for n in range(1, K + 1)])


def _series_rows(beta: float, y: np.ndarray) -> np.ndarray:
    """E_beta(y) by the power series for each finite y of a 1-D array.

    Row i holds the terms 1, y_i e_1, (y_i e_1)(y_i e_2), ... and their
    running sums.  A row stops at the first n >= 4 whose terms n-1 and n are
    both at most 1e-17 |running sum|, and is summed with fsum from its
    largest term outward; rows that have not stopped after K terms are
    redone with 2K.  A term beyond 1e290 in magnitude before the stop
    raises PrecisionError, as does a row at y < 0 whose sum of |terms|
    exceeds _CANCELLATION_MAX times |sum|: the first failing row's error in
    array order, as a call on that element alone gives it.  At beta = 1 the
    sum is exact (_series_exact_beta1).
    """
    if beta == 1.0:
        return np.array([_series_exact_beta1(v) for v in y.tolist()])
    out = np.empty(y.size)
    pending = np.arange(y.size)
    K, error = 64, None  # error: the earliest failing row's; only rows before it stay pending
    while pending.size:
        e = _term_ratios(beta, K)
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
            cut = idx.size  # the rows of this chunk before its first failing one
            if huge.any():
                cut, n = np.argwhere(huge)[0]
                error = PrecisionError(
                    f"Mittag-Leffler series overflowed at term {n} (beta={beta}, z={y[idx[cut]]}); "
                    "use log_mittag_leffler"
                )
            for i in np.flatnonzero(done[:cut]).tolist():
                # fsum is exact in any order; from the peak outward both runs
                # fall, so it carries few partials
                row, row_mag = terms[i, : last[i] + 1], mag[i, : last[i] + 1]
                peak = int(row_mag.argmax())
                total = out[idx[i]] = math.fsum(row[peak:].tolist() + row[:peak][::-1].tolist())
                if y[idx[i]] < 0.0 and row_mag.sum() > _CANCELLATION_MAX * abs(total):
                    error = PrecisionError(
                        f"Mittag-Leffler series cancels at beta={beta}, z={y[idx[i]]}: its terms "
                        f"sum to more than {_CANCELLATION_MAX:g} times |E_beta(z)| in magnitude"
                    )
                    cut = i
                    break
            left.append(idx[:cut][~done[:cut]])
            if cut < idx.size:
                break
        pending = np.concatenate(left)
        if pending.size and K == _SERIES_TERMS_MAX - 1:
            raise PrecisionError(
                f"Mittag-Leffler series did not converge in {_SERIES_TERMS_MAX} terms "
                f"(beta={beta}, z={y[pending[0]]})"
            )
        K = min(2 * K, _SERIES_TERMS_MAX - 1)
    if error is not None:
        raise error
    return out


def _asymptotic_poly(beta: float, z: float) -> float:
    # sum_{k=1.._ASYMPTOTIC_ORDER} z^(-k) / Gamma(1 - beta*k); pole terms drop out.
    return math.fsum(z ** (-k) * _recip_gamma(1.0 - beta * k) for k in range(1, _ASYMPTOTIC_ORDER + 1))


def _ml(beta: float, zs: np.ndarray) -> np.ndarray:
    out = np.empty(zs.size)
    series = zs < _SWITCH_THRESHOLD
    p = 1.0 / beta
    big = zs[~series].tolist()
    rates = [v**p for v in big]
    over = next((k for k, rate in enumerate(rates) if rate > 700.0), None)
    # an error names the first failing element in array order: the series
    # elements before an overflowing asymptotic one are summed first
    end = zs.size if over is None else int(np.flatnonzero(~series)[over])
    out[:end][series[:end]] = _series_rows(beta, zs[:end][series[:end]])
    if over is not None:
        raise PrecisionError(
            f"E_{beta}({big[over]}) ~ exp({rates[over]:.3g}) overflows double precision; use log_mittag_leffler"
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
    beta, zs = _checked("mittag_leffler", beta, z, nonneg=False)
    return _shaped(z, _ml(beta, zs))


def _log_rows(beta: float, y: np.ndarray, rate: np.ndarray, series: np.ndarray) -> np.ndarray:
    """ln E_beta(y) per element, with rate = y^(1/beta) and the series mask given.

    Series elements take ln of the series sum; the others the asymptotic
    rate - ln(beta) + ln1p(-beta poly e^-rate), whose correction is exactly
    negligible from rate 745 on.  Transcendental functions are applied
    element by element with math, as mittag_leffler applies them.
    """
    out = np.empty(y.size)
    if series.any():
        out[series] = [math.log(v) for v in _series_rows(beta, y[series]).tolist()]
    asym = ~series
    out[asym] = rate[asym] - math.log(beta)
    near = asym & (rate < 745.0)
    out[near] += [
        math.log1p(-beta * _asymptotic_poly(beta, v) * math.exp(-r))
        for v, r in zip(y[near].tolist(), rate[near].tolist())
    ]
    return out


def _checked(name: str, beta: float, z, nonneg: bool) -> tuple[float, np.ndarray]:
    """beta in (0, 2) and z as a flat float array, or ValueError naming the
    bad beta or (with beta) the first bad element of z."""
    beta = float(beta)
    if not (math.isfinite(beta) and 0.0 < beta < 2.0):
        raise ValueError(f"{name} requires beta in (0, 2), got {beta}")
    flat = np.asarray(z, dtype=float).ravel()
    ok = np.isfinite(flat) & (flat >= 0.0) if nonneg else np.isfinite(flat)
    bad = np.flatnonzero(~ok)
    if bad.size:
        where = f" at index {bad[0]}" if np.ndim(z) else ""
        need = "finite z >= 0" if nonneg else "finite z"
        raise ValueError(f"{name} requires {need}, got z={flat[bad[0]]}{where} (beta={beta})")
    return beta, flat


def _shaped(z, out: np.ndarray):
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def log_mittag_leffler(beta: float, z):
    """log E_beta(z) for z >= 0, finite for arbitrarily large arguments.

    z is a scalar (float out) or an array (array of its shape out).
    """
    beta, zs = _checked("log_mittag_leffler", beta, z, nonneg=True)
    p = 1.0 / beta
    rate = np.array([v**p if v > 0.0 else 0.0 for v in zs.tolist()])
    series = (zs < _SWITCH_THRESHOLD) & (rate <= 650.0)
    return _shaped(z, _log_rows(beta, zs, rate, series))


def f_beta(beta: float, z):
    """F_beta(z) = sum_n z^(n beta)/Gamma(n beta + 1) = E_beta(z^beta), z >= 0.

    z is a scalar (float out) or an array (array of its shape out).
    """
    beta, zs = _checked("f_beta", beta, z, nonneg=True)
    y = np.array([v**beta for v in zs.tolist()])
    return _shaped(z, _ml(beta, y))


def log_f_beta(beta: float, z):
    """log F_beta(z) for z >= 0; finite even when F_beta(z) ~ exp(z) overflows.

    z is a scalar (float out) or an array (array of its shape out).
    F_beta(z) = E_beta(y) with y = z^beta and y^(1/beta) = z exactly.
    """
    beta, zs = _checked("log_f_beta", beta, z, nonneg=True)
    zl = zs.tolist()
    y = np.array([v**beta for v in zl])
    log_switch = math.log(_SWITCH_THRESHOLD)
    series = np.array([v == 0.0 or (beta * math.log(v) < log_switch and v <= 650.0) for v in zl], dtype=bool)
    return _shaped(z, _log_rows(beta, y, zs, series))
