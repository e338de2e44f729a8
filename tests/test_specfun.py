"""Mittag-Leffler evaluation against independent references.

The references here never call back into the package: exp and erfc come
from the stdlib, and the direct series below is a naive lgamma summation
written independently of the production evaluator.
"""

import math
import warnings
from fractions import Fraction

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


# ---------------------------------------------------------------------------
# The array path against the scalar series, one argument at a time


def fraction_series_beta1(z: float) -> float:
    """E_1(z) = sum z^n / n! summed in Fraction arithmetic, stopping at the
    first n >= 4 with |term n| <= 1e-22 |sum|."""
    zf, acc, term = Fraction(z), Fraction(1), Fraction(1)
    for n in range(1, specfun._SERIES_TERMS_MAX):
        term = term * zf / n
        acc += term
        if n >= 4 and abs(term) <= abs(acc) * Fraction(1, 10**22):
            return float(acc)
    raise AssertionError(f"no convergence at z={z}")


def test_exact_beta1_series_matches_the_fraction_sum_bit_for_bit():
    # check 1's points, and uniform points on the same range
    zs = np.concatenate([np.linspace(-5.0, 5.0, 201), np.random.default_rng(0).uniform(-5.0, 5.0, 2000)])
    for z in zs.tolist() + [0.0, -0.0, 1e-300, -30.0, 30.0]:
        assert specfun._series_exact_beta1(z) == fraction_series_beta1(z), z


def scalar_series(beta: float, z: float) -> float:
    """E_beta(z) by the power series for one finite z, term by term."""
    if beta == 1.0:
        return specfun._series_exact_beta1(z)
    # term_n = z^n / Gamma(n beta + 1); consecutive-term ratios are computed in
    # the log domain, starting from term_0 = 1
    terms = [1.0]
    t = 1.0
    lg_prev = 0.0  # lgamma(1)
    small_streak = 0
    running = 1.0
    for n in range(1, specfun._SERIES_TERMS_MAX):
        lg_next = math.lgamma(n * beta + 1.0)
        t *= z * math.exp(lg_prev - lg_next)
        lg_prev = lg_next
        if not math.isfinite(t) or abs(t) > 1e290:
            raise specfun.PrecisionError(f"series overflowed at term {n} (beta={beta}, z={z})")
        terms.append(t)
        running += t
        if abs(t) <= 1e-17 * max(abs(running), 1e-250):
            small_streak += 1
            if small_streak >= 2 and n >= 4:
                return math.fsum(terms)
        else:
            small_streak = 0
    raise specfun.PrecisionError(f"series did not converge (beta={beta}, z={z})")


@pytest.mark.parametrize(
    "beta, y_lo, y_hi",
    [
        (1 / 3, 5.0, 650.0 ** (1 / 3)),  # wide rows: up to ~2500 terms over 280 decades
        (1 / 3, -1.8, 2.68),  # check 2's range, and alternating rows down to the cancellation limit
        (0.5, -2.5, 11.9),
        (2 / 3, -3.5, 11.9),
    ],
)
def test_series_rows_equal_fsum_in_array_order_bit_for_bit(beta, y_lo, y_hi):
    y = np.linspace(y_lo, y_hi, 61)
    got = specfun._series_rows(beta, y)
    for v, g in zip(y.tolist(), got.tolist()):
        assert g == scalar_series(beta, v), (beta, v)


def scalar_mittag_leffler(beta: float, z: float) -> float:
    """E_beta(z) for one finite z: the series below the switch, else the asymptotic expansion."""
    if z < specfun._SWITCH_THRESHOLD:
        return scalar_series(beta, z)
    rate = z ** (1.0 / beta)
    if rate > 700.0:
        raise specfun.PrecisionError(f"E_{beta}({z}) overflows")
    return math.exp(rate) / beta - specfun._asymptotic_poly(beta, z)


def scalar_f_beta(beta: float, z: float) -> float:
    """F_beta(z) = E_beta(z^beta) for one z >= 0."""
    return 1.0 if z == 0.0 else scalar_mittag_leffler(beta, z**beta)


def scalar_log_mittag_leffler(beta: float, z: float) -> float:
    """ln E_beta(z), z >= 0, one argument at a time through the scalar series."""
    rate = z ** (1.0 / beta) if z > 0.0 else 0.0
    if z < specfun._SWITCH_THRESHOLD and rate <= 650.0:
        return math.log(scalar_series(beta, z))
    correction = 0.0
    if rate < 745.0:
        poly = specfun._asymptotic_poly(beta, z)
        correction = math.log1p(-beta * poly * math.exp(-rate))
    return rate - math.log(beta) + correction


def scalar_log_f_beta(beta: float, z: float) -> float:
    """ln F_beta(z) = ln E_beta(z^beta), z >= 0, one argument at a time."""
    if z == 0.0:
        return 0.0
    if beta * math.log(z) < math.log(specfun._SWITCH_THRESHOLD) and z <= 650.0:
        return math.log(scalar_series(beta, z**beta))
    correction = 0.0
    if z < 745.0:
        poly = specfun._asymptotic_poly(beta, z**beta)
        correction = math.log1p(-beta * poly * math.exp(-z))
    return z - math.log(beta) + correction


def _edges(points):
    return [v for p in points for v in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


# z = 0; both sides of the series/asymptotic switch, of the 650 series cap
# and of the 745 cutoff of the asymptotic correction
def _f_beta_args(beta):
    special = [0.0, 5e-324, 1e-300] + _edges([12.0 ** (1.0 / beta), 650.0, 745.0])
    return np.array(special + list(np.linspace(0.0, 650.0, 161)) + [1e4])


def _mittag_leffler_args(beta):
    special = [0.0, 5e-324, 1e-300] + _edges([specfun._SWITCH_THRESHOLD, 650.0**beta, 745.0**beta])
    return np.array(special + list(np.linspace(0.0, 650.0**beta, 161)) + [1e4**beta])


def _check_1_args():
    # the non-negative arguments of acceptance check 1
    betas = (1.0 / 3.0, 0.5, 2.0 / 3.0)
    zs = np.linspace(0.05, 12.0, 40)
    f_args = {b: zs for b in betas}
    ml_args = {b: np.concatenate([[0.0], zs**b]) for b in betas}
    ml_args[0.5] = np.append(ml_args[0.5], 1.0)
    ml_args[1.0] = np.linspace(0.0, 5.0, 101)
    return f_args, ml_args


def _check_2_args():
    # theta t on check 2's grid, for its two renewal problems
    t = np.linspace(0.0, 1.0, 4097)
    out = {}
    for b, beta in ((1.0, 1.0 / 3.0), (2.0, 0.5)):
        theta = (b * math.gamma(beta)) ** (1.0 / beta)
        out[beta] = theta * t
    return out


def _signed_args():
    # both sides of zero and of the switch; the most negative of these
    # overflow the series at beta 1/3
    return np.concatenate([np.linspace(-12.0, 12.0, 241), _edges([0.0, specfun._SWITCH_THRESHOLD])])


def assert_matches_scalar(fn, scalar_fn, beta, z):
    got = fn(beta, z)
    ref = np.array([scalar_fn(beta, float(v)) for v in z])
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # the array path forms every term, sum and logarithm as the scalar path does
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("beta", BETAS)
def test_array_path_matches_scalar_on_zero_to_650(beta):
    assert_matches_scalar(specfun.log_f_beta, scalar_log_f_beta, beta, _f_beta_args(beta))
    assert_matches_scalar(
        specfun.log_mittag_leffler, scalar_log_mittag_leffler, beta, _mittag_leffler_args(beta)
    )


def test_array_path_matches_scalar_on_check_1_arguments():
    f_args, ml_args = _check_1_args()
    for beta, z in f_args.items():
        assert_matches_scalar(specfun.log_f_beta, scalar_log_f_beta, beta, z)
    for beta, z in ml_args.items():
        assert_matches_scalar(specfun.log_mittag_leffler, scalar_log_mittag_leffler, beta, z)


def test_linear_functions_match_scalar_on_check_1_arguments():
    f_args, ml_args = _check_1_args()
    ml_args[1.0] = np.linspace(-5.0, 5.0, 201)
    for beta, z in f_args.items():
        assert_matches_scalar(specfun.f_beta, scalar_f_beta, beta, z)
        y = np.array([v**beta for v in z.tolist()])  # check 1's right-hand side
        assert_matches_scalar(specfun.mittag_leffler, scalar_mittag_leffler, beta, y)
    for beta, z in ml_args.items():
        assert_matches_scalar(specfun.mittag_leffler, scalar_mittag_leffler, beta, z)


@pytest.mark.parametrize("beta", BETAS)
def test_mittag_leffler_matches_scalar_on_signed_z(beta):
    z = _signed_args()
    raised = []
    for v in z.tolist():
        try:
            scalar_mittag_leffler(beta, v)
        except specfun.PrecisionError:
            raised.append(v)
    if beta == 1.0 / 3.0:
        assert raised  # the test reaches the overflow
    for v in raised:
        with pytest.raises(specfun.PrecisionError):
            specfun.mittag_leffler(beta, np.array([0.0, v]))
    # the array path also refuses the arguments whose alternating series cancels
    cancelled = []
    for v in z[~np.isin(z, raised)].tolist():
        try:
            specfun.mittag_leffler(beta, v)
        except specfun.PrecisionError as exc:
            assert v < 0.0 and "cancels" in str(exc)
            cancelled.append(v)
    assert cancelled
    kept = z[~np.isin(z, raised + cancelled)]
    assert_matches_scalar(specfun.mittag_leffler, scalar_mittag_leffler, beta, kept)


def test_mittag_leffler_half_matches_erfc_or_raises_on_negative_z():
    # E_{1/2}(z) = exp(z^2) erfc(-z): every value the series returns on
    # [-6, 0] holds to 1.5e-12 relative; from about z = -2.63 on it raises
    returned = 0
    for v in np.linspace(-6.0, 0.0, 601).tolist():
        ref = math.exp(v * v) * math.erfc(-v)
        try:
            got = specfun.mittag_leffler(0.5, v)
        except specfun.PrecisionError as exc:
            assert v < -2.6
            assert "beta=0.5" in str(exc) and f"z={v}" in str(exc)
            continue
        returned += 1
        assert abs(got - ref) <= 1.5e-12 * ref
    assert returned == 263  # z = -2.62 .. 0 in steps of 0.01
    for beta, z in ((0.5, -5.0), (1.0 / 3.0, -4.0), (2.0 / 3.0, -3.6)):
        with pytest.raises(specfun.PrecisionError, match=rf"cancels at beta={beta}, z={z}"):
            specfun.mittag_leffler(beta, np.array([1.0, z, 0.0]))


def test_series_overflow_raises_without_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(specfun.PrecisionError, match="overflowed at term"):
            specfun.mittag_leffler(1.0 / 3.0, -1e300)
        with pytest.raises(specfun.PrecisionError, match="overflowed at term"):
            specfun.mittag_leffler(1.0 / 3.0, np.linspace(-12.0, -11.0, 5))


@pytest.mark.parametrize(("beta", "z"), list(_check_2_args().items()))
def test_array_path_matches_scalar_on_check_2_arguments(beta, z):
    assert_matches_scalar(specfun.log_f_beta, scalar_log_f_beta, beta, z)


def test_chunking_does_not_change_values(monkeypatch):
    # the last 10 of 5000 arguments need rows of 2000-4000 terms; with 1000
    # doubles per block the rows run 15 down to one at a time
    z = np.concatenate([np.linspace(0.0, 60.0, 4990), np.linspace(600.0, 650.0, 10)])
    whole = specfun.log_f_beta(1.0 / 3.0, z)
    each = np.array([specfun.log_f_beta(1.0 / 3.0, v) for v in z[::10]])
    np.testing.assert_array_equal(whole[::10], each)
    monkeypatch.setattr(specfun, "_CHUNK_DOUBLES", 1000)
    np.testing.assert_array_equal(specfun.log_f_beta(1.0 / 3.0, z), whole)


ALL_FOUR = (specfun.log_f_beta, specfun.log_mittag_leffler, specfun.f_beta, specfun.mittag_leffler)


def test_array_path_shapes_and_types():
    assert type(specfun.log_f_beta(0.5, 2.0)) is float
    assert type(specfun.log_f_beta(0.5, np.float64(2.0))) is float
    assert type(specfun.log_mittag_leffler(0.5, np.array(2.0))) is float
    assert type(specfun.f_beta(0.5, 2.0)) is float
    assert type(specfun.mittag_leffler(0.5, np.float64(-2.0))) is float
    assert specfun.log_f_beta(0.5, 0.0) == 0.0
    assert specfun.f_beta(0.5, 0.0) == 1.0
    signed = specfun.mittag_leffler(0.5, np.array([[-2.5, -1.0], [0.0, 2.0]]))
    assert signed.shape == (2, 2) and signed[0, 0] == specfun.mittag_leffler(0.5, -2.5)
    for fn in ALL_FOUR:
        empty = fn(0.5, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        grid = np.arange(6.0).reshape(2, 3)
        vals = fn(0.5, grid)
        assert vals.shape == (2, 3)
        assert vals[1, 2] == fn(0.5, 5.0)
        assert fn(0.5, [1.0, 2.0]).shape == (2,)


@pytest.mark.parametrize("fn", ALL_FOUR)
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_array_path_rejects_bad_elements_by_name(fn, bad):
    if fn is specfun.mittag_leffler and bad == -1.0:
        assert fn(0.5, bad) == scalar_mittag_leffler(0.5, bad)  # E_beta takes z < 0
        return
    with pytest.raises(ValueError, match=rf"z={bad} at index 2 \(beta=0\.5\)"):
        fn(0.5, np.array([0.0, 1.0, bad, 3.0]))
    with pytest.raises(ValueError, match=rf"z={bad} \(beta=0\.5\)"):
        fn(0.5, bad)


def test_array_path_temporaries_stay_small():
    import tracemalloc

    # rows of 2000-4000 terms; evaluated unchunked they allocate 9.8 MiB
    z = np.linspace(550.0, 650.0, 100)
    tracemalloc.start()
    try:
        specfun.log_f_beta(1.0 / 3.0, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20  # 0.34 MiB with 64 KiB blocks


def test_array_path_keeps_nothing_between_calls():
    import tracemalloc

    z = np.linspace(0.0, 650.0, 200)
    specfun.log_f_beta(0.4, z)  # one-time interpreter and numpy state
    tracemalloc.start()
    try:
        for beta in (0.3, 0.6):
            specfun.log_f_beta(beta, z)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a ratio table kept per beta would hold 32 KiB each
    assert kept < 16 * 2**10


@pytest.mark.parametrize(("name", "beta", "z"), [
    # both failures in the series: term 1895 at y = 8.764 (index 9) comes
    # before term 1023 at y = 9.653, which a K-doubling pass meets first
    ("f_beta", 1.0 / 3.0, np.linspace(0.0, 11.9**3, 1200)[470:650]),
    # an asymptotic overflow at index 0, series cancellations further on
    ("mittag_leffler", 0.5, np.linspace(30.0, -6.0, 401)),
    # a series cancellation at index 0, before the asymptotic overflows
    ("mittag_leffler", 1.0 / 3.0, np.linspace(-6.0, 30.0, 401)),
    ("mittag_leffler", 2.0 / 3.0, np.array([-3.0, 5.0, 700.0, -10.0])),
])
def test_an_array_call_names_its_first_failing_element(name, beta, z):
    fn = getattr(specfun, name)
    for i, v in enumerate(z.tolist()):
        try:
            fn(beta, v)
        except specfun.PrecisionError as exc:
            first = str(exc)
            break
    fn(beta, z[:i])  # nothing before it fails
    with pytest.raises(specfun.PrecisionError) as info:
        fn(beta, z)
    assert str(info.value) == first
