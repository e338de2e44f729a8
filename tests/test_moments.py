"""Moment functionals on path ensembles and the exponent fits."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from fracheat import bounds, moments


def with_snapshots(ensemble, snapshots):
    return dataclasses.replace(ensemble, snapshots=snapshots)


def test_constant_field_exact_values(small_ensemble, desk_grid):
    ens = with_snapshots(small_ensemble, np.ones_like(small_ensemble.snapshots))
    t = ens.snapshot_times[0]
    phi = moments.estimate_energy(ens, t, 2.0)
    # interior quadrature of the unit field: dx * n = L n/(n+1)
    assert phi.value == pytest.approx(math.sqrt(desk_grid.dx * desk_grid.n), rel=1e-12)
    assert phi.stderr == pytest.approx(0.0, abs=1e-14)
    assert phi.n_effective == ens.n_paths
    sup = moments.estimate_sup_moment(ens, t, 4.0)
    assert sup.value == pytest.approx(1.0, rel=1e-12)
    inf = moments.estimate_inf_subinterval_moment(ens, t, 2.0)
    assert inf.value == pytest.approx(1.0, rel=1e-12)


def test_scaling_homogeneity(small_ensemble):
    t = small_ensemble.snapshot_times[-1]
    base = moments.estimate_energy(small_ensemble, t, 2.0)
    scaled_ens = with_snapshots(small_ensemble, 8.0 * small_ensemble.snapshots)
    scaled = moments.estimate_energy(scaled_ens, t, 2.0)
    assert scaled.value == pytest.approx(8.0 * base.value, rel=1e-12)
    assert scaled.stderr == pytest.approx(8.0 * base.stderr, rel=1e-10)


@pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
def test_functional_orderings_on_real_paths(small_ensemble, desk_grid, p):
    for t in small_ensemble.snapshot_times:
        phi = moments.estimate_energy(small_ensemble, t, p)
        sup = moments.estimate_sup_moment(small_ensemble, t, p)
        inf = moments.estimate_inf_subinterval_moment(small_ensemble, t, p)
        width = desk_grid.L - 2.0 * desk_grid.mu
        assert inf.value <= sup.value + 1e-12
        assert phi.value**p <= desk_grid.L * sup.value * (1.0 + 1e-12)
        assert phi.value**p >= width * inf.value * (1.0 - 1e-12)


def test_flagged_rows_are_excluded(small_ensemble):
    bad = small_ensemble.snapshots.copy()
    bad[:, 3, :] = np.inf
    flags = small_ensemble.flagged.copy()
    flags[3] = True
    ens = dataclasses.replace(small_ensemble, snapshots=bad, flagged=flags)
    t = ens.snapshot_times[0]
    est = moments.estimate_energy(ens, t, 2.0)
    assert est.n_effective == ens.n_paths - 1
    assert est.flagged_fraction == pytest.approx(1.0 / ens.n_paths)
    assert math.isfinite(est.value)


def test_all_flagged_is_an_error(small_ensemble):
    ens = dataclasses.replace(
        small_ensemble,
        snapshots=np.full_like(small_ensemble.snapshots, np.inf),
        flagged=np.ones_like(small_ensemble.flagged),
    )
    with pytest.raises(ValueError, match="all .* paths are flagged"):
        moments.estimate_energy(ens, ens.snapshot_times[0], 2.0)


def test_moment_order_validation(small_ensemble):
    with pytest.raises(ValueError):
        moments.estimate_energy(small_ensemble, small_ensemble.snapshot_times[0], 1.5)
    with pytest.raises(ValueError):
        moments.MomentEstimate(value=1.0, stderr=-0.1, n_effective=10)


@pytest.mark.parametrize("p", [math.nan, math.inf])
@pytest.mark.parametrize(
    "estimator",
    [moments.estimate_energy, moments.estimate_sup_moment, moments.estimate_inf_subinterval_moment],
)
def test_estimators_refuse_a_non_finite_p(small_ensemble, estimator, p):
    with pytest.raises(ValueError, match=f"moment order p={p} must be finite and >= 2"):
        estimator(small_ensemble, small_ensemble.snapshot_times[0], p)


def test_p_threshold_warning_names_the_estimators_caller(small_ensemble, desk_grid, desk_op):
    # p=2 is at or below 2/(alpha-1)=4 at alpha 1.5: each estimator warns and
    # names this file, the line that asked for the moment
    t = small_ensemble.snapshot_times[0]
    with pytest.warns(UserWarning, match="2/\\(alpha-1\\)=4; ") as rec:
        moments.estimate_energy(small_ensemble, t, 2.0)
        moments.estimate_sup_moment(small_ensemble, t, 2.0)
        moments.estimate_inf_subinterval_moment(small_ensemble, t, 2.0)
    assert [w.filename for w in rec] == [__file__] * 3
    # p above the threshold is quiet, and nothing that only carries p warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments.estimate_sup_moment(small_ensemble, t, 4.5)
        params = make_params(desk_grid, p=2.0)
        dataclasses.replace(params, lam=2.0)
        bounds.oracle_sweep(desk_op, params.u0, params.sigma, (1.0,), T=0.25, steps=64)


def test_lyapunov_fit_recovers_synthetic_rates():
    t = np.linspace(0.0, 2.0, 21)
    growth = [(tk, math.log(5.0) + 2.0 * tk) for tk in t]
    decay = [(tk, math.log(3.0) - 1.0 * tk) for tk in t]
    g, ci = moments.fit_lyapunov_from_log(growth)
    d, _ = moments.fit_lyapunov_from_log(decay)
    assert g == pytest.approx(2.0, abs=1e-10)
    assert d == pytest.approx(-1.0, abs=1e-10)
    assert ci[0] <= g <= ci[1]


def test_lyapunov_fit_window_requirements():
    t = np.linspace(0.0, 2.0, 6)  # only 3 points land in [1, 2]
    with pytest.raises(ValueError, match="tail window"):
        moments.fit_lyapunov_from_log([(tk, tk) for tk in t])
    # ln of a zero moment: the error names the first such time in the window
    with pytest.raises(ValueError, match="at t=1.0 in the tail window"):
        moments.fit_lyapunov_from_log([(tk, -math.inf) for tk in np.linspace(0.0, 2.0, 21)])


@pytest.mark.parametrize("bad", (math.inf, math.nan))
def test_lyapunov_fit_rejects_non_finite_tail_values(bad):
    # the last two moments overflowed: a ValueError naming t, never a NaN slope
    t = np.linspace(0.0, 2.0, 21)
    series = [(tk, 1.0 + 2.0 * tk) for tk in t[:-2]] + [(tk, bad) for tk in t[-2:]]
    with pytest.raises(ValueError, match=re.escape(f"at t={float(t[-2])!r} in the tail window")):
        moments.fit_lyapunov_from_log(series)
    # a non-finite value outside the tail window is not used, so the fit stands
    early = [(t[0], bad)] + [(tk, 1.0 + 2.0 * tk) for tk in t[1:]]
    assert moments.fit_lyapunov_from_log(early)[0] == pytest.approx(2.0, abs=1e-10)


def test_excitation_fit_exact_on_synthetic_power_law():
    lams = [4.0 * 2.0**k for k in range(6)]
    e, ci = moments.fit_excitation_from_log([(lam, 0.3 * lam**1.2) for lam in lams])
    assert e == pytest.approx(1.2, abs=1e-12)
    assert ci[0] <= e <= ci[1]


def test_excitation_fit_requirements():
    lams = [4.0 * 2.0**k for k in range(6)]
    with pytest.raises(ValueError):
        moments.fit_excitation_from_log([(lam, lam) for lam in (1.0, 2.0, 3.0, 5.0, 9.0)])
    with pytest.raises(ValueError):
        moments.fit_excitation_from_log([(lam, lam) for lam in lams[:4]])
    # Phi <= e inside the fit half: the error names the offending level
    bad = [(lam, 5.0) for lam in lams[:-1]] + [(lams[-1], 0.5)]
    with pytest.raises(ValueError, match=str(lams[-1])):
        moments.fit_excitation_from_log(bad)


@pytest.mark.parametrize(("bad", "shown"), ((math.inf, "inf"), (math.nan, "nan"), (-math.inf, "0.0")))
def test_excitation_fit_rejects_non_finite_values(bad, shown):
    # ln Phi_p = inf at the top lambda: a ValueError naming lambda, never a NaN slope
    lams = [4.0 * 2.0**k for k in range(6)]
    table = [(lam, 0.3 * lam**1.2) for lam in lams[:-1]] + [(lams[-1], bad)]
    with pytest.raises(ValueError, match=re.escape(f"Phi_p={shown} at lambda={lams[-1]!r} ")):
        moments.fit_excitation_from_log(table)


def _row(lam):
    est = moments.MomentEstimate(value=1.0, stderr=0.0, n_effective=1)
    return moments.SweepRow(lam=lam, t=0.5, phi_p=est, sup_moment=est, inf_subinterval_moment=est)


@pytest.mark.parametrize(("call", "message"), [
    (lambda: moments.MomentEstimate(value=1.0, stderr=0.0, n_effective=-1), "n_effective must be nonnegative"),
    (lambda: moments.fit_lyapunov_from_log([]), "empty moment series"),
    (
        lambda: moments.fit_excitation_from_log([(lam, 5.0) for lam in (4.0, 4.0, 8.0, 16.0, 32.0)]),
        "lambda grid must be strictly increasing",
    ),
    (
        lambda: moments.fit_excitation_from_log([(lam, 5.0) for lam in (0.0, 1.0, 2.0, 4.0, 8.0)]),
        "all lambda must be positive",
    ),
    (lambda: moments.SweepResult(rows=[_row(-1.0)]), "all lambda must be non-negative"),
])
def test_estimates_fits_and_sweeps_refuse_what_they_cannot_hold(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sweep_result_validation_and_csv(tmp_path, small_ensemble, desk_grid):
    rows = []
    for lam in (1.0, 2.0):
        for t in small_ensemble.snapshot_times:
            rows.append(
                moments.SweepRow(
                    lam=lam,
                    t=float(t),
                    phi_p=moments.estimate_energy(small_ensemble, t, 2.0),
                    sup_moment=moments.estimate_sup_moment(small_ensemble, t, 2.0),
                    inf_subinterval_moment=moments.estimate_inf_subinterval_moment(
                        small_ensemble, t, 2.0
                    ),
                )
            )
    result = moments.SweepResult(rows=rows)
    path = tmp_path / "sweep.csv"
    result.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "lambda,t,phi_p,phi_p_se,sup_m,sup_m_se,inf_m,inf_m_se,n_eff,flagged"
    assert len(text.splitlines()) == len(rows) + 1
    with pytest.raises(ValueError):
        moments.SweepResult(rows=list(reversed(rows)))


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(min_value=2.0, max_value=6.0),
    c=st.floats(min_value=0.1, max_value=100.0),
)
def test_energy_homogeneity_property(small_ensemble, p, c):
    t = small_ensemble.snapshot_times[0]
    base = moments.estimate_energy(small_ensemble, t, p)
    scaled = moments.estimate_energy(
        dataclasses.replace(small_ensemble, snapshots=c * small_ensemble.snapshots), t, p
    )
    assert scaled.value == pytest.approx(c * base.value, rel=1e-9)


def test_overflowed_moments_are_inf_with_inf_stderr(small_ensemble):
    # finite paths whose |u|^p leaves double range: inf, never a NaN spread
    t = small_ensemble.snapshot_times[-1]
    huge = with_snapshots(small_ensemble, 1e200 * np.abs(small_ensemble.snapshots) + 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        estimates = [
            moments.estimate_energy(huge, t, 2.0),
            moments.estimate_sup_moment(huge, t, 2.0),
            moments.estimate_inf_subinterval_moment(huge, t, 2.0),
        ]
    for est in estimates:
        assert math.isinf(est.value) and math.isinf(est.stderr)
        assert est.n_effective == small_ensemble.n_paths
    # a finite mean whose spread overflows keeps its value; the stderr is inf
    spread = with_snapshots(small_ensemble, 1e150 * small_ensemble.snapshots)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sup = moments.estimate_sup_moment(spread, t, 2.0)
    assert math.isfinite(sup.value) and math.isinf(sup.stderr)
