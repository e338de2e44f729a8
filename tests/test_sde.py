"""Path simulation: scheme algebra, determinism, accounting, and the
conditional second-moment estimator against the deterministic oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from fracheat import bounds, sde
from fracheat.sde import (
    Discretization,
    SigmaSpec,
    _draw_sheet,
    estimate_second_moment_pair,
    run_ensemble,
    sigma_eval,
    tent_profile,
)


def small_disc(grid, dt=1.0 / 128.0, t_end=0.125):
    return Discretization(grid=grid, dt=dt, t_end=t_end, snapshot_times=(t_end,))


def one_step_disc(grid, dt):
    return Discretization(grid=grid, dt=dt, t_end=dt, snapshot_times=(dt,))


def test_step_matches_manual_formula(desk_grid, desk_op, desk_params):
    dt, seed = 0.01, 11
    ens = run_ensemble(
        desk_params, one_step_disc(desk_grid, dt), desk_op, n_paths=1, master_seed=seed
    )
    # path 0 reads stream (seed, 0); its first row is the cell noise of step 1
    z = np.random.default_rng(np.random.SeedSequence((seed, 0))).standard_normal(desk_grid.n)
    u0 = desk_params.u0
    dw = z * math.sqrt(dt * desk_grid.dx)
    forced = u0 + desk_params.lam * sigma_eval(desk_params.sigma, u0) * dw / desk_grid.dx
    ref = np.linalg.solve(np.eye(desk_grid.n) - dt * desk_op.matrix, forced)
    assert np.allclose(ens.snapshots[0, 0], ref, rtol=1e-10, atol=1e-13)


def test_noise_increment_variance(desk_grid, desk_op, desk_params):
    # undo one implicit step to recover the cell increments dW the scheme applied
    dt = 0.02
    ens = run_ensemble(
        desk_params, one_step_disc(desk_grid, dt), desk_op, n_paths=500, master_seed=12
    )
    forced = ens.snapshots[-1] @ (np.eye(desk_grid.n) - dt * desk_op.matrix).T
    u0 = desk_params.u0
    dw = (forced - u0) * desk_grid.dx / (desk_params.lam * sigma_eval(desk_params.sigma, u0))
    assert dw.var() == pytest.approx(dt * desk_grid.dx, rel=0.05)


def test_step_dimension_mismatch(desk_grid, desk_op):
    disc = one_step_disc(desk_grid, 0.01)
    with pytest.raises(ValueError):
        run_ensemble(
            make_params(desk_grid, u0=np.ones(desk_grid.n - 1)), disc, desk_op,
            n_paths=1, master_seed=0,
        )
    with pytest.raises(ValueError):
        Discretization(grid=desk_grid, dt=0.0, t_end=0.01)


def test_params_mu_must_match_grid_mu(desk_grid, desk_op, desk_params):
    # the [mu, L-mu] window is the grid's; a different params.mu would be
    # silently overridden, so every entry point that takes both rejects it
    params = dataclasses.replace(desk_params, mu=0.2)
    match = r"params\.mu=0\.2 does not match grid\.mu=0\.1"
    with pytest.raises(ValueError, match=match):
        run_ensemble(params, small_disc(desk_grid), desk_op, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match=match):
        estimate_second_moment_pair(params, small_disc(desk_grid), desk_op, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match=match):
        bounds.second_moment_volterra(params, desk_op, desk_grid, T=0.25, steps=16)
    with pytest.raises(ValueError, match=match):
        bounds.measure_growth_model(desk_op, desk_grid, params)
    model = bounds.measure_growth_model(desk_op, desk_grid, desk_params)
    with pytest.raises(ValueError, match=match):  # the renewal branch reads the window too
        bounds.oracle_moment_curves(
            dataclasses.replace(params, lam=64.0), desk_op, desk_grid, T=1.0, steps=256, model=model
        )


def test_worker_count_never_changes_results(desk_grid, desk_op, desk_params):
    disc = small_disc(desk_grid)
    ref = None
    for workers in (1, 2, 5):
        ens = run_ensemble(
            desk_params, disc, desk_op, n_paths=30, master_seed=77, worker_count=workers
        )
        if ref is None:
            ref = ens.snapshots
        assert np.array_equal(ens.snapshots, ref)


def test_same_seed_same_paths_different_seed_differs(desk_grid, desk_op, desk_params):
    disc = small_disc(desk_grid)
    a = run_ensemble(desk_params, disc, desk_op, n_paths=8, master_seed=5)
    b = run_ensemble(desk_params, disc, desk_op, n_paths=8, master_seed=5)
    c = run_ensemble(desk_params, disc, desk_op, n_paths=8, master_seed=6)
    assert np.array_equal(a.snapshots, b.snapshots)
    assert not np.array_equal(a.snapshots, c.snapshots)


def test_path_count_extension_is_stable(desk_grid, desk_op, desk_params):
    # path k depends on (master_seed, k) only: growing the ensemble keeps old paths
    disc = small_disc(desk_grid)
    small = run_ensemble(desk_params, disc, desk_op, n_paths=6, master_seed=9)
    big = run_ensemble(desk_params, disc, desk_op, n_paths=12, master_seed=9)
    assert np.array_equal(big.snapshots[:, :6, :], small.snapshots)


def test_linear_scheme_homogeneity_is_bitexact(desk_grid, desk_op):
    disc = small_disc(desk_grid)
    base = run_ensemble(
        make_params(desk_grid), disc, desk_op, n_paths=10, master_seed=21
    )
    scaled = run_ensemble(
        make_params(desk_grid, u0=4.0 * tent_profile(desk_grid)),
        disc, desk_op, n_paths=10, master_seed=21,
    )
    assert np.array_equal(scaled.snapshots, 4.0 * base.snapshots)


def test_draw_sheet_antithetic_rows_negate_plain_streams(desk_grid, desk_op, desk_params):
    n = desk_grid.n
    for start in (0, 128):
        blk = range(start, start + 8)
        pairs = _draw_sheet(31, blk, 5, n, antithetic=True)
        plain = _draw_sheet(31, range(start // 2, start // 2 + 4), 5, n, antithetic=False)
        # pair j reads stream j once: row 2j replays it, row 2j+1 is its exact negation
        assert np.array_equal(pairs[0::2], plain)
        assert np.array_equal(pairs[1::2], -plain)
    with pytest.raises(ValueError):
        estimate_second_moment_pair(
            desk_params, small_disc(desk_grid), desk_op, n_paths=7, master_seed=31
        )


def test_flagged_paths_are_counted_and_quarantined(desk_grid, desk_op):
    # start near the top of double range so multiplicative growth overflows
    params = make_params(desk_grid, lam=8.0, u0=1e300 * tent_profile(desk_grid))
    disc = Discretization(
        grid=desk_grid, dt=1.0 / 64.0, t_end=0.5, snapshot_times=(0.25, 0.5)
    )
    ens = run_ensemble(params, disc, desk_op, n_paths=24, master_seed=13)
    assert 0 < ens.flagged_count <= 24
    assert ens.flagged_fraction == ens.flagged_count / 24
    surviving = ens.snapshots[:, ~ens.flagged, :]
    assert np.all(np.isfinite(surviving))


def test_conditional_estimator_tracks_oracle(desk_grid, desk_op, desk_params):
    disc = Discretization(
        grid=desk_grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,)
    )
    oracle = bounds.second_moment_volterra(
        desk_params, desk_op, desk_grid, T=0.5, steps=1024
    ).m[-1]
    est, _ = estimate_second_moment_pair(
        desk_params, disc, desk_op, n_paths=400, master_seed=2024
    )
    assert est.flagged_count == 0
    assert np.all(est.values > 0.0)
    assert np.all(est.stderr >= 0.0)
    assert est.conditioning_time == pytest.approx(64.0 / 1024.0)
    rel = np.max(np.abs(est.values - oracle) / oracle)
    assert rel <= 0.04  # dt bias ~2% plus a few-tenths-percent sampling band


def test_pair_estimator_layout(desk_grid, desk_op, desk_params):
    disc = Discretization(
        grid=desk_grid, dt=1.0 / 256.0, t_end=0.125, snapshot_times=(0.125,)
    )
    coarse, fine = estimate_second_moment_pair(
        desk_params, disc, desk_op, n_paths=64, master_seed=3
    )
    assert coarse.t == fine.t == pytest.approx(0.125)
    assert fine.dt == pytest.approx(0.5 * coarse.dt)
    assert coarse.conditioning_time == pytest.approx(fine.conditioning_time)
    assert coarse.values.shape == fine.values.shape == (desk_grid.n,)


def test_coupled_refinement_shares_noise(desk_grid, desk_op, desk_params, monkeypatch):
    # record the sheets and conditioning-time states each resolution integrates
    seen = []

    def spy(u0, noise, lam, dx, MT, g):
        u, y = real_branch(u0, noise, lam, dx, MT, g)
        seen.append((noise.copy(), u))
        return u, y

    real_branch = sde._rb_branch
    monkeypatch.setattr(sde, "_rb_branch", spy)
    disc = small_disc(desk_grid, dt=1.0 / 256.0)
    coarse, fine = estimate_second_moment_pair(
        desk_params, disc, desk_op, n_paths=12, master_seed=41
    )
    assert fine.dt == pytest.approx(0.5 * coarse.dt)
    assert coarse.t == fine.t
    (w_coarse, u_coarse), (w_fine, u_fine) = seen
    assert w_fine.shape[1] == 2 * w_coarse.shape[1]
    # one driving sheet: each coarse increment is the sum of two consecutive fine ones
    assert np.allclose(w_coarse, w_fine[:, 0::2, :] + w_fine[:, 1::2, :], rtol=1e-12, atol=1e-15)
    # so the resolutions are strongly correlated path by path, far above
    # anything two independent ensembles of this size produce
    corr = np.corrcoef(u_coarse.ravel(), u_fine.ravel())[0, 1]
    assert corr > 0.95


def test_conditional_estimator_rejects_nonlinear_sigma(desk_grid, desk_op):
    params = make_params(
        desk_grid, sigma=SigmaSpec(kind="bounded-linear", l_sigma=0.5, L_sigma=1.0)
    )
    disc = small_disc(desk_grid)
    with pytest.raises(ValueError):
        estimate_second_moment_pair(params, disc, desk_op, n_paths=4, master_seed=1)


def test_discretization_snapshot_snapping(desk_grid):
    disc = Discretization(
        grid=desk_grid, dt=0.03, t_end=0.3, snapshot_times=(0.1, 0.3)
    )
    for t in disc.snapshot_times:
        assert (t / disc.dt) == pytest.approx(round(t / disc.dt))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear", "bounded-linear"]),
    u=st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=8
    ),
)
def test_sigma_growth_sandwich(kind, u):
    l_sig = 0.5 if kind == "bounded-linear" else 1.3
    spec = SigmaSpec(kind=kind, l_sigma=l_sig, L_sigma=1.3)
    arr = np.array(u)
    out = np.asarray(sigma_eval(spec, arr))
    assert np.all(np.abs(out) <= spec.L_sigma * np.abs(arr) + 1e-12)
    assert np.all(np.abs(out) >= spec.l_sigma * np.abs(arr) - 1e-12)
    assert sigma_eval(spec, 0.0) == 0.0
