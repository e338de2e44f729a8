"""Path simulation: scheme algebra, determinism, accounting, and the
conditional second-moment estimator against the deterministic oracle."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from fracheat import bounds, laplacian, sde
from fracheat.sde import (
    Discretization,
    SigmaSpec,
    _noise_chunks,
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
    _assert_every_entry_point_rejects(
        dataclasses.replace(desk_params, mu=0.2), desk_grid, desk_op, desk_params,
        r"params\.mu=0\.2 does not match grid\.mu=0\.1",
    )


def test_params_L_must_match_grid_L(desk_grid, desk_op, desk_params):
    _assert_every_entry_point_rejects(
        dataclasses.replace(desk_params, L=2.0), desk_grid, desk_op, desk_params,
        r"params\.L=2\.0 does not match grid\.L=1\.0",
    )


def test_params_alpha_must_match_the_operators(desk_grid, desk_op, desk_params):
    # an alpha-1.9 record would run on the alpha-1.5 operator, and
    # metadata.json would echo 1.9
    _assert_every_entry_point_rejects(
        dataclasses.replace(desk_params, alpha=1.9), desk_grid, desk_op, desk_params,
        r"params\.alpha=1\.9 does not match op\.config\.alpha=1\.5",
    )


def _assert_every_entry_point_rejects(params, grid, op, good, match):
    with pytest.raises(ValueError, match=match):
        run_ensemble(params, small_disc(grid), op, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match=match):
        estimate_second_moment_pair(params, small_disc(grid), op, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match=match):
        bounds.second_moment_volterra(params, op, grid, T=0.25, steps=16)
    with pytest.raises(ValueError, match=match):
        bounds.measure_growth_model(op, params, horizon=1.0)
    model = bounds.measure_growth_model(op, good, horizon=1.0)
    with pytest.raises(ValueError, match=match):  # the renewal branch reads the window too
        bounds.oracle_moment_curves(
            dataclasses.replace(params, lam=64.0), op, T=1.0, steps=256, model=model
        )


@pytest.mark.parametrize("engine", [run_ensemble, estimate_second_moment_pair])
def test_engines_share_one_input_check(engine, desk_grid, desk_op, desk_params):
    disc = small_disc(desk_grid)
    with pytest.raises(ValueError, match="worker_count must be >= 1, got 0"):
        engine(desk_params, disc, desk_op, n_paths=2, master_seed=0, worker_count=0)
    with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
        engine(desk_params, disc, desk_op, n_paths=0, master_seed=0)
    # the engines march disc.grid with the operator's matrices: they must agree
    wide = small_disc(laplacian.build_grid(L=2.0, n=desk_grid.n, mu=desk_grid.mu))
    with pytest.raises(ValueError, match=r"disc\.grid=.* is not the operator's grid"):
        engine(desk_params, wide, desk_op, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match=r"dt lambda1 = .* > 10"):
        engine(desk_params, small_disc(desk_grid, dt=2.5, t_end=2.5), desk_op, n_paths=2, master_seed=0)


def test_worker_count_never_changes_results(desk_grid, desk_op, desk_params):
    # 300 paths: three blocks, the last one partial, so the threaded branch runs
    disc = small_disc(desk_grid)
    ref = None
    for workers in (1, 2, 5):
        ens = run_ensemble(
            desk_params, disc, desk_op, n_paths=300, master_seed=77, worker_count=workers
        )
        if ref is None:
            ref = ens.snapshots
        assert np.array_equal(ens.snapshots, ref)


def test_map_blocks_pins_blas_to_one_thread_and_restores_it():
    blas = sde._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread hook is not available")
    before = blas.get()
    blas.set(2)
    try:
        # the serial branch keeps BLAS's own threads; the threaded branch runs one
        assert sde._map_blocks(lambda blk: blas.get(), 300, 1) == [2, 2, 2]
        assert sde._map_blocks(lambda blk: blas.get(), 300, 2) == [1, 1, 1]
        assert blas.get() == 2

        def boom(blk):
            raise RuntimeError(f"block {blk.start}")

        with pytest.raises(RuntimeError):
            sde._map_blocks(boom, 300, 2)
        assert blas.get() == 2
    finally:
        blas.set(before)


def test_threaded_ensemble_forms_its_factor_on_one_blas_thread(desk_grid, desk_op, desk_params, monkeypatch):
    # a multi-threaded factor product right before the workers start cost
    # about 40 ms per call at n=128, in OpenBLAS threads left spinning
    blas = sde._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread hook is not available")
    seen = []
    factor = sde.implicit_factor
    monkeypatch.setattr(sde, "implicit_factor", lambda op, dt: seen.append(blas.get()) or factor(op, dt))
    disc = Discretization(grid=desk_grid, dt=1.0 / 256.0, t_end=1.0 / 64.0, snapshot_times=(1.0 / 64.0,))
    before = blas.get()
    blas.set(2)
    try:
        for workers in (1, 2):
            run_ensemble(desk_params, disc, desk_op, n_paths=300, master_seed=5, worker_count=workers)
        assert seen == [2, 1]
        assert blas.get() == 2
    finally:
        blas.set(before)


def test_concurrent_threaded_maps_share_one_saved_blas_count():
    blas = sde._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread hook is not available")
    before, interval = blas.get(), sys.getswitchinterval()
    blas.set(2)
    seen = []
    sys.setswitchinterval(1e-6)
    try:
        # four callers, each a threaded map with more workers than cores; a
        # lost update of the saved count would leave BLAS at 1 thread
        callers = [
            threading.Thread(target=lambda: seen.extend(sde._map_blocks(lambda blk: blas.get(), 1280, 3)))
            for _ in range(4)
        ]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
            assert not t.is_alive()
        assert seen == [1] * 40
        assert blas.get() == 2
    finally:
        sys.setswitchinterval(interval)
        blas.set(before)


def test_map_blocks_without_blas_hook_is_bit_identical(desk_grid, desk_op, desk_params, monkeypatch):
    disc = small_disc(desk_grid)
    ref = run_ensemble(desk_params, disc, desk_op, n_paths=300, master_seed=8, worker_count=2)
    monkeypatch.setattr(sde, "_openblas", lambda: None)
    got = run_ensemble(desk_params, disc, desk_op, n_paths=300, master_seed=8, worker_count=2)
    assert np.array_equal(got.snapshots, ref.snapshots)


def test_noise_chunks_not_dividing_steps_match_whole_sheet(desk_grid, desk_op, desk_params, monkeypatch):
    # 16 steps in chunks of 5; snapshots at, inside and after chunk boundaries
    disc = Discretization(
        grid=desk_grid, dt=1.0 / 128.0, t_end=0.125, snapshot_times=(5 / 128, 0.0625, 0.125)
    )
    monkeypatch.setattr(sde, "_NOISE_CHUNK", disc.n_steps())
    whole = run_ensemble(desk_params, disc, desk_op, n_paths=20, master_seed=4)
    monkeypatch.setattr(sde, "_NOISE_CHUNK", 5)
    chunked = run_ensemble(desk_params, disc, desk_op, n_paths=20, master_seed=4)
    assert np.array_equal(chunked.snapshots, whole.snapshots)


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
        [(_, pairs)] = _noise_chunks(31, blk, 5, n, True)
        plain_blk = range(start // 2, start // 2 + 4)
        [(_, plain)] = _noise_chunks(31, plain_blk, 5, n, False)
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
    surviving = ens.snapshots[:, ~ens.flagged, :]
    assert np.all(np.isfinite(surviving))


def synthetic_ensemble(grid, params, snapshots):
    """A PathEnsemble around given snapshot values, one snapshot per row of
    ``snapshots`` at times 1/8, 2/8, ..."""
    n_snap, n_paths, _ = snapshots.shape
    times = tuple(0.125 * (k + 1) for k in range(n_snap))
    disc = Discretization(grid=grid, dt=0.125, t_end=times[-1], snapshot_times=times)
    return sde.PathEnsemble(
        n_paths=n_paths, master_seed=0, snapshot_times=disc.snapshot_times,
        snapshots=snapshots, flagged=np.isnan(snapshots).any(axis=(0, 2)),
        params=params, disc=disc,
    )


def test_write_csv_matches_the_per_row_format(tmp_path, desk_grid, desk_params):
    # 150 paths of 64 nodes: two full blocks and a short one per snapshot
    n_paths = 150
    assert n_paths % (sde._CSV_BLOCK_ROWS // desk_grid.n) != 0
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.integers(-300, 300, (2, n_paths, 1))
    snaps = rng.standard_normal((2, n_paths, desk_grid.n)) * scales
    snaps[:, 3, :] = np.nan  # a flagged path
    snaps[1, 70, :4] = (-0.0, 5e-324, 1e300, -1e300)
    ens = synthetic_ensemble(desk_grid, desk_params, snaps)
    path = tmp_path / "ens.csv"
    ens.write_csv(path)
    expected = ["path,t,x,u\n"]
    for k, t in enumerate(ens.snapshot_times):
        for p in range(n_paths):
            row = snaps[k, p]
            for i, x in enumerate(float(v) for v in desk_grid.nodes):
                expected.append(f"{p},{float(t)!r},{x!r},{float(row[i])!r}\n")
    assert path.read_text() == "".join(expected)
    assert "\n70,0.25," + repr(float(desk_grid.nodes[0])) + ",-0.0\n" in path.read_text()


def test_write_csv_memory_does_not_grow_with_paths(tmp_path, desk_grid, desk_params):
    peaks = {}
    for n_paths in (512, 4096):
        snaps = np.random.default_rng(n_paths).standard_normal((1, n_paths, desk_grid.n))
        ens = synthetic_ensemble(desk_grid, desk_params, snaps)
        tracemalloc.start()
        try:
            ens.write_csv(tmp_path / f"ens{n_paths}.csv")
            peaks[n_paths] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 8x the paths: a writer that held the file's text would peak about 8x higher
    assert peaks[4096] < 1.5 * peaks[512]


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
    # record the noise and conditioning-time states each resolution integrates
    # (2 cond = 8 fine steps: one noise chunk)
    seen = []

    def spy(x, noise, lam, dx, MT, g):
        real_branch(x, noise, lam, dx, MT, g)
        seen.append((noise.copy(), x[0].copy()))

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


def desk_forms(grid, op, params):
    """Adjoint forms at dt = 1/256 over 32 steps, conditioned at step 16."""
    return sde._conditional_forms(params, op, grid, 1.0 / 256.0, 32, 16)


def test_conditional_forms_are_symmetric(desk_grid, desk_op, desk_params):
    # the contraction's (u-y)'A_x(u+y) identity rests on A_x = A_x'
    _MT, _g, A, _cv = desk_forms(desk_grid, desk_op, desk_params)
    asym = np.abs(A - A.transpose(0, 2, 1)).max(axis=(1, 2))
    assert np.all(asym <= 1e-13 * np.abs(A).max(axis=(1, 2)))


def node_basis_forms(params, op, grid, dt, n_steps, cond_steps):
    """Reference A_x and cv_mean: the batched node-basis march M'AM over all n rows."""
    M = laplacian.implicit_factor(op, dt)
    c = (params.lam * params.sigma.L_sigma) ** 2 * dt / grid.dx
    g = laplacian.apply_semigroup(op, dt * np.arange(cond_steps + 1), params.u0)
    n = grid.n
    idx = np.arange(n)
    A = np.zeros((n, n, n))
    A[idx, idx, idx] = 1.0
    for _ in range(n_steps - cond_steps):
        B = M.T[None, :, :] @ A @ M[None, :, :]
        B[:, idx, idx] *= 1.0 + c
        A = B
    Lam = np.zeros((n, n))
    Q = np.zeros((n, n))
    for k in range(cond_steps):
        Q = M @ (Q + c * np.diag(np.diag(Lam))) @ M.T
        Lam = M @ (Lam + c * np.diag(g[k] ** 2)) @ M.T
    gs = g[cond_steps]
    cv_mean = (
        np.einsum("i,xij,j->x", gs, A, gs)
        + np.einsum("xij,ij->x", A, Lam)
        + np.einsum("xij,ij->x", A, Q)
    )
    return A, cv_mean


# check 4's two resolutions (dt 1/1024 and 1/2048 to T = 0.5, conditioned at
# T/8) on grids of odd and even n: the mirrored rows are exercised both ways
@pytest.mark.parametrize(
    ("n", "dt", "n_steps", "cond_steps"),
    [
        (16, 1.0 / 1024.0, 512, 64),
        (17, 1.0 / 2048.0, 1024, 128),
        (64, 1.0 / 1024.0, 512, 64),
        (64, 1.0 / 2048.0, 1024, 128),
    ],
)
def test_eigenbasis_forms_match_the_node_basis_march(n, dt, n_steps, cond_steps):
    grid = laplacian.build_grid(L=1.0, n=n, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    params = make_params(grid)
    ref_A, ref_cv = node_basis_forms(params, op, grid, dt, n_steps, cond_steps)
    _MT, _g, A, cv = sde._conditional_forms(params, op, grid, dt, n_steps, cond_steps)
    scale = np.abs(ref_A).max(axis=(1, 2))
    assert np.all(np.abs(A - ref_A).max(axis=(1, 2)) <= 1e-11 * scale)
    assert np.all(np.abs(cv - ref_cv) <= 1e-11 * np.abs(ref_cv))


@pytest.mark.parametrize("lam", [16.0, 32.0, 64.0])
def test_conditional_forms_overflow_fails_loudly(desk_grid, desk_op, lam):
    # check 4's grid and steps: from lam 16 on the forms leave the double range
    params = make_params(desk_grid, lam=lam)
    disc = Discretization(grid=desk_grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,))
    with pytest.raises(OverflowError, match=rf"lam={lam}, dt=0\.0009765625 in adjoint step \d+ of 448"):
        estimate_second_moment_pair(params, disc, desk_op, n_paths=128, master_seed=3)


def test_estimator_overflow_fails_loudly(desk_grid, desk_op):
    # check 4's grid at lam 8: the forms stay finite, but the squared form
    # gaps of the paths overflow in the stderr sums
    params = make_params(desk_grid, lam=8.0)
    disc = Discretization(grid=desk_grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,))
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match=r"lam=8\.0, dt=0\.0009765625"):
        estimate_second_moment_pair(params, disc, desk_op, n_paths=16, master_seed=0)


@pytest.mark.parametrize("n", [64, 128])
def test_conditional_forms_peak_memory(n):
    grid = laplacian.build_grid(L=1.0, n=n, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    params = make_params(grid)
    dt = 1.0 / 1024.0
    tracemalloc.start()
    try:
        _MT, _g, A, _cv = sde._conditional_forms(params, op, grid, dt, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A itself plus at most twice its size in march tables and temporaries
    assert peak <= 3 * A.nbytes


def test_form_gaps_match_the_two_quadratic_forms(desk_grid, desk_op, desk_params):
    _MT, _g, A, _cv = desk_forms(desk_grid, desk_op, desk_params)
    rng = np.random.default_rng(5)
    # 200 paths: more than one contraction chunk, and not a multiple of it
    u = desk_params.u0 + 0.3 * rng.standard_normal((200, desk_grid.n))
    y = u + 0.05 * rng.standard_normal(u.shape)
    uau = np.einsum("pi,xij,pj->px", u, A, u, optimize=True)
    yay = np.einsum("pi,xij,pj->px", y, A, y, optimize=True)
    gaps = sde._form_gaps(A, u, y)
    scale = max(np.abs(uau).max(), np.abs(yay).max())
    assert np.abs(gaps - (uau - yay)).max() <= 1e-12 * scale
    # a flagged (non-finite) path spoils its own row only
    u[7] = np.nan
    spoiled = sde._form_gaps(A, u, y)
    assert np.all(np.isnan(spoiled[7]))
    assert np.array_equal(np.delete(spoiled, 7, axis=0), np.delete(gaps, 7, axis=0))


def test_stacked_chaos_march_matches_three_matmul_march(desk_grid, desk_op, desk_params):
    MT, g, _A, _cv = desk_forms(desk_grid, desk_op, desk_params)
    dx, lam, steps = desk_grid.dx, 1.7, 16
    rng = np.random.default_rng(8)
    noise = rng.standard_normal((10, steps, desk_grid.n)) * math.sqrt(dx / 256.0)
    # reference: one (B, n) @ (n, n) product per chaos term and step
    u = np.tile(desk_params.u0, (10, 1))
    ell = np.zeros_like(u)
    q = np.zeros_like(u)
    for s in range(steps):
        dW = noise[:, s, :] / dx
        q = (q + lam * ell * dW) @ MT
        ell = (ell + lam * g[s] * dW) @ MT
        u = (u + lam * u * dW) @ MT
    y = g[steps] + ell + q
    # the stepper marches in place, chunk by chunk, g read from each chunk's first step
    x = np.zeros((3, 10, desk_grid.n))
    x[0] = desk_params.u0
    for lo, hi in ((0, 6), (6, steps)):
        sde._rb_branch(x, noise[:, lo:hi], lam, dx, MT, g[lo:])
    got_u, got_y = x[0], g[steps] + x[1] + x[2]
    assert np.abs(got_u - u).max() <= 1e-12 * np.abs(u).max()
    assert np.abs(got_y - y).max() <= 1e-12 * np.abs(y).max()


def test_pair_estimator_noise_chunk_length_never_changes_results(desk_grid, desk_op, desk_params, monkeypatch):
    # 2 cond = 32 fine steps: one chunk, chunks of 6 (not dividing 32) and of 2
    disc = small_disc(desk_grid, dt=1.0 / 256.0, t_end=0.5)
    ref = None
    for chunk in (32, 6, 2):
        monkeypatch.setattr(sde, "_NOISE_CHUNK", chunk)
        pair = estimate_second_moment_pair(desk_params, disc, desk_op, n_paths=130, master_seed=23)
        got = [(e.values, e.stderr, e.flagged_count) for e in pair]
        if ref is None:
            ref = got
        for (values, stderr, flagged), (ref_values, ref_stderr, ref_flagged) in zip(got, ref):
            assert np.array_equal(values, ref_values)
            assert np.array_equal(stderr, ref_stderr)
            assert flagged == ref_flagged


def test_pair_estimator_memory_does_not_grow_with_t_end():
    grid = laplacian.build_grid(L=1.0, n=16, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    params = make_params(grid)
    # a short run first fills the operator's caches at dt and dt/2
    estimate_second_moment_pair(params, small_disc(grid, dt=1.0 / 256.0), op, n_paths=128, master_seed=6)
    peaks = {}
    for t_end in (1.0, 4.0):
        disc = small_disc(grid, dt=1.0 / 256.0, t_end=t_end)
        tracemalloc.start()
        try:
            estimate_second_moment_pair(params, disc, op, n_paths=128, master_seed=6)
            peaks[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 4x the horizon: noise held for the whole conditioning time would peak about 4x higher
    assert max(peaks.values()) < 1.25 * min(peaks.values())


def test_pair_estimator_worker_count_never_changes_results(desk_grid, desk_op, desk_params):
    # 300 paths: three blocks, the last one partial
    disc = small_disc(desk_grid, dt=1.0 / 256.0)
    ref = None
    for workers in (1, 2, 3):
        pair = estimate_second_moment_pair(
            desk_params, disc, desk_op, n_paths=300, master_seed=19, worker_count=workers
        )
        got = [(e.values, e.stderr, e.flagged_count) for e in pair]
        if ref is None:
            ref = got
        for (values, stderr, flagged), (ref_values, ref_stderr, ref_flagged) in zip(got, ref):
            assert np.array_equal(values, ref_values)
            assert np.array_equal(stderr, ref_stderr)
            assert flagged == ref_flagged


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
