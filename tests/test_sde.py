"""Path simulation: scheme algebra, determinism, accounting, and the
conditional second-moment estimator against the deterministic oracle."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from fracheat import acceptance, bounds, laplacian, sde
from fracheat.sde import (
    Discretization,
    SigmaSpec,
    estimate_second_moment_pair,
    run_ensemble,
    sigma_eval,
    tent_profile,
)


def noise_chunks(master_seed, blk, steps, n, antithetic=False):
    """`sde._noise_chunks` in a work array of its own, as `_map_blocks` would pass it."""
    work = np.empty(sde._noise_doubles(len(blk), steps, n))
    return sde._noise_chunks(master_seed, blk, steps, n, antithetic, work)


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
        Discretization(grid=desk_grid, dt=0.0, t_end=0.01, snapshot_times=(0.01,))


def test_params_mu_must_match_grid_mu(desk_grid, desk_op, desk_params):
    # the [mu, L-mu] window is the grid's; a different params.mu would be
    # silently overridden, so every entry point that takes both rejects it
    _assert_every_entry_point_rejects(
        dataclasses.replace(desk_params, mu=0.2), desk_grid, desk_op,
        r"params\.mu=0\.2 does not match grid\.mu=0\.1",
    )


def test_params_L_must_match_grid_L(desk_grid, desk_op, desk_params):
    _assert_every_entry_point_rejects(
        dataclasses.replace(desk_params, L=2.0), desk_grid, desk_op,
        r"params\.L=2\.0 does not match grid\.L=1\.0",
    )


def test_params_alpha_must_match_the_operators(desk_grid, desk_op, desk_params):
    # an alpha-1.9 record would run on the alpha-1.5 operator, and
    # metadata.json would echo 1.9
    _assert_every_entry_point_rejects(
        dataclasses.replace(desk_params, alpha=1.9), desk_grid, desk_op,
        r"params\.alpha=1\.9 does not match op\.config\.alpha=1\.5",
    )


def _assert_every_entry_point_rejects(params, grid, op, match):
    with pytest.raises(ValueError, match=match):
        run_ensemble(params, small_disc(grid), op, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match=match):
        estimate_second_moment_pair(params, small_disc(grid), op, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match=match):
        bounds.second_moment_volterra(params, op, grid, T=0.25, steps=16)
    with pytest.raises(ValueError, match=match):
        bounds.measure_growth_model(op, params, horizon=1.0)
    with pytest.raises(ValueError, match=match):  # a renewal-branch level too
        bounds.oracle_moment_curves(dataclasses.replace(params, lam=64.0), op, T=1.0, steps=256)


@pytest.mark.parametrize("engine", [run_ensemble, estimate_second_moment_pair])
def test_engines_share_one_input_check(engine, desk_grid, desk_op, desk_params, monkeypatch):
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
    # a seed numpy cannot take is refused before any factor is formed or form marched
    monkeypatch.setattr(sde, "implicit_factor", None)
    for seed in (-1, 1.5, "7", None):
        with pytest.raises(ValueError, match=f"master_seed must be a nonnegative integer, got {seed!r}"):
            engine(desk_params, disc, desk_op, n_paths=2, master_seed=seed)


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
        assert sde._map_blocks(lambda blk, work: blas.get(), 300, 1, lambda paths: 1) == [2, 2, 2]
        assert sde._map_blocks(lambda blk, work: blas.get(), 300, 2, lambda paths: 1) == [1, 1, 1]
        assert blas.get() == 2

        def boom(blk, work):
            raise RuntimeError(f"block {blk.start}")

        with pytest.raises(RuntimeError):
            sde._map_blocks(boom, 300, 2, lambda paths: 1)
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
        def caller():
            seen.extend(sde._map_blocks(lambda blk, work: blas.get(), 1280, 3, lambda paths: 1))

        callers = [threading.Thread(target=caller) for _ in range(4)]
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


@pytest.mark.parametrize("workers", [1, 3])
def test_map_blocks_hands_out_one_work_array_per_worker(workers):
    # 10 blocks (9 full, one of 4 paths); each work array is sized for the
    # largest block's need, and at most `workers` exist, 1 when serial
    got = sde._map_blocks(lambda blk, work: (len(blk), work), 9 * sde._BLOCK + 4, workers, lambda paths: 3 * paths)
    assert [paths for paths, _ in got] == [sde._BLOCK] * 9 + [4]
    arrays = {id(work): work for _, work in got}
    assert len(arrays) == 1 if workers == 1 else 1 <= len(arrays) <= workers
    assert all(work.shape == (3 * sde._BLOCK,) and work.dtype == np.float64 for work in arrays.values())


def test_map_blocks_without_blas_hook_is_bit_identical(desk_grid, desk_op, desk_params, monkeypatch):
    disc = small_disc(desk_grid)
    ref = run_ensemble(desk_params, disc, desk_op, n_paths=300, master_seed=8, worker_count=2)
    monkeypatch.setattr(sde, "_openblas", lambda: None)
    got = run_ensemble(desk_params, disc, desk_op, n_paths=300, master_seed=8, worker_count=2)
    assert np.array_equal(got.snapshots, ref.snapshots)


def noise_bytes_for(steps, paths, n):
    """A `_NOISE_BYTES` whose chunks hold `steps` steps of a `paths`-path block."""
    return 8 * paths * n * steps


def chunk_lengths(blk, steps, n, antithetic=False):
    return [chunk.shape[1] for _, chunk in noise_chunks(0, blk, steps, n, antithetic)]


def test_noise_chunk_length_follows_the_byte_budget(monkeypatch):
    # the real budget: 16 steps of a full block at n 128, 32 at n 64
    assert sde._NOISE_BYTES == noise_bytes_for(16, sde._BLOCK, 128)
    assert chunk_lengths(range(128), 40, 128) == [16, 16, 8]
    assert chunk_lengths(range(128), 40, 64) == [32, 8]
    # rounded down to an even count, at least 2, never longer than the run
    monkeypatch.setattr(sde, "_NOISE_BYTES", noise_bytes_for(7, 4, 16) + 8)
    assert chunk_lengths(range(4), 16, 16, antithetic=True) == [6, 6, 4]
    monkeypatch.setattr(sde, "_NOISE_BYTES", 1)
    assert chunk_lengths(range(4), 5, 16) == [2, 2, 1]
    monkeypatch.setattr(sde, "_NOISE_BYTES", 1 << 40)
    assert chunk_lengths(range(4), 5, 16) == [5]


def test_noise_chunks_not_dividing_steps_match_whole_sheet(desk_grid, desk_op, desk_params, monkeypatch):
    # 16 steps in one chunk, in chunks of 6 and of 2; snapshots at, inside
    # and after chunk boundaries
    disc = Discretization(
        grid=desk_grid, dt=1.0 / 128.0, t_end=0.125, snapshot_times=(5 / 128, 0.0625, 0.125)
    )
    ref = None
    for steps in (disc.n_steps(), 6, 2):
        monkeypatch.setattr(sde, "_NOISE_BYTES", noise_bytes_for(steps, 20, desk_grid.n))
        got = run_ensemble(desk_params, disc, desk_op, n_paths=20, master_seed=4)
        ref = got.snapshots if ref is None else ref
        assert np.array_equal(got.snapshots, ref)


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
        [(_, pairs)] = noise_chunks(31, blk, 5, n, True)
        plain_blk = range(start // 2, start // 2 + 4)
        [(_, plain)] = noise_chunks(31, plain_blk, 5, n)
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


def per_step_check_ensemble(params, disc, op, n_paths, master_seed):
    """run_ensemble with the finiteness check and quarantine after every
    step and a fresh array per step: same blocks, noise and operation order."""
    grid, steps = disc.grid, disc.n_steps()
    factor_T = laplacian.implicit_factor(op, disc.dt).T
    snap_lookup = {s: i for i, s in enumerate(disc.snapshot_steps())}
    out = np.empty((len(disc.snapshot_times), n_paths, grid.n))
    flagged = np.zeros(n_paths, dtype=bool)
    for lo_path in range(0, n_paths, sde._BLOCK):
        blk = range(lo_path, min(lo_path + sde._BLOCK, n_paths))
        u = np.tile(params.u0, (len(blk), 1))
        alive = np.ones(len(blk), dtype=bool)

        def record(step_index):
            j = snap_lookup.get(step_index)
            if j is not None:
                snap = u.copy()
                snap[~alive] = np.nan
                out[j, blk.start : blk.stop] = snap

        record(0)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, chunk in noise_chunks(master_seed, blk, steps, grid.n):
                chunk *= math.sqrt(disc.dt * grid.dx)
                for s in range(lo, lo + chunk.shape[1]):
                    forced = u + params.lam * sigma_eval(params.sigma, u) * chunk[:, s - lo, :] / grid.dx
                    u = forced @ factor_T
                    bad = alive & ~np.all(np.isfinite(u), axis=1)
                    if np.any(bad):
                        alive &= ~bad
                        u[bad] = 0.0
                    record(s + 1)
        flagged[blk.start : blk.stop] = ~alive
    return out, flagged


@pytest.mark.parametrize("sigma_kind", ["linear", "custom-table"])
def test_ensemble_step_matches_the_per_step_check_bit_for_bit(desk_grid, desk_op, sigma_kind):
    # the step writes into one buffer and checks finiteness only at snapshot
    # steps; a path that overflows between two snapshots must still come out
    # flagged at the same snapshot, and every other path unchanged
    if sigma_kind == "linear":  # test_flagged_paths_are_counted_and_quarantined's blow-up
        params = make_params(desk_grid, lam=8.0, u0=1e300 * tent_profile(desk_grid))
        snaps = (0.25, 0.5)
    else:
        table = SigmaSpec(kind="custom-table", l_sigma=0.5, L_sigma=2.0,
                          table_u=np.array([0.0, 1.0, 3.0]), table_values=np.array([0.0, 2.0, 3.0]))
        params = make_params(desk_grid, lam=12.0, u0=1e300 * tent_profile(desk_grid), sigma=table)
        snaps = (0.25, 0.3125)
    disc = Discretization(grid=desk_grid, dt=1.0 / 64.0, t_end=snaps[-1], snapshot_times=snaps)
    ref, ref_flagged = per_step_check_ensemble(params, disc, desk_op, 150, master_seed=13)
    assert 0 < ref_flagged.sum() < 150
    for workers in (1, 2):
        ens = run_ensemble(params, disc, desk_op, n_paths=150, master_seed=13, worker_count=workers)
        assert np.array_equal(ens.snapshots, ref, equal_nan=True)
        assert np.array_equal(ens.flagged, ref_flagged)


def synthetic_ensemble(grid, params, snapshots):
    """A PathEnsemble around given snapshot values, one snapshot per row of
    ``snapshots`` at times 1/8, 2/8, ..."""
    times = tuple(0.125 * (k + 1) for k in range(len(snapshots)))
    disc = Discretization(grid=grid, dt=0.125, t_end=times[-1], snapshot_times=times)
    return sde.PathEnsemble(
        master_seed=0, snapshots=snapshots, flagged=np.isnan(snapshots).any(axis=(0, 2)),
        params=params, disc=disc,
    )


def test_ensemble_path_count_and_times_come_from_its_arrays(tmp_path, desk_grid, desk_params):
    snaps = np.ones((2, 4, desk_grid.n))
    ens = synthetic_ensemble(desk_grid, desk_params, snaps)
    assert ens.n_paths == ens.metadata()["n_paths"] == 4
    assert ens.snapshot_times == ens.disc.snapshot_times == (0.125, 0.25)
    ens.write_csv(tmp_path / "ens.csv")
    assert len((tmp_path / "ens.csv").read_text().splitlines()) == 1 + snaps.size
    with pytest.raises(TypeError):
        sde.PathEnsemble(
            n_paths=2, master_seed=0, snapshots=snaps, flagged=np.zeros(4, dtype=bool),
            params=desk_params, disc=ens.disc,
        )


def test_ensemble_refuses_snapshots_of_another_shape(desk_grid, desk_params):
    ens = synthetic_ensemble(desk_grid, desk_params, np.ones((2, 4, desk_grid.n)))
    one_time = Discretization(grid=desk_grid, dt=0.125, t_end=0.125, snapshot_times=(0.125,))
    for change, want in (
        (dict(flagged=np.zeros(2, dtype=bool)), (2, 2, 64)),
        (dict(disc=one_time), (1, 4, 64)),
        (dict(snapshots=np.ones((2, 4, desk_grid.n - 1))), (2, 4, 64)),
    ):
        with pytest.raises(ValueError, match=rf"\(snapshot times, paths, nodes\) is {re.escape(str(want))}"):
            dataclasses.replace(ens, **change)


def test_ensemble_refuses_a_non_finite_row_on_an_unflagged_path(desk_grid, desk_params):
    snaps = np.ones((2, 4, desk_grid.n))
    snaps[1, 2, 5] = np.inf
    flagged = np.zeros(4, dtype=bool)
    ens = synthetic_ensemble(desk_grid, desk_params, np.ones_like(snaps))
    with pytest.raises(ValueError, match=r"path 2 is not flagged but is non-finite at t=0\.25"):
        dataclasses.replace(ens, snapshots=snaps, flagged=flagged)
    # flagged, it is left out from that snapshot on, and only there
    flagged[2] = True
    ens = dataclasses.replace(ens, snapshots=snaps, flagged=flagged)
    assert ens.finite_paths(0.125).tolist() == [True] * 4
    assert ens.finite_paths(0.25).tolist() == [True, True, False, True]
    with pytest.raises(ValueError, match="t=0.2 is not a snapshot time"):
        ens.finite_paths(0.2)


def test_write_csv_matches_the_per_row_format(tmp_path, desk_grid, desk_params):
    # 150 paths of 64 nodes: full blocks and a short one per snapshot
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
    assert est.conditioning_time == pytest.approx(8.0 / 1024.0)
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


@pytest.mark.parametrize("dt, t_end, t", [(0.3, 1.0, 3 * 0.3), (1.0 / 1024.0, 0.5, 0.5)])
def test_pair_estimates_are_at_the_time_the_scheme_reached(dt, t_end, t, desk_grid, desk_op, desk_params):
    # t_end 1 in steps of 0.3 stops after 3 steps; check 4's grid reaches t_end exactly
    disc = Discretization(grid=desk_grid, dt=dt, t_end=t_end, snapshot_times=(t_end,))
    coarse, fine = estimate_second_moment_pair(desk_params, disc, desk_op, n_paths=2, master_seed=3)
    assert coarse.t == fine.t == t


def test_coupled_refinement_shares_noise(desk_grid, desk_op, desk_params, monkeypatch):
    # record the noise and conditioning-time states each resolution integrates
    # (t_end 1: 2 cond = 8 fine steps, one noise chunk)
    seen = []

    def spy(x, noise, lam, dx, MT, g):
        real_branch(x, noise, lam, dx, MT, g)
        seen.append((noise.copy(), x[0].copy()))

    real_branch = sde._rb_branch
    monkeypatch.setattr(sde, "_rb_branch", spy)
    disc = small_disc(desk_grid, dt=1.0 / 256.0, t_end=1.0)
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


def node_forms(forms):
    """The (n, n, n) node-basis A_x rebuilt from S^+- = V'(A_x +- A_{n-1-x})V."""
    V, ne = forms.V, forms.n_even
    n = V.shape[0]
    no, half = n - ne, forms.plus.shape[0]
    plus = np.zeros((half, n, n))
    minus = np.zeros((half, n, n))
    plus[:, :ne, :ne] = forms.plus[:, : ne * ne].reshape(half, ne, ne)
    plus[:, ne:, ne:] = forms.plus[:, ne * ne :].reshape(half, no, no)
    block = forms.minus.reshape(half, ne, no)
    minus[:, :ne, ne:] = block
    minus[:, ne:, :ne] = block.transpose(0, 2, 1)
    a_plus, a_minus = V @ plus @ V.T, V @ minus @ V.T
    A = np.empty((n, n, n))
    A[n - half :] = 0.5 * (a_plus - a_minus)[::-1]
    A[:half] = 0.5 * (a_plus + a_minus)
    return A


def test_conditional_forms_are_symmetric(desk_grid, desk_op, desk_params):
    # the contraction's (u-y)'A_x(u+y) identity rests on A_x = A_x'
    A = node_forms(desk_forms(desk_grid, desk_op, desk_params)[2])
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
# T/8, 7/8 of the steps marched) on grids of odd and even n: the mirrored rows
# are exercised both ways, and at odd n the middle node is its own mirror
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
    _MT, _g, forms, cv = sde._conditional_forms(params, op, grid, dt, n_steps, cond_steps)
    A = node_forms(forms)
    scale = np.abs(ref_A).max(axis=(1, 2))
    assert np.all(np.abs(A - ref_A).max(axis=(1, 2)) <= 1e-11 * scale)
    assert np.all(np.abs(cv - ref_cv) <= 1e-11 * np.abs(ref_cv))


@pytest.mark.parametrize("lam", [16.0, 32.0, 64.0])
def test_conditional_forms_overflow_fails_loudly(desk_grid, desk_op, lam):
    # check 4's grid and steps: from lam 16 on the forms leave the double range
    params = make_params(desk_grid, lam=lam)
    disc = Discretization(grid=desk_grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,))
    with pytest.raises(OverflowError, match=rf"lam={lam}, dt=0\.0009765625 in adjoint step \d+ of 504"):
        estimate_second_moment_pair(params, disc, desk_op, n_paths=128, master_seed=3)


def test_estimator_overflow_fails_loudly(desk_grid, desk_op):
    # check 4's grid at lam 8: the forms stay finite, but the squared form
    # gaps of the paths overflow in the stderr sums
    params = make_params(desk_grid, lam=8.0)
    disc = Discretization(grid=desk_grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # and no numpy overflow warning on the way
        with pytest.raises(OverflowError, match=r"lam=8\.0, dt=0\.0009765625"):
            estimate_second_moment_pair(params, disc, desk_op, n_paths=16, master_seed=0)


@pytest.mark.parametrize("n", [64, 128])
def test_conditional_forms_peak_memory(n):
    grid = laplacian.build_grid(L=1.0, n=n, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    params = make_params(grid)
    dt = 1.0 / 1024.0
    tracemalloc.start()
    try:
        _MT, _g, forms, _cv = sde._conditional_forms(params, op, grid, dt, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the forms hold 3 n^3 / 8 doubles; with the march tables and temporaries
    # the peak stays below n^3 doubles, the size of the node-basis forms
    assert forms.plus.nbytes + forms.minus.nbytes == sde._forms_bytes(n) // 2
    assert peak <= 8 * n**3


def test_form_gaps_match_the_two_quadratic_forms(desk_grid, desk_op, desk_params):
    forms = desk_forms(desk_grid, desk_op, desk_params)[2]
    A = node_forms(forms)
    rng = np.random.default_rng(5)
    # 200 paths: more than one contraction chunk, and not a multiple of it
    u = desk_params.u0 + 0.3 * rng.standard_normal((200, desk_grid.n))
    y = u + 0.05 * rng.standard_normal(u.shape)
    uau = np.einsum("pi,xij,pj->px", u, A, u, optimize=True)
    yay = np.einsum("pi,xij,pj->px", y, A, y, optimize=True)
    gaps = sde._form_gaps(forms, u, y)
    scale = max(np.abs(uau).max(), np.abs(yay).max())
    assert np.abs(gaps - (uau - yay)).max() <= 1e-12 * scale
    # a flagged (non-finite) path spoils its own row only
    u[7] = np.nan
    spoiled = sde._form_gaps(forms, u, y)
    assert np.all(np.isnan(spoiled[7]))
    assert np.array_equal(np.delete(spoiled, 7, axis=0), np.delete(gaps, 7, axis=0))


def test_stacked_chaos_march_matches_three_matmul_march(desk_grid, desk_op, desk_params):
    MT, g, _forms, _cv = desk_forms(desk_grid, desk_op, desk_params)
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


def test_estimator_step_matches_the_ensemble_step_on_the_same_noise(desk_grid, desk_op):
    # _run_block (run_ensemble) and the u row of _rb_branch (the pair
    # estimator) are two implementations of one implicit step; check 4 runs
    # only the second
    params = make_params(desk_grid, lam=3.0)
    dt, steps, n_paths, seed = 1.0 / 256.0, 24, 10, 17
    disc = Discretization(grid=desk_grid, dt=dt, t_end=steps * dt, snapshot_times=(steps * dt,))
    ref = run_ensemble(params, disc, desk_op, n_paths=n_paths, master_seed=seed).snapshots[-1]
    [(_, z)] = noise_chunks(seed, range(n_paths), steps, desk_grid.n)
    x = np.zeros((3, n_paths, desk_grid.n))
    x[0] = params.u0
    MT = laplacian.implicit_factor(desk_op, dt).T
    g = np.zeros((steps, desk_grid.n))
    sde._rb_branch(x, z * math.sqrt(dt * desk_grid.dx), params.lam, desk_grid.dx, MT, g)
    assert np.abs(x[0] - ref).max() <= 1e-13 * np.abs(ref).max()


def scheme_second_moment(params, op, grid, dt, steps):
    """E u(t)^2 per node of the scheme with linear sigma, exactly:
    P = E uu' obeys P <- M (P + c diag(diag P)) M' with c = (lam L_sigma)^2 dt / dx."""
    M = laplacian.implicit_factor(op, dt)
    c = (params.lam * params.sigma.L_sigma) ** 2 * dt / grid.dx
    P = np.outer(params.u0, params.u0)
    for _ in range(steps):
        P = M @ (P + c * np.diag(np.diag(P))) @ M.T
    return np.diag(P).copy()


@pytest.mark.slow
def test_pair_estimator_matches_the_exact_scheme_moment(desk_grid, desk_op, desk_params):
    # check 4's run at its pinned seed: the estimator carries the scheme's dt
    # bias and only sampling noise, so its node-mean z-score against the
    # scheme's exact second moment is small at both resolutions
    disc = Discretization(grid=desk_grid, dt=1.0 / 1024.0, t_end=0.5, snapshot_times=(0.5,))
    pair = estimate_second_moment_pair(
        desk_params, disc, desk_op, n_paths=10_000, master_seed=acceptance._MC_SEED, worker_count=2
    )
    for est, steps in zip(pair, (512, 1024)):
        exact = scheme_second_moment(desk_params, desk_op, desk_grid, est.dt, steps)
        z = (est.values - exact) / est.stderr
        assert abs(z.mean()) < 3.0, (est.dt, z.mean())


@pytest.mark.parametrize("n", [64, 17])
def test_parity_split_of_the_eigenvectors(n):
    grid = laplacian.build_grid(L=1.0, n=n, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    even, odd = sde._parity_split(op)
    assert (even.size, odd.size) == ((n + 1) // 2, n // 2)
    V = op.eigenvectors
    assert np.abs(V[::-1, even] - V[:, even]).max() <= 1e-12
    assert np.abs(V[::-1, odd] + V[:, odd]).max() <= 1e-12
    # a near-degenerate even/odd pair mixed by eigh is refused, naming the operator
    a, b = even[-1], odd[-1]
    mixed = V.copy()
    mixed[:, a], mixed[:, b] = (V[:, a] + V[:, b]) / math.sqrt(2.0), (V[:, a] - V[:, b]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match=rf"n={n}, alpha=1\.5"):
        sde._parity_split(dataclasses.replace(op, eigenvectors=mixed))


def test_pair_estimator_refuses_forms_above_the_byte_bound(desk_grid, desk_op, desk_params, monkeypatch):
    assert sde._forms_bytes(256) <= sde._FORMS_BYTES < sde._forms_bytes(512)
    monkeypatch.setattr(sde, "_FORMS_BYTES", sde._forms_bytes(desk_grid.n) - 1)
    with pytest.raises(ValueError, match=r"discretization\.n=64: .* MiB bound"):
        estimate_second_moment_pair(desk_params, small_disc(desk_grid), desk_op, n_paths=2, master_seed=0)


def test_pair_estimator_noise_chunk_length_never_changes_results(desk_grid, desk_op, desk_params, monkeypatch):
    # t_end 2: 2 cond = 16 fine steps: one chunk, chunks of 6 (not dividing
    # 16) and of 2, the minimum; 130 paths: blocks of 128 and 2 paths
    disc = small_disc(desk_grid, dt=1.0 / 256.0, t_end=2.0)
    ref = None
    for chunk in (16, 6, 2):
        monkeypatch.setattr(sde, "_NOISE_BYTES", noise_bytes_for(chunk, sde._BLOCK, desk_grid.n))
        pair = estimate_second_moment_pair(desk_params, disc, desk_op, n_paths=130, master_seed=23)
        got = [(e.values, e.stderr, e.flagged_count) for e in pair]
        if ref is None:
            ref = got
        for (values, stderr, flagged), (ref_values, ref_stderr, ref_flagged) in zip(got, ref):
            assert np.array_equal(values, ref_values)
            assert np.array_equal(stderr, ref_stderr)
            assert flagged == ref_flagged


def test_pair_estimator_memory_does_not_grow_with_t_end(monkeypatch):
    grid = laplacian.build_grid(L=1.0, n=16, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    params = make_params(grid)
    # at n 16 the real budget holds 128 steps, more than the shorter run
    # draws; a 16-step budget makes both runs chunked
    monkeypatch.setattr(sde, "_NOISE_BYTES", noise_bytes_for(16, sde._BLOCK, grid.n))
    # a short run first fills the operator's caches at dt and dt/2
    estimate_second_moment_pair(params, small_disc(grid, dt=1.0 / 256.0), op, n_paths=128, master_seed=6)
    peaks = {}
    for t_end in (8.0, 32.0):
        disc = small_disc(grid, dt=1.0 / 256.0, t_end=t_end)
        tracemalloc.start()
        try:
            estimate_second_moment_pair(params, disc, op, n_paths=128, master_seed=6)
            peaks[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 4x the horizon (64 and 256 fine conditioning steps): noise held for the
    # whole conditioning time would peak about 4x higher
    assert max(peaks.values()) < 1.25 * min(peaks.values())


def test_pair_estimator_holds_one_and_a_half_noise_chunks(monkeypatch):
    # the coarse increments fill a half-chunk slot beside the noise chunk;
    # built as (z[:, 0::2] + z[:, 1::2]) * scale they were two half-chunk
    # temporaries, and the peak grew by about 2x the chunk bytes
    grid = laplacian.build_grid(L=1.0, n=16, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    params = make_params(grid)
    disc = small_disc(grid, dt=1.0 / 256.0, t_end=32.0)  # 256 fine conditioning steps
    estimate_second_moment_pair(params, disc, op, n_paths=128, master_seed=6)
    peaks = {}
    for steps in (32, 128):
        monkeypatch.setattr(sde, "_NOISE_BYTES", noise_bytes_for(steps, sde._BLOCK, grid.n))
        tracemalloc.start()
        try:
            estimate_second_moment_pair(params, disc, op, n_paths=128, master_seed=6)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    grown = noise_bytes_for(128 - 32, sde._BLOCK, grid.n)
    assert peaks[128] - peaks[32] < 1.6 * grown


def test_ensemble_noise_memory_is_the_byte_budget_per_worker():
    grid = laplacian.build_grid(L=1.0, n=128, mu=0.1)
    op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
    params = make_params(grid)
    dt, workers = 1.0 / 512.0, 2
    # a short run first fills the operator's cache of the implicit factor
    run_ensemble(params, small_disc(grid, dt=dt, t_end=dt), op, n_paths=2, master_seed=3)
    peaks = {}
    for t_end in (0.125, 0.5):
        disc = Discretization(grid=grid, dt=dt, t_end=t_end, snapshot_times=(t_end / 2, t_end))
        tracemalloc.start()
        try:
            ens = run_ensemble(params, disc, op, n_paths=256, master_seed=3, worker_count=workers)
            peaks[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two full blocks, one per worker: each holds one noise chunk of
        # the budget and a few (128, n) rows of state beside it
        assert peaks[t_end] < ens.snapshots.nbytes + workers * (sde._NOISE_BYTES + 2**20)
    # 64 and 256 steps: noise held for a fixed step count would grow with them
    assert peaks[0.5] < 1.1 * peaks[0.125]


_RESIDENT_GROWTH = """
import json, os
from fracheat import laplacian, sde
def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
grid = laplacian.build_grid(L=1.0, n=128, mu=0.1)
op = laplacian.assemble(grid, laplacian.OperatorConfig(alpha=1.5))
sigma = sde.SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0)
params = sde.ModelParams(alpha=1.5, L=1.0, lam=1.0, sigma=sigma, u0=sde.tent_profile(grid), mu=0.1, p=2.0)
dt = 1.0 / 512.0
sde.run_ensemble(params, sde.Discretization(grid, dt, dt, (dt,)), op, n_paths=2, master_seed=3)
before = resident()
ens = sde.run_ensemble(params, sde.Discretization(grid, dt, 0.125, (0.125,)), op, n_paths=512,
                       master_seed=3, worker_count=2)
print(json.dumps([resident() - before, ens.snapshots.nbytes, sde._NOISE_BYTES]))
"""


def resident_growth():
    """(resident growth across `_RESIDENT_GROWTH`'s ensemble, its snapshot
    bytes, `_NOISE_BYTES`), in a fresh interpreter, so no earlier test has
    grown the malloc arenas already."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(sde.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RESIDENT_GROWTH], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


needs_statm = pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="reads the resident set from /proc"
)


@needs_statm
def test_ensemble_leaves_the_byte_budget_per_worker_resident():
    # at most what the workers held at once stays resident. 64 steps at
    # n 128: a 64-step buffer of 8 MiB per worker would not fit
    growth, snapshot_bytes, budget = resident_growth()
    assert growth < snapshot_bytes + 2 * (budget + 2**21)


@needs_statm
def test_ensemble_leaves_no_noise_buffer_resident():
    # memory a worker thread frees stays in its malloc arena; the noise
    # buffers are allocated and freed in the calling thread, so they go
    # back to the OS and only the snapshots and small per-block state stay
    growth, snapshot_bytes, _budget = resident_growth()
    assert growth < snapshot_bytes + 2**21


def test_pair_estimator_stderr_is_that_of_the_antithetic_pair_means(desk_grid, desk_op, desk_params, monkeypatch):
    # reference: the per-path form gaps the estimator contracts, recorded
    # block by block (one worker: coarse then fine for each block in order)
    gaps = []

    def spy(forms, u, y):
        out = real_gaps(forms, u, y)
        gaps.append(out)
        return out

    real_gaps = sde._form_gaps
    monkeypatch.setattr(sde, "_form_gaps", spy)
    # 300 paths: three blocks, the last one partial.  At t_end 0.125 there
    # is one conditioning step: a path is linear in the noise, so the pair
    # means agree to a few ulps and their stderr, 1e-20 to 1e-18, is far below
    # the rounding of a sum of squares of the values; two centred sums of
    # those few-ulp deviations agree to some 1e-4 only
    for t_end, rel in ((0.5, 1e-9), (0.125, 1e-2)):
        gaps.clear()
        pair = estimate_second_moment_pair(
            desk_params, small_disc(desk_grid, dt=1.0 / 256.0, t_end=t_end), desk_op, n_paths=300, master_seed=19
        )
        for which, est in enumerate(pair):
            G = np.concatenate(gaps[which::2])
            means = 0.5 * (G[0::2] + G[1::2])
            ref = means.std(axis=0) / math.sqrt(len(means))
            assert np.all(ref > 0)
            assert np.abs(est.stderr - ref).max() <= rel * ref.max()
            # the paths of a pair are correlated, so the path-wise stderr is not it
            assert np.abs(est.stderr - G.std(axis=0) / math.sqrt(len(G))).max() > 1e-3 * ref.max()


def test_block_sums_pair_only_paths_that_are_both_finite():
    vals = np.arange(12.0).reshape(6, 2)
    alive = np.array([True, True, True, False, True, True])
    vals[3] = np.nan
    total, n_alive, pair_sum, pair_m2, n_pairs = sde._block_sums(vals, alive)
    assert np.array_equal(total, vals[alive].sum(axis=0))
    means = np.array([vals[0] + vals[1], vals[4] + vals[5]]) / 2
    assert np.array_equal(pair_sum, means.sum(axis=0))
    assert np.array_equal(pair_m2, ((means - means.mean(axis=0)) ** 2).sum(axis=0))
    assert (n_alive, n_pairs) == (5, 2)


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


def test_discretization_needs_a_snapshot_time_and_a_finite_grid(desk_grid):
    with pytest.raises(ValueError, match="snapshot_times must hold at least one time"):
        Discretization(grid=desk_grid, dt=0.125, t_end=0.25, snapshot_times=())
    with pytest.raises(TypeError, match="snapshot_times"):
        Discretization(grid=desk_grid, dt=0.125, t_end=0.25)
    for dt, t_end, name in ((0.125, math.inf, "t_end"), (math.nan, 0.25, "dt"), (math.inf, math.inf, "dt")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            Discretization(grid=desk_grid, dt=dt, t_end=t_end, snapshot_times=(0.25,))


@pytest.mark.parametrize("p", [1.5, math.nan, math.inf])
def test_model_params_refuse_p_below_2_or_non_finite(desk_grid, p):
    with pytest.raises(ValueError, match="moment order p must be finite and >= 2"):
        make_params(desk_grid, p=p)


@pytest.mark.parametrize(("field", "value", "message"), [
    ("alpha", 2.0, "alpha must lie in (1, 2), got 2.0"),
    ("L", -1.0, "need L > 0 and mu in (0, L/2), got L=-1.0"),
    ("mu", 0.5, "need L > 0 and mu in (0, L/2), got L=1.0, mu=0.5"),
    ("lam", -1.0, "lambda must be a finite nonnegative real, got -1.0"),
    ("lam", math.inf, "lambda must be a finite nonnegative real, got inf"),
    ("u0", np.ones((2, 64)), "u0 must be a finite nonnegative 1-d profile"),
    ("u0", np.full(64, math.nan), "u0 must be a finite nonnegative 1-d profile"),
    ("u0", np.full(64, -1.0), "u0 must be a finite nonnegative 1-d profile"),
])
def test_model_params_refuse_a_bad_field(desk_params, field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(desk_params, **{field: value})


@pytest.mark.parametrize(("snapshot_times", "message"), [
    ((0.5,), "snapshot times must lie in [0, t_end], got (0.5,)"),
    ((-0.125,), "snapshot times must lie in [0, t_end], got (-0.125,)"),
    ((0.25, 0.125), "snapshot times must be sorted"),
])
def test_discretization_refuses_snapshot_times_off_its_horizon_or_unsorted(desk_grid, snapshot_times, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Discretization(grid=desk_grid, dt=0.125, t_end=0.25, snapshot_times=snapshot_times)


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
