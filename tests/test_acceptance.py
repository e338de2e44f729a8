"""Acceptance gate: the nine headline checks, one test each.

These delegate to fracheat.acceptance so the CLI selftest and the test suite
run the identical checks with the identical pinned tolerances.  Each check
carries its measured numbers in ``detail``, which becomes the assertion
message on failure.
"""

import importlib.util
import os
import pathlib
import tempfile

import numpy as np
import pytest

from fracheat import acceptance, bounds
from fracheat.sde import Discretization

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_01_special_function_identities():
    r = acceptance.check_special_functions()
    assert r.passed, r.detail


def test_02_renewal_equality_constant_forcing():
    r = acceptance.check_renewal_equality()
    assert r.passed, r.detail


def test_03_operator_spectrum_and_kernel_domination():
    r = acceptance.check_operator_spectrum()
    assert r.passed, r.detail


@pytest.mark.slow
def test_04_monte_carlo_matches_second_moment_oracle():
    r = acceptance.check_mc_oracle(worker_count=4)
    assert r.passed, r.detail


def test_05_small_noise_dissipativity():
    r = acceptance.check_small_noise_stability()
    assert r.passed, r.detail


def test_06_exponential_upper_envelope():
    r = acceptance.check_exponential_upper()
    assert r.passed, r.detail


def test_07_envelope_sandwich_on_held_out_lambda():
    r = acceptance.check_envelope_sandwich()
    assert r.passed, r.detail


def test_08_excitation_index_two_alphas():
    r = acceptance.check_excitation_index()
    assert r.passed, r.detail


def test_09_determinism_and_flag_accounting():
    r = acceptance.check_determinism_accounting()
    assert r.passed, r.detail


@pytest.mark.parametrize("compare", ["differ", "raise"])
def test_09_removes_both_csv_files_when_the_comparison_fails(compare, tmp_path, monkeypatch):
    def fail(a, b):
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in (a, b))
        if compare == "raise":
            raise OSError("read failed")
        return False

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(acceptance, "_same_bytes", fail)
    r = acceptance.check_determinism_accounting()
    assert not r.passed
    assert ("byte-identical across workers 1 vs 4: False" in r.detail) == (compare == "differ")
    assert os.listdir(tmp_path) == []


def test_same_bytes_compares_whole_files_in_chunks(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"x" * 10)
    for other, same in ((b"x" * 10, True), (b"x" * 9 + b"y", False), (b"x" * 9, False), (b"x" * 11, False)):
        b.write_bytes(other)
        assert acceptance._same_bytes(str(a), str(b), chunk=4) is same
        assert acceptance._same_bytes(str(b), str(a), chunk=4) is same


def test_quick_suite_computes_each_oracle_curve_once(monkeypatch):
    # checks 5-8 share one desk sweep; a level read by two checks is computed once
    keys = []
    real = bounds.oracle_moment_curves

    def spy(params, op, T, steps):
        keys.append((params.alpha, params.lam, T, steps))
        return real(params, op, T=T, steps=steps)

    monkeypatch.setattr(acceptance, "_CACHE", {})
    monkeypatch.setattr(bounds, "oracle_moment_curves", spy)
    assert all(r.passed for r in acceptance.run_selftest("quick"))
    assert len(keys) == 17
    assert len(set(keys)) == len(keys)


def test_a_check_that_raises_is_a_failed_check_naming_the_exception():
    @acceptance._check("broken-check")
    def broken():
        raise ZeroDivisionError("no data")

    r = broken()
    assert broken.__name__ == "broken"  # QUICK_CHECKS and the benchmark's spans read it
    assert (r.name, r.passed) == ("broken-check", False)
    assert r.detail == "exception: ZeroDivisionError('no data')"


def test_the_full_tier_appends_check_4_and_other_levels_are_refused(monkeypatch):
    quick = [acceptance.CheckResult(f"stub-{k}", True, "", 0.0) for k in range(2)]
    monkeypatch.setattr(acceptance, "QUICK_CHECKS", tuple(lambda r=r: r for r in quick))
    mc = acceptance.CheckResult("mc-vs-oracle", True, "", 0.0)
    workers = []
    monkeypatch.setattr(acceptance, "check_mc_oracle", lambda worker_count: workers.append(worker_count) or mc)
    assert acceptance.run_selftest("quick") == quick
    assert acceptance.run_selftest("full", mc_worker_count=3) == quick + [mc]
    assert workers == [3]
    with pytest.raises(ValueError, match="'quick' or 'full', got 'fast'"):
        acceptance.run_selftest("fast")


def test_mc_oracle_gaps_compares_at_the_time_the_scheme_reached():
    op, params = acceptance.desk_problem(n=16)
    disc = Discretization(grid=op.grid, dt=0.03, t_end=0.1, snapshot_times=(0.1,))
    oracle, coarse, fine, dc, _ = acceptance.mc_oracle_gaps(params, disc, op, 8, 31415, 1)
    assert coarse.t == fine.t == 3 * 0.03
    want = bounds.second_moment_volterra(params, op, op.grid, T=coarse.t, steps=1024).m[-1]
    np.testing.assert_array_equal(oracle, want)
    assert dc == np.max(np.abs(coarse.values - want) / want)


def test_the_benchmarks_check_4_inputs_are_check_4s(monkeypatch):
    # perfbench runs check 4's measurement from its own copy of the inputs
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    marches, runs = [], []
    real_march = bounds.second_moment_volterra

    def march(*args, **kw):
        marches.append(kw)
        return real_march(*args, **kw)

    def estimator(params, disc, op, **kw):
        runs.append((params, disc, op, kw))
        raise RuntimeError("inputs recorded")

    monkeypatch.setattr(bounds, "second_moment_volterra", march)
    monkeypatch.setattr(acceptance, "estimate_second_moment_pair", estimator)
    assert "inputs recorded" in acceptance.check_mc_oracle().detail
    ((params, disc, op, kw),) = runs
    op0, params0 = acceptance.desk_problem()
    assert op is op0 and params.u0.tolist() == params0.u0.tolist() and params.sigma == params0.sigma
    got = {
        "alpha": params.alpha, "L": op.grid.L, "n": op.grid.n, "mu": op.grid.mu, "lam": params.lam,
        "t_end": disc.t_end, "dt": disc.dt, "volterra_steps": marches[0]["steps"],
        "n_paths": kw["n_paths"], "worker_count": kw["worker_count"],
    }
    assert got == workloads.MC_ORACLE
    assert marches[0]["T"] == disc.t_end
    assert kw["master_seed"] == workloads.CHECK4_SEED == acceptance._MC_SEED
