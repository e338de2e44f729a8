"""Acceptance gate: the nine headline checks, one test each.

These delegate to fracheat.acceptance so the CLI selftest and the test suite
run the identical checks with the identical pinned tolerances.  Each check
carries its measured numbers in ``detail``, which becomes the assertion
message on failure.
"""

import pytest

from fracheat import acceptance, bounds


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


def test_quick_suite_computes_each_oracle_curve_once(monkeypatch):
    # checks 5-8 share one desk sweep; a level read by two checks is computed once
    keys = []
    real = bounds.oracle_moment_curves

    def spy(params, op, grid, T, steps, model):
        keys.append((params.alpha, params.lam, T, steps))
        return real(params, op, grid, T=T, steps=steps, model=model)

    monkeypatch.setattr(acceptance, "_CACHE", {})
    monkeypatch.setattr(bounds, "oracle_moment_curves", spy)
    assert all(r.passed for r in acceptance.run_selftest("quick"))
    assert len(keys) == 17
    assert len(set(keys)) == len(keys)
