"""Failure paths of the invariant suite: each fault must turn its check to FAIL.

Every check passes on correct code (``TestVerifyCommand`` in test_cli.py
runs the whole suite), so these tests feed a check one broken input through
a monkeypatched dependency and require that the check rejects it.  The
last test bounds what one check holds in memory.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import noisytime
from noisytime import verify
from noisytime.noise import CorrelationPreset, LambdaKernel, SigmaThetaPreset, SigmaTimePreset


def _shift_energy(stack, size):
    """Move ``size`` of population from energy level 0 to level 3 of the
    four-level system in every state after the first: trace and Hermiticity
    are kept, the energy rises by 2.03 * size."""
    _, decomposition, _ = verify._four_level()
    v = decomposition.eigenvectors
    shifted = stack.copy()
    shifted[1:] += size * (np.outer(v[:, 3], v[:, 3].conj()) - np.outer(v[:, 0], v[:, 0].conj()))
    return shifted


def test_kernel_properties_flags_an_asymmetric_kernel(monkeypatch):
    # lambda(a, b) gains 1e-6 (b - a) where b > a: nonnegative, zero on the
    # diagonal, constant in time, and absent from the closed-form pair (1, -1)
    exact = LambdaKernel.lambda_matrix

    def skewed(self, t):
        levels = self.levels
        return exact(self, t) + 1e-6 * np.maximum(levels[None, :] - levels[:, None], 0.0)

    monkeypatch.setattr(LambdaKernel, "lambda_matrix", skewed)
    ok, detail = verify._check_kernel_properties()
    assert not ok
    assert detail.startswith("asym 2.00e-06, diag 0.00e+00,")


def test_spectral_invariants_flag_non_orthogonal_projectors(monkeypatch):
    # The last eigenvector column leans 1e-6 towards the first, which lies in
    # another level: the projectors built from the columns overlap
    exact = verify.eigendecompose

    def skewed(operator):
        dec = exact(operator)
        v = dec.eigenvectors.copy()
        v[:, -1] += 1e-6 * v[:, 0]
        return dataclasses.replace(dec, eigenvectors=v)

    monkeypatch.setattr(verify, "eigendecompose", skewed)
    ok, detail = verify._check_spectral_invariants()
    assert not ok
    assert float(detail.removeprefix("max defect ")) > 1e-7


def test_analytic_invariants_flag_an_energy_drift(monkeypatch):
    exact = verify.averaged_trajectory

    def drifting(*args):
        result = exact(*args)
        return dataclasses.replace(result, states=_shift_energy(result.states, 1e-9))

    monkeypatch.setattr(verify, "averaged_trajectory", drifting)
    assert verify._check_analytic_invariants() == (False, "energy drift 2.03e-09")


def test_analytic_invariants_flag_a_rising_purity(monkeypatch):
    # the states in reverse time order: purity and |rho_E| grow
    exact = verify.averaged_trajectory

    def reversed_in_time(*args):
        result = exact(*args)
        return dataclasses.replace(result, states=result.states[::-1].copy())

    monkeypatch.setattr(verify, "averaged_trajectory", reversed_in_time)
    ok, detail = verify._check_analytic_invariants()
    assert not ok
    assert detail.endswith("monotone False")


def test_energy_modes_flag_a_drifting_ensemble_mean(monkeypatch):
    exact = verify.run_ensemble

    def drifting(*args, **kwargs):
        ensemble = exact(*args, **kwargs)
        return dataclasses.replace(ensemble, mean=_shift_energy(ensemble.mean, 1e-9))

    monkeypatch.setattr(verify, "run_ensemble", drifting)
    ok, detail = verify._check_energy_modes()
    assert not ok
    assert detail.startswith("conserved drift 2.03e-09;")


def test_dissipative_time_profile_flags_a_table_that_ignores_sigma_time(monkeypatch):
    # a direct table's kernel back at S(t) = t, whatever sigma_time says
    exact = LambdaKernel.lambda_matrix

    def unit_time(self, t):
        if self.model.direct_lambda is None:
            return exact(self, t)
        return np.asarray(t, dtype=float)[..., None, None] * self.form

    assert verify._check_dissipative_time_profile()[0]
    monkeypatch.setattr(LambdaKernel, "lambda_matrix", unit_time)
    ok, detail = verify._check_dissipative_time_profile()
    assert not ok
    assert float(detail.split()[2].rstrip(";")) > 1e-3, detail


def _conjugate_to_energy_basis(rho, decomposition):
    """V^T rho conj(V): the energy basis of the conjugate eigenvectors."""
    v = decomposition.eigenvectors
    return v.T @ np.asarray(rho, dtype=complex) @ v.conj()


def _conjugate_from_energy_basis(rho_energy, decomposition):
    """conj(V) X V^T, the inverse of ``_conjugate_to_energy_basis``."""
    v = decomposition.eigenvectors
    return v.conj() @ np.asarray(rho_energy, dtype=complex) @ v.T


def test_suite_flags_a_conjugated_energy_basis(monkeypatch):
    # Rotating by conj(V) instead of V is exact on a real eigenbasis, and
    # the two maps are still each other's inverse; only a complex H shows it.
    # Every module that binds the names gets the mutant.
    for name in ("operators", "propagator", "generator", "montecarlo", "metrics", "verify"):
        module = getattr(noisytime, name)
        for function, mutant in (
            ("to_energy_basis", _conjugate_to_energy_basis),
            ("from_energy_basis", _conjugate_from_energy_basis),
        ):
            if hasattr(module, function):
                monkeypatch.setattr(module, function, mutant)
    failed = {result.name for result in verify.run_suite(quick=True) if not result.passed}
    assert failed >= {
        "analytic-state-invariants",
        "energy-conservation-and-dissipation",
        "time-average-quadrature",
        "ensemble-matches-analytic",
    }


def _correlation_mutant(monkeypatch, kind, build):
    """Evaluate every correlation of ``kind`` as the preset ``build(param)``."""
    exact = CorrelationPreset.__call__

    def mutant(self, theta, theta_prime):
        preset = build(self.params[0]) if self.kind == kind else self
        return exact(preset, theta, theta_prime)

    monkeypatch.setattr(CorrelationPreset, "__call__", mutant)


def _integrated_square_mutant(monkeypatch):
    exact = SigmaTimePreset.integrated_square
    monkeypatch.setattr(SigmaTimePreset, "integrated_square", lambda self, t: 1.1 * exact(self, t))


# Faults in the presets that all three routes read, so the routes still
# agree under each; the first two pass every other check of the suite.
PRESET_MUTANTS = {
    "gaussian-tau-squared-x1.3": lambda mp: _correlation_mutant(
        mp, "gaussian", lambda tau: CorrelationPreset.gaussian(tau * math.sqrt(1.3))
    ),
    "exponential-length-div-1.3": lambda mp: _correlation_mutant(
        mp, "exponential", lambda length: CorrelationPreset.exponential(length / 1.3)
    ),
    "polynomial-coefficient-x1.05": lambda mp: mp.setitem(
        SigmaThetaPreset.COEFFICIENTS, "polynomial", lambda c: c[:-1] + (1.05 * c[-1],)
    ),
    "integrated-square-x1.1": _integrated_square_mutant,
}


@pytest.mark.parametrize("mutant", PRESET_MUTANTS)
def test_preset_reference_values_flag_a_preset_fault(mutant, monkeypatch):
    assert verify._check_preset_reference_values()[0]
    PRESET_MUTANTS[mutant](monkeypatch)
    ok, detail = verify._check_preset_reference_values()
    assert not ok
    assert float(detail.split()[3]) > 1e-3, detail


def test_suite_flags_a_gaussian_correlation_fault(monkeypatch):
    PRESET_MUTANTS["gaussian-tau-squared-x1.3"](monkeypatch)
    failed = [result.name for result in verify.run_suite(quick=True) if not result.passed]
    assert failed == ["preset-reference-values"]


def test_chi_path_check_keeps_only_the_end_values():
    # the check draws the trajectories of sample_chi_paths in batches and
    # keeps their 4000 x 2 end values, never the whole 4000 x 51 x 2 path
    # array (3.3 MB); the statistics are those of the whole array's ends
    tracemalloc.start()
    try:
        ok, detail = verify._check_chi_paths()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert detail == "mean dev 1.86e-02 (3se 4.75e-02), var 1.002 vs 1.000"
    assert peak < 4000 * 51 * 2 * np.dtype(float).itemsize, peak
