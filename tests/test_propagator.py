import math
import warnings

import numpy as np
import pytest

from noisytime import (
    CorrelationPreset,
    DensityMatrix,
    DriftPreset,
    DissipativeTraceLoss,
    GridMismatch,
    HermitianOperator,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    WeightsNotNormalized,
    averaged_state,
    averaged_state_global,
    averaged_trajectory,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    eigendecompose,
    lambda_pair,
    semigroup_defect,
    time_averaged_state,
    to_energy_basis,
)


def manual_averaged(decomposition, model, rho0, t):
    """Elementwise oracle, written independently of the implementation."""
    levels = decomposition.column_levels()
    rho_e = to_energy_basis(rho0.matrix, decomposition)
    d = rho_e.shape[0]
    out = np.empty_like(rho_e)
    for k in range(d):
        for l in range(d):
            lam = lambda_pair(model, t, float(levels[k]), float(levels[l]))
            phase = np.exp(-1j * t * (levels[k] - levels[l]))
            out[k, l] = phase * math.exp(-0.5 * lam) * rho_e[k, l]
    v = decomposition.eigenvectors
    return v @ out @ v.conj().T


class TestAveragedState:
    def test_matches_manual_oracle(self, four_level):
        _, dec, rho0 = four_level
        model = correlated_model(0.8, 1.0)
        for t in (0.0, 0.4, 1.9):
            got = averaged_state(dec, model, rho0, t).matrix
            assert np.allclose(got, manual_averaged(dec, model, rho0, t), atol=1e-14)

    def test_qubit_coherence_decay(self, qubit):
        _, dec, rho0 = qubit
        gamma, t = 0.5, 2.0
        out = averaged_state(dec, model := dephasing_model(gamma), rho0, t).matrix
        expected = 0.5 * math.exp(-0.5 * gamma * t) * np.exp(-1j * t * (0.0 - 1.0))
        assert out[0, 1] == pytest.approx(expected, abs=1e-14)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_populations_frozen(self, four_level):
        _, dec, rho0 = four_level
        out = averaged_state(dec, correlated_model(1.0, 0.7), rho0, 3.0).matrix
        assert np.allclose(np.diag(out), np.diag(rho0.matrix), atol=1e-14)

    def test_accepts_raw_matrix(self, qubit):
        _, dec, rho0 = qubit
        a = averaged_state(dec, dephasing_model(1.0), rho0.matrix, 1.0).matrix
        b = averaged_state(dec, dephasing_model(1.0), rho0, 1.0).matrix
        assert np.array_equal(a, b)

    def test_degenerate_subspace_untouched(self):
        # Coherence inside a degenerate level sees zero gap and zero kernel.
        dec = eigendecompose(HermitianOperator(np.diag([1.0, 1.0, 3.0])))
        rho0 = DensityMatrix.pure([1.0, 1.0, 0.0])
        out = averaged_state(dec, dephasing_model(2.0), rho0, 5.0).matrix
        assert out[0, 1] == pytest.approx(0.5, abs=1e-14)

    def test_dissipative_warns_and_damps_trace(self):
        model = direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]])
        dec = eigendecompose(HermitianOperator(np.diag([1.0, 2.0])))
        rho0 = DensityMatrix.pure([1.0, 1.0])
        with pytest.warns(DissipativeTraceLoss):
            out = averaged_state(dec, model, rho0, 2.0)
        expected_trace = 0.5 * math.exp(-0.6) + 0.5 * math.exp(-0.8)
        assert np.trace(out.matrix).real == pytest.approx(expected_trace, abs=1e-12)


class TestTrajectory:
    def test_shape_and_provenance(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 2, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not warn for Brownian models
            result = averaged_trajectory(dec, dephasing_model(1.0), rho0, grid)
        assert result.provenance == "analytic"
        assert result.states.shape == (9, 2, 2)
        assert np.array_equal(result.grid, grid)

    def test_broadcast_equals_per_time_states(self):
        # non-diagonal H with a degenerate level, polynomial drift, stepped sigma_time
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        hamiltonian = HermitianOperator(q @ np.diag([0.0, 0.37, 0.37, 1.1, 2.03]) @ q.conj().T)
        dec = eigendecompose(hamiltonian)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho0 = DensityMatrix(raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real)
        model = NoiseModel(
            drift_h=DriftPreset.polynomial([0.1, 1.0, 0.3]),
            sigma_theta=SigmaThetaPreset.linear(0.8),
            sigma_time=SigmaTimePreset.piecewise_constant([0.7, 1.9], [0.4, 1.6, 0.9]),
            correlation_g=CorrelationPreset.gaussian(1.3),
        )
        grid = np.concatenate(([0.0, 0.7], np.linspace(0.8, 3.0, 12)))
        result = averaged_trajectory(dec, model, rho0, grid)
        for k, t in enumerate(grid):
            single = averaged_state(dec, model, rho0, float(t)).matrix
            assert np.max(np.abs(result.states[k] - single)) <= 1e-14


class TestGlobalPropagator:
    def test_gamma_shorthand(self, qubit):
        _, dec, rho0 = qubit
        for t in (0.0, 0.5, 2.0):
            a = averaged_state_global(dec, 0.5, rho0, t).matrix
            b = averaged_state(dec, dephasing_model(0.5), rho0, t).matrix
            assert np.allclose(a, b, atol=1e-15)

    def test_profile_accumulates_square(self, qubit):
        _, dec, rho0 = qubit
        profile = SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6])
        t = 1.5
        accumulated = 0.4**2 * 1.0 + 1.6**2 * 0.5
        out = averaged_state_global(dec, profile, rho0, t).matrix
        expected = 0.5 * math.exp(-0.5 * accumulated) * np.exp(-1j * t)
        assert out[1, 0] == pytest.approx(expected, abs=1e-12)


class TestTimeAverage:
    def test_single_point(self, qubit):
        _, dec, rho0 = qubit
        out = time_averaged_state([0.0], [rho0.matrix], [1.0])
        assert np.allclose(out.matrix, rho0.matrix, atol=1e-15)

    def test_rejects_negative_weights(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(WeightsNotNormalized):
            time_averaged_state([0.0, 1.0], [rho0.matrix] * 2, [2.0, -1.0])

    def test_rejects_unnormalized(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(WeightsNotNormalized):
            time_averaged_state([0.0, 1.0], [rho0.matrix] * 2, [3.0, 3.0])

    def test_gaussian_weight_characteristic_function(self, qubit):
        # Averaging pure phase evolution over a normal time density damps the
        # coherence by exp(-var/2), the gaussian characteristic function.
        _, dec, rho0 = qubit
        center, spread = 1.0, 0.1
        grid = np.linspace(0.0, 2.0, 8001)
        zero_noise = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0), gamma=0.0)
        states = averaged_trajectory(dec, zero_noise, rho0, grid).states
        weights = np.exp(-0.5 * ((grid - center) / spread) ** 2)
        weights /= spread * math.sqrt(2 * math.pi)
        out = time_averaged_state(grid, states, weights)
        expected = 0.5 * math.exp(-0.5 * spread**2)
        assert abs(out.matrix[0, 1]) == pytest.approx(expected, abs=1e-6)


class TestSemigroupDefect:
    def test_time_independent_kernel_is_markovian(self, qubit):
        _, dec, rho0 = qubit
        assert semigroup_defect(dec, dephasing_model(0.5), rho0, 0.7, 1.1) < 1e-12

    def test_defect_zero_for_unitary(self, qubit):
        _, dec, rho0 = qubit
        model = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0), gamma=0.0)
        assert semigroup_defect(dec, model, rho0, 0.9, 0.3) < 1e-12


class TestGridErrors:
    def test_trajectory_grid_validated(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(GridMismatch):
            averaged_trajectory(dec, dephasing_model(1.0), rho0, [1.0, 0.5])
