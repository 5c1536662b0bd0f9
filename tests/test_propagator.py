import math
import tracemalloc
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
    StepTooLarge,
    averaged_state,
    averaged_trajectory,
    build_generator,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    eigendecompose,
    energy_expectation,
    integrate,
    lambda_pair,
    semigroup_defect,
)
from noisytime import operators
from noisytime.metrics import coherence_l1, purity
from noisytime.noise import LambdaKernel
from noisytime.operators import _hermitian_part, _time_slabs, from_energy_basis, to_energy_basis
from noisytime.propagator import _element_factors
from noisytime.results import EvolutionResult
from noisytime.verify import _global_noise_state, _time_average


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
    def test_shape_and_grid(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 2, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not warn for Brownian models
            result = averaged_trajectory(dec, dephasing_model(1.0), rho0, grid)
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
            a = _global_noise_state(dec, 0.5 * t, rho0, t).matrix
            b = averaged_state(dec, dephasing_model(0.5), rho0, t).matrix
            assert np.allclose(a, b, atol=1e-15)

    def test_profile_accumulates_square(self, qubit):
        _, dec, rho0 = qubit
        profile = SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6])
        t = 1.5
        accumulated = 0.4**2 * 1.0 + 1.6**2 * 0.5
        expected = 0.5 * math.exp(-0.5 * accumulated) * np.exp(-1j * t)
        reference = _global_noise_state(dec, accumulated, rho0, t).matrix
        out = averaged_state(dec, NoiseModel(sigma_time=profile), rho0, t).matrix
        assert reference[1, 0] == pytest.approx(expected, abs=1e-12)
        assert out[1, 0] == pytest.approx(expected, abs=1e-12)


class TestTimeAverage:
    def test_gaussian_weight_characteristic_function(self, qubit):
        # Averaging pure phase evolution over a normal time density damps the
        # coherence by exp(-var/2), the gaussian characteristic function.
        _, dec, rho0 = qubit
        center, spread = 1.0, 0.1
        grid = np.linspace(0.0, 2.0, 8001)
        zero_noise = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0))
        states = averaged_trajectory(dec, zero_noise, rho0, grid).states
        weights = np.exp(-0.5 * ((grid - center) / spread) ** 2)
        weights /= spread * math.sqrt(2 * math.pi)
        out = _time_average(grid, states, weights)
        expected = 0.5 * math.exp(-0.5 * spread**2)
        assert abs(out.matrix[0, 1]) == pytest.approx(expected, abs=1e-6)


class TestSemigroupDefect:
    def test_time_independent_kernel_is_markovian(self, qubit):
        _, dec, rho0 = qubit
        assert semigroup_defect(dec, dephasing_model(0.5), rho0, 0.7, 1.1) < 1e-12

    def test_defect_zero_for_unitary(self, qubit):
        _, dec, rho0 = qubit
        model = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0))
        assert semigroup_defect(dec, model, rho0, 0.9, 0.3) < 1e-12


class TestGridErrors:
    def test_trajectory_grid_validated(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(GridMismatch):
            averaged_trajectory(dec, dephasing_model(1.0), rho0, [1.0, 0.5])


class TestTimeSlabs:
    """The analytic route, the master-equation route and the metrics table,
    evaluated one time slab at a time, against one broadcast over the whole
    grid."""

    @staticmethod
    def _case():
        # d = 32: the analytic route takes slabs of 10 points, counting its
        # six (slab, d, d) arrays, fifteen slabs; the metrics table slabs of
        # 64 points, three, the last partial
        rng = np.random.default_rng(32)
        raw = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        hamiltonian = HermitianOperator(0.5 * (raw + raw.conj().T))
        w = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        rho = w @ w.conj().T
        state = DensityMatrix(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
        grid = np.linspace(0.0, 3.0, 150)
        assert len(_time_slabs(grid.size, 6 * 32 * 32)) == 15
        assert len(_time_slabs(grid.size, 32 * 32)) == 3
        return hamiltonian, eigendecompose(hamiltonian), state, grid

    def test_analytic_route(self):
        _, dec, state, grid = self._case()
        model = correlated_model(0.5, 1.0)
        factors = _element_factors(
            dec, LambdaKernel(model, dec.levels), model.drift_h(dec.levels), grid
        )
        whole = from_energy_basis(factors * to_energy_basis(state.matrix, dec), dec)
        result = averaged_trajectory(dec, model, state, grid)
        assert result.states.tobytes() == _hermitian_part(whole).tobytes()

    @pytest.mark.parametrize("budget", [1 << 10, 1 << 20])
    def test_analytic_bytes_do_not_depend_on_the_slab_budget(self, budget, qubit, monkeypatch):
        # every state is formed from its own time point alone: d = 32 on
        # 150 points and a qubit on 16001, in one slab or in many
        _, dec, state, grid = self._case()
        _, qubit_dec, plus = qubit
        cases = [
            (dec, correlated_model(0.5, 1.0), state, grid),
            (qubit_dec, dephasing_model(0.5), plus, np.linspace(0.0, 5.0, 16001)),
        ]
        default = [averaged_trajectory(*case).states for case in cases]
        monkeypatch.setattr(operators, "SLAB_ELEMENT_BUDGET", budget)
        for case, states in zip(cases, default):
            assert averaged_trajectory(*case).states.tobytes() == states.tobytes()

    def test_analytic_peak_is_one_budget_over_the_states(self, qubit):
        # a qubit on 16001 points: the temporaries of one slab, counted over
        # every array the pass holds, stay within one budget of complex
        # entries beside the 1 MB of states; one slab of all 16001 points
        # would hold four states-sized temporaries, 5 MB in all
        _, dec, rho0 = qubit
        model = dephasing_model(0.5)
        grid = np.linspace(0.0, 5.0, 16001)
        averaged_trajectory(dec, model, rho0, grid[:3])
        tracemalloc.start()
        try:
            states = averaged_trajectory(dec, model, rho0, grid).states
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = operators.SLAB_ELEMENT_BUDGET * np.dtype(complex).itemsize
        assert peak <= states.nbytes + grid.nbytes + budget, peak

    def test_metrics_table(self):
        hamiltonian, dec, state, grid = self._case()
        states = averaged_trajectory(dec, correlated_model(0.5, 1.0), state, grid).states
        table = EvolutionResult(grid, states).metrics_table(dec, hamiltonian)
        whole = {
            "purity": purity(states),
            "coherence_l1": coherence_l1(states, dec),
            "energy": energy_expectation(states, hamiltonian),
            "trace": np.trace(states, axis1=1, axis2=2).real,
        }
        assert list(table) == list(whole)
        for key, values in whole.items():
            assert table[key].tobytes() == values.tobytes()

    @staticmethod
    def _route2_case(spans):
        # d = 4: a slab budget of 80 entries cuts 11 intervals into 5, 5 and 1
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dec = eigendecompose(HermitianOperator(0.5 * (raw + raw.conj().T)))
        w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = w @ w.conj().T
        state = DensityMatrix(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
        generator = build_generator(dec, correlated_model(0.5, 1.0))
        grid = np.concatenate([[0.0], np.cumsum(spans(rng))])
        assert len(_time_slabs(grid.size - 1, 16)) == 1
        return dec, generator, state, grid

    def test_master_equation_route(self, monkeypatch):
        # an irregular grid; numpy's complex loops may round the factors of
        # an interval differently in another slab, by about 1e-16
        dec, generator, state, grid = self._route2_case(lambda rng: rng.uniform(0.05, 0.6, 11))
        whole = integrate(generator, state, grid, decomposition=dec).states
        monkeypatch.setattr(operators, "SLAB_ELEMENT_BUDGET", 80)
        assert [s.stop - s.start for s in _time_slabs(grid.size - 1, 16)] == [5, 5, 1]
        sliced = integrate(generator, state, grid, decomposition=dec).states
        assert np.max(np.abs(sliced - whole)) <= 1e-15

    def test_step_too_large_in_a_later_slab(self, monkeypatch):
        # one RK4 step per interval: ten short intervals pass and the
        # eleventh, alone in the third slab, fails
        dec, generator, state, grid = self._route2_case(
            lambda rng: np.append(rng.uniform(0.001, 0.002, 10), 2.0)
        )
        with pytest.raises(StepTooLarge) as whole:
            integrate(generator, state, grid, decomposition=dec, max_step=math.inf)
        monkeypatch.setattr(operators, "SLAB_ELEMENT_BUDGET", 80)
        with pytest.raises(StepTooLarge) as sliced:
            integrate(generator, state, grid, decomposition=dec, max_step=math.inf)
        step = str(whole.value).split("at step size ")[1]
        assert step == f"{grid[-1] - grid[-2]:.3e}"
        assert str(sliced.value).split("at step size ")[1] == step
