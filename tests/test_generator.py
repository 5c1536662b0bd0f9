import time

import numpy as np
import pytest

from noisytime import (
    DriftPreset,
    GridMismatch,
    HermitianOperator,
    KernelAsymmetric,
    StepTooLarge,
    Superoperator,
    averaged_state_global,
    averaged_trajectory,
    build_correlated,
    build_general,
    build_phase_destroying,
    choi_matrix,
    correlated_model,
    correlated_rate_table,
    cp_report,
    eigendecompose,
    integrate,
)
from noisytime.generator import CHOI_PSD_TOL


class TestSuperoperator:
    def test_rate_symmetry_enforced(self):
        # rates must satisfy r_lk = conj(r_kl) so evolution stays Hermitian
        bad = np.array([[0.0, -1.0 + 0.5j], [-1.0 + 0.5j, 0.0]])
        with pytest.raises(ValueError):
            Superoperator(bad)

    def test_propagator_factors(self):
        rates = np.array([[0.0, -1.0 - 2.0j], [-1.0 + 2.0j, 0.0]])
        gen = Superoperator(rates)
        assert np.allclose(gen.propagator_factors(0.5), np.exp(rates * 0.5))

    def test_apply_is_elementwise(self):
        rates = np.array([[0.0, -0.5], [-0.5, 0.0]], dtype=complex)
        gen = Superoperator(rates)
        rho_e = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        out = gen.apply(rho_e, 2.0)
        assert np.allclose(out, np.exp(rates * 2.0) * rho_e)


class TestBuilders:
    def test_phase_destroying_rates(self, qubit):
        _, dec, _ = qubit
        gamma = 0.8
        gen = build_phase_destroying(dec, gamma)
        gap = 0.0 - 1.0
        assert gen.rates[0, 1] == pytest.approx(-1j * gap - 0.5 * gamma * gap**2)
        assert gen.rates[0, 0] == 0.0

    def test_correlated_rate_table_formula(self):
        levels = np.array([0.0, 1.0, 2.5])
        gamma, tau = 0.8, 1.3
        table = correlated_rate_table(levels, gamma, tau)
        for i, a in enumerate(levels):
            for j, b in enumerate(levels):
                g = np.exp(-(tau**2) * (a - b) ** 2)
                assert table[i, j] == pytest.approx(
                    gamma * (a * a + b * b - 2 * a * b * g), rel=1e-13
                )

    def test_general_rejects_asymmetric(self, qubit):
        _, dec, _ = qubit
        with pytest.raises(KernelAsymmetric):
            build_general(dec, [[0.0, 0.3], [0.6, 0.0]])

    def test_general_rejects_negative_diagonal(self, qubit):
        _, dec, _ = qubit
        with pytest.raises(ValueError):
            build_general(dec, [[-0.2, 0.0], [0.0, 0.0]])

    def test_general_expands_degenerate_levels(self):
        dec = eigendecompose(HermitianOperator(np.diag([1.0, 1.0, 3.0])))
        gen = build_general(dec, [[0.0, 0.5], [0.5, 0.2]])
        # columns 0 and 1 share a level: zero gap, zero damping between them
        assert gen.rates[0, 1] == 0.0
        assert gen.rates[0, 2] == pytest.approx(-1j * (1.0 - 3.0) - 0.25)
        assert gen.rates[2, 2] == pytest.approx(-0.1)

    def test_drift_override(self, qubit):
        _, dec, _ = qubit
        gen = build_general(dec, [[0.0, 0.0], [0.0, 0.0]], h=DriftPreset.affine(2.0, 0.0))
        assert gen.rates[0, 1] == pytest.approx(-1j * (0.0 - 2.0))


class TestIntegrate:
    def test_matches_global_closed_form(self, qubit):
        _, dec, rho0 = qubit
        gamma = 0.5
        grid = np.linspace(0.0, 5.0, 26)
        result = integrate(build_phase_destroying(dec, gamma), rho0, grid, decomposition=dec)
        assert result.provenance == "ode"
        for state, t in zip(result.states, grid):
            exact = averaged_state_global(dec, gamma, rho0, float(t)).matrix
            assert np.max(np.abs(state - exact)) < 1e-8

    def test_matches_correlated_analytic(self, four_level):
        _, dec, rho0 = four_level
        grid = np.linspace(0.0, 3.0, 13)
        result = integrate(build_correlated(dec, 0.8, 1.0), rho0, grid, decomposition=dec)
        analytic = averaged_trajectory(dec, correlated_model(0.8, 1.0), rho0, grid)
        assert np.max(np.abs(result.states - analytic.states)) < 1e-8

    def test_rk4_step_halving_improves(self, qubit):
        _, dec, rho0 = qubit
        gen = build_phase_destroying(dec, 2.0)
        exact = averaged_state_global(dec, 2.0, rho0, 1.0).matrix

        def error_at(step):
            out = integrate(gen, rho0, [0.0, 1.0], decomposition=dec, max_step=step)
            return np.max(np.abs(out.states[-1] - exact))

        ratio = error_at(0.05) / error_at(0.025)
        assert 8 < ratio < 40  # fourth order: expect about 16

    def test_grid_must_start_at_zero(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(GridMismatch):
            integrate(build_phase_destroying(dec, 1.0), rho0, [0.5, 1.0], decomposition=dec)

    def test_step_too_large(self, qubit):
        _, dec, rho0 = qubit
        gen = build_phase_destroying(dec, 50.0)
        with pytest.raises(StepTooLarge):
            integrate(gen, rho0, [0.0, 4.0], decomposition=dec, max_step=4.0)

    def test_substep_count_guard(self, qubit):
        # 0.01 / max|rate| steps over t = 4 at rate 5e8 would be 2e11 substeps
        _, dec, rho0 = qubit
        gen = build_phase_destroying(dec, 1e9)
        start = time.perf_counter()
        with pytest.raises(StepTooLarge) as info:
            integrate(gen, rho0, [0.0, 4.0], decomposition=dec)
        assert time.perf_counter() - start < 5.0
        assert "2e+11 RK4 substeps" in str(info.value)
        assert "largest rate 5e+08" in str(info.value)

    def test_energy_basis_input(self, qubit):
        # decomposition=None means rho0 is already elementwise-diagonalized
        _, dec, rho0 = qubit
        gen = build_phase_destroying(dec, 0.5)
        a = integrate(gen, rho0, [0.0, 1.0], decomposition=dec).states[-1]
        b = integrate(gen, rho0.matrix, [0.0, 1.0]).states[-1]
        assert np.allclose(a, b, atol=1e-12)  # diagonal H: same basis


class TestChoi:
    def test_block_structure(self, qubit):
        _, dec, _ = qubit
        gen = build_phase_destroying(dec, 0.5)
        t = 0.7
        choi = choi_matrix(gen, t)
        factors = gen.propagator_factors(t)
        d = 2
        for i in range(d):
            for j in range(d):
                block = choi[i * d : (i + 1) * d, j * d : (j + 1) * d]
                expected = np.zeros((d, d), dtype=complex)
                expected[i, j] = factors[i, j]
                assert np.allclose(block, expected, atol=1e-15)

    def test_violator_flagged(self, qubit):
        # lambda with negative off-diagonal amplifies coherences: not CP
        _, dec, _ = qubit
        violator = build_general(dec, [[0.0, -1.0], [-1.0, 0.0]])
        report = cp_report(violator, [1.0])
        assert not report.cp_ok
        assert report.min_choi_eigenvalue < -1e-6
        # known value: 1 - exp(c t / 2) for table amplitude c
        assert report.min_choi_eigenvalue == pytest.approx(1 - np.exp(0.5), abs=1e-12)


class TestReducedCertificate:
    """cp_report certifies from the d x d factor matrix; the dense Choi is the oracle."""

    SPECTRUM = [0.0, 0.37, 1.1, 2.03, 2.5, 3.01, 3.9, 4.42]

    @staticmethod
    def _assert_matches_oracle(generator, times):
        report = cp_report(generator, times)
        for checkpoint in report.checkpoints:
            oracle = float(np.linalg.eigvalsh(choi_matrix(generator, checkpoint.t))[0])
            assert checkpoint.min_choi_eigenvalue == pytest.approx(oracle, abs=1e-12)
        return report

    def test_builtin_generators(self):
        rng = np.random.default_rng(5)
        for dim in range(1, 9):
            dec = eigendecompose(HermitianOperator(np.diag(self.SPECTRUM[:dim])))
            table = rng.uniform(0.0, 1.0, size=(dim, dim))
            for generator in (
                build_phase_destroying(dec, 0.7),
                build_correlated(dec, 0.7, 1.2, h=DriftPreset.affine(1.5, 0.2)),
                build_general(dec, table @ table.T),
            ):
                report = self._assert_matches_oracle(generator, [0.1, 1.0, 10.0])
                if generator.name != "general":
                    assert report.cp_ok

    def test_single_level_reports_the_factor(self):
        dec = eigendecompose(HermitianOperator(np.diag([2.0])))
        report = self._assert_matches_oracle(build_general(dec, [[0.6]]), [0.5, 2.0])
        assert report.checkpoints[0].min_choi_eigenvalue == pytest.approx(np.exp(-0.15))
        assert report.cp_ok

    def test_indefinite_table_fails_both(self):
        # the negative (0, 3) rate amplifies a coherence that its populations damp
        dec = eigendecompose(HermitianOperator(np.diag(self.SPECTRUM[:4])))
        table = np.full((4, 4), 0.2)
        np.fill_diagonal(table, 2.0)
        table[0, 3] = table[3, 0] = -1.5
        generator = build_general(dec, table)
        report = self._assert_matches_oracle(generator, [0.5, 1.0, 3.0])
        assert not report.cp_ok
        oracle_ok = all(
            np.linalg.eigvalsh(choi_matrix(generator, t))[0] >= CHOI_PSD_TOL
            for t in (0.5, 1.0, 3.0)
        )
        assert not oracle_ok

    def test_trace_and_unitality_defects_coincide(self, four_level):
        _, dec, _ = four_level
        generator = build_general(dec, np.diag([0.3, 0.0, 0.1, 0.2]) + 0.4)
        identity = np.eye(dec.dim)
        for checkpoint in cp_report(generator, [0.2, 1.5]).checkpoints:
            direct = np.max(np.abs(generator.apply(identity, checkpoint.t) - identity))
            assert checkpoint.trace_defect == checkpoint.unitality_defect == direct


class TestCPReport:
    def test_defects_small_for_brownian(self, four_level):
        _, dec, _ = four_level
        report = cp_report(build_correlated(dec, 0.8, 1.0), [0.1, 1.0, 10.0])
        assert report.cp_ok
        for cp in report.checkpoints:
            assert cp.trace_defect < 1e-10
            assert cp.unitality_defect < 1e-10
            assert cp.semigroup_defect < 1e-10

    def test_dissipative_trace_defect_reported(self, qubit):
        _, dec, _ = qubit
        report = cp_report(build_general(dec, [[0.6, 0.7], [0.7, 0.8]]), [1.0])
        assert report.checkpoints[0].trace_defect > 0.2

    def test_to_dict_shape(self, qubit):
        _, dec, _ = qubit
        payload = cp_report(build_phase_destroying(dec, 1.0), [0.5, 1.0]).to_dict()
        assert payload["cp_ok"] is True
        assert len(payload["checkpoints"]) == 2
        assert set(payload["checkpoints"][0]) == {
            "t",
            "min_choi_eigenvalue",
            "trace_defect",
            "unitality_defect",
            "semigroup_defect",
        }
