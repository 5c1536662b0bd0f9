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
    from_energy_basis,
    integrate,
    to_energy_basis,
)
from noisytime.generator import CHOI_PSD_TOL, LOCAL_ERROR_LIMIT


def _rk4_step(rates, y, h):
    k1 = rates * y
    k2 = rates * (y + 0.5 * h * k1)
    k3 = rates * (y + 0.5 * h * k2)
    k4 = rates * (y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_integrate(generator, y0, grid, max_step, check=True):
    """The per-substep RK4 loop: step doubling, the halved result kept.

    Works in the energy basis and returns the states and every substep's
    estimate; with ``check`` it raises StepTooLarge at the first estimate
    above LOCAL_ERROR_LIMIT.
    """
    rates = generator.rates
    y = np.array(y0, dtype=complex)
    states, estimates = [y], []
    for span in np.diff(grid):
        n_sub = max(1, int(np.ceil(span / max_step)))
        h = span / n_sub
        for _ in range(n_sub):
            full = _rk4_step(rates, y, h)
            y = _rk4_step(rates, _rk4_step(rates, y, 0.5 * h), 0.5 * h)
            estimates.append(float(np.max(np.abs(full - y))))
            if check and estimates[-1] > LOCAL_ERROR_LIMIT:
                raise StepTooLarge(f"local error estimate {estimates[-1]:.3e}")
        states.append(y)
    return np.array(states), estimates


def _random_case(d, kind, seed):
    """Random Hermitian H (levels in [-2, 2]), generator of ``kind``, full-rank state."""
    rng = np.random.default_rng(seed)
    levels = rng.uniform(-2.0, 2.0, d)
    levels[-1] = levels[0]  # a degenerate pair for d >= 2
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    dec = eigendecompose(HermitianOperator(q @ np.diag(levels) @ q.conj().T))
    if kind == "phase":
        gen = build_phase_destroying(dec, 0.7)
    elif kind == "correlated":
        gen = build_correlated(dec, 0.7, 0.9)
    else:
        m = dec.num_levels
        table = rng.uniform(0.0, 1.0, (m, m))
        gen = build_general(dec, table + table.T)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return dec, gen, rho / np.trace(rho)


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

    @pytest.mark.parametrize("kind", ["phase", "correlated", "general"])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_per_substep_loop(self, d, kind):
        dec, gen, rho = _random_case(d, kind, seed=10 * d + len(kind))
        max_rate = float(np.max(np.abs(gen.rates)))
        max_step = 0.03 / max_rate if max_rate > 0 else 0.1
        spans = max_step * np.random.default_rng(d).uniform(1.2, 6.0, 9)
        grid = np.concatenate([[0.0], np.cumsum(spans)])  # 2 to 6 substeps each
        rho_e = to_energy_basis(rho, dec)
        expected, _ = _reference_integrate(gen, rho_e, grid, max_step)
        got = integrate(gen, rho_e, grid, max_step=max_step).states
        assert np.max(np.abs(got - expected)) < 1e-13
        rotated = integrate(gen, rho, grid, decomposition=dec, max_step=max_step).states
        assert np.max(np.abs(rotated - from_energy_basis(expected, dec))) < 1e-13

    def test_growing_generator_checks_every_substep(self, qubit):
        # r_01 = 0.5 + 1j grows |y_01|, so over [0, 10] the last substep's
        # estimate is about 150 times the first: at 158 substeps only the
        # last ones exceed the limit, and 159 substeps pass.  The entry
        # reaches modulus 74, so the states are compared to 1e-13 relative.
        _, dec, rho0 = qubit
        gen = build_general(dec, [[0.0, -1.0], [-1.0, 0.0]])
        grid = [0.0, 10.0]
        coarse, fine = 10.0 / 157.5, 10.0 / 158.5  # 158 and 159 substeps
        _, estimates = _reference_integrate(gen, rho0.matrix, grid, coarse, check=False)
        assert len(estimates) == 158
        assert estimates[0] < LOCAL_ERROR_LIMIT < estimates[-1]
        with pytest.raises(StepTooLarge):
            _reference_integrate(gen, rho0.matrix, grid, coarse)
        with pytest.raises(StepTooLarge):
            integrate(gen, rho0.matrix, grid, max_step=coarse)
        expected, _ = _reference_integrate(gen, rho0.matrix, grid, fine)
        got = integrate(gen, rho0.matrix, grid, max_step=fine).states
        assert np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) < 1e-13

    @pytest.mark.parametrize("max_step", [-1.0, 0.0, float("nan")])
    def test_max_step_must_be_positive(self, qubit, max_step):
        _, dec, rho0 = qubit
        gen = build_phase_destroying(dec, 0.5)
        with pytest.raises(ValueError, match="max_step"):
            integrate(gen, rho0, [0.0, 1.0], decomposition=dec, max_step=max_step)

    def test_infinite_max_step_is_one_substep_per_interval(self, qubit):
        _, dec, rho0 = qubit
        gen = build_phase_destroying(dec, 0.5)
        grid = [0.0, 0.01, 0.03]
        a = integrate(gen, rho0, grid, decomposition=dec, max_step=np.inf).states
        b = integrate(gen, rho0, grid, decomposition=dec, max_step=0.02).states
        assert np.array_equal(a, b)

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
