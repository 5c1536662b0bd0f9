import time
from dataclasses import replace

import numpy as np
import pytest

from noisytime import (
    ConfigError,
    CorrelationPreset,
    DriftPreset,
    GridMismatch,
    HermitianOperator,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    StepTooLarge,
    averaged_trajectory,
    build_generator,
    correlated_model,
    cp_report,
    dephasing_model,
    direct_damping_model,
    eigendecompose,
    integrate,
    noise,
)
from noisytime.generator import CHOI_PSD_TOL, LOCAL_ERROR_LIMIT, Superoperator
from noisytime.operators import from_energy_basis, to_energy_basis
from noisytime.verify import _global_noise_state


def _choi_matrix(generator, t):
    """Dense Choi matrix sum_ij |i><j| (x) map(|i><j|), the oracle of cp_report.

    The time-t map multiplies entry (k, l) by exp(r_kl t); it is applied to
    every matrix unit |i><j| and the images are placed blockwise.
    """
    d = generator.dim
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[i, j] = |i><j|
    images = _apply(generator, units, t)
    return images.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _apply(generator, rho_energy, t):
    """The exact time-t map on energy-basis matrices: entrywise exp(r t)."""
    return generator.factors(t) * np.asarray(rho_energy, dtype=complex)


def _damping_table(generator):
    """The damping-rate table of a generator: rates are -i dh - table / 2."""
    return -2.0 * generator.rates.real


def _direct_rates(levels, table):
    """Route 2's rates -i dh - table / 2 for a table that direct_damping_model
    refuses: one that is not conditionally negative semidefinite."""
    return Superoperator(-1j * np.subtract.outer(levels, levels) - 0.5 * np.asarray(table))


def _cp_table(rng, m):
    """A random completely positive damping table: squared distances of points
    on a line plus (a_k + a_l) / 2 with a >= 0."""
    p, a = rng.normal(size=m), rng.uniform(0.0, 1.0, m)
    return (p[:, None] - p[None, :]) ** 2 + 0.5 * (a[:, None] + a[None, :])


def _amplifying(dec):
    """Negative off-diagonal rates: coherences grow, the map is not CP."""
    return _direct_rates(dec.levels, [[0.0, -1.0], [-1.0, 0.0]])


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
        model = dephasing_model(0.7)
    elif kind == "correlated":
        model = correlated_model(0.7, 0.9)
    else:
        model = direct_damping_model(dec.levels, _cp_table(rng, dec.num_levels))
    gen = build_generator(dec, model)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return dec, gen, rho / np.trace(rho)


class TestSuperoperator:
    def test_rate_symmetry_enforced(self):
        # rates must satisfy r_lk = conj(r_kl) so evolution stays Hermitian
        bad = np.array([[0.0, -1.0 + 0.5j], [-1.0 + 0.5j, 0.0]])
        with pytest.raises(ValueError):
            Superoperator(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.0, np.nan], [np.nan, 0.0]],
            [[np.inf, 0.0], [0.0, 0.0]],
            [[0.0, np.inf], [np.inf, 0.0]],
        ],
        ids=["nan", "inf-diagonal", "inf-pair"],
    )
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Superoperator(bad)

    def test_factors(self):
        rates = np.array([[0.0, -1.0 - 2.0j], [-1.0 + 2.0j, 0.0]])
        gen = Superoperator(rates)
        assert np.allclose(gen.factors(0.5), np.exp(rates * 0.5))

    def test_apply_is_elementwise(self):
        # RK4 on the master equation converges to the entrywise map
        rates = np.array([[0.0, -0.5], [-0.5, 0.0]], dtype=complex)
        gen = Superoperator(rates)
        rho_e = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        basis = eigendecompose(np.diag([0.0, 1.0]))  # rho_e is in its eigenbasis
        out = integrate(gen, rho_e, [0.0, 2.0], decomposition=basis).states[-1]
        assert np.max(np.abs(out - np.exp(rates * 2.0) * rho_e)) < 1e-8


class TestBuilders:
    def test_phase_destroying_rates(self, qubit):
        _, dec, _ = qubit
        gamma = 0.8
        gen = build_generator(dec, dephasing_model(gamma))
        gap = 0.0 - 1.0
        assert gen.rates[0, 1] == pytest.approx(-1j * gap - 0.5 * gamma * gap**2)
        assert gen.rates[0, 0] == 0.0

    def test_correlated_rate_table_formula(self):
        levels = np.array([0.0, 1.0, 2.5])
        gamma, tau = 0.8, 1.3
        dec = eigendecompose(HermitianOperator(np.diag(levels)))
        table = _damping_table(build_generator(dec, correlated_model(gamma, tau)))
        for i, a in enumerate(levels):
            for j, b in enumerate(levels):
                g = np.exp(-(tau**2) * (a - b) ** 2)
                assert table[i, j] == pytest.approx(
                    gamma * (a * a + b * b - 2 * a * b * g), rel=1e-13
                )

    def test_presets_closed_form(self):
        # sigma_time^2 (s^2 + s'^2 - 2 s s' g) for an exponential correlation,
        # a degree-2 sigma_theta and a constant sigma_time of 1.5
        levels = np.array([-1.0, 0.3, 2.0])
        dec = eigendecompose(HermitianOperator(np.diag(levels)))
        model = NoiseModel(
            sigma_theta=SigmaThetaPreset.polynomial([0.2, -0.5, 0.7]),
            sigma_time=SigmaTimePreset.constant(1.5),
            correlation_g=CorrelationPreset.exponential(0.8),
        )
        table = _damping_table(build_generator(dec, model))
        s = 0.2 - 0.5 * levels + 0.7 * levels**2
        for i, a in enumerate(levels):
            for j, b in enumerate(levels):
                g = np.exp(-abs(a - b) / 0.8)
                expected = 1.5**2 * (s[i] ** 2 + s[j] ** 2 - 2 * s[i] * s[j] * g)
                assert table[i, j] == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_general_expands_degenerate_levels(self):
        dec = eigendecompose(HermitianOperator(np.diag([1.0, 1.0, 3.0])))
        # the table is looked up by level, so its levels may come in any order
        gen = build_generator(dec, direct_damping_model([3.0, 1.0], [[0.2, 0.5], [0.5, 0.0]]))
        # columns 0 and 1 share a level: zero gap, zero damping between them
        assert gen.rates[0, 1] == 0.0
        assert gen.rates[0, 2] == pytest.approx(-1j * (1.0 - 3.0) - 0.25)
        assert gen.rates[2, 2] == pytest.approx(-0.1)

    def test_drift_override(self, qubit):
        _, dec, _ = qubit
        model = direct_damping_model(
            [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], drift=DriftPreset.affine(2.0, 0.0)
        )
        gen = build_generator(dec, model)
        assert gen.rates[0, 1] == pytest.approx(-1j * (0.0 - 2.0))

    def test_refuses_time_dependent_profile(self, qubit):
        _, dec, _ = qubit
        piecewise = SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6])
        with pytest.raises(ConfigError) as info:
            build_generator(dec, NoiseModel(sigma_time=piecewise))
        assert info.value.path == "noise.sigma_time"
        # a direct table is the level part E of lambda = S(t) E, so its
        # profile is refused as every other model's
        direct = direct_damping_model([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ConfigError) as info:
            build_generator(dec, replace(direct, sigma_time=piecewise))
        assert info.value.path == "noise.sigma_time"

    def test_never_evaluates_the_analytic_kernel(self, four_level, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("route 2 evaluated the analytic kernel")

        monkeypatch.setattr(noise.LambdaKernel, "__init__", refuse)
        _, dec, rho0 = four_level
        model = NoiseModel(correlation_g=CorrelationPreset.exponential(0.5))
        integrate(build_generator(dec, model), rho0, [0.0, 1.0], decomposition=dec)


class TestIntegrate:
    def test_matches_global_closed_form(self, qubit):
        _, dec, rho0 = qubit
        gamma = 0.5
        grid = np.linspace(0.0, 5.0, 26)
        gen = build_generator(dec, dephasing_model(gamma))
        result = integrate(gen, rho0, grid, decomposition=dec)
        for state, t in zip(result.states, grid.tolist()):
            exact = _global_noise_state(dec, gamma * t, rho0, t).matrix
            assert np.max(np.abs(state - exact)) < 1e-8

    def test_matches_correlated_analytic(self, four_level):
        _, dec, rho0 = four_level
        grid = np.linspace(0.0, 3.0, 13)
        model = correlated_model(0.8, 1.0)
        result = integrate(build_generator(dec, model), rho0, grid, decomposition=dec)
        analytic = averaged_trajectory(dec, model, rho0, grid)
        assert np.max(np.abs(result.states - analytic.states)) < 1e-8

    def test_rk4_step_halving_improves(self, qubit):
        _, dec, rho0 = qubit
        gen = build_generator(dec, dephasing_model(2.0))
        exact = _global_noise_state(dec, 2.0, rho0, 1.0).matrix

        def error_at(step):
            out = integrate(gen, rho0, [0.0, 1.0], decomposition=dec, max_step=step)
            return np.max(np.abs(out.states[-1] - exact))

        ratio = error_at(0.05) / error_at(0.025)
        assert 8 < ratio < 40  # fourth order: expect about 16

    def test_grid_must_start_at_zero(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(GridMismatch):
            gen = build_generator(dec, dephasing_model(1.0))
            integrate(gen, rho0, [0.5, 1.0], decomposition=dec)

    def test_step_too_large(self, qubit):
        _, dec, rho0 = qubit
        gen = build_generator(dec, dephasing_model(50.0))
        with pytest.raises(StepTooLarge):
            integrate(gen, rho0, [0.0, 4.0], decomposition=dec, max_step=4.0)

    def test_substep_count_guard(self, qubit):
        # 0.01 / max|rate| steps over t = 4 at rate 5e8 would be 2e11 substeps
        _, dec, rho0 = qubit
        gen = build_generator(dec, dephasing_model(1e9))
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
        basis = eigendecompose(np.diag(dec.column_levels()))  # rho_e is in its eigenbasis
        got = integrate(gen, rho_e, grid, decomposition=basis, max_step=max_step).states
        assert np.max(np.abs(got - expected)) < 1e-13
        rotated = integrate(gen, rho, grid, decomposition=dec, max_step=max_step).states
        assert np.max(np.abs(rotated - from_energy_basis(expected, dec))) < 1e-13

    def test_growing_generator_checks_every_substep(self, qubit):
        # r_01 = 0.5 + 1j grows |y_01|, so over [0, 10] the last substep's
        # estimate is about 150 times the first: at 158 substeps only the
        # last ones exceed the limit, and 159 substeps pass.  The entry
        # reaches modulus 74, so the states are compared to 1e-13 relative.
        _, dec, rho0 = qubit
        gen = _amplifying(dec)
        grid = [0.0, 10.0]
        coarse, fine = 10.0 / 157.5, 10.0 / 158.5  # 158 and 159 substeps
        _, estimates = _reference_integrate(gen, rho0.matrix, grid, coarse, check=False)
        assert len(estimates) == 158
        assert estimates[0] < LOCAL_ERROR_LIMIT < estimates[-1]
        with pytest.raises(StepTooLarge):
            _reference_integrate(gen, rho0.matrix, grid, coarse)
        with pytest.raises(StepTooLarge):
            integrate(gen, rho0.matrix, grid, decomposition=dec, max_step=coarse)
        expected, _ = _reference_integrate(gen, rho0.matrix, grid, fine)
        got = integrate(gen, rho0.matrix, grid, decomposition=dec, max_step=fine).states
        assert np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) < 1e-13

    @pytest.mark.parametrize("max_step", [-1.0, 0.0, float("nan")])
    def test_max_step_must_be_positive(self, qubit, max_step):
        _, dec, rho0 = qubit
        gen = build_generator(dec, dephasing_model(0.5))
        with pytest.raises(ValueError, match="max_step"):
            integrate(gen, rho0, [0.0, 1.0], decomposition=dec, max_step=max_step)

    def test_infinite_max_step_is_one_substep_per_interval(self, qubit):
        _, dec, rho0 = qubit
        gen = build_generator(dec, dephasing_model(0.5))
        grid = [0.0, 0.01, 0.03]
        a = integrate(gen, rho0, grid, decomposition=dec, max_step=np.inf).states
        b = integrate(gen, rho0, grid, decomposition=dec, max_step=0.02).states
        assert np.array_equal(a, b)


class TestChoi:
    def test_block_structure(self, qubit):
        _, dec, _ = qubit
        gen = build_generator(dec, dephasing_model(0.5))
        t = 0.7
        choi = _choi_matrix(gen, t)
        factors = gen.factors(t)
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
        report = cp_report(_amplifying(dec), [1.0])
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
        for t, choi_min in zip(report.times, report.choi_minima):
            oracle = float(np.linalg.eigvalsh(_choi_matrix(generator, t))[0])
            assert choi_min == pytest.approx(oracle, abs=1e-12)
        return report

    def test_builtin_generators(self):
        rng = np.random.default_rng(5)
        for dim in range(1, 9):
            dec = eigendecompose(HermitianOperator(np.diag(self.SPECTRUM[:dim])))
            table = _cp_table(rng, dim)
            drifted = replace(correlated_model(0.7, 1.2), drift_h=DriftPreset.affine(1.5, 0.2))
            brownian = (dephasing_model(0.7), drifted)
            for model in brownian:
                report = self._assert_matches_oracle(build_generator(dec, model), [0.1, 1.0, 10.0])
                assert report.cp_ok
            direct = direct_damping_model(dec.levels, table)
            self._assert_matches_oracle(build_generator(dec, direct), [0.1, 1.0, 10.0])

    def test_single_level_reports_the_factor(self):
        dec = eigendecompose(HermitianOperator(np.diag([2.0])))
        generator = build_generator(dec, direct_damping_model([2.0], [[0.6]]))
        report = self._assert_matches_oracle(generator, [0.5, 2.0])
        assert report.choi_minima[0] == pytest.approx(np.exp(-0.15))
        assert report.cp_ok

    def test_indefinite_table_fails_both(self):
        # the negative (0, 3) rate amplifies a coherence that its populations damp
        dec = eigendecompose(HermitianOperator(np.diag(self.SPECTRUM[:4])))
        table = np.full((4, 4), 0.2)
        np.fill_diagonal(table, 2.0)
        table[0, 3] = table[3, 0] = -1.5
        generator = _direct_rates(dec.levels, table)
        report = self._assert_matches_oracle(generator, [0.5, 1.0, 3.0])
        assert not report.cp_ok
        oracle_ok = all(
            np.linalg.eigvalsh(_choi_matrix(generator, t))[0] >= CHOI_PSD_TOL
            for t in (0.5, 1.0, 3.0)
        )
        assert not oracle_ok

    def test_trace_defect_is_the_identity_defect(self, four_level):
        # an elementwise map is as far from trace preserving as from unital
        _, dec, _ = four_level
        a = np.array([0.3, 0.0, 0.1, 0.2])
        table = 0.4 * (1.0 - np.eye(4)) + 0.5 * (a[:, None] + a[None, :])
        generator = build_generator(dec, direct_damping_model(dec.levels, table))
        identity = np.eye(dec.dim)
        report = cp_report(generator, [0.2, 1.5])
        for t, defect in zip(report.times, report.trace_defects):
            assert defect == np.max(np.abs(_apply(generator, identity, t) - identity))
        assert np.all(report.trace_defects > 0.0)


def _reference_checkpoints(generator, times):
    """The per-checkpoint loop: (t, Choi minimum, trace defect, semigroup defect)."""
    rows = []
    for t in times:
        factors = generator.factors(t)
        min_eig = float(np.linalg.eigvalsh(factors)[0])
        if generator.dim > 1:
            min_eig = min(0.0, min_eig)
        trace = float(np.max(np.abs(np.diag(factors) - 1.0)))
        semigroup = float(np.max(np.abs(generator.factors(2.0 * t) - factors * factors)))
        rows.append((float(t), min_eig, trace, semigroup))
    return np.array(rows).reshape(-1, 4)


class TestCPReport:
    def test_array_pass_matches_checkpoint_loop(self, qubit, four_level):
        _, dec2, _ = qubit
        _, dec4, _ = four_level
        drifted = replace(correlated_model(0.7, 1.2), drift_h=DriftPreset.affine(1.5, 0.2))
        generators = [
            build_generator(dec4, dephasing_model(0.5)),
            build_generator(dec4, drifted),
            build_generator(dec2, direct_damping_model(dec2.levels, [[0.6, 0.7], [0.7, 0.8]])),
            build_generator(
                eigendecompose(HermitianOperator(np.diag([2.0]))),
                direct_damping_model([2.0], [[0.6]]),
            ),
            _amplifying(dec2),
            _direct_rates([0.0, 1.0, 2.5], [[0, 1, 1], [1, 0, 5], [1, 5, 0]]),
        ]
        for d in (3, 8):
            generators += [_random_case(d, kind, d)[1] for kind in ("correlated", "general")]
        for times in ([1.0], [0.0, 0.05, 0.3, 1.2, 4.0, 10.0], np.linspace(0.0, 3.0, 9)[1:]):
            for generator in generators:
                r = cp_report(generator, times)
                got = np.stack([r.times, r.choi_minima, r.trace_defects, r.semigroup_defects], 1)
                assert got.tobytes() == _reference_checkpoints(generator, times).tobytes()

    def test_certifies_every_t_not_only_the_checkpoints(self):
        # Not CP for t up to about 0.5 only: the factor matrix is PSD at
        # every checkpoint integrate picks on a 100-step grid over [0, 10],
        # and the generator eigenvalue still fails the map.
        rates = _direct_rates([0.0, 1.0, 2.5], [[0, 1, 1], [1, 0, 5], [1, 5, 0]])
        late = cp_report(rates, np.linspace(0.0, 10.0, 101)[[12, 25, 37, 50, 62, 75, 87, 100]])
        assert late.min_choi_eigenvalue >= CHOI_PSD_TOL
        assert late.min_generator_eigenvalue == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert not late.cp_ok
        assert cp_report(rates, [0.01]).min_choi_eigenvalue < -1e-3
        # a table on the boundary, dissipative_direct's, certifies
        dec = eigendecompose(HermitianOperator(np.diag([1.0, 2.0])))
        boundary = direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]])
        assert cp_report(build_generator(dec, boundary), [1.0]).cp_ok

    def test_defects_small_for_brownian(self, four_level):
        _, dec, _ = four_level
        report = cp_report(build_generator(dec, correlated_model(0.8, 1.0)), [0.1, 1.0, 10.0])
        assert report.cp_ok
        assert np.all(report.trace_defects < 1e-10)
        assert np.all(report.semigroup_defects < 1e-10)

    def test_dissipative_trace_defect_reported(self, qubit):
        _, dec, _ = qubit
        model = direct_damping_model(dec.levels, [[0.6, 0.7], [0.7, 0.8]])
        report = cp_report(build_generator(dec, model), [1.0])
        assert report.trace_defects[0] > 0.2

    def test_to_dict_shape(self, qubit):
        _, dec, _ = qubit
        payload = cp_report(build_generator(dec, dephasing_model(1.0)), [0.5, 1.0]).to_dict()
        assert payload["cp_ok"] is True
        assert set(payload) == {
            "cp_ok",
            "min_choi_eigenvalue",
            "min_generator_eigenvalue",
            "checkpoints",
        }
        assert len(payload["checkpoints"]) == 2
        assert set(payload["checkpoints"][0]) == {
            "t",
            "min_choi_eigenvalue",
            "trace_defect",
            "semigroup_defect",
        }
