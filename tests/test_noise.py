import math

import numpy as np
import pytest

from noisytime import (
    ConfigError,
    CorrelationPreset,
    DimensionMismatch,
    DirectDampingPreset,
    DriftPreset,
    GridMismatch,
    KernelAsymmetric,
    KernelNotPSD,
    LambdaKernel,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    correlated_model,
    correlation_matrix,
    dephasing_model,
    direct_damping_model,
    eta,
    lambda_pair,
    moment_report,
    predicted_moment,
    psd_sqrt,
    sample_chi_paths,
    sample_phase_differences,
)


def closed_form_lambda(gamma, t, a, b, g_ab):
    # gamma t (theta^2 + theta'^2 - 2 theta theta' g) for sigma = sqrt(gamma) theta
    return gamma * t * (a * a + b * b - 2 * a * b * g_ab)


class TestPresets:
    def test_drift_kinds(self):
        assert DriftPreset.identity()(2.5) == 2.5
        assert DriftPreset.affine(2.0, 1.0)(3.0) == 7.0
        assert DriftPreset.polynomial([1.0, 0.0, 2.0])(2.0) == 9.0

    def test_sigma_theta_kinds(self):
        assert SigmaThetaPreset.constant(0.3)(7.0) == 0.3
        assert SigmaThetaPreset.linear(2.0)(3.0) == 6.0

    def test_sigma_time_piecewise(self):
        profile = SigmaTimePreset.piecewise_constant([1.0, 2.0], [0.4, 1.6, 0.2])
        assert profile(0.5) == 0.4
        assert profile(1.0) == 1.6  # right-continuous at the breakpoint
        assert profile(1.5) == 1.6
        assert profile(3.0) == 0.2
        assert not profile.is_constant
        assert SigmaTimePreset.constant(1.0).is_constant

    def test_sigma_time_validation(self):
        with pytest.raises(ConfigError):
            SigmaTimePreset.piecewise_constant([2.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ConfigError):
            SigmaTimePreset.piecewise_constant([1.0], [1.0])
        with pytest.raises(ConfigError):
            SigmaTimePreset.piecewise_constant([1.0], [1.0, -0.5])

    def test_correlation_bounds(self):
        thetas = np.linspace(-2, 2, 7)
        for preset in (
            CorrelationPreset.uniform(),
            CorrelationPreset.gaussian(1.3),
            CorrelationPreset.exponential(0.7),
        ):
            values = preset(thetas[:, None], thetas[None, :])
            assert np.all(np.abs(values) <= 1.0 + 1e-15)
            assert np.allclose(np.diag(values), 1.0)
            assert np.allclose(values, values.T)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DriftPreset("cubic")
        with pytest.raises(ConfigError):
            CorrelationPreset("lorentzian")

    def test_config_round_trips(self):
        presets = [
            DriftPreset.affine(1.5, -0.5),
            SigmaThetaPreset.polynomial([0.0, 1.0, 0.25]),
            SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
            CorrelationPreset.exponential(2.0),
        ]
        for preset in presets:
            rebuilt = type(preset).from_config(preset.to_config())
            assert rebuilt == preset


class TestDirectDamping:
    def test_asymmetric_table_rejected(self):
        with pytest.raises(KernelAsymmetric):
            DirectDampingPreset([1.0, 2.0], [[0.0, 0.1], [0.3, 0.0]])

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ConfigError):
            DirectDampingPreset([1.0, 2.0], [[-0.1, 0.0], [0.0, 0.0]])

    def test_unknown_level_rejected(self):
        model = direct_damping_model([1.0, 2.0], [[0.0, 0.7], [0.7, 0.0]])
        with pytest.raises(DimensionMismatch):
            LambdaKernel(model, [1.5, 2.0])


class TestNoiseModel:
    def test_gamma_is_declared_strength(self):
        # The presets carry the strength numerically; gamma itself never
        # multiplies a kernel.
        model = dephasing_model(0.49)
        assert model.sigma_theta(1.0) == pytest.approx(0.7)
        assert lambda_pair(model, 1.0, 0.0, 1.0) == pytest.approx(0.49)

    def test_from_config_defaults_sigma_to_sqrt_gamma(self):
        model = NoiseModel.from_config({"gamma": 0.25})
        assert model.sigma_theta == SigmaThetaPreset.linear(0.5)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(gamma=-1.0)

    def test_dissipative_flag(self):
        assert direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]]).is_dissipative
        assert not direct_damping_model([1.0, 2.0], [[0.0, 0.7], [0.7, 0.0]]).is_dissipative
        assert not dephasing_model(1.0).is_dissipative


class TestEtaLambda:
    def test_eta_closed_form(self):
        model = correlated_model(0.8, 1.0)
        a, b = 0.3, 1.7
        g = math.exp(-((a - b) ** 2))
        expected = 0.8 * (a * a + b * b - 2 * a * b * g)
        assert eta(model, 0.0, a, b) == pytest.approx(expected, rel=1e-14)

    def test_eta_diagonal_zero(self):
        model = correlated_model(0.8, 1.0)
        assert eta(model, 1.0, 1.3, 1.3) == 0.0

    def test_eta_nonnegative_everywhere(self):
        model = correlated_model(1.0, 2.0)
        thetas = np.linspace(-3, 3, 13)
        for a in thetas:
            for b in thetas:
                assert eta(model, 0.5, float(a), float(b)) >= 0.0

    def test_lambda_constant_profile(self):
        model = correlated_model(0.8, 1.0)
        a, b, t = 0.3, 1.7, 2.5
        g = math.exp(-((a - b) ** 2))
        assert lambda_pair(model, t, a, b) == pytest.approx(
            closed_form_lambda(0.8, t, a, b, g), rel=1e-12
        )

    def test_lambda_zero_time(self):
        assert lambda_pair(dephasing_model(1.0), 0.0, 0.0, 1.0) == 0.0

    def test_lambda_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lambda_pair(dephasing_model(1.0), -0.1, 0.0, 1.0)

    def test_lambda_piecewise_exact(self):
        model = NoiseModel(
            sigma_theta=SigmaThetaPreset.linear(1.0),
            sigma_time=SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
        )
        # integral of sigma_time^2 splits at the breakpoint
        expected = (0.4**2 * 1.0 + 1.6**2 * 0.5) * (1.0 - 0.0) ** 2
        assert lambda_pair(model, 1.5, 1.0, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_lambda_monotone_in_time(self):
        model = correlated_model(1.0, 0.5)
        values = [lambda_pair(model, t, -1.0, 1.0) for t in np.linspace(0, 3, 10)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_direct_table_bypasses_quadrature(self):
        model = direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]])
        assert lambda_pair(model, 2.0, 1.0, 2.0) == pytest.approx(1.4)
        assert eta(model, 5.0, 2.0, 2.0) == pytest.approx(0.8)


def _trapezoid_square(preset, t, n=200_001):
    s = np.linspace(0.0, t, n)
    y = preset(s) ** 2
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(s)))


class TestIntegratedSquare:
    def test_matches_fine_trapezoid_on_random_presets(self):
        rng = np.random.default_rng(4242)
        n = 200_001
        for _ in range(8):
            k = int(rng.integers(1, 5))
            # the first breakpoint is negative, so its piece lies outside [0, t]
            breakpoints = -0.4 + np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, k))))
            values = rng.uniform(0.0, 2.0, size=k + 2)
            preset = SigmaTimePreset.piecewise_constant(breakpoints, values)
            # exactly on each positive breakpoint, past the last one, and in between
            times = [float(b) for b in breakpoints if b > 0] + [breakpoints[-1] + 0.7, 0.3]
            for t in times:
                # each jump inside (0, t) costs the trapezoid at most h * max v^2
                bound = (k + 1) * (t / (n - 1)) * float(np.max(values) ** 2) + 1e-12
                got = float(preset.integrated_square(t))
                assert abs(got - _trapezoid_square(preset, t, n)) <= bound

    def test_array_valued(self):
        preset = SigmaTimePreset.piecewise_constant([-1.0, 1.0, 2.0], [5.0, 0.4, 1.6, 0.5])
        times = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        expected = [0.0, 0.16 * 0.5, 0.16, 0.16 + 2.56, 0.16 + 2.56 + 0.25]
        assert np.allclose(preset.integrated_square(times), expected, rtol=1e-15, atol=0)
        assert preset.integrated_square(times).shape == (5,)

    def test_constant(self):
        preset = SigmaTimePreset.constant(1.5)
        assert preset.integrated_square(2.0) == pytest.approx(4.5, rel=1e-15)
        assert np.array_equal(preset.integrated_square(np.zeros(3)), np.zeros(3))


class TestKernelMatrices:
    def test_lambda_pair_is_kernel_entry(self):
        model = NoiseModel(
            sigma_theta=SigmaThetaPreset.polynomial([0.2, 0.9, -0.1]),
            sigma_time=SigmaTimePreset.piecewise_constant([0.5, 1.5], [1.0, 0.3, 2.0]),
            correlation_g=CorrelationPreset.exponential(0.7),
        )
        levels = [-0.8, 0.0, 0.37, 1.1, 2.03]
        kernel = LambdaKernel(model, levels)
        for t in (0.0, 0.5, 1.2, 3.0):
            lam = kernel.lambda_matrix(t)
            rate = kernel.eta_matrix(t)
            for i, a in enumerate(levels):
                for j, b in enumerate(levels):
                    assert lambda_pair(model, t, a, b) == lam[i, j]
                    assert eta(model, t, a, b) == rate[i, j]

    def test_array_of_times(self):
        model = NoiseModel(
            sigma_theta=SigmaThetaPreset.linear(1.0),
            sigma_time=SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
            correlation_g=CorrelationPreset.gaussian(0.8),
        )
        kernel = LambdaKernel(model, [0.0, 0.5, 1.7])
        times = np.array([0.0, 0.4, 1.0, 2.5])
        lam = kernel.lambda_matrix(times)
        rate = kernel.eta_matrix(times)
        assert lam.shape == rate.shape == (4, 3, 3)
        for k, t in enumerate(times):
            assert np.array_equal(lam[k], kernel.lambda_matrix(float(t)))
            assert np.array_equal(rate[k], kernel.eta_matrix(float(t)))
        with pytest.raises(ValueError):
            kernel.lambda_matrix(np.array([0.0, -1e-3]))

    def test_direct_table_level_order_lookup(self):
        table = [[0.1, 0.2, 0.3], [0.2, 0.4, 0.5], [0.3, 0.5, 0.6]]
        model = direct_damping_model([1.0, 2.0, 3.0], table)
        kernel = LambdaKernel(model, [3.0, 1.0, 2.0])
        expected = [[0.6, 0.3, 0.5], [0.3, 0.1, 0.2], [0.5, 0.2, 0.4]]
        assert np.array_equal(kernel.eta_matrix(0.7), expected)
        assert np.allclose(kernel.lambda_matrix(2.0), 2.0 * np.asarray(expected), rtol=1e-15)
        with pytest.raises(DimensionMismatch):
            LambdaKernel(model, [1.0, 1.5])

    def test_lambda_matrix_symmetric_zero_diag(self):
        kernel = LambdaKernel(correlated_model(0.8, 1.0), [0.0, 0.37, 1.1])
        lam = kernel.lambda_matrix(1.3)
        assert np.allclose(lam, lam.T)
        assert np.all(np.diag(lam) == 0.0)
        assert np.all(lam >= 0.0)

    def test_direct_matrix_diag(self):
        kernel = LambdaKernel(
            direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]]), [1.0, 2.0]
        )
        assert np.allclose(kernel.eta_matrix(0.0), [[0.6, 0.7], [0.7, 0.8]])

    def test_correlation_matrix_psd(self):
        for model in (dephasing_model(1.0), correlated_model(1.0, 1.5)):
            g = correlation_matrix(model, [-1.0, 0.0, 0.5, 2.0])
            assert np.linalg.eigvalsh(g)[0] >= -1e-12

    def test_psd_sqrt_reproduces(self):
        g = correlation_matrix(correlated_model(1.0, 1.5), [-1.0, 0.0, 0.5, 2.0])
        factor = psd_sqrt(g)
        assert np.allclose(factor @ factor.T, g, atol=1e-12)

    def test_psd_sqrt_rank_one(self):
        # uniform correlation is rank one; Cholesky would fail here
        g = np.ones((4, 4))
        factor = psd_sqrt(g)
        assert np.allclose(factor @ factor.T, g, atol=1e-12)

    def test_psd_sqrt_rejects_indefinite(self):
        with pytest.raises(KernelNotPSD) as info:
            psd_sqrt(np.array([[1.0, 1.5], [1.5, 1.0]]))
        assert info.value.min_eigenvalue < -1e-8


class TestSampling:
    def test_brownian_field_reproducible(self):
        model = correlated_model(1.0, 2.0)
        grid = np.linspace(0.0, 1.0, 11)
        a = sample_chi_paths(model, [-1.0, 0.0, 1.0], grid, seed=5, n_traj=3)
        b = sample_chi_paths(model, [-1.0, 0.0, 1.0], grid, seed=5, n_traj=3)
        assert np.array_equal(a.paths, b.paths)
        c = sample_chi_paths(model, [-1.0, 0.0, 1.0], grid, seed=6, n_traj=3)
        assert not np.array_equal(a.paths[0], c.paths[0])

    def test_brownian_field_trajectory_keyed_by_index(self):
        # substreams depend on (seed, trajectory), not on how many are drawn
        model = dephasing_model(1.0)
        grid = np.linspace(0.0, 1.0, 6)
        many = sample_chi_paths(model, [0.0, 1.0], grid, seed=9, n_traj=5)
        few = sample_chi_paths(model, [0.0, 1.0], grid, seed=9, n_traj=2)
        assert np.array_equal(many.paths[1], few.paths[1])

    def test_brownian_field_covariance(self):
        # driftless, unit amplitude: chi path increments are the Brownian increments
        model = NoiseModel(
            drift_h=DriftPreset.affine(0.0, 0.0),
            sigma_theta=SigmaThetaPreset.constant(1.0),
            correlation_g=CorrelationPreset.gaussian(1.0),
        )
        levels = [0.0, 1.0]
        grid = np.linspace(0.0, 1.0, 201)
        paths = sample_chi_paths(model, levels, grid, seed=21, n_traj=50).paths
        pooled = np.diff(paths, axis=1).reshape(-1, len(levels))
        dt = grid[1] - grid[0]
        cov = pooled.T @ pooled / pooled.shape[0] / dt
        expected = correlation_matrix(model, levels)
        assert np.max(np.abs(cov - expected)) < 5.0 * math.sqrt(2.0 / pooled.shape[0])

    def test_brownian_field_rejects_direct_model(self):
        model = direct_damping_model([0.0, 1.0], [[0.1, 0.0], [0.0, 0.1]])
        with pytest.raises(ValueError):
            sample_chi_paths(model, [0.0, 1.0], np.linspace(0, 1, 5), seed=1, n_traj=1)

    def test_grid_validation(self):
        model = dephasing_model(1.0)
        with pytest.raises(GridMismatch):
            sample_chi_paths(model, [0.0, 1.0], [0.0], seed=1, n_traj=1)
        with pytest.raises(GridMismatch):
            sample_chi_paths(model, [0.0, 1.0], [0.0, 1.0, 0.5], seed=1, n_traj=1)

    def test_chi_paths_zero_noise_is_drift(self):
        model = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0), gamma=0.0)
        grid = np.linspace(0.0, 2.0, 9)
        paths = sample_chi_paths(model, [0.5, 1.5], grid, seed=3, n_traj=4)
        for k, theta in enumerate([0.5, 1.5]):
            assert np.allclose(paths.paths[:, :, k], theta * grid, atol=1e-12)

    def test_chi_paths_start_at_zero(self):
        paths = sample_chi_paths(
            dephasing_model(1.0), [0.0, 1.0], np.linspace(0, 1, 5), seed=3, n_traj=2
        )
        assert np.all(paths.paths[:, 0, :] == 0.0)

    def test_chi_paths_step_through_breakpoints(self):
        # a grid missing the breakpoint is sampled on the grid that contains it
        model = NoiseModel(
            sigma_theta=SigmaThetaPreset.linear(1.0),
            sigma_time=SigmaTimePreset.piecewise_constant([1.0, 5.0], [0.4, 1.6, 0.1]),
        )
        levels = [0.0, 1.0]
        coarse = sample_chi_paths(model, levels, [0.0, 0.5, 1.5, 2.0], seed=3, n_traj=50)
        aligned = sample_chi_paths(model, levels, [0.0, 0.5, 1.0, 1.5, 2.0], seed=3, n_traj=50)
        assert np.array_equal(coarse.grid, [0.0, 0.5, 1.5, 2.0])
        assert coarse.paths.shape == (50, 4, 2)
        assert np.array_equal(coarse.paths, aligned.paths[:, [0, 1, 3, 4], :])

    def test_phase_differences_degenerate_pair(self):
        model = dephasing_model(1.0)
        x = sample_phase_differences(model, 1.0, 0.7, 0.7, 100, seed=1)
        assert np.all(x == 0.0)

    def test_phase_differences_variance(self):
        model = dephasing_model(0.5)
        n = 20000
        x = sample_phase_differences(model, 2.0, 0.0, 1.0, n, seed=8)
        lam = closed_form_lambda(0.5, 2.0, 0.0, 1.0, 1.0)
        assert np.var(x) == pytest.approx(lam, rel=5.0 * math.sqrt(2.0 / n))


class TestMoments:
    def test_predicted_moments(self):
        lam = 1.7
        assert predicted_moment(1, lam) == 0.0
        assert predicted_moment(2, lam) == pytest.approx(lam)
        assert predicted_moment(3, lam) == 0.0
        assert predicted_moment(4, lam) == pytest.approx(3 * lam**2)
        assert predicted_moment(6, lam) == pytest.approx(15 * lam**3)

    def test_report_rows(self):
        model = correlated_model(0.8, 1.0)
        rows = moment_report(model, t=1.0, theta=0.3, theta_prime=1.7, n_traj=5000, seed=12)
        assert [r.order for r in rows] == [2, 3, 4, 5, 6]
        lam = lambda_pair(model, 1.0, 0.3, 1.7)
        assert rows[0].predicted == pytest.approx(lam, rel=1e-12)
        for row in rows:
            assert abs(row.empirical - row.predicted) <= 4.0 * row.stderr

    def test_report_max_order(self):
        rows = moment_report(
            dephasing_model(1.0), t=1.0, theta=0.0, theta_prime=1.0,
            n_traj=500, seed=2, max_order=4,
        )
        assert [r.order for r in rows] == [2, 3, 4]
