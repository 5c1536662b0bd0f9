import dataclasses
import inspect
import math
import warnings

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
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    lambda_pair,
    moment_report,
    run_ensemble,
    sample_chi_paths,
    sample_phase_differences,
)
from noisytime.noise import LambdaKernel, correlation_matrix, predicted_moment, psd_sqrt
from noisytime import montecarlo, operators
from noisytime import noise as noise_module


def closed_form_lambda(gamma, t, a, b, g_ab):
    # gamma t (theta^2 + theta'^2 - 2 theta theta' g) for sigma = sqrt(gamma) theta
    return gamma * t * (a * a + b * b - 2 * a * b * g_ab)


# Valid fields for each preset kind that has fields.
VALID_FIELDS = {
    (DriftPreset, "affine"): (2.0, 1.0),
    (DriftPreset, "polynomial"): ((1.0, 0.0, 2.0),),
    (SigmaThetaPreset, "constant"): (0.3,),
    (SigmaThetaPreset, "linear"): (2.0,),
    (SigmaThetaPreset, "polynomial"): ((0.1, 1.0),),
    (SigmaTimePreset, "constant"): (0.5,),
    (SigmaTimePreset, "piecewise_constant"): ((1.0, 2.0), (0.4, 1.6, 0.2)),
    (CorrelationPreset, "gaussian"): (1.3,),
    (CorrelationPreset, "exponential"): (0.7,),
}


def _non_finite_cases():
    """(class, kind, field name, params) with one number of one field replaced
    by NaN or inf: a single field's value, or the last entry of a list."""
    for (cls, kind), valid in VALID_FIELDS.items():
        for index, name in enumerate(cls.KINDS[kind]):
            for bad in (math.nan, math.inf):
                params = list(valid)
                value = params[index]
                params[index] = value[:-1] + (bad,) if isinstance(value, tuple) else bad
                yield pytest.param(
                    cls, kind, name, tuple(params), id=f"{cls.__name__}-{kind}-{name}-{bad}"
                )


class TestPresets:
    @pytest.mark.parametrize("cls, kind, name, params", _non_finite_cases())
    def test_non_finite_field_rejected(self, cls, kind, name, params):
        with pytest.raises(ConfigError) as info:
            cls(kind, params)
        assert info.value.path == f"noise.{cls.SECTION}.{name}"

    def test_drift_kinds(self):
        assert DriftPreset.identity()(2.5) == 2.5
        assert DriftPreset.affine(2.0, 1.0)(3.0) == 7.0
        assert DriftPreset.polynomial([1.0, 0.0, 2.0])(2.0) == 9.0

    def test_sigma_theta_kinds(self):
        assert SigmaThetaPreset.constant(0.3)(7.0) == 0.3
        assert SigmaThetaPreset.linear(2.0)(3.0) == 6.0

    def test_polynomial_is_polyval_to_the_bit(self):
        # The level families evaluate every kind by Horner's rule in the
        # operations of numpy's polyval, which the package never imports.
        from numpy.polynomial.polynomial import polyval

        rng = np.random.default_rng(20020411)
        levels = np.concatenate([[0.0, -0.0], rng.normal(scale=3.0, size=40)])
        for _ in range(200):
            size = int(rng.integers(1, 7))
            coeffs = tuple(rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size=size))
            for cls in (DriftPreset, SigmaThetaPreset):
                preset = cls.polynomial(coeffs)
                assert preset(levels).tobytes() == polyval(levels, coeffs).tobytes()
                for theta in (0.0, -0.0):
                    assert np.asarray(preset(theta)).tobytes() == polyval(theta, coeffs).tobytes()

    def test_other_level_kinds_are_their_formulas(self):
        rng = np.random.default_rng(11)
        theta = np.concatenate([[0.0, -0.0], rng.normal(scale=3.0, size=40)])
        for a, b in [(0.0, 0.0), (-0.0, -0.0), (2.0, -1.5), (-0.3, 0.0), (1e-3, 7.0)]:
            assert np.array_equal(DriftPreset.identity()(theta), theta + 0.0)
            assert np.array_equal(DriftPreset.affine(a, b)(theta), a * theta + b)
            assert np.array_equal(SigmaThetaPreset.constant(a)(theta), np.full_like(theta, a))
            assert np.array_equal(SigmaThetaPreset.linear(b)(theta), b * theta)

    @pytest.mark.parametrize(
        "cls, message",
        [
            (DriftPreset, "polynomial drift needs coefficients"),
            (SigmaThetaPreset, "polynomial needs coefficients"),
        ],
    )
    def test_empty_polynomial_rejected(self, cls, message):
        with pytest.raises(ConfigError) as info:
            cls.polynomial([])
        assert info.value.path == f"noise.{cls.SECTION}.coeffs"
        assert str(info.value).endswith(message)

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

    @pytest.mark.parametrize(
        "build, path",
        [
            (lambda: CorrelationPreset.gaussian(1e200), "noise.correlation_g.tau"),
            (lambda: SigmaTimePreset.constant(1e200), "noise.sigma_time.value"),
            (
                lambda: SigmaTimePreset.piecewise_constant([1.0], [0.4, 1e200]),
                "noise.sigma_time.values",
            ),
        ],
        ids=["tau", "value", "values"],
    )
    def test_number_whose_square_overflows_rejected(self, build, path):
        # The kernel squares these: tau**2 raised OverflowError, and an
        # infinite sigma_time**2 made every lambda(t) NaN.
        with pytest.raises(ConfigError) as info:
            build()
        assert info.value.path == path
        CorrelationPreset.gaussian(1e154)
        SigmaTimePreset.constant(1e154)

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

    @pytest.mark.parametrize(
        "cls, section",
        [
            (DriftPreset, "drift_h"),
            (SigmaThetaPreset, "sigma_theta"),
            (SigmaTimePreset, "sigma_time"),
            (CorrelationPreset, "correlation_g"),
            (DirectDampingPreset, "direct_lambda"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_kind_and_field_count_errors_name_the_path(self, cls, section):
        with pytest.raises(ConfigError) as info:
            cls("cubic")
        assert info.value.path == f"noise.{section}.kind"
        for kind, fields in cls.KINDS.items():
            with pytest.raises(ConfigError) as info:
                cls(kind, (1.0,) * (len(fields) + 1))
            assert info.value.path == f"noise.{section}"

    def test_constant_sigma_time_is_the_one_piece_profile(self):
        constant, one_piece = SigmaTimePreset.constant(0.7), SigmaTimePreset.piecewise_constant([], [0.7])
        t = np.linspace(0.0, 3.0, 7)
        assert constant.pieces == one_piece.pieces == ((), (0.7,))
        assert constant(t).tobytes() == one_piece(t).tobytes()
        assert constant.integrated_square(t).tobytes() == one_piece.integrated_square(t).tobytes()
        # constant means every piece has the same value
        assert one_piece.is_constant
        assert SigmaTimePreset.piecewise_constant([1.0, 2.0], [0.7, 0.7, 0.7]).is_constant
        assert not SigmaTimePreset.piecewise_constant([1.0], [0.7, 0.0]).is_constant

    def test_equal_neighbouring_pieces_merge(self):
        profile = SigmaTimePreset.piecewise_constant([0.5, 1.0, 2.0], [1.0, 1.0, 0.3, 0.3])
        assert profile.pieces == ((1.0,), (1.0, 0.3))
        assert SigmaTimePreset.piecewise_constant([1.0], [0.3, 1.0]).pieces == ((1.0,), (0.3, 1.0))
        # so a breakpoint between equal values refines no grid: same normals,
        # same paths as the constant profile
        constant = dephasing_model(1.0)
        assert constant.sigma_time == SigmaTimePreset.constant(1.0)
        split = dataclasses.replace(
            constant, sigma_time=SigmaTimePreset.piecewise_constant([0.5], [1.0, 1.0])
        )
        for grid in ([0.0, 1.0], np.linspace(0.0, 2.0, 6)):
            a = sample_chi_paths(constant, [0.0, 1.0], grid, seed=3, n_traj=70).paths
            b = sample_chi_paths(split, [0.0, 1.0], grid, seed=3, n_traj=70).paths
            assert a.tobytes() == b.tobytes()


class TestDirectDamping:
    def test_asymmetric_table_rejected(self):
        with pytest.raises(KernelAsymmetric):
            DirectDampingPreset.separable_linear([1.0, 2.0], [[0.0, 0.1], [0.3, 0.0]])

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ConfigError):
            DirectDampingPreset.separable_linear([1.0, 2.0], [[-0.1, 0.0], [0.0, 0.0]])

    def test_table_that_is_not_completely_positive_rejected(self):
        # sqrt(5) > 1 + 1: not a squared-distance table, and exp(-t D / 2)
        # entrywise has eigenvalue -0.0016 at t = 0.01
        with pytest.raises(ConfigError, match="eigenvalue -1.667e-01") as info:
            DirectDampingPreset.separable_linear([0.0, 1.0, 2.5], [[0, 1, 1], [1, 0, 5], [1, 5, 0]])
        assert info.value.path == "noise.direct_lambda.table"
        with pytest.raises(ConfigError, match="noise.direct_lambda.table"):
            DirectDampingPreset.separable_linear([0.0, 1.0], [[0.0, -1.0], [-1.0, 0.0]])
        # dissipative_direct's table sits on the boundary and is accepted
        DirectDampingPreset.separable_linear([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]])

    @pytest.mark.parametrize(
        "table",
        [
            [[0.0, np.nan], [np.nan, 0.0]],
            [[np.inf, 0.5], [0.5, 0.0]],
            [[0.0, np.inf], [np.inf, 0.0]],
            [[0.0, 1e308], [1e308, 0.0]],
            [[1e308, 1.5e308], [1.5e308, 1e308]],
        ],
        ids=["nan", "inf-diagonal", "inf-pair", "overflow-pair", "overflow-every-entry"],
    )
    def test_non_finite_table_rejected(self, table):
        # NaN - NaN and inf - inf pass a `> tol` symmetry test as NaN, and
        # finite entries whose sum overflows are inf once symmetrized, which
        # makes -J D J / 2 NaN
        with pytest.raises(ConfigError, match="noise.direct_lambda.table"):
            direct_damping_model([0.0, 1.0], table)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, level):
        with pytest.raises(ConfigError) as info:
            DirectDampingPreset.separable_linear([level, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        assert info.value.path == "noise.direct_lambda.levels"

    def test_unknown_level_rejected(self):
        model = direct_damping_model([1.0, 2.0], [[0.0, 0.7], [0.7, 0.0]])
        with pytest.raises(DimensionMismatch):
            LambdaKernel(model, [1.5, 2.0])

    def test_lookup_takes_the_first_match(self):
        # 1 + 4e-10 lies within 1e-9 of both 1 and 1 + 8e-10
        table = [[0.2, 1.3, 1.4], [1.3, 0.4, 1.5], [1.4, 1.5, 0.6]]
        preset = DirectDampingPreset.separable_linear([1.0, 1.0 + 8e-10, 2.0], table)
        assert np.array_equal(preset([2.0, 1.0 + 4e-10]), [[0.6, 1.4], [1.4, 0.2]])
        with pytest.raises(DimensionMismatch, match="level 1.5 "):
            preset([1.0, 1.5, 3.0])

    def test_equal_tables_compare_equal_and_hash(self):
        table = [[0.6, 0.7], [0.7, 0.8]]
        a = direct_damping_model([1.0, 2.0], table)
        b = direct_damping_model(np.array([1.0, 2.0]), np.array(table))
        assert a == b
        assert hash(a) == hash(b)
        assert a != direct_damping_model([1.0, 2.0], [[0.6, 0.8], [0.8, 0.8]])
        assert not a.direct_lambda.table.flags.writeable

    def test_lookup_matches_per_level_loop(self):
        rng = np.random.default_rng(5)
        tabulated = np.repeat(rng.normal(size=4), 2) + rng.uniform(-6e-10, 6e-10, size=8)
        points, diagonal = rng.normal(size=8), rng.uniform(size=8)
        table = (points[:, None] - points) ** 2 + 0.5 * (diagonal[:, None] + diagonal)
        preset = DirectDampingPreset.separable_linear(tabulated, table)
        wanted = rng.choice(tabulated, size=12) + rng.uniform(-5e-10, 5e-10, size=12)
        idx = [int(np.flatnonzero(np.abs(tabulated - theta) <= 1e-9)[0]) for theta in wanted]
        assert np.array_equal(preset(wanted), preset.table[np.ix_(idx, idx)])


class TestNoiseModel:
    def test_gamma_is_declared_strength(self):
        # The presets carry the strength numerically.
        model = dephasing_model(0.49)
        assert model.sigma_theta(1.0) == pytest.approx(0.7)
        assert lambda_pair(model, 1.0, 0.0, 1.0) == pytest.approx(0.49)

    def test_dissipative_flag(self):
        assert direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]]).is_dissipative
        assert not direct_damping_model([1.0, 2.0], [[0.0, 0.7], [0.7, 0.0]]).is_dissipative
        assert not dephasing_model(1.0).is_dissipative


class TestEtaLambda:
    # At unit sigma_time and t = 1, lambda equals the variance rate eta of the
    # phase difference.

    def test_eta_closed_form(self):
        model = correlated_model(0.8, 1.0)
        a, b = 0.3, 1.7
        g = math.exp(-((a - b) ** 2))
        expected = 0.8 * (a * a + b * b - 2 * a * b * g)
        assert lambda_pair(model, 1.0, a, b) == pytest.approx(expected, rel=1e-14)

    def test_eta_diagonal_zero(self):
        model = correlated_model(0.8, 1.0)
        assert lambda_pair(model, 1.0, 1.3, 1.3) == 0.0

    def test_eta_nonnegative_everywhere(self):
        model = correlated_model(1.0, 2.0)
        thetas = np.linspace(-3, 3, 13)
        lam = LambdaKernel(model, thetas).lambda_matrix(1.0)
        assert np.all(lam >= 0.0)

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
        assert lambda_pair(model, 1.0, 2.0, 2.0) == pytest.approx(0.8)


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
            for i, a in enumerate(levels):
                for j, b in enumerate(levels):
                    assert lambda_pair(model, t, a, b) == lam[i, j]

    def test_array_of_times(self):
        model = NoiseModel(
            sigma_theta=SigmaThetaPreset.linear(1.0),
            sigma_time=SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
            correlation_g=CorrelationPreset.gaussian(0.8),
        )
        kernel = LambdaKernel(model, [0.0, 0.5, 1.7])
        times = np.array([0.0, 0.4, 1.0, 2.5])
        lam = kernel.lambda_matrix(times)
        assert lam.shape == (4, 3, 3)
        for k, t in enumerate(times):
            assert np.array_equal(lam[k], kernel.lambda_matrix(float(t)))
        with pytest.raises(ValueError):
            kernel.lambda_matrix(np.array([0.0, -1e-3]))

    def test_direct_table_level_order_lookup(self):
        table = [[0.2, 1.3, 1.4], [1.3, 0.4, 1.5], [1.4, 1.5, 0.6]]
        model = direct_damping_model([1.0, 2.0, 3.0], table)
        kernel = LambdaKernel(model, [3.0, 1.0, 2.0])
        expected = [[0.6, 1.4, 1.5], [1.4, 0.2, 1.3], [1.5, 1.3, 0.4]]
        assert np.array_equal(kernel.lambda_matrix(1.0), expected)
        assert np.allclose(kernel.lambda_matrix(2.0), 2.0 * np.asarray(expected), rtol=1e-15)
        with pytest.raises(DimensionMismatch):
            LambdaKernel(model, [1.0, 1.5])

    def test_direct_table_follows_sigma_time(self):
        # lambda = S(t) table: a direct table is the level part E of the kernel
        table = [[0.6, 0.7], [0.7, 0.8]]
        direct = direct_damping_model([1.0, 2.0], table)
        times = np.array([0.0, 0.5, 1.0, 1.7, 3.0])
        constant = dataclasses.replace(direct, sigma_time=SigmaTimePreset.constant(1.7))
        lam = LambdaKernel(constant, [1.0, 2.0]).lambda_matrix(times)
        expected = 1.7**2 * times[:, None, None] * np.asarray(table)
        assert np.allclose(lam, expected, rtol=1e-15, atol=0.0)
        profile = SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6])
        piecewise = dataclasses.replace(direct, sigma_time=profile)
        lam = LambdaKernel(piecewise, [1.0, 2.0]).lambda_matrix(times)
        for got, t in zip(lam, times.tolist()):
            accumulated = 0.4**2 * min(t, 1.0) + 1.6**2 * max(0.0, t - 1.0)
            assert np.allclose(got, accumulated * np.asarray(table), rtol=1e-14, atol=0.0)

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
        assert np.allclose(kernel.lambda_matrix(1.0), [[0.6, 0.7], [0.7, 0.8]])

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

    def test_psd_sqrt_keeps_the_numerical_rank(self):
        # a uniform correlation is one column; the correlated model of the
        # four-level verify checks keeps all four
        uniform = psd_sqrt(np.ones((4, 4)))
        assert uniform.shape == (4, 1)
        g = correlation_matrix(correlated_model(0.8, 1.0), [0.0, 0.37, 1.1, 2.03])
        factor = psd_sqrt(g)
        assert factor.shape == (4, 4)
        for f, target in ((uniform, np.ones((4, 4))), (factor, g)):
            assert np.max(np.abs(f @ f.T - target)) < 1e-12

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
        # a trajectory depends on (seed, index), not on how many are drawn
        model = dephasing_model(1.0)
        grid = np.linspace(0.0, 1.0, 6)
        many = sample_chi_paths(model, [0.0, 1.0], grid, seed=9, n_traj=5)
        few = sample_chi_paths(model, [0.0, 1.0], grid, seed=9, n_traj=2)
        assert np.array_equal(many.paths[1], few.paths[1])

    def test_brownian_field_prefix_crosses_a_block(self):
        # 65 and 130 trajectories end inside the second and the third RNG block
        model = correlated_model(1.0, 2.0)
        grid = np.linspace(0.0, 1.0, 6)
        many = sample_chi_paths(model, [-1.0, 0.0, 1.0], grid, seed=9, n_traj=130)
        few = sample_chi_paths(model, [-1.0, 0.0, 1.0], grid, seed=9, n_traj=65)
        assert np.array_equal(many.paths[:65], few.paths)

    def test_one_normal_per_correlation_rank(self, monkeypatch):
        # per trajectory and step, r normals: 1 for a uniform correlation over
        # four levels, 4 for a full-rank gaussian one
        drawn = []

        class Spy(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                drawn.append(size)
                return super().standard_normal(size, dtype, out)

        monkeypatch.setattr(np.random, "Generator", Spy)
        grid = np.linspace(0.0, 1.0, 11)
        sample_chi_paths(dephasing_model(1.0), [-1.0, 0.0, 0.5, 2.0], grid, seed=3, n_traj=70)
        assert drawn == [(64, 10, 1), (6, 10, 1)]
        drawn.clear()
        levels = [0.0, 0.37, 1.1, 2.03]
        sample_chi_paths(correlated_model(0.8, 1.0), levels, grid, seed=3, n_traj=70)
        assert drawn == [(64, 10, 4), (6, 10, 4)]

    @pytest.mark.parametrize("budget", [1, 215])
    @pytest.mark.parametrize(
        "sigma_time",
        [
            SigmaTimePreset.constant(1.0),
            # breakpoints between grid points: the field steps on a refined grid
            SigmaTimePreset.piecewise_constant((0.35, 0.72), (1.0, 0.4, 1.7)),
        ],
        ids=["grid", "refined"],
    )
    def test_normals_in_pieces_keep_the_bytes(self, monkeypatch, budget, sigma_time):
        # a budget of 1 draws one trajectory at a time; 215 draws 7 (30
        # normals each) on the grid and 5 (36 each) on the refined one, so a
        # block's last piece is short.  100 trajectories end inside the
        # second RNG block.
        model = dataclasses.replace(correlated_model(0.8, 1.0), sigma_time=sigma_time)
        field = noise_module._BrownianField(model, [-1.0, 0.0, 1.0], np.linspace(0, 1, 11))
        num_steps, rank = field.scale.shape[0], field.factor.shape[1]
        drawn = []

        class Spy(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                drawn.append(size)
                return super().standard_normal(size, dtype, out)

        monkeypatch.setattr(np.random, "Generator", Spy)
        monkeypatch.setattr(operators, "SLAB_ELEMENT_BUDGET", 1 << 40)
        whole = [field.paths(4, 0, 100), field.paths(4, noise_module.RNG_BLOCK, 50)]
        assert drawn == [(64, num_steps, rank), (36, num_steps, rank), (50, num_steps, rank)]
        drawn.clear()
        monkeypatch.setattr(operators, "SLAB_ELEMENT_BUDGET", budget)
        pieces = [field.paths(4, 0, 100), field.paths(4, noise_module.RNG_BLOCK, 50)]
        per_piece = max(1, budget // (num_steps * rank))
        assert len(drawn) == sum(-(-n // per_piece) for n in (64, 36, 50))
        assert all(size[0] <= per_piece for size in drawn)
        for one_call, in_pieces in zip(whole, pieces):
            assert one_call.tobytes() == in_pieces.tobytes()

    def test_uniform_correlation_drives_every_level_alike(self):
        # one shared Brownian motion B: with h = theta and sigma = c theta,
        # chi_t(theta) / theta = t + c B_t on every level
        levels = np.array([-1.5, 0.5, 1.0, 3.0])
        grid = np.linspace(0.0, 2.0, 21)
        paths = sample_chi_paths(dephasing_model(0.7), levels, grid, seed=8, n_traj=100).paths
        ratio = paths / levels
        assert np.max(np.abs(ratio - ratio[..., :1])) < 1e-12

    def test_chunk_must_start_on_a_block(self):
        field = noise_module._BrownianField(dephasing_model(1.0), [0.0, 1.0], np.linspace(0, 1, 6))
        with pytest.raises(ValueError, match="RNG_BLOCK"):
            field.paths(9, 1, 10)
        whole = field.paths(9, 0, 130)
        tail = field.paths(9, noise_module.RNG_BLOCK, 66)
        assert np.array_equal(whole[noise_module.RNG_BLOCK:], tail)

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
        model = direct_damping_model([0.0, 1.0], [[0.1, 0.1], [0.1, 0.1]])
        with pytest.raises(ConfigError) as info:
            sample_chi_paths(model, [0.0, 1.0], np.linspace(0, 1, 5), seed=1, n_traj=1)
        assert info.value.path == "noise.direct_lambda"
        with pytest.raises(ConfigError, match="noise.direct_lambda"):
            sample_phase_differences(model, 1.0, 0.0, 1.0, 5, seed=1)

    def test_grid_validation(self):
        model = dephasing_model(1.0)
        with pytest.raises(GridMismatch):
            sample_chi_paths(model, [0.0, 1.0], [0.0], seed=1, n_traj=1)
        with pytest.raises(GridMismatch):
            sample_chi_paths(model, [0.0, 1.0], [0.0, 1.0, 0.5], seed=1, n_traj=1)
        # chi is 0 at the first grid point, so a later start would pin chi_1 to 0
        with pytest.raises(GridMismatch):
            sample_chi_paths(model, [0.0, 1.0], [1.0, 2.0], seed=1, n_traj=1)

    def test_chi_paths_zero_noise_is_drift(self):
        model = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0))
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

    def test_phase_differences_prefix_across_chunks(self):
        # 1500 and 3000 samples end inside different RNG blocks
        model = correlated_model(0.8, 1.0)
        few = sample_phase_differences(model, 1.0, 0.3, 1.7, 1500, seed=4)
        many = sample_phase_differences(model, 1.0, 0.3, 1.7, 3000, seed=4)
        assert np.array_equal(many[:1500], few)

    def test_phase_differences_variance(self):
        model = dephasing_model(0.5)
        n = 20000
        x = sample_phase_differences(model, 2.0, 0.0, 1.0, n, seed=8)
        lam = closed_form_lambda(0.5, 2.0, 0.0, 1.0, 1.0)
        assert np.var(x) == pytest.approx(lam, rel=5.0 * math.sqrt(2.0 / n))

    @staticmethod
    def _piecewise(breakpoint):
        return NoiseModel(
            sigma_theta=SigmaThetaPreset.linear(1.0),
            sigma_time=SigmaTimePreset.piecewise_constant([breakpoint], [0.4, 1.6]),
            correlation_g=CorrelationPreset.gaussian(1.0),
        )

    def test_phase_differences_one_step_per_sigma_time_piece(self):
        # breakpoint 0.6 inside (0, 1.5): one exact step on each side of it
        model = self._piecewise(0.6)
        t, a, b, n = 1.5, 0.3, 1.7, 20000
        x = sample_phase_differences(model, t, a, b, n, seed=9)
        driftless = dataclasses.replace(model, drift_h=DriftPreset.affine(0.0, 0.0))
        paths = sample_chi_paths(driftless, [a, b], [0.0, t], seed=9, n_traj=n).paths
        assert np.array_equal(x, paths[:, -1, 0] - paths[:, -1, 1])
        s_t = 0.4**2 * 0.6 + 1.6**2 * (t - 0.6)
        lam = s_t * (a * a + b * b - 2 * a * b * math.exp(-((a - b) ** 2)))
        assert lam == pytest.approx(lambda_pair(model, t, a, b), rel=1e-12)
        assert np.var(x) == pytest.approx(lam, rel=5.0 * math.sqrt(2.0 / n))

    @pytest.mark.parametrize("breakpoint", [1.5, 2.0])
    def test_phase_differences_breakpoint_at_or_after_t_adds_no_step(self, breakpoint):
        # [0, 1.5] lies in the first piece: the same single draw as a constant 0.4
        constant = NoiseModel(
            sigma_theta=SigmaThetaPreset.linear(1.0),
            sigma_time=SigmaTimePreset.constant(0.4),
            correlation_g=CorrelationPreset.gaussian(1.0),
        )
        x = sample_phase_differences(self._piecewise(breakpoint), 1.5, 0.3, 1.7, 2000, seed=9)
        y = sample_phase_differences(constant, 1.5, 0.3, 1.7, 2000, seed=9)
        assert np.array_equal(x, y)


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
        rows = moment_report(
            model, t=1.0, theta=0.3, theta_prime=1.7, n_traj=5000, seed=12, max_order=6
        )
        assert [r.order for r in rows] == [2, 3, 4, 5, 6]
        lam = lambda_pair(model, 1.0, 0.3, 1.7)
        assert rows[0].predicted == pytest.approx(lam, rel=1e-12)
        for row in rows:
            assert abs(row.empirical - row.predicted) <= 4.0 * row.stderr

    def test_sampler_step_count_is_a_module_constant(self):
        # the step count follows from sigma_time alone: no constant, no parameter
        assert not hasattr(noise_module, "MOMENT_STEPS")
        for sampler in (sample_phase_differences, moment_report):
            assert "n_steps" not in inspect.signature(sampler).parameters

    def test_report_max_order(self):
        rows = moment_report(
            dephasing_model(1.0), t=1.0, theta=0.0, theta_prime=1.0,
            n_traj=500, seed=2, max_order=4,
        )
        assert [r.order for r in rows] == [2, 3, 4]

    def test_report_default_orders(self):
        # the library default is the CLI's --max-order default
        rows = moment_report(
            dephasing_model(1.0), t=1.0, theta=0.0, theta_prime=1.0, n_traj=500, seed=2
        )
        assert [r.order for r in rows] == [2, 3, 4]

    @pytest.mark.parametrize("max_order", [200, 400])
    def test_report_refuses_overflowing_orders(self, max_order):
        # 200: the sampled powers overflow (inf stderr); 400: the predicted moment does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="max_order"):
                moment_report(
                    dephasing_model(0.5), t=5.0, theta=0.0, theta_prime=1.0,
                    n_traj=10_000, seed=42, max_order=max_order,
                )
