"""Built-in invariant suite behind the ``verify`` subcommand.

Each check is a small self-contained experiment with fixed seeds; together
they cover the documented invariants of every module: spectral decomposition
algebra, the noise presets' values against the documented formulas, kernel
properties, sampled-path statistics, the resummation identity,
generator-versus-analytic agreement, complete positivity, the Markovianity
boundary, energy conservation versus dissipation, dissipation under a
time-dependent sigma_time, and byte-level determinism.
A check evaluates its kernels and trajectories once, as arrays, and tests
each invariant over the whole stack: over every level pair, projector pair
and state at once.  The qubit, four-level and dissipative systems on which
checks run the routes have a non-diagonal, complex Hamiltonian, so a fault
in the rotation into the energy basis moves their states.

The failure path of the ensemble z-test is itself a check:
``comparison-detector`` compares an ensemble with a doubled-gamma analytic
reference and passes only when the z-test rejects it.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Optional

import numpy as np
import yaml

from .config import _YAML_LOADER, ScenarioConfig, config_to_dict, parse_config
from .errors import ConfigError, DissipativeTraceLoss
from .generator import Superoperator, build_generator, cp_report, integrate
from .metrics import energy_expectation, purity
from .montecarlo import compare_to_analytic, run_ensemble
from .noise import (
    RNG_BLOCK,
    CorrelationPreset,
    DirectDampingPreset,
    DriftPreset,
    LambdaKernel,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    _BrownianField,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    lambda_pair,
    moment_report,
    sample_chi_paths,
    sample_phase_differences,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    eigendecompose,
    from_energy_basis,
    to_energy_basis,
)
from .propagator import averaged_state, averaged_trajectory, semigroup_defect

__all__ = ["CheckResult", "run_suite", "check_names", "BUNDLED_SCENARIOS", "bundled_scenario_text"]

BUNDLED_SCENARIOS = (
    "global_dephasing",
    "correlated_tau",
    "nonmarkovian_piecewise",
    "dissipative_direct",
)


def bundled_scenario_text(name: str) -> str:
    if name not in BUNDLED_SCENARIOS:
        raise ValueError(f"unknown bundled scenario {name!r}; known: {BUNDLED_SCENARIOS}")
    return (resources.files("noisytime") / "scenarios" / f"{name}.yaml").read_text()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float  # wall time of the check


def _rotated(spectrum):
    """H = U diag(spectrum) U^dagger and the state U|+>, for one fixed complex
    unitary U of each dimension, the Q factor of a seeded complex Gaussian.

    H is non-diagonal and complex, so a route that rotates into the wrong
    energy basis moves its states; U|+> has the energy-basis entries of |+>.
    """
    dim = len(spectrum)
    rng = np.random.default_rng(2002)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    hamiltonian = HermitianOperator((u * spectrum) @ u.conj().T)
    rho0 = DensityMatrix.pure(u @ np.ones(dim))
    return hamiltonian, eigendecompose(hamiltonian), rho0


def _qubit():
    return _rotated([0.0, 1.0])


def _four_level():
    return _rotated([0.0, 0.37, 1.1, 2.03])


def _piecewise_model() -> NoiseModel:
    return NoiseModel(
        sigma_theta=SigmaThetaPreset.linear(1.0),
        sigma_time=SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
    )


def _dissipative_fixture():
    hamiltonian, decomposition, rho0 = _rotated([1.0, 2.0])
    model = direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]])
    return hamiltonian, decomposition, model, rho0


def _check_spectral_invariants() -> tuple[bool, str]:
    rng = np.random.default_rng(20240817)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    hamiltonian = HermitianOperator(0.5 * (raw + raw.conj().T))
    worst = 0.0
    for operator in (
        hamiltonian,
        HermitianOperator(np.diag([1.0, -1.0])),
        HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])),
        HermitianOperator(np.diag([0.5, 0.5, 2.0])),  # degenerate pair
    ):
        dec = eigendecompose(operator)
        # P_k, the sum of v v^dagger over the eigenvector columns of level k
        columns = dec.level_index == np.arange(dec.num_levels)[:, None]
        v = dec.eigenvectors
        projectors = (v * columns[:, None, :]) @ v.conj().T
        completeness = np.max(np.abs(projectors.sum(axis=0) - np.eye(operator.dim)))
        # products[j, k] = P_j P_k, expected delta_jk P_j
        products = projectors[:, None] @ projectors[None, :]
        expected = np.eye(dec.num_levels)[:, :, None, None] * projectors[:, None]
        orthogonality = np.max(np.abs(products - expected))
        reconstruction = np.max(np.abs(dec.reconstruct() - operator.matrix))
        worst = max(worst, float(completeness), float(orthogonality), float(reconstruction))
    return worst < 1e-10, f"max defect {worst:.2e}"


def _check_basis_round_trip() -> tuple[bool, str]:
    rng = np.random.default_rng(77)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    state = DensityMatrix(raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real)
    _, decomposition, _ = _four_level()
    rotated = to_energy_basis(state.matrix, decomposition)
    back = from_energy_basis(rotated, decomposition)
    round_trip = float(np.max(np.abs(back - state.matrix)))
    trace_shift = abs(float(np.trace(rotated).real) - 1.0)
    spectrum_shift = float(
        np.max(np.abs(np.linalg.eigvalsh(rotated) - np.linalg.eigvalsh(state.matrix)))
    )
    ok = round_trip < 1e-12 and trace_shift < 1e-10 and spectrum_shift < 1e-10
    return ok, f"round trip {round_trip:.2e}, trace {trace_shift:.2e}, spectrum {spectrum_shift:.2e}"


def _check_kernel_properties() -> tuple[bool, str]:
    models = {
        "dephasing": dephasing_model(0.5),
        "correlated": correlated_model(1.0, 1.0),
        "piecewise": _piecewise_model(),
    }
    thetas = [-1.0, 0.0, 0.4, 1.0]
    times = [0.0, 0.3, 1.0, 1.7, 2.5]
    # lam[model, time, a, b], shape (3, 5, 4, 4)
    lam = np.stack([LambdaKernel(model, thetas).lambda_matrix(times) for model in models.values()])
    nonnegative = bool(np.all(lam >= 0.0))
    worst_asym = float(np.max(np.abs(lam - lam.swapaxes(-2, -1))))
    worst_diag = float(np.max(np.abs(np.diagonal(lam, axis1=-2, axis2=-1))))
    # Non-decreasing in time from lambda = 0.
    monotone = bool(np.all(np.diff(lam, axis=1, prepend=0.0) >= -1e-12))
    # Piecewise closed form against the exact piecewise sum.
    pw = models["piecewise"]
    t = 1.7
    exact = (0.4**2 * 1.0 + 1.6**2 * 0.7) * (1.0 - (-1.0)) ** 2
    closed_err = abs(lambda_pair(pw, t, 1.0, -1.0) - exact)
    ok = (
        nonnegative
        and monotone
        and worst_asym < 1e-12
        and worst_diag == 0.0
        and closed_err < 1e-9
    )
    return ok, (
        f"asym {worst_asym:.2e}, diag {worst_diag:.2e}, piecewise closed form {closed_err:.2e}"
    )


def _relative_gap(got, expected) -> float:
    """Largest |got - expected| / |expected| over the entries; an expected
    zero must be met exactly, and a NaN gap is infinite."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.where(got == expected, 0.0, np.abs(got - expected) / np.abs(expected))
    return float(np.max(np.nan_to_num(gaps, nan=np.inf)))


def _check_preset_reference_values() -> tuple[bool, str]:
    # Every kind of the five preset families at fixed levels, times (on both
    # sides of each breakpoint) and level pairs, against values computed
    # with math from the formulas of docs/config.md, never by preset code.
    thetas = [-1.3, 0.0, 0.4, 2.1]
    pairs = [(x, y) for x in thetas for y in thetas]
    coeffs = (0.5, -0.25, 0.125, 0.75)
    polynomial = [math.fsum(c * x**k for k, c in enumerate(coeffs)) for x in thetas]
    times = [0.0, 0.3, 0.999, 1.0, 1.001, 2.4, 2.5, 2.6, 3.7]
    breakpoints, values = (1.0, 2.5), (0.4, 1.6, 0.7)
    profile = SigmaTimePreset.piecewise_constant(breakpoints, values)
    pieces = list(zip(values, (0.0, *breakpoints), (*breakpoints, math.inf)))
    # Squared distances plus (a_k + a_l) / 2, a >= 0: a completely positive table.
    levels, rates, order = (1.0, 2.0, 3.5), (0.0, 0.3, 0.5), (2, 0, 1)
    table = [
        [(x - y) ** 2 + (p + q) / 2 for y, q in zip(levels, rates)] for x, p in zip(levels, rates)
    ]
    cases = [
        (DriftPreset.identity()(thetas), thetas),
        (DriftPreset.affine(0.8, -0.35)(thetas), [0.8 * x - 0.35 for x in thetas]),
        (DriftPreset.polynomial(coeffs)(thetas), polynomial),
        (SigmaThetaPreset.constant(0.6)(thetas), [0.6 for _ in thetas]),
        (SigmaThetaPreset.linear(0.6)(thetas), [0.6 * x for x in thetas]),
        (SigmaThetaPreset.polynomial(coeffs)(thetas), polynomial),
        (SigmaTimePreset.constant(0.9)(times), [0.9 for _ in times]),
        (SigmaTimePreset.constant(0.9).integrated_square(times), [0.9**2 * t for t in times]),
        (profile(times), [values[sum(t >= b for b in breakpoints)] for t in times]),
        (
            profile.integrated_square(times),
            [math.fsum(v**2 * max(0.0, min(t, hi) - lo) for v, lo, hi in pieces) for t in times],
        ),
        (CorrelationPreset.uniform()(*zip(*pairs)), [1.0 for _ in pairs]),
        (
            CorrelationPreset.gaussian(1.2)(*zip(*pairs)),
            [math.exp(-(1.2**2) * (x - y) ** 2) for x, y in pairs],
        ),
        (
            CorrelationPreset.exponential(0.7)(*zip(*pairs)),
            [math.exp(-abs(x - y) / 0.7) for x, y in pairs],
        ),
        (
            DirectDampingPreset.separable_linear(levels, table)([levels[i] for i in order]),
            [[table[i][j] for j in order] for i in order],
        ),
    ]
    gap = max(_relative_gap(got, expected) for got, expected in cases)
    count = sum(np.size(expected) for _, expected in cases)
    return gap <= 1e-13, f"max relative gap {gap:.2e} over {count} values"


def _check_characteristic_function() -> tuple[bool, str]:
    model = correlated_model(1.0, 1.0)
    t, a, b, n = 1.5, 0.3, 1.7, 10000
    lam = lambda_pair(model, t, a, b)
    x = sample_phase_differences(model, t, a, b, n, seed=90210)
    cf = np.exp(-1j * x)
    target = math.exp(-0.5 * lam)
    dev_re = abs(float(np.mean(cf.real)) - target)
    dev_im = abs(float(np.mean(cf.imag)))
    se_re = float(np.std(cf.real, ddof=1)) / math.sqrt(n)
    se_im = float(np.std(cf.imag, ddof=1)) / math.sqrt(n)
    ok = dev_re <= 3 * se_re and dev_im <= 3 * se_im
    return ok, f"real dev {dev_re:.2e} (3se {3*se_re:.2e}), imag dev {dev_im:.2e}"


def _check_brownian_field() -> tuple[bool, str]:
    # Driftless, unit amplitude: chi path increments are the Brownian increments.
    model = NoiseModel(
        drift_h=DriftPreset.affine(0.0, 0.0),
        sigma_theta=SigmaThetaPreset.constant(1.0),
        correlation_g=CorrelationPreset.gaussian(2.0),
    )
    levels = [-1.0, 0.0, 1.0]
    grid = np.linspace(0.0, 1.0, 101)
    paths = sample_chi_paths(model, levels, grid, seed=555, n_traj=200).paths
    pooled = np.diff(paths, axis=1).reshape(-1, len(levels))
    dt = grid[1] - grid[0]
    n = pooled.shape[0]
    variances = pooled.var(axis=0, ddof=1) / dt
    var_tol = 5.0 * math.sqrt(2.0 / n)
    corr = np.corrcoef(pooled[:, 0], pooled[:, 2])[0, 1]
    corr_tol = 3.0 / math.sqrt(n)
    expected_corr = math.exp(-16.0)
    ok = bool(np.all(np.abs(variances - 1.0) < var_tol)) and abs(corr - expected_corr) < corr_tol
    return ok, f"var dev {np.max(np.abs(variances - 1.0)):.3f}, far corr {corr:.4f}"


def _check_chi_paths() -> tuple[bool, str]:
    model = dephasing_model(0.5)
    levels = [0.0, 1.0]
    grid = np.linspace(0.0, 2.0, 51)
    n = 4000
    # The trajectories of sample_chi_paths, drawn in batches of whole RNG
    # blocks, of which only the end values are kept.
    field = _BrownianField(model, levels, grid)
    batch = 16 * RNG_BLOCK
    finals = np.empty((n, len(levels)))
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        finals[lo:hi] = field.paths(808, lo, hi - lo)[:, -1, :]
    # Zero-amplitude level: deterministic drift.
    det_dev = float(np.max(np.abs(finals[:, 0] - 0.0 * 2.0)))
    mean_dev = abs(float(np.mean(finals[:, 1])) - 1.0 * 2.0)
    mean_se = float(np.std(finals[:, 1], ddof=1)) / math.sqrt(n)
    target_var = 0.5 * 1.0**2 * 2.0
    var = float(np.var(finals[:, 1], ddof=1))
    var_tol = 5.0 * target_var * math.sqrt(2.0 / n)
    ok = det_dev < 1e-12 and mean_dev <= 3 * mean_se and abs(var - target_var) < var_tol
    return ok, f"mean dev {mean_dev:.2e} (3se {3*mean_se:.2e}), var {var:.3f} vs {target_var:.3f}"


def _check_moment_identities() -> tuple[bool, str]:
    model = correlated_model(0.8, 1.0)
    rows = moment_report(model, t=1.0, theta=0.3, theta_prime=1.7, n_traj=20000, seed=1618)
    worst = 0.0
    for row in rows:  # orders 2, 3, 4
        if row.stderr == 0.0:
            if row.empirical != row.predicted:
                return False, f"order {row.order} exact mismatch"
            continue
        worst = max(worst, abs(row.empirical - row.predicted) / row.stderr)
    return worst <= 3.0, f"worst moment z {worst:.2f}"


def _check_analytic_invariants() -> tuple[bool, str]:
    _, decomposition, rho0 = _four_level()
    hamiltonian = decomposition.reconstruct()
    grid = np.linspace(0.0, 3.0, 31)
    worst_herm = worst_trace = worst_eig = 0.0
    monotone = True
    for model in (dephasing_model(0.5), correlated_model(0.8, 1.0), _piecewise_model()):
        states = averaged_trajectory(decomposition, model, rho0, grid).states
        energies = energy_expectation(states, hamiltonian)
        drift = float(np.max(np.abs(energies - energies[0])))
        if not drift <= 1e-10:
            return False, f"energy drift {drift:.2e}"
        herm = np.max(np.abs(states - states.conj().swapaxes(-2, -1)))
        trace = np.max(np.abs(np.trace(states, axis1=-2, axis2=-1).real - 1.0))
        worst_herm = max(worst_herm, float(herm))
        worst_trace = max(worst_trace, float(trace))
        worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(states))))
        # Purity and every energy-basis magnitude are non-increasing in time.
        magnitudes = np.abs(to_energy_basis(states, decomposition))
        monotone &= bool(np.all(np.diff(purity(states)) <= 1e-12))
        monotone &= bool(np.all(np.diff(magnitudes, axis=0) <= 1e-12))
    ok = worst_herm < 1e-12 and worst_trace < 1e-12 and worst_eig < 1e-10 and monotone
    return ok, (
        f"herm {worst_herm:.2e}, trace {worst_trace:.2e}, eig {worst_eig:.2e}, monotone {monotone}"
    )


def _global_noise_state(decomposition, accumulated: float, rho0, t: float) -> DensityMatrix:
    """Averaged state when every level shares one noise amplitude.

    The closed-form reference of the analytic and master-equation routes:
    entry (k, l) in the energy basis takes the gap phase and
    exp(-accumulated (theta_k - theta_l)^2 / 2), with ``accumulated`` the
    integral of sigma_time^2 over [0, t].
    """
    theta = decomposition.column_levels()
    gaps = theta[:, None] - theta[None, :]
    factors = np.exp(-1j * t * gaps) * np.exp(-0.5 * accumulated * gaps**2)
    rho_e = to_energy_basis(rho0.matrix, decomposition)
    return DensityMatrix(from_energy_basis(factors * rho_e, decomposition))


def _check_global_equals_general() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    worst = 0.0
    profile = SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6])
    for accumulated, model in (
        (lambda t: 0.5 * t, dephasing_model(0.5)),
        (profile.integrated_square, _piecewise_model()),
    ):
        for t in (0.0, 0.7, 1.0, 2.3):
            a = _global_noise_state(decomposition, accumulated(t), rho0, t).matrix
            b = averaged_state(decomposition, model, rho0, t).matrix
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst < 1e-12, f"max difference {worst:.2e}"


def _check_generator_vs_analytic_dephasing() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    grid = np.linspace(0.0, 5.0, 26)
    worst = 0.0
    for gamma in (0.1, 0.5, 2.0):
        generator = build_generator(decomposition, dephasing_model(gamma))
        ode = integrate(generator, rho0, grid, decomposition=decomposition)
        for state, t in zip(ode.states, grid.tolist()):
            exact = _global_noise_state(decomposition, gamma * t, rho0, t).matrix
            worst = max(worst, float(np.max(np.abs(state - exact))))
    return worst < 1e-8, f"max entry error {worst:.2e}"


def _check_generator_vs_analytic_correlated() -> tuple[bool, str]:
    _, decomposition, rho0 = _four_level()
    grid = np.linspace(0.0, 3.0, 16)
    worst = 0.0
    for tau in (0.3, 1.0, 3.0):
        model = correlated_model(0.8, tau)
        generator = build_generator(decomposition, model)
        ode = integrate(generator, rho0, grid, decomposition=decomposition)
        analytic = averaged_trajectory(decomposition, model, rho0, grid)
        worst = max(worst, float(np.max(np.abs(ode.states - analytic.states))))
    return worst < 1e-8, f"max entry error {worst:.2e}"


def _check_tau_zero_reduction() -> tuple[bool, str]:
    _, decomposition, _ = _four_level()
    gamma = 0.8
    phase = build_generator(decomposition, dephasing_model(gamma))
    tiny = build_generator(decomposition, correlated_model(gamma, 1e-4))
    exact = build_generator(decomposition, correlated_model(gamma, 0.0))
    if not np.array_equal(exact.rates, phase.rates):
        return False, "tau=0 rates differ from the dephasing generator"
    off = ~np.eye(decomposition.dim, dtype=bool)
    rel = np.abs(tiny.rates[off] - phase.rates[off]) / np.abs(phase.rates[off])
    worst = float(np.max(rel))
    return worst < 1e-6, f"max relative gap {worst:.2e} at tau=1e-4"


def _direct_rates(levels, table) -> Superoperator:
    """Route 2's rates -i dh - table / 2 for a table the preset would refuse."""
    return Superoperator(-1j * np.subtract.outer(levels, levels) - 0.5 * np.asarray(table))


def _check_cp_certification() -> tuple[bool, str]:
    spectra = [0.0, 0.37, 1.1, 2.03, 2.5, 3.01, 3.9, 4.42]
    reports = []
    for dim in range(2, 9):
        decomposition = eigendecompose(HermitianOperator(np.diag(spectra[:dim])))
        for model in (dephasing_model(0.7), correlated_model(0.7, 1.2)):
            reports.append(cp_report(build_generator(decomposition, model), [0.1, 1.0, 10.0]))
    worst = min(report.min_choi_eigenvalue for report in reports)
    amplifying = cp_report(_direct_rates([0.0, 1.0], [[0, -1], [-1, 0]]), [1.0])
    # Not CP at small t only: its Choi matrix is PSD again from t ~ 0.5 on.
    three_level = cp_report(
        _direct_rates([0.0, 1.0, 2.5], [[0, 1, 1], [1, 0, 5], [1, 5, 0]]), [1.0]
    )
    certified = worst >= -1e-10 and all(report.cp_ok for report in reports)
    flagged = amplifying.min_choi_eigenvalue < -1e-6 and not (amplifying.cp_ok or three_level.cp_ok)
    return certified and flagged, (
        f"min eigenvalue {worst:.2e}; amplifying qubit flagged at "
        f"{amplifying.min_choi_eigenvalue:.2e}, three-level table at generator "
        f"eigenvalue {three_level.min_generator_eigenvalue:.2e}"
    )


def _check_map_defects() -> tuple[bool, str]:
    _, decomposition, _ = _four_level()
    reports = [
        cp_report(build_generator(decomposition, model), [0.1, 1.0, 10.0])
        for model in (dephasing_model(0.5), correlated_model(0.8, 1.0))
    ]
    worst = float(np.max([(r.trace_defects, r.semigroup_defects) for r in reports]))
    _, dec2, model, _ = _dissipative_fixture()
    trace_defect = float(cp_report(build_generator(dec2, model), [1.0]).trace_defects[0])
    ok = worst < 1e-10 and trace_defect > 1e-3
    return ok, f"brownian defects {worst:.2e}; dissipative trace defect {trace_defect:.3f}"


def _check_markovianity_boundary() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    markovian = semigroup_defect(decomposition, dephasing_model(0.5), rho0, 0.8, 0.8)
    silent = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0))
    zero_noise = semigroup_defect(decomposition, silent, rho0, 0.8, 0.8)
    nonmarkovian = semigroup_defect(decomposition, _piecewise_model(), rho0, 0.8, 0.8)
    ok = markovian < 1e-12 and zero_noise < 1e-12 and nonmarkovian > 1e-3
    return ok, (
        f"time-independent {markovian:.2e}, zero noise {zero_noise:.2e}, "
        f"piecewise {nonmarkovian:.3f}"
    )


def _check_energy_modes() -> tuple[bool, str]:
    hamiltonian, decomposition, rho0 = _four_level()
    grid = np.linspace(0.0, 3.0, 13)
    model = correlated_model(0.8, 1.0)
    analytic = averaged_trajectory(decomposition, model, rho0, grid)
    generator = build_generator(decomposition, model)
    ode = integrate(generator, rho0, grid, decomposition=decomposition)
    ensemble = run_ensemble(decomposition, model, rho0, grid, n_traj=200, seed=31)
    drift = 0.0
    for states in (analytic.states, ode.states, ensemble.mean):
        energies = energy_expectation(states, hamiltonian)
        drift = max(drift, float(np.max(np.abs(energies - energies[0]))))

    d_ham, d_dec, d_model, d_rho = _dissipative_fixture()
    times = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = averaged_trajectory(d_dec, d_model, d_rho, times).states
        trace_warned = any(issubclass(w.category, DissipativeTraceLoss) for w in caught)
    # Populations decay as exp(-t table_kk / 2); coherences carry no energy.
    populations = to_energy_basis(d_rho.matrix, d_dec).diagonal().real
    decay = np.exp(-0.5 * times[:, None] * np.diag(d_model.direct_lambda.table))
    closed = (decay * populations) @ d_dec.levels
    worst_energy = float(np.max(np.abs(energy_expectation(states, d_ham) - closed)))
    final_trace = float(np.trace(states[-1]).real)
    ok = drift <= 1e-10 and worst_energy <= 1e-10 and trace_warned and final_trace < 1.0
    return ok, (
        f"conserved drift {drift:.2e}; dissipative closed-form gap {worst_energy:.2e}; "
        f"trace {final_trace:.4f} (warned: {trace_warned})"
    )


def _check_dissipative_time_profile() -> tuple[bool, str]:
    # The dissipative fixture under sigma_time 0.4 up to t = 1 and 1.6 after:
    # lambda = S(t) D, dissipative and non-Markovian at once.
    _, decomposition, unit, rho0 = _dissipative_fixture()
    model = replace(unit, sigma_time=_piecewise_model().sigma_time)
    times = np.array([0.0, 0.5, 1.0, 1.7, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DissipativeTraceLoss)
        states = averaged_trajectory(decomposition, model, rho0, times).states
        defects = [semigroup_defect(decomposition, m, rho0, 0.8, 0.8) for m in (model, unit)]
    # S(t) by the formula of docs/config.md, in math, never by preset code.
    accumulated = [0.4**2 * min(t, 1.0) + 1.6**2 * max(0.0, t - 1.0) for t in times.tolist()]
    theta = decomposition.column_levels()
    exponent = 1j * np.subtract.outer(theta, theta) * times[:, None, None]
    exponent += 0.5 * np.multiply.outer(accumulated, unit.direct_lambda.table)
    expected = np.exp(-exponent) * to_energy_basis(rho0.matrix, decomposition)
    gap = float(np.max(np.abs(to_energy_basis(states, decomposition) - expected)))
    try:
        build_generator(decomposition, model)
        refused = "nothing"
    except ConfigError as exc:
        refused = exc.path
    ok = gap < 1e-12 and defects[0] > 1e-3 and defects[1] < 1e-12 and refused == "noise.sigma_time"
    return ok, (
        f"closed-form gap {gap:.2e}; semigroup defect {defects[0]:.3f} "
        f"(unit profile {defects[1]:.2e}); integrate refuses {refused}"
    )


def _time_average(grid: np.ndarray, states: np.ndarray, weights: np.ndarray) -> DensityMatrix:
    """Trapezoid average of a (T, d, d) trajectory over a time density on its grid."""
    dt = np.diff(grid)
    mass = np.zeros_like(grid)
    mass[:-1] += 0.5 * dt
    mass[1:] += 0.5 * dt
    mass *= weights
    # Renormalized, so the average is a convex combination of the states.
    return DensityMatrix(np.einsum("k,kij->ij", mass / np.sum(mass), states))


def _check_time_average() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    center, spread = 1.0, 0.15
    grid = np.linspace(0.0, 2.0, 16001)
    zero_noise = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0))
    trajectory = averaged_trajectory(decomposition, zero_noise, rho0, grid)
    weights = np.exp(-0.5 * ((grid - center) / spread) ** 2) / (spread * math.sqrt(2 * math.pi))
    averaged = _time_average(grid, trajectory.states, weights)
    rho_e = to_energy_basis(averaged.matrix, decomposition)
    expected = 0.5 * math.exp(-0.5 * spread**2 * (1.0 - 0.0) ** 2)
    gap = abs(abs(rho_e[0, 1]) - expected)
    return gap < 1e-6, f"off-diagonal gap {gap:.2e}"


def _ensemble_fixture(n_traj: int, gamma_factor: float = 1.0):
    _, decomposition, rho0 = _qubit()
    model = dephasing_model(0.5)
    grid = np.linspace(0.0, 2.0, 6)
    ensemble = run_ensemble(decomposition, model, rho0, grid, n_traj=n_traj, seed=90125)
    reference_model = dephasing_model(0.5 * gamma_factor)
    analytic = averaged_trajectory(decomposition, reference_model, rho0, grid)
    return ensemble, analytic


def _check_ensemble_matches_analytic(quick: bool) -> tuple[bool, str]:
    ensemble, analytic = _ensemble_fixture(4000 if quick else 8000)
    report = compare_to_analytic(ensemble, analytic)
    return report.passed, f"max z {report.max_z:.2f}, above-3 fraction {report.frac_above_tail:.3f}"


def _check_ensemble_determinism() -> tuple[bool, str]:
    # Three chunks (1024, 1024 and 52 trajectories), run in order, the
    # workers sharing each chunk's draw, one run of whole RNG blocks each,
    # and then its slabs, so every slab folds in chunk order.  The two runs
    # take different slab plans: one worker three slabs of 16, 16 and 1
    # points, two workers, whose workspaces share that budget, five of 8,
    # 8, 8, 8 and 1.  So equal bytes also show that the slab plan moves no
    # bit.
    _, decomposition, rho0 = _qubit()
    model = dephasing_model(0.5)
    grid = np.linspace(0.0, 1.0, 33)
    runs = [
        run_ensemble(decomposition, model, rho0, grid, n_traj=2100, seed=77, n_workers=w)
        for w in (1, 2)
    ]
    same = (
        runs[0].mean.tobytes() == runs[1].mean.tobytes()
        and runs[0].stderr.tobytes() == runs[1].stderr.tobytes()
    )
    return same, "1-worker and 2-worker runs byte-identical" if same else "outputs differ"


def _check_comparison_detector() -> tuple[bool, str]:
    ensemble, corrupted = _ensemble_fixture(4000, gamma_factor=2.0)
    report = compare_to_analytic(ensemble, corrupted)
    return not report.passed, f"doubled-gamma reference rejected with max z {report.max_z:.1f}"


def _check_bundled_round_trip() -> tuple[bool, str]:
    for name in BUNDLED_SCENARIOS:
        data = yaml.load(bundled_scenario_text(name), Loader=_YAML_LOADER)
        first = config_to_dict(parse_config(data))
        second = config_to_dict(parse_config(first))
        if first != second:
            return False, f"{name} does not round-trip"
    return True, f"{len(BUNDLED_SCENARIOS)} bundled scenarios round-trip"


def _check_scenario_round_trip(scenario: ScenarioConfig) -> tuple[bool, str]:
    first = config_to_dict(scenario)
    second = config_to_dict(parse_config(first))
    return first == second, f"config {scenario.name!r}"


def _check_scenario_hermitian(scenario: ScenarioConfig) -> tuple[bool, str]:
    decomposition = scenario.decomposition()
    grid = scenario.times()
    subsample = grid[:: max(1, grid.size // 8)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DissipativeTraceLoss)
        states = averaged_trajectory(
            decomposition, scenario.noise, scenario.initial_state, subsample
        ).states
    worst_herm = float(np.max(np.abs(states - np.swapaxes(states.conj(), 1, 2))))
    return worst_herm < 1e-12, f"defect {worst_herm:.2e}"


def _check_scenario_ensemble(scenario: ScenarioConfig, quick: bool) -> tuple[bool, str]:
    decomposition = scenario.decomposition()
    grid = scenario.times()[:6]
    n = min(scenario.n_traj, 2000 if quick else 4000)
    ensemble = run_ensemble(
        decomposition, scenario.noise, scenario.initial_state, grid, n, scenario.seed
    )
    analytic = averaged_trajectory(decomposition, scenario.noise, scenario.initial_state, grid)
    report = compare_to_analytic(ensemble, analytic)
    return report.passed, f"max z {report.max_z:.2f} at n_traj {n}"


_CHECKS: list[tuple[str, Callable[..., tuple[bool, str]]]] = [
    ("spectral-invariants", lambda ctx: _check_spectral_invariants()),
    ("basis-round-trip", lambda ctx: _check_basis_round_trip()),
    ("kernel-properties", lambda ctx: _check_kernel_properties()),
    ("preset-reference-values", lambda ctx: _check_preset_reference_values()),
    ("characteristic-function", lambda ctx: _check_characteristic_function()),
    ("brownian-field-statistics", lambda ctx: _check_brownian_field()),
    ("chi-path-statistics", lambda ctx: _check_chi_paths()),
    ("moment-identities", lambda ctx: _check_moment_identities()),
    ("analytic-state-invariants", lambda ctx: _check_analytic_invariants()),
    ("global-equals-general", lambda ctx: _check_global_equals_general()),
    ("generator-vs-analytic-dephasing", lambda ctx: _check_generator_vs_analytic_dephasing()),
    ("generator-vs-analytic-correlated", lambda ctx: _check_generator_vs_analytic_correlated()),
    ("tau-zero-reduction", lambda ctx: _check_tau_zero_reduction()),
    ("cp-certification", lambda ctx: _check_cp_certification()),
    ("map-defects", lambda ctx: _check_map_defects()),
    ("markovianity-boundary", lambda ctx: _check_markovianity_boundary()),
    ("energy-conservation-and-dissipation", lambda ctx: _check_energy_modes()),
    ("dissipative-time-profile", lambda ctx: _check_dissipative_time_profile()),
    ("time-average-quadrature", lambda ctx: _check_time_average()),
    ("ensemble-matches-analytic", lambda ctx: _check_ensemble_matches_analytic(ctx["quick"])),
    ("ensemble-determinism", lambda ctx: _check_ensemble_determinism()),
    ("comparison-detector", lambda ctx: _check_comparison_detector()),
    ("bundled-scenario-round-trip", lambda ctx: _check_bundled_round_trip()),
]

# Checks of a --config scenario: (name, Brownian models only, check).
_SCENARIO_CHECKS: list[tuple[str, bool, Callable[..., tuple[bool, str]]]] = [
    ("scenario-round-trip", False, lambda s, ctx: _check_scenario_round_trip(s)),
    ("scenario-analytic-hermitian", False, lambda s, ctx: _check_scenario_hermitian(s)),
    ("scenario-ensemble-z-test", True, lambda s, ctx: _check_scenario_ensemble(s, ctx["quick"])),
]


def check_names() -> list[str]:
    return [name for name, _ in _CHECKS] + [
        f"{name} (with --config{', Brownian mode' if brownian else ''})"
        for name, brownian, _ in _SCENARIO_CHECKS
    ]


def run_suite(scenario: Optional[ScenarioConfig] = None, quick: bool = False) -> list[CheckResult]:
    """Run every built-in check, plus scenario checks when a config is given."""
    checks = list(_CHECKS)
    if scenario is not None:
        checks += [
            (name, functools.partial(check, scenario))
            for name, brownian, check in _SCENARIO_CHECKS
            if not brownian or scenario.noise.direct_lambda is None
        ]
    context = {"quick": quick}
    results = []
    for name, check in checks:
        start = time.perf_counter()
        try:
            passed, detail = check(context)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
