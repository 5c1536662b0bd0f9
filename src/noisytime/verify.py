"""Built-in invariant suite behind the ``verify`` subcommand.

Each check is a small self-contained experiment with fixed seeds; together
they cover the documented invariants of every module: spectral decomposition
algebra, kernel properties, sampled-path statistics, the resummation identity,
generator-versus-analytic agreement, complete positivity, the Markovianity
boundary, energy conservation versus dissipation, and byte-level determinism.

``analytic_gamma_factor`` deliberately corrupts the analytic reference of the
ensemble comparison (fault injection for the exit-code contract); 1.0 means
no corruption.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .config import ScenarioConfig, config_to_dict, parse_config
from .errors import DissipativeTraceLoss
from .generator import build_generator, cp_report, integrate
from .metrics import energy_expectation, purity
from .montecarlo import compare_to_analytic, run_ensemble
from .noise import (
    CorrelationPreset,
    DriftPreset,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    eta,
    lambda_pair,
    moment_report,
    sample_chi_paths,
    sample_phase_differences,
)
from .operators import DensityMatrix, HermitianOperator, eigendecompose, to_energy_basis
from .propagator import (
    averaged_state,
    averaged_state_global,
    averaged_trajectory,
    semigroup_defect,
    time_averaged_state,
)

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


def _qubit():
    hamiltonian = HermitianOperator(np.diag([0.0, 1.0]))
    decomposition = eigendecompose(hamiltonian)
    rho0 = DensityMatrix.pure([1.0, 1.0])
    return hamiltonian, decomposition, rho0


def _four_level():
    spectrum = [0.0, 0.37, 1.1, 2.03]
    hamiltonian = HermitianOperator(np.diag(spectrum))
    decomposition = eigendecompose(hamiltonian)
    rho0 = DensityMatrix.pure(np.ones(4))
    return hamiltonian, decomposition, rho0


def _piecewise_model() -> NoiseModel:
    return NoiseModel(
        sigma_theta=SigmaThetaPreset.linear(1.0),
        sigma_time=SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
        gamma=1.0,
    )


def _dissipative_fixture():
    hamiltonian = HermitianOperator(np.diag([1.0, 2.0]))
    decomposition = eigendecompose(hamiltonian)
    model = direct_damping_model([1.0, 2.0], [[0.6, 0.7], [0.7, 0.8]])
    rho0 = DensityMatrix.pure([1.0, 1.0])
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
        d = operator.dim
        completeness = np.max(np.abs(dec.projectors.sum(axis=0) - np.eye(d)))
        worst = max(worst, float(completeness))
        for j in range(dec.num_levels):
            for k in range(dec.num_levels):
                product = dec.projectors[j] @ dec.projectors[k]
                expected = dec.projectors[j] if j == k else np.zeros((d, d))
                worst = max(worst, float(np.max(np.abs(product - expected))))
        worst = max(worst, float(np.max(np.abs(dec.reconstruct() - operator.matrix))))
    return worst < 1e-10, f"max defect {worst:.2e}"


def _check_basis_round_trip() -> tuple[bool, str]:
    from .operators import from_energy_basis

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
    worst_asym = 0.0
    worst_diag = 0.0
    monotone = True
    nonnegative = True
    for model in models.values():
        for a in thetas:
            for b in thetas:
                previous = 0.0
                for t in times:
                    lam = lambda_pair(model, t, a, b)
                    nonnegative &= lam >= 0.0 and eta(model, t, a, b) >= 0.0
                    worst_asym = max(worst_asym, abs(lam - lambda_pair(model, t, b, a)))
                    if a == b:
                        worst_diag = max(worst_diag, abs(lam))
                    monotone &= lam >= previous - 1e-12
                    previous = lam
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
    paths = sample_chi_paths(model, levels, grid, seed=808, n_traj=n)
    finals = paths.paths[:, -1, :]
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
    for row in rows[:3]:  # orders 2, 3, 4
        if row.stderr == 0.0:
            if row.empirical != row.predicted:
                return False, f"order {row.order} exact mismatch"
            continue
        worst = max(worst, abs(row.empirical - row.predicted) / row.stderr)
    return worst <= 3.0, f"worst moment z {worst:.2f}"


def _check_analytic_invariants() -> tuple[bool, str]:
    _, decomposition, rho0 = _four_level()
    grid = np.linspace(0.0, 3.0, 31)
    worst_herm = worst_trace = worst_eig = 0.0
    monotone = True
    for model in (dephasing_model(0.5), correlated_model(0.8, 1.0), _piecewise_model()):
        result = averaged_trajectory(decomposition, model, rho0, grid)
        previous_purity = np.inf
        previous_abs = np.full((4, 4), np.inf)
        energy0 = energy_expectation(result.states[0], decomposition.reconstruct())
        for state in result.states:
            worst_herm = max(worst_herm, float(np.max(np.abs(state - state.conj().T))))
            worst_trace = max(worst_trace, abs(float(np.trace(state).real) - 1.0))
            worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(state)[0]))
            p = purity(state)
            monotone &= p <= previous_purity + 1e-12
            previous_purity = p
            rho_e = np.abs(to_energy_basis(state, decomposition))
            monotone &= bool(np.all(rho_e <= previous_abs + 1e-12))
            previous_abs = rho_e
            drift = abs(energy_expectation(state, decomposition.reconstruct()) - energy0)
            if drift > 1e-10:
                return False, f"energy drift {drift:.2e}"
    ok = worst_herm < 1e-12 and worst_trace < 1e-12 and worst_eig < 1e-10 and monotone
    return ok, (
        f"herm {worst_herm:.2e}, trace {worst_trace:.2e}, eig {worst_eig:.2e}, monotone {monotone}"
    )


def _check_global_equals_general() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    worst = 0.0
    for profile, model in (
        (0.5, dephasing_model(0.5)),
        (
            SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
            _piecewise_model(),
        ),
    ):
        for t in (0.0, 0.7, 1.0, 2.3):
            a = averaged_state_global(decomposition, profile, rho0, t).matrix
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
        for state, t in zip(ode.states, grid):
            exact = averaged_state_global(decomposition, gamma, rho0, float(t)).matrix
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


def _check_cp_certification() -> tuple[bool, str]:
    spectra = [0.0, 0.37, 1.1, 2.03, 2.5, 3.01, 3.9, 4.42]
    worst = np.inf
    for dim in range(2, 9):
        decomposition = eigendecompose(HermitianOperator(np.diag(spectra[:dim])))
        for generator in (
            build_generator(decomposition, dephasing_model(0.7)),
            build_generator(decomposition, correlated_model(0.7, 1.2)),
        ):
            report = cp_report(generator, [0.1, 1.0, 10.0])
            worst = min(worst, report.min_choi_eigenvalue)
    _, qubit_dec, _ = _qubit()
    amplifying = direct_damping_model(qubit_dec.levels, [[0, -1], [-1, 0]])
    violator = build_generator(qubit_dec, amplifying)
    violation = cp_report(violator, [1.0]).min_choi_eigenvalue
    ok = worst >= -1e-10 and violation < -1e-6
    return ok, f"min eigenvalue {worst:.2e}; violator flagged at {violation:.2e}"


def _check_map_defects() -> tuple[bool, str]:
    _, decomposition, _ = _four_level()
    worst = 0.0
    for generator in (
        build_generator(decomposition, dephasing_model(0.5)),
        build_generator(decomposition, correlated_model(0.8, 1.0)),
    ):
        report = cp_report(generator, [0.1, 1.0, 10.0])
        for checkpoint in report.checkpoints:
            worst = max(
                worst,
                checkpoint.trace_defect,
                checkpoint.unitality_defect,
                checkpoint.semigroup_defect,
            )
    _, dec2, model, _ = _dissipative_fixture()
    dissipative = build_generator(dec2, model)
    trace_defect = cp_report(dissipative, [1.0]).checkpoints[0].trace_defect
    ok = worst < 1e-10 and trace_defect > 1e-3
    return ok, f"brownian defects {worst:.2e}; dissipative trace defect {trace_defect:.3f}"


def _check_markovianity_boundary() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    markovian = semigroup_defect(decomposition, dephasing_model(0.5), rho0, 0.8, 0.8)
    zero_noise = semigroup_defect(
        decomposition,
        NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0), gamma=0.0),
        rho0,
        0.8,
        0.8,
    )
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
        energies = [energy_expectation(s, hamiltonian) for s in states]
        drift = max(drift, max(abs(e - energies[0]) for e in energies))

    d_ham, d_dec, d_model, d_rho = _dissipative_fixture()
    table = d_model.direct_lambda.table
    rho_e = to_energy_basis(d_rho.matrix, d_dec)
    worst_energy = 0.0
    trace_warned = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for t in (0.5, 1.0, 2.0, 4.0):
            state = averaged_state(d_dec, d_model, d_rho, t)
            measured = energy_expectation(state, d_ham)
            closed = sum(
                d_dec.levels[k] * math.exp(-0.5 * t * table[k, k]) * rho_e[k, k].real
                for k in range(d_dec.num_levels)
            )
            worst_energy = max(worst_energy, abs(measured - closed))
        trace_warned = any(issubclass(w.category, DissipativeTraceLoss) for w in caught)
    final_trace = float(np.trace(state.matrix).real)
    ok = drift <= 1e-10 and worst_energy <= 1e-10 and trace_warned and final_trace < 1.0
    return ok, (
        f"conserved drift {drift:.2e}; dissipative closed-form gap {worst_energy:.2e}; "
        f"trace {final_trace:.4f} (warned: {trace_warned})"
    )


def _check_time_average() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    center, spread = 1.0, 0.15
    grid = np.linspace(0.0, 2.0, 16001)
    zero_noise = NoiseModel(sigma_theta=SigmaThetaPreset.constant(0.0), gamma=0.0)
    trajectory = averaged_trajectory(decomposition, zero_noise, rho0, grid)
    weights = np.exp(-0.5 * ((grid - center) / spread) ** 2) / (spread * math.sqrt(2 * math.pi))
    averaged = time_averaged_state(grid, trajectory.states, weights)
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


def _check_ensemble_matches_analytic(quick: bool, gamma_factor: float) -> tuple[bool, str]:
    ensemble, analytic = _ensemble_fixture(4000 if quick else 8000, gamma_factor)
    report = compare_to_analytic(ensemble, analytic)
    detail = f"max z {report.max_z:.2f}, above-3 fraction {report.frac_above_tail:.3f}"
    if gamma_factor != 1.0:
        detail += f" (analytic side corrupted by factor {gamma_factor})"
    return bool(report.passed), detail


def _check_ensemble_determinism() -> tuple[bool, str]:
    _, decomposition, rho0 = _qubit()
    model = dephasing_model(0.5)
    grid = np.linspace(0.0, 1.0, 5)
    runs = [
        run_ensemble(decomposition, model, rho0, grid, n_traj=2000, seed=77, n_workers=w)
        for w in (1, 4)
    ]
    same = (
        runs[0].mean.tobytes() == runs[1].mean.tobytes()
        and runs[0].stderr_re.tobytes() == runs[1].stderr_re.tobytes()
        and runs[0].stderr_im.tobytes() == runs[1].stderr_im.tobytes()
    )
    return same, "1-worker and 4-worker runs byte-identical" if same else "outputs differ"


def _check_comparison_detector() -> tuple[bool, str]:
    ensemble, corrupted = _ensemble_fixture(4000, gamma_factor=2.0)
    report = compare_to_analytic(ensemble, corrupted)
    return report.passed is False, f"doubled-gamma reference rejected with max z {report.max_z:.1f}"


def _check_bundled_round_trip() -> tuple[bool, str]:
    import yaml

    for name in BUNDLED_SCENARIOS:
        data = yaml.safe_load(bundled_scenario_text(name))
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
        states = [
            averaged_state(decomposition, scenario.noise, scenario.initial_state, float(t))
            for t in subsample
        ]
    worst_herm = max(
        float(np.max(np.abs(s.matrix - s.matrix.conj().T))) for s in states
    )
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
    return bool(report.passed), f"max z {report.max_z:.2f} at n_traj {n}"


def check_names() -> list[str]:
    return [name for name, _ in _CHECKS] + [
        "scenario-round-trip (with --config)",
        "scenario-analytic-hermitian (with --config)",
        "scenario-ensemble-z-test (with --config, Brownian mode)",
    ]


_CHECKS: list[tuple[str, Callable[..., tuple[bool, str]]]] = [
    ("spectral-invariants", lambda ctx: _check_spectral_invariants()),
    ("basis-round-trip", lambda ctx: _check_basis_round_trip()),
    ("kernel-properties", lambda ctx: _check_kernel_properties()),
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
    ("time-average-quadrature", lambda ctx: _check_time_average()),
    (
        "ensemble-matches-analytic",
        lambda ctx: _check_ensemble_matches_analytic(ctx["quick"], ctx["gamma_factor"]),
    ),
    ("ensemble-determinism", lambda ctx: _check_ensemble_determinism()),
    ("comparison-detector", lambda ctx: _check_comparison_detector()),
    ("bundled-scenario-round-trip", lambda ctx: _check_bundled_round_trip()),
]


def run_suite(
    scenario: Optional[ScenarioConfig] = None,
    quick: bool = False,
    analytic_gamma_factor: float = 1.0,
) -> list[CheckResult]:
    """Run every built-in check, plus scenario checks when a config is given."""
    checks = list(_CHECKS)
    if scenario is not None:
        checks += [
            ("scenario-round-trip", lambda ctx: _check_scenario_round_trip(scenario)),
            ("scenario-analytic-hermitian", lambda ctx: _check_scenario_hermitian(scenario)),
        ]
        if scenario.noise.direct_lambda is None:
            checks.append(
                ("scenario-ensemble-z-test", lambda ctx: _check_scenario_ensemble(scenario, quick))
            )
    context = {"quick": quick, "gamma_factor": analytic_gamma_factor}
    results = []
    for name, check in checks:
        start = time.perf_counter()
        try:
            passed, detail = check(context)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
