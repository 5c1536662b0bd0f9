"""Decoherence from randomized evolution time, three ways.

The same physical model is exposed through an exact elementwise propagator,
a master-equation generator built from the same noise presets, and Monte
Carlo sampling of random unitaries driven by correlated Brownian phases.  The three routes agree
within roundoff, integration, and statistical error, and the ``verify``
entry point checks that they do.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DissipativeTraceLoss,
    GridMismatch,
    KernelAsymmetric,
    KernelNotPSD,
    NoisytimeError,
    NotHermitian,
    NotPositive,
    StepTooLarge,
    TraceNotOne,
    WeightsNotNormalized,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    eigendecompose,
    from_energy_basis,
    to_energy_basis,
    validate_density,
)
from .noise import (
    ChiPaths,
    CorrelationPreset,
    DirectDampingPreset,
    DriftPreset,
    LambdaKernel,
    MomentRow,
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
from .propagator import (
    averaged_state,
    averaged_state_global,
    averaged_trajectory,
    semigroup_defect,
    time_averaged_state,
)
from .generator import (
    Superoperator,
    build_generator,
    cp_report,
    CPCheckpoint,
    CPReport,
    integrate,
)
from .montecarlo import (
    ComparisonReport,
    EnsembleResult,
    compare_to_analytic,
    run_ensemble,
    unitary_from_phases,
)
from .metrics import coherence_l1, energy_expectation, purity, trace_distance
from .results import EvolutionResult
from .config import ScenarioConfig, config_to_dict, load_config, parse_config
from .verify import BUNDLED_SCENARIOS, CheckResult, bundled_scenario_text, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NoisytimeError",
    "NotHermitian",
    "TraceNotOne",
    "NotPositive",
    "DimensionMismatch",
    "KernelNotPSD",
    "KernelAsymmetric",
    "WeightsNotNormalized",
    "StepTooLarge",
    "GridMismatch",
    "ConfigError",
    "DissipativeTraceLoss",
    # operators
    "HermitianOperator",
    "SpectralDecomposition",
    "DensityMatrix",
    "eigendecompose",
    "validate_density",
    "to_energy_basis",
    "from_energy_basis",
    # noise
    "NoiseModel",
    "DriftPreset",
    "SigmaThetaPreset",
    "SigmaTimePreset",
    "CorrelationPreset",
    "DirectDampingPreset",
    "LambdaKernel",
    "ChiPaths",
    "MomentRow",
    "dephasing_model",
    "correlated_model",
    "direct_damping_model",
    "eta",
    "lambda_pair",
    "correlation_matrix",
    "psd_sqrt",
    "sample_chi_paths",
    "sample_phase_differences",
    "moment_report",
    "predicted_moment",
    # propagator
    "averaged_state",
    "averaged_state_global",
    "averaged_trajectory",
    "time_averaged_state",
    "semigroup_defect",
    # generator
    "Superoperator",
    "build_generator",
    "integrate",
    "cp_report",
    "CPCheckpoint",
    "CPReport",
    # montecarlo
    "EnsembleResult",
    "ComparisonReport",
    "run_ensemble",
    "compare_to_analytic",
    "unitary_from_phases",
    # metrics
    "purity",
    "coherence_l1",
    "energy_expectation",
    "trace_distance",
    # results
    "EvolutionResult",
    # config
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "config_to_dict",
    # verify
    "run_suite",
    "CheckResult",
    "BUNDLED_SCENARIOS",
    "bundled_scenario_text",
]
