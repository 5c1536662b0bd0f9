"""Decoherence from randomized evolution time, three ways.

The same physical model is exposed through an exact elementwise propagator,
a master-equation generator built from the same noise presets, and Monte
Carlo sampling of random unitaries driven by correlated Brownian phases.  The three routes agree
within roundoff, integration, and statistical error, and the ``verify``
entry point checks that they do.

The package exports what the README and the demos call, the exceptions and
the noise presets.  Everything else, including the result types the routes
return, is imported from its module (``noisytime.operators``,
``noisytime.noise``, ...).
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
)
from .operators import DensityMatrix, HermitianOperator, eigendecompose
from .noise import (
    CorrelationPreset,
    DirectDampingPreset,
    DriftPreset,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    lambda_pair,
    moment_report,
    sample_chi_paths,
    sample_phase_differences,
)
from .propagator import averaged_state, averaged_trajectory, semigroup_defect
from .generator import build_generator, cp_report, integrate
from .montecarlo import compare_to_analytic, run_ensemble
from .metrics import energy_expectation
from .config import BUNDLED_SCENARIOS, bundled_scenario_text

__version__ = "0.1.0"

__all__ = [
    # errors
    "NoisytimeError",
    "NotHermitian",
    "TraceNotOne",
    "NotPositive",
    "DimensionMismatch",
    "KernelNotPSD",
    "KernelAsymmetric",
    "StepTooLarge",
    "GridMismatch",
    "ConfigError",
    "DissipativeTraceLoss",
    # operators
    "HermitianOperator",
    "DensityMatrix",
    "eigendecompose",
    # noise
    "NoiseModel",
    "DriftPreset",
    "SigmaThetaPreset",
    "SigmaTimePreset",
    "CorrelationPreset",
    "DirectDampingPreset",
    "dephasing_model",
    "correlated_model",
    "direct_damping_model",
    "lambda_pair",
    "sample_chi_paths",
    "sample_phase_differences",
    "moment_report",
    # propagator
    "averaged_state",
    "averaged_trajectory",
    "semigroup_defect",
    # generator
    "build_generator",
    "integrate",
    "cp_report",
    # montecarlo
    "run_ensemble",
    "compare_to_analytic",
    # metrics
    "energy_expectation",
    # config
    "BUNDLED_SCENARIOS",
    "bundled_scenario_text",
]
