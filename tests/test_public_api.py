"""The package exports a fixed list of names; every exported name resolves,
in the package and in each of its modules, and every package export is
listed by the module that defines it."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import noisytime

MODULES = sorted(info.name for info in pkgutil.iter_modules(noisytime.__path__))


# What README.md, docs/config.md, the demos and perfbench import from the
# package, the exceptions and the noise presets.  Everything else is
# imported from its module.
EXPORTS = [
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
    "HermitianOperator",
    "DensityMatrix",
    "eigendecompose",
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
    "averaged_state",
    "averaged_trajectory",
    "semigroup_defect",
    "build_generator",
    "integrate",
    "cp_report",
    "run_ensemble",
    "compare_to_analytic",
    "energy_expectation",
    "BUNDLED_SCENARIOS",
    "bundled_scenario_text",
]


def test_package_exports_the_pinned_names():
    assert sorted(noisytime.__all__) == sorted(EXPORTS)
    assert len(noisytime.__all__) == len(set(noisytime.__all__)) == 38


def test_package_all_resolves():
    missing = [name for name in noisytime.__all__ if not hasattr(noisytime, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"noisytime.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_listed_by_their_module():
    """A package export is in the __all__ of the module that defines it."""
    unlisted = []
    for name in noisytime.__all__:
        home = getattr(getattr(noisytime, name), "__module__", None)
        module = sys.modules.get(home) if home else None
        if module is not None and hasattr(module, "__all__") and name not in module.__all__:
            unlisted.append(f"{home}.{name}")
    assert unlisted == []


def test_import_loads_no_check():
    """``import noisytime`` leaves the check suite unloaded; the bundled
    scenarios still come from the package."""
    script = (
        "import sys\n"
        "import noisytime\n"
        "from noisytime import BUNDLED_SCENARIOS, bundled_scenario_text\n"
        "text = bundled_scenario_text(BUNDLED_SCENARIOS[0])\n"
        "print('noisytime.verify' in sys.modules, text.count('hamiltonian:'))\n"
    )
    # the child finds the package where this interpreter found it
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "1"]
