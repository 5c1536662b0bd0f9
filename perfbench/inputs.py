"""Seeded workload inputs.

``write_inputs(workload, seed, work_dir)`` writes the scenario YAML files one
workload reads and returns the CLI steps that make up its body.  The same
seed always gives byte-identical files; the program sees only those files.

Why each workload exists (BENCHMARK.json gives each in one line):

bundled_cli
    The four bundled scenarios through every subcommand that accepts them.
    This is what users actually run; with d <= 4 the cost is per-trajectory
    set-up, moment sampling, verify and output writing.  The Choi certificate
    is negligible; damping-kernel quadrature runs mostly inside verify (about
    3 s of a 10 s body) and for the nonmarkovian_piecewise scenario.
markov_d32
    A random d = 32 Hamiltonian with constant sigma_time and a full-rank
    mixed state: no quadrature (closed form), but the dense d^2 x d^2 Choi
    eigensolve, RK4, the rank-d ensemble and 2048-column CSVs.
piecewise_d16
    A random d = 16 Hamiltonian with piecewise sigma_time and a rank-1 state,
    through ``evolve``: per-pair quadrature dominates and no Choi or Monte
    Carlo work is done.  The breakpoint falls between grid points.  ``sample``
    is left out because on such a grid the Monte Carlo route evaluates
    sigma_time at the left end of each step, and its mean misses the analytic
    state by far more than the family-wise bound (max z about 7.4 against
    5.6); a workload must pass every gate.  The bias stays visible with
    ``noisytime sample`` on this YAML.  BENCHMARK.json does not list this
    workload: on a shared 2-vCPU host its wall_s spread between runs
    (interquartile range over median, ten seeds) reached 0.18 and 0.27
    against a bound of 0.25, as host load slowed the same body from 4 s to
    9 s.  It still runs by name, for before/after numbers on the quadrature.
    The damping kernel stays measured on bundled_cli (nonmarkovian_piecewise
    and verify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

WORKLOADS = ("bundled_cli", "markov_d32", "piecewise_d16")

# Worker threads passed to every subcommand (only `sample` uses them).
THREADS = 2

# Files each subcommand must leave in its output directory.
EXPECTED_OUTPUTS = {
    "evolve": ("analytic.csv",),
    "integrate": ("me.csv", "cp_report.json"),
    "sample": ("mc_mean.csv", "mc_stderr.csv", "comparison.json"),
    "moments": ("moments.csv",),
    "verify": (),
}

# Bundled scenario -> generator family that matches its noise model.
BUNDLED_GENERATORS = {
    "global_dephasing": "phase",
    "correlated_tau": "correlated",
    "dissipative_direct": "general",
}

# Distinct levels closer than this would be merged by eigendecompose's 1e-9
# degeneracy rule; the random spectra keep well clear of it.
MIN_LEVEL_GAP = 1e-6


@dataclass(frozen=True)
class Step:
    """One CLI invocation of the workload body."""

    command: str
    config: Optional[Path]
    out_dir: Optional[Path]
    extra: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        argv = [self.command]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        return argv + list(self.extra) + ["--threads", str(THREADS)]

    def expected(self) -> list[Path]:
        return [self.out_dir / name for name in EXPECTED_OUTPUTS[self.command]]


def _complex_rows(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _random_hamiltonian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix, spectrum roughly in [-2, 2], distinct levels."""
    while True:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / (2.0 * math.sqrt(dim))
        if np.min(np.diff(np.linalg.eigvalsh(h))) > MIN_LEVEL_GAP:
            return h


def _random_mixed_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix W W^dagger / tr."""
    w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = w @ w.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _write_yaml(path: Path, data: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(data, sort_keys=False, default_flow_style=None))
    return path


def _scenario(name, hamiltonian, state, noise, t_end, n_steps, n_traj, mc_seed, out_dir) -> dict:
    return {
        "name": name,
        "hamiltonian": _complex_rows(hamiltonian),
        "initial_state": state if isinstance(state, str) else _complex_rows(state),
        "noise": noise,
        "grid": {"t_end": t_end, "n_steps": n_steps},
        "montecarlo": {"n_traj": n_traj, "seed": mc_seed},
        "outputs": {"directory": str(out_dir), "formats": ["csv", "json"]},
    }


def _bundled_cli(rng: np.random.Generator, work_dir: Path) -> list[Step]:
    from noisytime import BUNDLED_SCENARIOS, bundled_scenario_text

    steps = []
    for name in BUNDLED_SCENARIOS:
        data = yaml.safe_load(bundled_scenario_text(name))
        out_dir = work_dir / "out" / name
        data["montecarlo"]["seed"] = int(rng.integers(0, 2**31))
        data["outputs"]["directory"] = str(out_dir)
        config = _write_yaml(work_dir / f"{name}.yaml", data)
        steps.append(Step("evolve", config, out_dir))
        if name in BUNDLED_GENERATORS:
            steps.append(Step("integrate", config, out_dir, ("--generator", BUNDLED_GENERATORS[name])))
        if "direct_lambda" in data["noise"]:
            continue  # no Brownian realization: sample and moments refuse it
        diagonal = [row[i][0] for i, row in enumerate(data["hamiltonian"])]
        theta = ("--theta", repr(min(diagonal)), "--theta-prime", repr(max(diagonal)))
        steps.append(Step("sample", config, out_dir))
        steps.append(Step("moments", config, out_dir, theta))
    steps.append(Step("verify", None, None))
    return steps


def _markov_d32(rng: np.random.Generator, work_dir: Path) -> list[Step]:
    dim, gamma = 32, 0.5
    hamiltonian = _random_hamiltonian(rng, dim)
    state = _random_mixed_state(rng, dim)
    noise = {
        "drift_h": {"kind": "identity"},
        "sigma_theta": {"kind": "linear", "coefficient": math.sqrt(gamma)},
        "sigma_time": {"kind": "constant", "value": 1.0},
        "correlation_g": {"kind": "gaussian", "tau": 1.0},
        "gamma": gamma,
    }
    out_dir = work_dir / "out"
    data = _scenario(
        "markov_d32", hamiltonian, state, noise, 3.0, 60, 1000,
        int(rng.integers(0, 2**31)), out_dir,
    )
    config = _write_yaml(work_dir / "markov_d32.yaml", data)
    return [
        Step("evolve", config, out_dir),
        Step("integrate", config, out_dir, ("--generator", "correlated")),
        Step("sample", config, out_dir),
    ]


def _piecewise_d16(rng: np.random.Generator, work_dir: Path) -> list[Step]:
    dim = 16
    hamiltonian = _random_hamiltonian(rng, dim)
    noise = {
        "drift_h": {"kind": "identity"},
        "sigma_theta": {"kind": "linear", "coefficient": 1.0},
        "sigma_time": {"kind": "piecewise_constant", "breakpoints": [1.0], "values": [0.4, 1.6]},
        "correlation_g": {"kind": "gaussian", "tau": 1.0},
        "gamma": 1.0,
    }
    out_dir = work_dir / "out"
    # t_end 2 over 75 steps puts the breakpoint t = 1 halfway through step 38.
    data = _scenario(
        "piecewise_d16", hamiltonian, "plus_state", noise, 2.0, 75, 2000,
        int(rng.integers(0, 2**31)), out_dir,
    )
    config = _write_yaml(work_dir / "piecewise_d16.yaml", data)
    return [Step("evolve", config, out_dir)]


_BUILDERS = {
    "bundled_cli": _bundled_cli,
    "markov_d32": _markov_d32,
    "piecewise_d16": _piecewise_d16,
}


def write_inputs(workload: str, seed: int, work_dir: Path) -> list[Step]:
    """Write the workload's scenario files under ``work_dir``; return its steps."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, Path(work_dir))
