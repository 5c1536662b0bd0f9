"""Scenario configuration: parsing, validation, and canonical re-emission.

A scenario is one YAML mapping with sections ``hamiltonian``,
``initial_state``, ``noise``, ``grid``, ``montecarlo``, ``outputs``.  Complex
matrices are encoded row by row with each entry a ``[re, im]`` pair (a bare
number is accepted as a real entry).  Every parse error carries the path of
the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError, NoisytimeError
from .noise import NoiseModel
from .operators import DensityMatrix, HermitianOperator, eigendecompose

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "matrix_from_config",
    "matrix_to_config",
]

STATE_PRESETS = ("plus_state", "maximally_mixed", "ground")
OUTPUT_FORMATS = ("csv", "json")

# The libyaml-backed loader parses large matrices an order of magnitude faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULT_N_TRAJ = 10000
DEFAULT_SEED = 2024


def matrix_from_config(data, path: str) -> np.ndarray:
    """Rows of [re, im] entries (bare reals allowed) to a complex matrix."""
    if not isinstance(data, (list, tuple)) or not data:
        raise ConfigError(path, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, (list, tuple)) or len(row) != len(data):
            raise ConfigError(f"{path}[{i}]", "matrix must be square")
        parsed = []
        for j, entry in enumerate(row):
            if isinstance(entry, (int, float)):
                parsed.append(complex(entry))
            elif isinstance(entry, (list, tuple)) and len(entry) == 2:
                try:
                    parsed.append(complex(float(entry[0]), float(entry[1])))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}[{i}][{j}]", f"bad entry {entry!r}") from exc
            else:
                raise ConfigError(f"{path}[{i}][{j}]", f"expected [re, im], got {entry!r}")
        rows.append(parsed)
    return np.asarray(rows, dtype=complex)


def matrix_to_config(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


def _state_from_preset(preset: str, hamiltonian: HermitianOperator) -> DensityMatrix:
    dim = hamiltonian.dim
    if preset == "plus_state":
        return DensityMatrix.pure(np.ones(dim))
    if preset == "maximally_mixed":
        return DensityMatrix.maximally_mixed(dim)
    if preset == "ground":
        decomposition = eigendecompose(hamiltonian)
        projector = decomposition.projectors[0]
        return DensityMatrix(projector / decomposition.multiplicities[0])
    raise ConfigError("initial_state", f"unknown preset {preset!r}; known: {STATE_PRESETS}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully validated simulation scenario."""

    name: str
    hamiltonian: HermitianOperator
    initial_state: DensityMatrix
    initial_state_preset: Optional[str]
    noise: NoiseModel
    t_end: float
    n_steps: int
    n_traj: int
    seed: int
    out_dir: str
    formats: tuple[str, ...]

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def decomposition(self):
        return eigendecompose(self.hamiltonian)

    def with_overrides(
        self, seed: Optional[int] = None, out_dir: Optional[str] = None
    ) -> "ScenarioConfig":
        updated = self
        if seed is not None:
            updated = replace(updated, seed=int(seed))
        if out_dir is not None:
            updated = replace(updated, out_dir=str(out_dir))
        return updated


def _section(data: dict, key: str, required: bool = True) -> Optional[dict]:
    if key not in data:
        if required:
            raise ConfigError(key, "missing section")
        return None
    value = data[key]
    if not isinstance(value, dict):
        raise ConfigError(key, "expected a mapping")
    return value


def parse_config(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "top level must be a mapping")
    known = {"name", "hamiltonian", "initial_state", "noise", "grid", "montecarlo", "outputs"}
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown section")

    name = str(data.get("name", "scenario"))
    if "hamiltonian" not in data:
        raise ConfigError("hamiltonian", "missing section")
    try:
        hamiltonian = HermitianOperator(matrix_from_config(data["hamiltonian"], "hamiltonian"))
    except NoisytimeError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("hamiltonian", str(exc)) from exc

    if "initial_state" not in data:
        raise ConfigError("initial_state", "missing section")
    raw_state = data["initial_state"]
    if isinstance(raw_state, str):
        preset = raw_state
        state = _state_from_preset(preset, hamiltonian)
    else:
        preset = None
        try:
            state = DensityMatrix(matrix_from_config(raw_state, "initial_state"))
        except NoisytimeError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("initial_state", str(exc)) from exc
    if state.dim != hamiltonian.dim:
        raise ConfigError(
            "initial_state", f"dimension {state.dim} != hamiltonian dimension {hamiltonian.dim}"
        )

    noise = NoiseModel.from_config(_section(data, "noise") or {}, "noise")

    grid = _section(data, "grid")
    for key in grid:
        if key not in ("t_end", "n_steps", "t_start"):
            raise ConfigError(f"grid.{key}", "unknown field")
    if float(grid.get("t_start", 0.0)) != 0.0:
        raise ConfigError("grid.t_start", "must be 0")
    if "t_end" not in grid:
        raise ConfigError("grid.t_end", "missing")
    t_end = float(grid["t_end"])
    if t_end <= 0:
        raise ConfigError("grid.t_end", "must be > 0")
    n_steps = grid.get("n_steps", 100)
    if not isinstance(n_steps, int) or n_steps < 1:
        raise ConfigError("grid.n_steps", "must be an integer >= 1")

    mc = _section(data, "montecarlo", required=False) or {}
    for key in mc:
        if key not in ("n_traj", "seed"):
            raise ConfigError(f"montecarlo.{key}", "unknown field")
    n_traj = mc.get("n_traj", DEFAULT_N_TRAJ)
    if not isinstance(n_traj, int) or n_traj < 1:
        raise ConfigError("montecarlo.n_traj", "must be an integer >= 1")
    seed = mc.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ConfigError("montecarlo.seed", "must be an integer in [0, 2^64)")

    outputs = _section(data, "outputs", required=False) or {}
    for key in outputs:
        if key not in ("directory", "formats"):
            raise ConfigError(f"outputs.{key}", "unknown field")
    out_dir = str(outputs.get("directory", "out"))
    formats = outputs.get("formats", list(OUTPUT_FORMATS))
    if not isinstance(formats, (list, tuple)) or not formats:
        raise ConfigError("outputs.formats", "expected a nonempty list")
    for fmt in formats:
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError("outputs.formats", f"unknown format {fmt!r}; known: {OUTPUT_FORMATS}")

    return ScenarioConfig(
        name=name,
        hamiltonian=hamiltonian,
        initial_state=state,
        initial_state_preset=preset,
        noise=noise,
        t_end=t_end,
        n_steps=n_steps,
        n_traj=n_traj,
        seed=seed,
        out_dir=out_dir,
        formats=tuple(str(f) for f in formats),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.load(handle, Loader=_YAML_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError("", f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError("", f"could not parse {path}: {exc}") from exc
    return parse_config(data)


def config_to_dict(config: ScenarioConfig) -> dict:
    """Canonical dictionary form; parsing it back yields the same scenario."""
    state = (
        config.initial_state_preset
        if config.initial_state_preset is not None
        else matrix_to_config(config.initial_state.matrix)
    )
    return {
        "name": config.name,
        "hamiltonian": matrix_to_config(config.hamiltonian.matrix),
        "initial_state": state,
        "noise": config.noise.to_config(),
        "grid": {"t_end": config.t_end, "n_steps": config.n_steps},
        "montecarlo": {"n_traj": config.n_traj, "seed": config.seed},
        "outputs": {"directory": config.out_dir, "formats": list(config.formats)},
    }
