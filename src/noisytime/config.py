"""Scenario configuration: parsing, validation, and canonical re-emission.

A scenario is one YAML mapping with sections ``hamiltonian``,
``initial_state``, ``noise``, ``grid``, ``montecarlo``, ``outputs``.  Complex
matrices are encoded row by row with each entry a ``[re, im]`` pair (a bare
number is accepted as a real entry).

This module is the only reader and writer of the schema.  Every field goes
through one reader per field type (finite number, integer, list of numbers,
preset ``kind`` with its closed field set), unknown fields are rejected, and
every parse error is a ConfigError carrying the full path of the field.  The
noise presets are read and written through their families' tables in
``noise.py`` (``PRESETS``), so a new family needs no change here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError, DimensionMismatch, NoisytimeError
from .noise import PRESETS, ROWS, LambdaKernel, NoiseModel, SigmaThetaPreset
from .operators import DensityMatrix, HermitianOperator, eigendecompose

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "matrix_from_config",
    "matrix_to_config",
    "BUNDLED_SCENARIOS",
    "bundled_scenario_text",
]

STATE_PRESETS = ("plus_state", "maximally_mixed", "ground")
OUTPUT_FORMATS = ("csv", "json")

# The libyaml-backed loader parses large matrices an order of magnitude faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULT_N_TRAJ = 10000
DEFAULT_SEED = 2024
SEED_LIMIT = 2**64

SECTIONS = ("name", "hamiltonian", "initial_state", "noise", "grid", "montecarlo", "outputs")
NOISE_FIELDS = (*PRESETS, "gamma")

_REQUIRED = object()


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
            where = f"{path}[{i}][{j}]"
            if isinstance(entry, (list, tuple)):
                if len(entry) != 2:
                    raise ConfigError(where, f"expected [re, im], got {entry!r}")
                parsed.append(complex(_number(entry[0], where), _number(entry[1], where)))
            else:
                parsed.append(complex(_number(entry, where)))
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
        ground = decomposition.eigenvectors[:, decomposition.level_index == 0]
        return DensityMatrix(ground @ ground.conj().T / ground.shape[1])
    raise ConfigError("initial_state", f"unknown preset {preset!r}; known: {STATE_PRESETS}")


def _refuse_overflow(model, levels, t: float, level_field: str, message: str) -> None:
    """Raise ConfigError(field, message) when lambda(t) on ``levels`` is not finite.

    lambda(t) = S(t) E never decreases in t, so a model that overflows
    anywhere on [0, t] overflows at t.  The field is ``noise.sigma_time``
    where S(t) itself is not finite, else ``level_field``, the source of the
    level part E.  numpy warns of nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(np.isfinite(LambdaKernel(model, levels).lambda_matrix(t))):
            return
        finite_time = np.isfinite(model.sigma_time.integrated_square(t))
    raise ConfigError(level_field if finite_time else "noise.sigma_time", message)


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
        """The Hamiltonian's spectral decomposition, once the noise model
        passes the gate of every route on the scenario's levels and grid.

        A direct table must tabulate every level, else ConfigError naming
        ``noise.direct_lambda.levels``.  lambda(t_end) must be finite
        (``_refuse_overflow``, with the direct table or ``noise.sigma_theta``
        as the level source), else a route would write NaN or fail.  And
        t_end max|h(theta_k) - h(theta_l)| must be below 2^52: floats that
        large are whole radians apart, so the phases t (h_k - h_l) would
        carry no significant digit.  Else ConfigError naming ``noise.drift_h``.
        """
        decomposition = eigendecompose(self.hamiltonian)
        levels, noise = decomposition.levels, self.noise
        try:
            _refuse_overflow(
                noise, levels, self.t_end,
                "noise.sigma_theta" if noise.direct_lambda is None else "noise.direct_lambda.table",
                "lambda(t) overflows a float on the scenario's levels and grid",
            )
        except DimensionMismatch as exc:  # a level the direct table lacks
            raise ConfigError("noise.direct_lambda.levels", str(exc)) from None
        with np.errstate(over="ignore", invalid="ignore"):
            drift = noise.drift_h(levels)
            # A NaN or infinite drift gap fails the test too.
            if not self.t_end * (np.max(drift) - np.min(drift)) < 2.0**52:
                raise ConfigError(
                    "noise.drift_h", "t_end times the largest drift gap between levels reaches 2^52"
                )
        return decomposition

    def with_overrides(
        self, seed: Optional[int] = None, out_dir: Optional[str] = None
    ) -> "ScenarioConfig":
        updated = self
        if seed is not None:
            updated = replace(updated, seed=_seed(seed, "--seed"))
        if out_dir is not None:
            updated = replace(updated, out_dir=str(out_dir))
        return updated


def _number(value, path: str) -> float:
    """A finite number.  Numeric strings count: YAML 1.1 reads ``1e-3`` as one."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def _numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, f"expected a list of numbers, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _integer(value, path: str, low: int = 1, high: Optional[int] = None) -> int:
    """An integer in [low, high); booleans are not integers here."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and low <= value and (high is None or value < high):
        return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ConfigError(path, f"must be an integer {bound}, got {value!r}")


def _seed(value, path: str) -> int:
    return _integer(value, path, 0, SEED_LIMIT)


def _table(value, path: str) -> list[tuple[float, ...]]:
    """A square table of numbers, row by row."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, f"expected a list of rows, got {value!r}")
    rows = [_numbers(row, f"{path}[{i}]") for i, row in enumerate(value)]
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ConfigError(f"{path}[{i}]", "table must be square")
    return rows


def _fields(data, path: str, fields) -> dict:
    """``data`` as a mapping whose keys are all among ``fields``."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected a mapping")
    for key in data:
        if key not in fields:
            raise ConfigError(f"{path}.{key}" if path else str(key), "unknown field")
    return data


def _read(data: dict, path: str, key: str, reader=None, default=_REQUIRED):
    """Field ``key`` of the mapping at ``path``, through ``reader`` if given."""
    where = f"{path}.{key}" if path else key
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(where, "missing")
        return default
    return data[key] if reader is None else reader(data[key], where)


def _kind(data, path: str, kinds: dict, default=_REQUIRED) -> str:
    """The ``kind`` of a preset mapping; its other keys must be that kind's fields."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected a mapping")
    kind = _read(data, path, "kind", default=default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; known: {tuple(kinds)}")
    _fields(data, path, ("kind", *kinds[kind]))
    return kind


def _param(data: dict, path: str, field: str, spec):
    """One preset field, read as its family's table specifies (see noise._Preset)."""
    if spec is tuple:
        return _read(data, path, field, _numbers)
    if spec is ROWS:
        return _read(data, path, field, _table)
    return _read(data, path, field, _number, _REQUIRED if spec is float else spec)


def _built(path: str, build, *args):
    """``build(*args)``, its model errors reported as config errors at ``path``."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except NoisytimeError as exc:
        raise ConfigError(path, str(exc)) from exc


def _noise(data: dict) -> NoiseModel:
    parts = {}
    for name, cls in PRESETS.items():
        if name in data:
            path = f"noise.{name}"
            only = next(iter(cls.KINDS)) if len(cls.KINDS) == 1 else _REQUIRED
            kind = _kind(data[name], path, cls.KINDS, only)
            fields = cls.KINDS[kind]
            params = tuple(_param(data[name], path, f, spec) for f, spec in fields.items())
            # A family's own model errors (a table's shape or symmetry) concern
            # its last field.
            last = f"{path}.{[*fields][-1]}" if fields else path
            parts[name] = _built(last, cls, kind, params)
    # Strength shorthand: gamma, when sigma_theta is left out, means
    # sigma_theta = linear(sqrt(gamma)).
    gamma = _read(data, "noise", "gamma", _number, 1.0)
    if gamma < 0:
        raise ConfigError("noise.gamma", f"must be >= 0, got {gamma!r}")
    parts.setdefault("sigma_theta", SigmaThetaPreset.linear(math.sqrt(gamma)))
    return NoiseModel(**parts)


def parse_config(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "top level must be a mapping")
    _fields(data, "", SECTIONS)
    name = str(data.get("name", "scenario"))
    hamiltonian = _built(
        "hamiltonian", HermitianOperator, _read(data, "", "hamiltonian", matrix_from_config)
    )
    raw_state = _read(data, "", "initial_state")
    if isinstance(raw_state, str):
        preset = raw_state
        state = _state_from_preset(preset, hamiltonian)
    else:
        preset = None
        matrix = matrix_from_config(raw_state, "initial_state")
        state = _built("initial_state", DensityMatrix, matrix)
    if state.dim != hamiltonian.dim:
        raise ConfigError(
            "initial_state", f"dimension {state.dim} != hamiltonian dimension {hamiltonian.dim}"
        )

    noise = _noise(_fields(_read(data, "", "noise"), "noise", NOISE_FIELDS))

    grid = _fields(_read(data, "", "grid"), "grid", ("t_end", "n_steps", "t_start"))
    if _read(grid, "grid", "t_start", _number, 0.0) != 0.0:
        raise ConfigError("grid.t_start", "must be 0")
    t_end = _read(grid, "grid", "t_end", _number)
    if t_end <= 0:
        raise ConfigError("grid.t_end", "must be > 0")
    n_steps = _read(grid, "grid", "n_steps", _integer, 100)

    mc = _fields(data.get("montecarlo", {}), "montecarlo", ("n_traj", "seed"))
    n_traj = _read(mc, "montecarlo", "n_traj", _integer, DEFAULT_N_TRAJ)
    seed = _read(mc, "montecarlo", "seed", _seed, DEFAULT_SEED)

    outputs = _fields(data.get("outputs", {}), "outputs", ("directory", "formats"))
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("", f"could not read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError("", f"could not parse {path}: {exc}") from exc
    return parse_config(data)


BUNDLED_SCENARIOS = (
    "global_dephasing", "correlated_tau", "nonmarkovian_piecewise", "dissipative_direct"
)


def bundled_scenario_text(name: str) -> str:
    if name not in BUNDLED_SCENARIOS:
        raise ValueError(f"unknown bundled scenario {name!r}; known: {BUNDLED_SCENARIOS}")
    return (resources.files("noisytime") / "scenarios" / f"{name}.yaml").read_text()


def _noise_to_dict(noise: NoiseModel) -> dict:
    presets = {name: getattr(noise, name) for name in PRESETS}
    return {
        name: {"kind": preset.kind, **{f: np.asarray(v).tolist() for f, v in preset.fields.items()}}
        for name, preset in presets.items()
        if preset is not None
    }


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
        "noise": _noise_to_dict(config.noise),
        "grid": {"t_end": config.t_end, "n_steps": config.n_steps},
        "montecarlo": {"n_traj": config.n_traj, "seed": config.seed},
        "outputs": {"directory": config.out_dir, "formats": list(config.formats)},
    }
