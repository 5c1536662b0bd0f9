"""Trajectory container and the time rules shared by the analytic, ODE, and
Monte Carlo routes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .metrics import coherence_l1, energy_expectation, purity

__all__ = ["EvolutionResult", "time_grid", "time_point"]

PROVENANCES = ("analytic", "ode", "montecarlo")


def time_grid(grid) -> np.ndarray:
    """A route's time grid as a flat float array.

    The grid must be finite, hold two or more points, start at 0 and increase
    strictly; otherwise GridMismatch.  Every route starts from the initial
    state at t = 0, so a grid starting later would silently shift the clock.
    """
    arr = np.asarray(grid, dtype=float).reshape(-1)
    if arr.size < 2 or arr[0] != 0.0 or not np.all(np.isfinite(arr)) or np.any(np.diff(arr) <= 0):
        raise GridMismatch(
            "grid must be finite, have at least two points, start at 0 and increase strictly"
        )
    return arr


def time_point(t) -> float:
    """A single evaluation time as a float: finite and >= 0, else ValueError."""
    value = float(t)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"times must be finite and >= 0, got {t!r}")
    return value


@dataclass(frozen=True)
class EvolutionResult:
    """Density matrices on a time grid, tagged with how they were produced.

    ``states[k]`` is the state at ``grid[k]`` in the computational basis.
    Provenance is one of "analytic", "ode", "montecarlo".
    """

    grid: np.ndarray
    states: np.ndarray
    provenance: str

    def __init__(self, grid, states, provenance: str):
        if provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {provenance!r}")
        grid_arr = np.asarray(grid, dtype=float).reshape(-1)
        states_arr = np.asarray(states, dtype=complex)
        if states_arr.ndim != 3 or states_arr.shape[0] != grid_arr.shape[0]:
            raise GridMismatch(
                f"states shape {states_arr.shape} does not match grid of {grid_arr.shape[0]} points"
            )
        if states_arr.shape[1] != states_arr.shape[2]:
            raise GridMismatch(f"states must be square, got {states_arr.shape}")
        grid_arr.setflags(write=False)
        states_arr.setflags(write=False)
        object.__setattr__(self, "grid", grid_arr)
        object.__setattr__(self, "states", states_arr)
        object.__setattr__(self, "provenance", provenance)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def num_points(self) -> int:
        return self.grid.shape[0]

    def metrics_table(self, decomposition, hamiltonian) -> dict[str, np.ndarray]:
        """Per-time diagnostics: purity, coherence_l1, energy, trace."""
        return {
            "purity": purity(self.states),
            "coherence_l1": coherence_l1(self.states, decomposition),
            "energy": energy_expectation(self.states, hamiltonian),
            "trace": np.trace(self.states, axis1=1, axis2=2).real,
        }
