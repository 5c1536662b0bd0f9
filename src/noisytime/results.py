"""Trajectory container and the time rules shared by the analytic, ODE, and
Monte Carlo routes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .metrics import coherence_l1, energy_expectation, purity
from .operators import _time_slabs

__all__ = ["EvolutionResult", "time_grid", "time_point"]

# The per-time diagnostics of ``EvolutionResult.metrics_table``, in the
# order of the trajectory tables' last columns.
METRIC_COLUMNS = ("purity", "coherence_l1", "energy", "trace")


def time_grid(grid) -> np.ndarray:
    """A route's time grid as a flat float array, copied from the caller's.

    The grid must be finite, hold two or more points, start at 0 and increase
    strictly; otherwise GridMismatch.  Every route starts from the initial
    state at t = 0, so a grid starting later would silently shift the clock.
    """
    arr = np.array(grid, dtype=float).reshape(-1)
    if arr.size < 2 or arr[0] != 0.0 or not np.all(np.isfinite(arr)) or np.any(np.diff(arr) <= 0):
        raise GridMismatch(
            "grid must be finite, have at least two points, start at 0 and increase strictly"
        )
    return arr


def _sorted_unique(values) -> np.ndarray:
    """The values of np.unique: sorted, each kept once.

    A sort and a drop of adjacent duplicates, because np.unique imports
    numpy.ma on its first call, 12-17 ms of every process that calls it.
    """
    arr = np.sort(np.asarray(values).reshape(-1))
    return arr[np.append(True, arr[1:] != arr[:-1])]


def time_point(t) -> float:
    """A single evaluation time as a float: finite and >= 0, else ValueError."""
    value = float(t)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"times must be finite and >= 0, got {t!r}")
    return value


@dataclass(frozen=True)
class EvolutionResult:
    """Density matrices on a time grid.

    ``states[k]`` is the state at ``grid[k]`` in the computational basis.
    """

    grid: np.ndarray
    states: np.ndarray

    def __init__(self, grid, states):
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

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def num_points(self) -> int:
        return self.grid.shape[0]

    def metrics_table(self, decomposition, hamiltonian) -> dict[str, np.ndarray]:
        """Per-time diagnostics: purity, coherence_l1, energy, trace.

        Evaluated one time slab at a time (``operators._time_slabs``), so the
        temporaries stay slab-sized; each value depends on its own state only.
        """
        table = {key: np.empty(self.num_points) for key in METRIC_COLUMNS}
        for slab in _time_slabs(self.num_points, self.dim * self.dim):
            states = self.states[slab]
            table["purity"][slab] = purity(states)
            table["coherence_l1"][slab] = coherence_l1(states, decomposition)
            table["energy"][slab] = energy_expectation(states, hamiltonian)
            table["trace"][slab] = np.trace(states, axis1=1, axis2=2).real
        return table
