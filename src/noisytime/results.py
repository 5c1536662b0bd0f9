"""Trajectory container shared by the analytic, ODE, and Monte Carlo routes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .metrics import coherence_l1, energy_expectation, purity

__all__ = ["EvolutionResult"]

PROVENANCES = ("analytic", "ode", "montecarlo")


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
        n = self.num_points
        table = {
            "purity": np.empty(n),
            "coherence_l1": np.empty(n),
            "energy": np.empty(n),
            "trace": np.empty(n),
        }
        for k in range(n):
            rho = self.states[k]
            table["purity"][k] = purity(rho)
            table["coherence_l1"][k] = coherence_l1(rho, decomposition)
            table["energy"][k] = energy_expectation(rho, hamiltonian)
            table["trace"][k] = float(np.trace(rho).real)
        return table
