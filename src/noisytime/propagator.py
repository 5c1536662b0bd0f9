"""Closed-form averaged evolution.

Averaging the random unitary over noise realizations acts entry by entry in
the energy basis: entry (k, l) picks up the deterministic phase of the level
gap and the damping factor exp(-lambda(t; theta_k, theta_l) / 2).  This module
evaluates that map directly.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DissipativeTraceLoss
from .noise import LambdaKernel, NoiseModel
from .operators import (
    DensityMatrix,
    SpectralDecomposition,
    _hermitian_part,
    _time_slabs,
    from_energy_basis,
    state_matrix,
    to_energy_basis,
)
from .results import EvolutionResult, time_grid, time_point

__all__ = [
    "averaged_state",
    "averaged_trajectory",
    "semigroup_defect",
]


def _element_factors(
    decomposition: SpectralDecomposition, kernel: LambdaKernel, drift: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Per-entry factor exp(-it dh) * exp(-lambda/2) expanded to matrix indices.

    ``t`` is an array of times, ``drift`` the drift_h values of the levels;
    the result has shape t.shape + (d, d).
    """
    lam = kernel.lambda_matrix(t)
    phases = np.exp(-1j * t[..., None, None] * (drift[:, None] - drift[None, :]))
    factors = phases * np.exp(-0.5 * lam)
    idx = decomposition.level_index
    return factors[..., idx[:, None], idx[None, :]]


def _evolve(decomposition: SpectralDecomposition, model: NoiseModel, rho0, t) -> np.ndarray:
    """V (F(t) o rho_E) V^dagger at a time or at each of an array of times.

    Evaluated one time slab at a time (``operators._time_slabs``) into the
    result, each slab replaced by its Hermitian part, so the temporaries
    stay within one slab budget and every state is Hermitian to the bit.
    Each state is formed from its own time point alone, so the slab plan
    changes no output bit.
    """
    rho = state_matrix(rho0, decomposition.dim)
    if model.is_dissipative:
        warnings.warn(
            "damping table has a nonzero diagonal: populations decay and the "
            "trace of the averaged state falls below one",
            DissipativeTraceLoss,
            stacklevel=3,
        )
    rho_e = to_energy_basis(rho, decomposition)
    kernel = LambdaKernel(model, decomposition.levels)
    drift = np.asarray(model.drift_h(decomposition.levels), dtype=float)
    t = np.asarray(t, dtype=float)
    times = t.reshape(-1)
    dim = decomposition.dim
    states = np.empty(times.shape + (dim, dim), dtype=complex)
    # A slab's pass forms six (slab, d, d) complex arrays: the level factors,
    # their gathered form, its product with rho_E, the two basis products
    # and the Hermitian part's conjugate.
    for slab in _time_slabs(times.size, 6 * dim * dim):
        factors = _element_factors(decomposition, kernel, drift, times[slab])
        states[slab] = from_energy_basis(factors * rho_e, decomposition)
        _hermitian_part(states[slab])
    return states.reshape(t.shape + (dim, dim))


def averaged_state(
    decomposition: SpectralDecomposition, model: NoiseModel, rho0, t: float
) -> DensityMatrix:
    """Noise-averaged state at time t.

    In the energy basis each entry is multiplied by the gap phase and by
    exp(-lambda/2).  The result is Hermitian by symmetry of lambda and keeps
    unit trace whenever lambda vanishes on the diagonal; a direct damping
    table with nonzero diagonal loses trace, which is reported as a
    DissipativeTraceLoss warning rather than renormalized away.  A raw
    ``rho0`` must be a valid state; ``t`` must be finite and >= 0 (else
    ValueError).
    """
    out = _evolve(decomposition, model, rho0, time_point(t))
    if model.is_dissipative:
        return DensityMatrix.unchecked(out)
    return DensityMatrix(out)


def averaged_trajectory(
    decomposition: SpectralDecomposition, model: NoiseModel, rho0, grid
) -> EvolutionResult:
    """Noise-averaged states on a whole grid.

    The grid must be finite, hold two or more points, start at 0 and increase
    strictly (else GridMismatch); a raw ``rho0`` must be a valid state.
    """
    grid_arr = time_grid(grid)
    return EvolutionResult(grid_arr, _evolve(decomposition, model, rho0, grid_arr))


def semigroup_defect(
    decomposition: SpectralDecomposition, model: NoiseModel, rho0, t: float, s: float
) -> float:
    """Max entrywise gap between evolving by t+s and composing s then t.

    Zero (to roundoff) exactly when the kernels are time-independent; a
    sigma_time step inside (0, t+s) makes it strictly positive, witnessing
    non-Markovian evolution.  Both times must be finite and >= 0 (else
    ValueError).
    """
    t, s = time_point(t), time_point(s)
    joint = averaged_state(decomposition, model, rho0, t + s).matrix
    inner = averaged_state(decomposition, model, rho0, s)
    composed = averaged_state(decomposition, model, inner, t).matrix
    return float(np.max(np.abs(joint - composed)))
