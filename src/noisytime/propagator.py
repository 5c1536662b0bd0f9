"""Closed-form averaged evolution.

Averaging the random unitary over noise realizations acts entry by entry in
the energy basis: entry (k, l) picks up the deterministic phase of the level
gap and the damping factor exp(-lambda(t; theta_k, theta_l) / 2).  This module
evaluates that map directly, plus the global-noise special case and the
generic weighted time average.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, DissipativeTraceLoss, GridMismatch, WeightsNotNormalized
from .noise import LambdaKernel, NoiseModel, SigmaTimePreset
from .operators import (
    DensityMatrix,
    SpectralDecomposition,
    from_energy_basis,
    state_matrix,
    to_energy_basis,
)
from .results import EvolutionResult, time_grid, time_point

__all__ = [
    "averaged_state",
    "averaged_trajectory",
    "averaged_state_global",
    "time_averaged_state",
    "semigroup_defect",
]


def _element_factors(decomposition: SpectralDecomposition, model: NoiseModel, t) -> np.ndarray:
    """Per-entry factor exp(-it dh) * exp(-lambda/2) expanded to matrix indices.

    ``t`` is a time or an array of times; the result has shape t.shape + (d, d).
    """
    levels = decomposition.levels
    t = np.asarray(t, dtype=float)
    lam = LambdaKernel(model, levels).lambda_matrix(t)
    h = np.asarray(model.drift_h(levels), dtype=float)
    phases = np.exp(-1j * t[..., None, None] * (h[:, None] - h[None, :]))
    factors = phases * np.exp(-0.5 * lam)
    idx = decomposition.level_index
    return factors[..., idx[:, None], idx[None, :]]


def _evolve(decomposition: SpectralDecomposition, model: NoiseModel, rho0, t) -> np.ndarray:
    """V (F(t) o rho_E) V^dagger at a time or at each of an array of times."""
    rho = state_matrix(rho0, decomposition.dim)
    if model.is_dissipative:
        warnings.warn(
            "damping table has a nonzero diagonal: populations decay and the "
            "trace of the averaged state falls below one",
            DissipativeTraceLoss,
            stacklevel=3,
        )
    rho_e = to_energy_basis(rho, decomposition)
    return from_energy_basis(_element_factors(decomposition, model, t) * rho_e, decomposition)


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
    """Noise-averaged states on a whole grid, provenance "analytic".

    The grid must be finite, hold two or more points, start at 0 and increase
    strictly (else GridMismatch); a raw ``rho0`` must be a valid state.
    """
    grid_arr = time_grid(grid)
    return EvolutionResult(grid_arr, _evolve(decomposition, model, rho0, grid_arr), "analytic")


def averaged_state_global(
    decomposition: SpectralDecomposition, sigma_profile, rho0, t: float
) -> DensityMatrix:
    """Averaged state for one global noise amplitude shared by all levels.

    ``sigma_profile`` is either a strength gamma (amplitude sqrt(gamma), so
    the accumulated variance is gamma * t) or a SigmaTimePreset giving the
    amplitude itself.  Entry (k, l) is damped by
    exp(-accumulated_variance * (theta_k - theta_l)^2 / 2) on top of the gap
    phase; equivalent to :func:`averaged_state` with identity drift, linear
    level amplitude, and uniform correlation.  A raw ``rho0`` must be a valid
    state; ``t`` must be finite and >= 0 (else ValueError).
    """
    t = time_point(t)
    if isinstance(sigma_profile, SigmaTimePreset):
        accumulated = float(sigma_profile.integrated_square(t))
    else:
        gamma = float(sigma_profile)
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        accumulated = gamma * t
    rho = state_matrix(rho0, decomposition.dim)
    theta = decomposition.column_levels()
    gaps = theta[:, None] - theta[None, :]
    factors = np.exp(-1j * t * gaps) * np.exp(-0.5 * accumulated * gaps**2)
    rho_e = to_energy_basis(rho, decomposition)
    return DensityMatrix(from_energy_basis(factors * rho_e, decomposition))


def time_averaged_state(grid, states, weights) -> DensityMatrix:
    """Weighted time average of a state trajectory.

    ``states`` is an array of shape (T, d, d) or a sequence of T matrices;
    ``weights`` are probability-density values on the grid; they must be
    nonnegative and integrate to one (trapezoid rule) within 1e-8.  The grid
    is a quadrature grid, so it may start after 0, and a single grid point
    gets quadrature weight one: a point mass is the one-point grid with
    weight 1.
    """
    grid_arr = np.asarray(grid, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    stack = np.asarray(states, dtype=complex)
    if stack.ndim != 3 or stack.shape[0] != grid_arr.size or w.size != grid_arr.size:
        raise DimensionMismatch(
            f"grid ({grid_arr.size}), states ({stack.shape}), weights ({w.size}) disagree"
        )
    if np.any(w < 0):
        raise WeightsNotNormalized(f"weights must be >= 0, min is {float(np.min(w)):.3e}")
    if grid_arr.size == 1:
        quadrature = np.ones(1)
    else:
        if np.any(np.diff(grid_arr) <= 0):
            raise GridMismatch("grid must be strictly increasing")
        dt = np.diff(grid_arr)
        quadrature = np.zeros_like(grid_arr)
        quadrature[:-1] += 0.5 * dt
        quadrature[1:] += 0.5 * dt
    mass = quadrature * w
    total = float(np.sum(mass))
    if abs(total - 1.0) > 1e-8:
        raise WeightsNotNormalized(f"weights integrate to {total!r}, expected 1 within 1e-8")
    # Renormalize the discrete masses: keeps the result an exact convex
    # combination despite the 1e-8 slack.
    averaged = np.einsum("k,kij->ij", mass / total, stack)
    return DensityMatrix(averaged)


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
