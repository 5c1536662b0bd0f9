"""State diagnostics: purity, coherence, energy.

``purity``, ``coherence_l1`` and ``energy_expectation`` also take a stack of
states of shape (..., d, d) and then return an array of shape (...).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .operators import DensityMatrix, HermitianOperator, SpectralDecomposition, to_energy_basis

__all__ = ["purity", "coherence_l1", "energy_expectation"]


def _matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state, dtype=complex)


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def purity(state):
    """Tr(rho^2): 1 for pure states, 1/d for the maximally mixed state."""
    rho = _matrix(state)
    return _scalar_or_array(np.sum(np.abs(rho) ** 2, axis=(-2, -1)))


def coherence_l1(state, decomposition: SpectralDecomposition):
    """Sum of off-diagonal magnitudes in the energy basis.

    This is the quantity the averaged evolution damps entry by entry, so it is
    the natural decoherence readout.
    """
    magnitudes = np.abs(to_energy_basis(_matrix(state), decomposition))
    off = magnitudes - magnitudes * np.eye(decomposition.dim)
    return _scalar_or_array(np.sum(off, axis=(-2, -1)))


def energy_expectation(state, hamiltonian):
    """Tr(rho H); constant in time exactly when populations do not decay."""
    rho = _matrix(state)
    h = hamiltonian.matrix if isinstance(hamiltonian, HermitianOperator) else np.asarray(
        hamiltonian, dtype=complex
    )
    if rho.shape[-2:] != h.shape:
        raise DimensionMismatch(
            f"state dimension {rho.shape} != operator dimension {h.shape}"
        )
    return _scalar_or_array(np.trace(rho @ h, axis1=-2, axis2=-1).real)

