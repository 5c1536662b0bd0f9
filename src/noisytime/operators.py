"""Hermitian operators, spectral decompositions, and density-matrix checks.

Everything downstream works in the eigenbasis of a Hamiltonian-like operator,
so the central object here is :class:`SpectralDecomposition`: distinct levels in
ascending order, their multiplicities, orthogonal projectors, and a unitary
whose columns are eigenvectors grouped by level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPositive, TraceNotOne

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "DensityMatrix",
    "eigendecompose",
    "validate_density",
    "to_energy_basis",
    "from_energy_basis",
]

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9
DENSITY_TOL = 1e-10


def _as_square_array(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_hermitian(arr: np.ndarray, tol: float) -> None:
    violation = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if violation > tol:
        raise NotHermitian(violation)


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix.

    Construction raises :class:`~noisytime.errors.NotHermitian` if the matrix
    deviates from its conjugate transpose by more than ``tol`` in any entry.
    The stored matrix is symmetrized, so downstream eigensolves see an exactly
    Hermitian input.
    """

    matrix: np.ndarray
    tol: float = HERMITICITY_TOL

    def __init__(self, matrix, tol: float = HERMITICITY_TOL):
        arr = _as_square_array(matrix)
        _check_hermitian(arr, tol)
        arr = 0.5 * (arr + arr.conj().T)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "tol", tol)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues of a Hermitian operator with their projectors.

    Attributes:
        levels: distinct eigenvalues, strictly ascending, shape (m,).
        multiplicities: dimension of each eigenspace, shape (m,).
        projectors: orthogonal projectors onto each eigenspace, shape (m, d, d).
        eigenvectors: unitary whose columns are eigenvectors ordered by level,
            shape (d, d).  Within a degenerate eigenspace the choice of basis
            is arbitrary but fixed.
        level_index: for each of the d eigenvector columns, the index into
            ``levels`` it belongs to, shape (d,).
    """

    levels: np.ndarray
    multiplicities: np.ndarray
    projectors: np.ndarray
    eigenvectors: np.ndarray
    level_index: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def num_levels(self) -> int:
        return self.levels.shape[0]

    def column_levels(self) -> np.ndarray:
        """Eigenvalue of each eigenvector column, shape (d,)."""
        return self.levels[self.level_index]

    def reconstruct(self) -> np.ndarray:
        """Sum of level * projector; equals the original operator."""
        return np.einsum("k,kij->ij", self.levels, self.projectors)


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    fixed = vectors.copy()
    for col in range(fixed.shape[1]):
        pivot = int(np.argmax(np.abs(fixed[:, col])))
        value = fixed[pivot, col]
        if np.abs(value) > 0:
            fixed[:, col] *= np.conj(value) / np.abs(value)
    return fixed


def eigendecompose(operator, degeneracy_tol: float = DEGENERACY_TOL) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator, merging near-degenerate eigenvalues.

    Eigenvalues closer than ``degeneracy_tol`` to their predecessor are merged
    into one level (the mean over the group) with a rank-``g`` projector.  The
    merge matters physically: a shared level must be driven by one noise
    process, not several independent ones.

    Args:
        operator: HermitianOperator or raw matrix (validated here if raw).
        degeneracy_tol: gap below which adjacent eigenvalues count as equal.

    Returns:
        SpectralDecomposition with levels strictly ascending.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    eigvals, eigvecs = np.linalg.eigh(operator.matrix)
    eigvecs = _fix_column_phases(eigvecs)

    d = eigvals.shape[0]
    # Group by gaps: eigh returns ascending eigenvalues.
    groups: list[list[int]] = [[0]]
    for i in range(1, d):
        if eigvals[i] - eigvals[groups[-1][-1]] <= degeneracy_tol:
            groups[-1].append(i)
        else:
            groups.append([i])

    m = len(groups)
    levels = np.empty(m)
    multiplicities = np.empty(m, dtype=int)
    projectors = np.empty((m, d, d), dtype=complex)
    level_index = np.empty(d, dtype=int)
    for k, group in enumerate(groups):
        levels[k] = float(np.mean(eigvals[group]))
        multiplicities[k] = len(group)
        block = eigvecs[:, group]
        projectors[k] = block @ block.conj().T
        level_index[group] = k

    for arr in (levels, multiplicities, projectors, level_index):
        arr.setflags(write=False)
    eigvecs.setflags(write=False)
    return SpectralDecomposition(
        levels=levels,
        multiplicities=multiplicities,
        projectors=projectors,
        eigenvectors=eigvecs,
        level_index=level_index,
    )


def validate_density(
    rho,
    hermiticity_tol: float = HERMITICITY_TOL,
    trace_tol: float = DENSITY_TOL,
    positivity_tol: float = DENSITY_TOL,
) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix.

    Raises NotHermitian, TraceNotOne, or NotPositive on the first violated
    invariant, in that order.  Returns the symmetrized matrix on success.
    """
    arr = _as_square_array(rho)
    _check_hermitian(arr, hermiticity_tol)
    arr = 0.5 * (arr + arr.conj().T)
    trace_violation = abs(float(np.trace(arr).real) - 1.0)
    if trace_violation > trace_tol:
        raise TraceNotOne(trace_violation)
    min_eig = float(np.linalg.eigvalsh(arr)[0])
    if min_eig < -positivity_tol:
        raise NotPositive(min_eig)
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray = field()

    def __init__(
        self,
        matrix,
        hermiticity_tol: float = HERMITICITY_TOL,
        trace_tol: float = DENSITY_TOL,
        positivity_tol: float = DENSITY_TOL,
    ):
        arr = validate_density(matrix, hermiticity_tol, trace_tol, positivity_tol)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def unchecked(cls, matrix) -> "DensityMatrix":
        """Wrap a matrix without validation.

        Only for states that deliberately break an invariant, e.g. the
        sub-normalized output of a population-damping evolution; constructing
        through __init__ would reject those.
        """
        arr = _as_square_array(matrix)
        arr.setflags(write=False)
        instance = object.__new__(cls)
        object.__setattr__(instance, "matrix", arr)
        return instance

    @classmethod
    def pure(cls, state_vector) -> "DensityMatrix":
        """|psi><psi| from a state vector (normalized here)."""
        psi = np.asarray(state_vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise NotPositive(0.0, "zero vector cannot be normalized to a state")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


def to_energy_basis(rho: np.ndarray, decomposition: SpectralDecomposition) -> np.ndarray:
    """Rotate a state into the eigenbasis of the decomposed operator.

    Returns V^dagger rho V where V holds the eigenvector columns, so entry
    (a, b) of the result couples eigenvector columns a and b.
    """
    arr = _as_square_array(rho)
    if arr.shape[0] != decomposition.dim:
        raise DimensionMismatch(
            f"state dimension {arr.shape[0]} != decomposition dimension {decomposition.dim}"
        )
    v = decomposition.eigenvectors
    return v.conj().T @ arr @ v


def from_energy_basis(rho_energy: np.ndarray, decomposition: SpectralDecomposition) -> np.ndarray:
    """Inverse of :func:`to_energy_basis`; also maps a stack of shape (..., d, d)."""
    arr = np.asarray(rho_energy, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2:] != (decomposition.dim, decomposition.dim):
        raise DimensionMismatch(
            f"state shape {arr.shape} does not end in the decomposition dimension "
            f"({decomposition.dim}, {decomposition.dim})"
        )
    v = decomposition.eigenvectors
    return v @ arr @ v.conj().T
