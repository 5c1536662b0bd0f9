"""Hermitian operators, spectral decompositions, and density-matrix checks.

Everything downstream works in the eigenbasis of a Hamiltonian-like operator,
so the central object here is :class:`SpectralDecomposition`, three arrays:
distinct levels in ascending order, a unitary whose columns are eigenvectors
grouped by level, and the level of each column.  The projector onto a level
is the sum of v v^dagger over its columns.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPositive, TraceNotOne

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "DensityMatrix",
    "eigendecompose",
    "validate_density",
    "state_matrix",
    "to_energy_basis",
    "from_energy_basis",
]

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9
DENSITY_TOL = 1e-10
# Entries a pass over a (T, d, d) stack holds at once, one slab of time
# points at a time (``_time_slabs``), counting every array the pass holds
# per point: the analytic pass its six (slab, d, d) arrays, a Monte Carlo
# slab the sample states of every sample, a CSV block every value.  2**16
# complex entries is 1 MiB, so a slab's temporaries stay in cache and a
# trajectory's stay states-sized.
SLAB_ELEMENT_BUDGET = 1 << 16


# Thread-count entry points of OpenBLAS, as scipy-openblas (the library of
# numpy's wheels, 64- or 32-bit integers) and a plain build name them.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@functools.cache
def _openblas_threads():
    """(path, get, set) of the OpenBLAS numpy loaded, or None.

    Looks for the library pip wheels ship beside numpy (``numpy.libs`` on
    Linux and Windows, ``numpy/.dylibs`` on macOS); loading it again through
    ctypes returns the copy numpy already holds, whose thread count
    ``get()`` reads and ``set(n)`` writes.  A numpy on another BLAS (MKL,
    Accelerate) gives None.
    """
    package = Path(np.__file__).parent
    libraries = package.parent.glob("numpy.libs/*openblas*"), package.glob(".dylibs/*openblas*")
    for path in sorted(itertools.chain(*libraries)):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return path, get, set_
    return None


# The pin's state is per process, as the thread count it guards is.
_blas_pin_lock = threading.Lock()
_blas_pin_depth = 0
_blas_pin_saved = 1


@contextmanager
def _single_threaded_blas():
    """Hold numpy's OpenBLAS at one thread, restoring the previous count on exit.

    The count is process-wide, so nested and concurrent entries share one
    pin: the outermost entry sets it and the last exit restores it.  Without
    an OpenBLAS (see ``_openblas_threads``) this does nothing.
    """
    global _blas_pin_depth, _blas_pin_saved
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    _, get, set_ = controls
    with _blas_pin_lock:
        if _blas_pin_depth == 0:
            _blas_pin_saved = get()
            set_(1)
        _blas_pin_depth += 1
    try:
        yield
    finally:
        with _blas_pin_lock:
            _blas_pin_depth -= 1
            if _blas_pin_depth == 0:
                set_(_blas_pin_saved)


def _as_square_array(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_hermitian(arr: np.ndarray) -> None:
    with np.errstate(invalid="ignore"):  # a NaN or inf entry gives NaN and fails
        violation = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if not violation <= HERMITICITY_TOL:
        raise NotHermitian(violation)


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix.

    Construction raises :class:`~noisytime.errors.NotHermitian` if the matrix
    deviates from its conjugate transpose by more than ``HERMITICITY_TOL`` in
    any entry.  The stored matrix is symmetrized, so downstream eigensolves
    see an exactly Hermitian input.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        arr = _as_square_array(matrix)
        _check_hermitian(arr)
        arr = 0.5 * (arr + arr.conj().T)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues of a Hermitian operator with their eigenvectors.

    Attributes:
        levels: distinct eigenvalues, strictly ascending, shape (m,).
        eigenvectors: unitary whose columns are eigenvectors ordered by level,
            shape (d, d).  Within a degenerate eigenspace the choice of basis
            is arbitrary but fixed.
        level_index: for each of the d eigenvector columns, the index into
            ``levels`` it belongs to, shape (d,).
    """

    levels: np.ndarray
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
        """V diag(column levels) V^dagger; equals the original operator."""
        v = self.eigenvectors
        return (v * self.column_levels()) @ v.conj().T


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    A unit column has an entry of modulus >= 1/sqrt(d), so no pivot is zero.
    """
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * (np.conj(pivots) / np.abs(pivots))


def eigendecompose(operator) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator, merging near-degenerate eigenvalues.

    Eigenvalues within ``DEGENERACY_TOL`` of their predecessor are merged
    into one level, the mean over the group.  The merge matters physically:
    a shared level must be driven by one noise process, not several
    independent ones.

    Args:
        operator: HermitianOperator or raw matrix (validated here if raw).

    Returns:
        SpectralDecomposition with levels strictly ascending.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    eigvals, eigvecs = np.linalg.eigh(operator.matrix)
    eigvecs = _fix_column_phases(eigvecs)
    # eigh returns ascending eigenvalues; a gap above the tolerance starts a level.
    gaps = np.diff(eigvals) > DEGENERACY_TOL
    level_index = np.concatenate([[0], np.cumsum(gaps)])
    levels = np.array([np.mean(group) for group in np.split(eigvals, np.flatnonzero(gaps) + 1)])
    for arr in (levels, eigvecs, level_index):
        arr.setflags(write=False)
    return SpectralDecomposition(levels=levels, eigenvectors=eigvecs, level_index=level_index)


def _rank_factor(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Factor L, shape (d, r), with L L^dagger = sum of lambda_k v_k v_k^dagger
    over the eigenpairs above d * eps * lambda_max (ascending ``eigvals``).

    r is the numerical rank: 1 for a pure state or a uniform correlation, d
    at full rank, and at least 1 (a zero matrix keeps one zero column).
    """
    keep = eigvals > eigvals.shape[0] * np.finfo(float).eps * eigvals[-1]
    keep[-1] = True
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix.

    Raises NotHermitian (beyond ``HERMITICITY_TOL``), TraceNotOne or
    NotPositive (beyond ``DENSITY_TOL``) on the first violated invariant, in
    that order.  Returns the symmetrized matrix on success.
    """
    arr = _as_square_array(rho)
    _check_hermitian(arr)
    arr = 0.5 * (arr + arr.conj().T)
    trace_violation = abs(float(np.trace(arr).real) - 1.0)
    if trace_violation > DENSITY_TOL:
        raise TraceNotOne(trace_violation)
    min_eig = float(np.linalg.eigvalsh(arr)[0])
    if min_eig < -DENSITY_TOL:
        raise NotPositive(min_eig)
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __init__(self, matrix):
        arr = validate_density(matrix)
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


def state_matrix(state, dim: int) -> np.ndarray:
    """The matrix of a route's initial state, checked to be ``dim`` x ``dim``.

    A DensityMatrix is taken as it is, so a state wrapped by
    DensityMatrix.unchecked (the sub-normalized output of a dissipative
    evolution) passes; a raw matrix must pass :func:`validate_density`.
    Raises DimensionMismatch for any other shape.
    """
    checked = isinstance(state, DensityMatrix)
    arr = state.matrix if checked else np.asarray(state, dtype=complex)
    if arr.shape != (dim, dim):
        raise DimensionMismatch(f"state shape {arr.shape} does not match dimension {dim}")
    return arr if checked else validate_density(arr)


def _as_state_stack(rho, dim: int) -> np.ndarray:
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2:] != (dim, dim):
        raise DimensionMismatch(
            f"state shape {arr.shape} does not end in the decomposition dimension ({dim}, {dim})"
        )
    return arr


def to_energy_basis(rho: np.ndarray, decomposition: SpectralDecomposition) -> np.ndarray:
    """Rotate a state, or a stack of shape (..., d, d), into the eigenbasis.

    Returns V^dagger rho V where V holds the eigenvector columns, so entry
    (a, b) of the result couples eigenvector columns a and b.
    """
    arr = _as_state_stack(rho, decomposition.dim)
    v = decomposition.eigenvectors
    return v.conj().T @ arr @ v


def from_energy_basis(rho_energy: np.ndarray, decomposition: SpectralDecomposition) -> np.ndarray:
    """Inverse of :func:`to_energy_basis`; also maps a stack of shape (..., d, d)."""
    arr = _as_state_stack(rho_energy, decomposition.dim)
    v = decomposition.eigenvectors
    return v @ arr @ v.conj().T


def _time_slabs(num_points: int, per_point: int) -> list[slice]:
    """Slices of ``num_points`` points, about ``SLAB_ELEMENT_BUDGET`` entries each, one point at least.

    ``per_point`` counts the entries of every array a pass holds per point,
    not only of its result.
    """
    step = max(1, SLAB_ELEMENT_BUDGET // per_point)
    return [slice(lo, min(lo + step, num_points)) for lo in range(0, num_points, step)]


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """Replace every S of a (..., d, d) stack by (S + S^dagger) / 2, in place.

    Entry (l, k) comes out as (Re S_kl, 0 - Im S_kl) of entry (k, l): the
    conjugate, except that the mirror of a zero imaginary part of either
    sign is +0, and every diagonal imaginary part is +0.  An exactly
    Hermitian S keeps its values.  The one
    temporary is the size of the stack, so callers pass a slab at a time.
    """
    stack += np.conj(np.swapaxes(stack, -1, -2))
    stack *= 0.5
    return stack
