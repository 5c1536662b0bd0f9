"""Random-unitary ensemble sampling and statistical comparison.

Each trajectory draws correlated phase paths chi_t(theta), and its sample
state at time t is U rho U^dagger with U = sum_k exp(-i chi_t(theta_k)) P_k.
``run_ensemble`` accumulates the mean and standard errors of those states,
and ``compare_to_analytic`` z-tests the mean against a reference trajectory.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .noise import RNG_BLOCK, NoiseModel, _BrownianField
from .operators import (
    SLAB_ELEMENT_BUDGET,
    SpectralDecomposition,
    _rank_factor,
    _single_threaded_blas,
    _time_slabs,
    state_matrix,
    to_energy_basis,
)
from .results import EvolutionResult

__all__ = [
    "EnsembleResult",
    "ComparisonReport",
    "run_ensemble",
    "compare_to_analytic",
]

# Most trajectories one chunk draws and folds at once: a whole number of blocks.
MAX_CHUNK = 16 * RNG_BLOCK
# Target for chunk * grid * dim * dim.  The chunk size is a function of
# shapes only, never of the worker count, because the fold order, and so
# every output bit, follows the chunks; it is a whole number of RNG blocks,
# at least one.  No array holds a chunk's states over the whole grid, as
# slabs fold as they are formed: the one chunk-sized array is the chi array,
# chunk * grid * levels floats.  At one time point per slab a chunk also
# stays within the SLAB_ELEMENT_BUDGET that a run's slab workspaces share.
CHUNK_ELEMENT_BUDGET = 4_000_000

Z_MAX = 4.0
Z_TAIL = 3.0
TAIL_FRACTION = 0.05
# Deviations below this with zero standard error count as exact agreement.
ZERO_STDERR_SLACK = 1e-12


def _chunk_size(num_points: int, dim: int) -> int:
    per_traj = max(1, num_points * dim * dim)
    chunk = min(MAX_CHUNK, CHUNK_ELEMENT_BUDGET // per_traj, SLAB_ELEMENT_BUDGET // (dim * dim))
    return max(RNG_BLOCK, chunk - chunk % RNG_BLOCK)


def _state_factor(rho_e: np.ndarray) -> np.ndarray:
    """Factor G, shape (d, r), with G G^dagger = rho_e and r the numerical rank."""
    return _rank_factor(*np.linalg.eigh(rho_e))


def _factor_map(decomposition: SpectralDecomposition, factor: np.ndarray) -> np.ndarray:
    """The (m, d, r) map W[l, i, a], the sum of V_ik G_ka over the basis
    vectors k of level l: level phases c give B = V (c[level_index] o G) as c W."""
    v, dim = decomposition.eigenvectors, decomposition.dim
    weights = np.empty((decomposition.num_levels, dim, factor.shape[1]), dtype=complex)
    # A level's basis vectors are contiguous (``eigendecompose``), and each
    # level is reduced on its own terms: a (d, d, r) array of all of them
    # would be a large block freed at once, which raises glibc's mmap
    # threshold and, with it, the process peak of the rest of the run.
    starts = np.searchsorted(decomposition.level_index, np.arange(decomposition.num_levels))
    for level, (start, stop) in enumerate(zip(starts, [*starts[1:], dim])):
        terms = v.T[start:stop, :, None] * factor[start:stop, None, :]
        np.add.reduceat(terms, [0], axis=0, out=weights[level : level + 1])
    return weights


class _Workspace:
    """The slab buffers one worker reuses for every slab of a run, each slab
    taking the leading part of each buffer (``_leading``)."""

    def __init__(self, points: int, dim: int, rank: int, count: int):
        samples = count * points
        # B and conj(B) of every sample of a slab.
        self.factors = np.empty(samples * dim * rank, dtype=complex)
        self.conj_factors = np.empty_like(self.factors)
        # The sample states; their leading entries hold the slab's m <= d
        # level phases first, which are dead before the Gram product.
        self.states = np.empty(samples * dim * dim, dtype=complex)
        # The slab's mean and its squared deviations, re and im side by side.
        self.mean = np.empty(points * dim * dim, dtype=complex)
        self.m2 = np.empty(points * dim * 2 * dim)


def _merge(
    mean: np.ndarray, m2: np.ndarray, delta: np.ndarray, square: np.ndarray, n_a: int, n: int
) -> None:
    """Fold a chunk's slab statistics into the totals of the chunks before it, in place.

    ``mean`` and ``m2`` hold the totals over n_a trajectories, zero when
    n_a = 0; ``delta`` and ``square`` arrive holding the chunk's own mean and
    squared deviations over n - n_a and are overwritten.
    """
    # A plain pairwise update, in this order, which the output bits follow:
    # m2 = (m2_a + m2_b) + delta^2 n_a n_b / n and mean = mean_a + delta n_b / n
    # with delta = mean_b - mean_a.
    n_b = n - n_a
    delta -= mean
    m2 += square
    # delta's float view interleaves re and im as m2 does.
    np.square(delta.view(float), out=square)
    square *= n_a * n_b / n
    m2 += square
    delta *= n_b / n
    mean += delta


def _leading(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) entries of a flat buffer, in that shape."""
    return buffer[: math.prod(shape)].reshape(shape)


def _slab_phases(chi: np.ndarray, work: _Workspace) -> np.ndarray:
    """exp(-i chi) for level phases chi of shape (..., m), in ``work.states``."""
    phases = _leading(work.states, chi.shape)
    np.cos(chi, out=phases.real)
    np.sin(chi, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    return phases


def _sample_states(weights: np.ndarray, phases: np.ndarray, work: _Workspace) -> np.ndarray:
    """Sample states B B^dagger for level phases of shape (..., m), with B
    the phases times the (m, d, r) ``weights`` of ``_factor_map``.

    The result is a view into ``work``, overwritten by its next use, and it
    overwrites ``phases`` when they are ``work``'s own.
    """
    # B B^dagger is V ((c c^dagger) o rho_e) V^dagger from the d x r factor:
    # O(r d^2) per sample instead of two d x d basis rotations.  The B of all
    # N samples are the rows of one (N, m) x (m, d r) product.
    levels, dim, rank = weights.shape
    samples = math.prod(phases.shape[:-1])
    b = _leading(work.factors, (samples, dim, rank))
    np.matmul(
        phases.reshape(samples, levels), weights.reshape(levels, -1), out=b.reshape(samples, -1)
    )
    b_conj = _leading(work.conj_factors, (samples, dim, rank))
    np.conjugate(b, out=b_conj)
    states = _leading(work.states, (samples, dim, dim))
    np.matmul(b, np.swapaxes(b_conj, 1, 2), out=states)
    return states.reshape(phases.shape[:-1] + (dim, dim))


@dataclass(frozen=True)
class EnsembleResult:
    """Monte Carlo mean trajectory with per-entry standard errors.

    ``mean[k]`` estimates the averaged state at ``grid[k]`` in the
    computational basis.  ``stderr`` is a complex stack of the same shape:
    the real part of ``stderr[k, i, j]`` is the standard error of the mean of
    Re rho_ij at ``grid[k]``, its imaginary part that of Im rho_ij.
    """

    grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_traj: int
    seed: int

    @property
    def dim(self) -> int:
        return self.mean.shape[1]

    def as_result(self) -> EvolutionResult:
        return EvolutionResult(self.grid, self.mean)


# OpenBLAS's own pool would compete with the workers for the cores, and its
# threads keep spinning after a small threaded call.
@_single_threaded_blas()
def run_ensemble(
    decomposition: SpectralDecomposition,
    model: NoiseModel,
    rho0,
    grid,
    n_traj: int,
    seed: int,
    n_workers: int = 1,
) -> EnsembleResult:
    """Sample the random-unitary ensemble and accumulate mean and variance.

    Returns the per-entry mean of the ``n_traj`` sample states at each grid
    point, Hermitian to the bit, and the standard errors of its real and
    imaginary parts, sqrt(m2 / (n - 1) / n) from the squared deviations m2
    (``EnsembleResult``).  The chi paths are those of ``sample_chi_paths``
    with the same seed.

    ``n_traj`` must be at least 2, the fewest that give standard errors, and
    ``n_workers`` at least 1 (else ValueError).  The grid must be finite,
    hold two or more points, start at 0 and increase strictly (else
    GridMismatch); a raw ``rho0`` must be a valid state; a direct damping
    table raises ConfigError.

    Deterministic for fixed (seed, n_traj, grid): ``n_workers`` changes the
    wall time, never an output bit.  Besides the (T, d, d) mean and (T, d, 2d)
    squared deviations that become the result, a call holds one chunk's chi
    paths and slab workspaces that together hold about
    ``SLAB_ELEMENT_BUDGET`` sample-state entries, whatever ``n_workers``.
    The ``n_workers`` threads are the call's only parallelism: numpy's
    OpenBLAS is held at one thread during the call and restored after it.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2 for standard errors")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    # Set up once before the chunks: a trajectory's phases depend only on
    # the seed and its index.
    field = _BrownianField(model, decomposition.levels, grid)
    rho = state_matrix(rho0, decomposition.dim)

    # rho_e = G G^dagger, and W, once per run.
    state_factor = _state_factor(to_energy_basis(rho, decomposition))
    weights = _factor_map(decomposition, state_factor)
    num_points, dim = field.grid.size, decomposition.dim

    chunk = _chunk_size(num_points, dim)
    # One slab plan for every chunk, that of the first, the largest; a
    # partial last chunk takes the same slabs with fewer samples.  The
    # workspaces, one per worker that has a slab of the one-budget plan to
    # take, share that plan's budget: its slabs, split ``spaces`` ways.  The
    # plan depends on the worker count, but a time point's statistics are
    # summed over a chunk's samples in the same order in any slab, so it
    # moves no bit.
    first = min(chunk, n_traj)
    per_point = first * dim * dim
    spaces = min(n_workers, len(_time_slabs(num_points, per_point)))
    slabs = _time_slabs(num_points, per_point * spaces)
    mean = np.zeros((num_points, dim, dim), dtype=complex)
    m2 = np.zeros((num_points, dim, 2 * dim))
    chi = np.empty((first, num_points, field.levels.size))
    # The workspaces are made before the chunks and handed from slab to slab,
    # so the fold allocates nothing whatever the workers' timing.
    free = queue.SimpleQueue()
    for _ in range(spaces):
        free.put(_Workspace(slabs[0].stop, dim, state_factor.shape[1], first))

    # The tasks of the chunk of ``count`` trajectories from ``start``.
    def draw(lo: int, hi: int) -> None:
        field.paths(seed, start + lo, hi - lo, out=chi[lo:hi])

    def fold(slab: slice) -> None:
        work = free.get()
        try:
            states = _sample_states(weights, _slab_phases(chi[:count, slab], work), work)
            # The slab's mean and squared deviations, in place over its states.
            size = slab.stop - slab.start
            slab_mean = _leading(work.mean, (size, dim, dim))
            slab_m2 = _leading(work.m2, (size, dim, 2 * dim))
            states -= np.mean(states, axis=0, out=slab_mean)
            flat = states.view(float)
            np.square(flat, out=flat)
            np.sum(flat, axis=0, out=slab_m2)
            _merge(mean[slab], m2[slab], slab_mean, slab_m2, start, start + count)
        finally:
            free.put(work)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        # list() waits for every task of a map, so a chunk's draw starts once
        # the chunk before it has folded every slab: the chi rows and each
        # slab of the totals have one writer at a time.
        for start in range(0, n_traj, chunk):
            count = min(chunk, n_traj - start)
            # One draw task per worker at most, each a contiguous run of
            # whole blocks, so that its scale, drift and cumsum run on arrays
            # large enough to release the GIL.
            blocks = -(-count // RNG_BLOCK)
            tasks = min(n_workers, blocks)
            bounds = [min(count, blocks * k // tasks * RNG_BLOCK) for k in range(tasks + 1)]
            list(pool.map(draw, bounds[:-1], bounds[1:]))
            list(pool.map(fold, slabs))
    # The lower triangle from the upper one, a row at a time: conj(mean),
    # with the imaginary part as 0 - im so that a zero stays +0 as in the
    # Hermitian part the other routes take, and the transpose of the squared
    # deviations, through their complex view.  Every sample's diagonal is
    # real, so the imaginary parts of both diagonals are +0 (the Gram product
    # can round them to a few 1e-18).
    squares = m2.view(complex)
    for k in range(dim):
        mean[:, k, k].imag = squares[:, k, k].imag = 0.0
        upper, lower = mean[:, k, k + 1 :], mean[:, k + 1 :, k]
        lower.real = upper.real
        np.subtract(0.0, upper.imag, out=lower.imag)
        squares[:, k + 1 :, k] = squares[:, k, k + 1 :]
    m2 /= n_traj - 1
    m2 /= n_traj
    stderr = np.sqrt(m2, out=m2).view(complex)
    mean.setflags(write=False)
    stderr.setflags(write=False)
    return EnsembleResult(grid=field.grid, mean=mean, stderr=stderr, n_traj=n_traj, seed=seed)


@dataclass(frozen=True)
class ComparisonReport:
    """Entrywise z-score comparison of an ensemble mean to a reference."""

    grid: np.ndarray
    max_abs_difference: np.ndarray
    max_z_per_time: np.ndarray
    max_z: float
    frac_above_tail: float
    n_traj: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n_traj": self.n_traj,
            "max_z": self.max_z,
            "frac_above_3": self.frac_above_tail,
            "pass": self.passed,
            "thresholds": {"max_z": Z_MAX, "tail_z": Z_TAIL, "tail_fraction": TAIL_FRACTION},
            "per_time": [
                {
                    "t": float(t),
                    "max_abs_difference": float(d),
                    "max_z": float(z),
                }
                for t, d, z in zip(self.grid, self.max_abs_difference, self.max_z_per_time)
            ],
        }


def compare_to_analytic(ensemble: EnsembleResult, analytic: EvolutionResult) -> ComparisonReport:
    """z-test of the ensemble mean against a reference trajectory on its grid.

    Per entry and per real/imag component, z = |deviation| / stderr, taken
    over the float views of mean - reference and of the standard-error
    stack one time slab at a time (``operators._time_slabs`` at d^2 entries
    per point), so its temporaries stay slab-sized.  Deviations at or below
    1e-12 count as z = 0 outright: entries that are deterministic under the
    model (frozen populations, the t = 0 point) have rounding-level standard
    errors, and dividing one rounding error by another would report huge z
    for perfect agreement.  A deviation above the slack over zero standard error counts
    as infinite, and so does a NaN deviation, which is never agreement.
    PASS means max z <= 4 and at most 5% of components above z = 3.  A
    reference on another grid raises GridMismatch, one of another dimension
    DimensionMismatch.
    """
    if not np.array_equal(analytic.grid, ensemble.grid):
        raise GridMismatch("analytic reference evaluated on a different grid")
    if analytic.dim != ensemble.dim:
        raise DimensionMismatch(
            f"analytic reference has dimension {analytic.dim}, the ensemble {ensemble.dim}"
        )
    num_points, dim = ensemble.grid.size, ensemble.dim
    max_abs_difference = np.empty(num_points)
    max_z_per_time = np.empty(num_points)
    above = 0
    for slab in _time_slabs(num_points, dim * dim):
        # Real and imaginary parts side by side, as in the standard errors' view.
        dev = np.abs((ensemble.mean[slab] - analytic.states[slab]).view(float))
        stderr = ensemble.stderr[slab].view(float)
        genuine = ~(dev <= ZERO_STDERR_SLACK)
        scored = genuine & (stderr > 0) & ~np.isnan(dev)
        z = np.zeros_like(dev)
        np.divide(dev, stderr, out=z, where=scored)
        z[genuine & ~scored] = np.inf
        max_abs_difference[slab] = dev.reshape(len(dev), -1).max(axis=1)
        max_z_per_time[slab] = z.reshape(len(z), -1).max(axis=1)
        above += np.count_nonzero(z > Z_TAIL)
    max_z = float(np.max(max_z_per_time))
    frac = float(above / (num_points * 2 * dim * dim))
    return ComparisonReport(
        grid=ensemble.grid,
        max_abs_difference=max_abs_difference,
        max_z_per_time=max_z_per_time,
        max_z=max_z,
        frac_above_tail=frac,
        n_traj=ensemble.n_traj,
        passed=bool(max_z <= Z_MAX and frac <= TAIL_FRACTION),
    )
