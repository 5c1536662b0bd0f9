"""Random-unitary ensemble sampling and statistical comparison.

Each trajectory draws correlated phase paths chi_t(theta); its sample state
at time t is U rho U^dagger with U = sum_k exp(-i chi_t(theta_k)) P_k.  The
initial state is factored once, rho = V G G^dagger V^dagger in the energy
basis (G is d x r, r the numerical rank), so a sample state is B B^dagger
with B = V (exp(-i chi) o G): O(r d^2) per sample instead of two d x d basis
rotations.  B is linear in the level phases c = exp(-i chi),
B_ia = sum_l c_l W[l, i, a] with the fixed map W[l, i, a] the sum of
V_ik G_ka over the basis vectors k of level l, built once per run, so the
factors of all N samples of a slab are the rows of one product of their
(N, m) level phases with W; numpy's OpenBLAS is held at one thread
meanwhile (``operators._single_threaded_blas``), so the workers are the
run's only parallelism.  A chunk of trajectories keeps only its chi
paths; it is processed in time slabs sized to stay in cache, the same
slabs in every chunk, each slab forming the phases exp(-i chi) of its own
time points, and the per-entry mean and two-pass variance of a slab are
taken in place.  The slab workspaces of a run share one cache budget, so
more workers take smaller slabs and the run's slab memory does not grow
with them.  The chunks run one after another, and the workers share
the work inside each: first its chi paths, drawn into the run's one chi
array in at most one task per worker, each a contiguous run of whole RNG
blocks, then its time slabs, each formed in one of the run's slab
workspaces, allocated once per run: three buffers whose largest also holds
the slab's phases before its sample states.  Every chunk forms each slab's
statistics in a workspace and folds them in place into the totals, which
start at zero.  A chunk starts once every slab of the one before it has
folded, so each slab of the totals has one writer at a time, no task waits
on another, no chunk holds statistics of the whole grid, no slab is copied,
and every entry is folded in chunk order.
The folded mean and squared deviations then take their lower triangle from
the upper one and a diagonal with imaginary part +0, so the mean is
Hermitian and the standard errors are symmetric, to the bit.  Chunk
boundaries depend only on array shapes, and every chunk is a whole number
of RNG blocks (``noise.RNG_BLOCK`` trajectories that share one Philox
stream keyed by (seed, block)).  Slab boundaries depend on the worker count
too, but every statistic of a time point is summed over the chunk's samples
in the same order whatever slab holds the point, so the result is
byte-identical whether blocks and slabs are processed by one worker or
many.
The chi paths come from the run's one Brownian field, set up once before the
chunks, so a trajectory's phases depend only on the seed and its index.
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
# Target for chunk * grid * dim * dim; the chunk size must be a function of
# shapes only, never of worker count, so that accumulation order (and
# therefore float output) is reproducible.  It is a multiple of RNG_BLOCK
# (MAX_CHUNK is one), at least one block even where the budget asks for less.
# chunk * grid * dim * dim counts a chunk's sample states over the whole
# grid, which no array holds: slabs fold as they are formed (``run_ensemble``).
# The one chunk-sized array is the run's chi array, chunk * grid * levels
# floats, and levels <= dim, so the budget keeps it within
# CHUNK_ELEMENT_BUDGET / dim floats.
# The slabs that a run's workers form at once together hold about
# SLAB_ELEMENT_BUDGET sample-state entries (count * slab * dim * dim each),
# and a chunk is kept within it at one time point per slab.
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
    """Factor G, shape (d, r), with G G^dagger = rho_e.

    Keeps the eigenvalues above d * eps * lambda_max (``_rank_factor``), so
    a pure state gives r = 1 and a full-rank state r = d.
    """
    return _rank_factor(*np.linalg.eigh(rho_e))


def _factor_map(decomposition: SpectralDecomposition, factor: np.ndarray) -> np.ndarray:
    """The (m, d, r) map W[l, i, a], the sum of V_ik G_ka over the basis
    vectors k of level l: level phases c give B = V (c[level_index] o G) as c W.

    A level's basis vectors are contiguous (``eigendecompose``), so W is a
    ``reduceat`` over the per-vector map; a level of one vector copies its
    row, so with one vector per level W is the per-vector map, bit for bit.
    """
    per_vector = decomposition.eigenvectors.T[:, :, None] * factor[:, None, :]
    starts = np.searchsorted(decomposition.level_index, np.arange(decomposition.num_levels))
    return np.add.reduceat(per_vector, starts, axis=0)


class _Workspace:
    """The slab buffers one worker reuses for every slab of a run.

    Each holds a slab of at most ``points`` time points of ``count``
    trajectories, a whole chunk; a run's workspaces share one
    ``SLAB_ELEMENT_BUDGET`` of sample-state entries (``run_ensemble``).
    Three buffers serve ``_slab_phases`` and ``_sample_states``:
    ``factors`` and ``conj_factors`` (d r complex entries per sample point)
    and ``states`` (d d), whose leading entries also hold the slab's phases
    (m <= d per sample point): they are dead before the Gram product writes
    the states.  Two more hold the slab's
    ``mean`` (d d complex entries per point) and squared deviations ``m2``
    (2 d d floats).  A slab takes the leading part of each buffer it needs
    (``_leading``), so a partial slab or chunk reuses the same memory.
    """

    def __init__(self, points: int, dim: int, rank: int, count: int):
        samples = count * points
        self.factors = np.empty(samples * dim * rank, dtype=complex)
        self.conj_factors = np.empty_like(self.factors)
        self.states = np.empty(samples * dim * dim, dtype=complex)
        self.mean = np.empty(points * dim * dim, dtype=complex)
        self.m2 = np.empty(points * dim * 2 * dim)


def _merge(
    mean: np.ndarray, m2: np.ndarray, delta: np.ndarray, square: np.ndarray, n_a: int, n: int
) -> None:
    """Fold a chunk's slab statistics into the totals of the chunks before it, in place.

    ``mean`` and ``m2`` hold the totals over n_a trajectories, zero before
    the first chunk (n_a = 0); ``delta`` and ``square`` arrive holding the
    chunk's own mean and squared deviations over n - n_a and are
    overwritten.  The order of these operations is part of the determinism
    contract, so keep it a plain pairwise update:
    m2 = (m2_a + m2_b) + delta^2 n_a n_b / n and mean = mean_a + delta n_b / n
    with delta = mean_b - mean_a.
    """
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
    """exp(-i chi) for level phases chi of shape (..., m), read in place.

    Written as cos and -sin into the leading entries of ``work.states``.
    """
    phases = _leading(work.states, chi.shape)
    np.cos(chi, out=phases.real)
    np.sin(chi, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    return phases


def _sample_states(weights: np.ndarray, phases: np.ndarray, work: _Workspace) -> np.ndarray:
    """Sample states B B^dagger with B = V (phases[level_index] o G), for
    level phases of shape (..., m).

    This is V ((c c^dagger) o rho_e) V^dagger with c the phases of the
    basis vectors and rho_e = G G^dagger, computed from the d x r factor
    instead.  ``weights`` is the (m, d, r) W = ``_factor_map``, so the
    factors of all N samples are the rows of one (N, m) x (m, d r) product,
    sample n's B_n being row n read as a (d, r) matrix; the Gram product
    B B^dagger is taken one sample at a time.  Every array is a view into
    ``work``, so the result is overwritten by the next call on it, and the
    states overwrite ``phases`` when they are ``work``'s own
    (``_slab_phases``): read them before the call, or pass a copy.
    """
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

    The energy-basis state is factored once as G G^dagger (G is d x r, r the
    numerical rank), and every sample state U rho U^dagger is formed as
    B B^dagger with B = V (exp(-i chi)[level_index] o G); the B of a slab's
    samples are the rows of one product of its level phases with
    ``_factor_map``, built once per call.  Trajectories are processed in
    chunks (``_chunk_size``: at most ``MAX_CHUNK``, within
    ``CHUNK_ELEMENT_BUDGET`` and, at one time point, within
    ``SLAB_ELEMENT_BUDGET``; a whole number of RNG blocks), one after
    another.  A chunk holds only its chi paths, drawn into the run's chi
    array by min(n_workers, its RNG blocks) tasks, each one ``field.paths``
    call over a contiguous run of whole blocks, so that its scale, drift and
    cumsum run on arrays large enough to release the GIL, and then runs in
    time slabs, one task per slab.  The slabs are those of every chunk and
    those the workspaces are sized from.  With count the first chunk's
    trajectory count, the one-budget plan (``operators._time_slabs`` at
    count d^2 entries per point) has s slabs, and the run keeps
    k = min(n_workers, s) workspaces, one per worker that has a slab of
    that plan to take; the slabs are then those of ``_time_slabs`` at
    k count d^2 entries per point, so that the k workspaces together hold
    one ``SLAB_ELEMENT_BUDGET`` of sample-state entries, not one each (at
    least one time point per slab: at d >= 32 slabs are one point already
    and do not shrink).  Each slab forms the phases and sample states of
    its own time points and takes its mean and sum of squared deviations in
    place, the squares of the real and imaginary parts side by side: the
    float view of a (T, d, d) complex stack.  Every chunk forms them in a
    workspace and folds each slab in place into the totals, which start at
    zero (``_merge``: the pairwise mean and variance update, with the
    chunk's own slab arrays holding the mean difference and its squares;
    at the first chunk it adds to zero, scales by 1 and adds a zero term).
    The workers share each chunk's tasks, and a chunk's draw starts once
    every slab of the chunk before it has folded, so each slab of the totals
    has one writer at a time and is folded in chunk order, no task waits on
    another, and a task that raises is the call's error.  The folded mean's
    entry (l, k) is then (Re m_kl, 0 - Im m_kl) of its upper entry (k, l), the
    rule of ``operators._hermitian_part``, the squared deviations' lower
    triangle is the transpose of their upper one, and both diagonals'
    imaginary parts are +0, so the mean is Hermitian and the standard
    errors symmetric, to the bit.  The standard errors are
    sqrt(m2 / (n - 1) / n) of that float view, taken in place over it and
    read as the complex stack ``EnsembleResult.stderr``.
    ``n_workers`` threads (at least 1) draw the paths and form the slabs, and
    they are the call's only parallelism: numpy's OpenBLAS thread count is
    held at 1 during the call and restored afterwards
    (``operators._single_threaded_blas``; nothing happens where numpy has
    no OpenBLAS).  Its own pool would compete with the workers for the
    cores, and its threads keep spinning after a small threaded call.

    Allocated per call: W, one chi array of the first chunk's paths, which
    every chunk refills, the k slab workspaces (``_Workspace``), made
    before the chunks start and handed from slab to slab through a queue,
    and the accumulated (T, d, d) mean and (T, d, 2d) squared deviations,
    which become the result's mean and standard errors.  Each workspace
    holds three buffers of the largest slab of the run, the factors B,
    conj(B) and the states, whose leading entries hold the phases that
    ``_slab_phases`` forms from the chi slab in place, and that slab's mean
    and squared deviations, so the chunks and slabs reuse them.  No chunk
    allocates statistics of the whole grid, and the fold allocates nothing,
    whatever the workers' timing.

    ``n_traj`` must be at least 2, the fewest that give standard errors
    (else ValueError).  The grid must be finite, hold two or more points,
    start at 0 and increase strictly (else GridMismatch); a raw ``rho0``
    must be a valid state; a direct damping table raises ConfigError.

    Deterministic for fixed (seed, n_traj, grid): block b of ``RNG_BLOCK``
    trajectories draws from one counter-based Philox stream keyed by
    (seed, b), a partial last block takes a prefix of its block's draw, and
    chunks (whole blocks) depend on shapes only.  The slabs depend on
    ``n_workers`` too, but a time point's statistics are summed over the
    same samples in the same order in any slab, and neither the draw tasks
    nor the slabs change a bit, so ``n_workers`` changes the wall time and
    the slab plan but not a single output bit.  The chi paths are
    those of ``sample_chi_paths`` with the same seed.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2 for standard errors")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    field = _BrownianField(model, decomposition.levels, grid)
    rho = state_matrix(rho0, decomposition.dim)

    state_factor = _state_factor(to_energy_basis(rho, decomposition))
    weights = _factor_map(decomposition, state_factor)
    num_points, dim = field.grid.size, decomposition.dim

    chunk = _chunk_size(num_points, dim)
    # One slab plan for every chunk, that of the first, the largest; a
    # partial last chunk takes the same slabs with fewer samples.  The
    # workspaces, one per worker that has a slab of the one-budget plan to
    # take, share that plan's budget: its slabs, split ``spaces`` ways.
    first = min(chunk, n_traj)
    per_point = first * dim * dim
    spaces = min(n_workers, len(_time_slabs(num_points, per_point)))
    slabs = _time_slabs(num_points, per_point * spaces)
    mean = np.zeros((num_points, dim, dim), dtype=complex)
    m2 = np.zeros((num_points, dim, 2 * dim))
    chi = np.empty((first, num_points, field.levels.size))
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
