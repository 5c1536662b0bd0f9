"""Random-unitary ensemble sampling and statistical comparison.

Each trajectory draws correlated phase paths chi_t(theta); its sample state
at time t is U rho U^dagger with U = sum_k exp(-i chi_t(theta_k)) P_k.  The
initial state is factored once, rho = V G G^dagger V^dagger in the energy
basis (G is d x r, r the numerical rank), so a sample state is B B^dagger
with B = V (exp(-i chi) o G): O(r d^2) per sample instead of two d x d basis
rotations.  A chunk of trajectories keeps only its chi paths; it is
processed in time slabs sized to stay in cache, each slab forming the phases
exp(-i chi) of its own time points, and the per-entry mean and two-pass
variance of a slab are taken in place.  Chunk statistics are merged by a
left fold in chunk order as the results arrive, and each chunk's statistics
are released once folded in.  Chunk and slab boundaries depend only on array
shapes, and every chunk is a whole number of RNG blocks (``noise.RNG_BLOCK``
trajectories that share one Philox stream keyed by (seed, block)), so the
result is byte-identical whether chunks are processed by one worker or many.
A trajectory's phases depend only on the seed and its index; moving from
per-trajectory to per-block keys changed the output for a fixed seed once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .noise import MAX_CHUNK, RNG_BLOCK, NoiseModel, _chi_chunk, correlation_matrix, psd_sqrt
from .operators import SpectralDecomposition, state_matrix, to_energy_basis
from .results import EvolutionResult, time_grid

__all__ = [
    "EnsembleResult",
    "ComparisonReport",
    "run_ensemble",
    "compare_to_analytic",
    "unitary_from_phases",
]

# Target for chunk * grid * dim * dim; the chunk size must be a function of
# shapes only, never of worker count, so that accumulation order (and
# therefore float output) is reproducible.  It is a multiple of RNG_BLOCK
# (MAX_CHUNK is one), at least one block even where the budget asks for less.
CHUNK_ELEMENT_BUDGET = 4_000_000
# Complex state entries (count * slab * dim * dim) formed at once within a
# chunk: 2**16 entries is 1 MiB, so a slab's temporaries stay in cache.  A
# chunk is also kept within it at one time point per slab.
SLAB_ELEMENT_BUDGET = 1 << 16

Z_MAX = 4.0
Z_TAIL = 3.0
TAIL_FRACTION = 0.05
# Deviations below this with zero standard error count as exact agreement.
ZERO_STDERR_SLACK = 1e-12


def _chunk_size(num_points: int, dim: int) -> int:
    per_traj = max(1, num_points * dim * dim)
    chunk = min(MAX_CHUNK, CHUNK_ELEMENT_BUDGET // per_traj, SLAB_ELEMENT_BUDGET // (dim * dim))
    return max(RNG_BLOCK, chunk - chunk % RNG_BLOCK)


def _slab_size(count: int, dim: int) -> int:
    return max(1, SLAB_ELEMENT_BUDGET // (count * dim * dim))


def _state_factor(rho_e: np.ndarray) -> np.ndarray:
    """Factor G, shape (d, r), with G G^dagger = rho_e.

    Keeps the eigenvalues above d * eps * lambda_max, so a pure state gives
    r = 1 and a full-rank state r = d.
    """
    eigvals, eigvecs = np.linalg.eigh(rho_e)
    keep = eigvals > eigvals.shape[0] * np.finfo(float).eps * eigvals[-1]
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


def _slab_phases(chi: np.ndarray, level_index: np.ndarray) -> np.ndarray:
    """exp(-i chi) per basis vector for level phases chi of shape (..., m).

    The angles are gathered by ``level_index`` and written as cos and -sin
    into one complex array of shape (..., d).
    """
    angles = np.take(chi, level_index, axis=-1)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    return phases


def _sample_states(vectors: np.ndarray, factor: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Sample states B B^dagger with B = V (phases o G), for phases of shape (..., d).

    This is V ((c c^dagger) o rho_e) V^dagger with c = phases and
    rho_e = G G^dagger, computed from the d x r factor instead.
    """
    b = vectors @ (phases[..., :, None] * factor)
    return b @ np.swapaxes(b, -1, -2).conj()


@dataclass(frozen=True)
class EnsembleResult:
    """Monte Carlo mean trajectory with per-entry standard errors.

    ``mean[k]`` estimates the averaged state at ``grid[k]`` in the
    computational basis; ``stderr_re``/``stderr_im`` are standard errors of
    the mean for the real and imaginary parts of each entry.
    """

    grid: np.ndarray
    mean: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    n_traj: int
    seed: int

    @property
    def dim(self) -> int:
        return self.mean.shape[1]

    def as_result(self) -> EvolutionResult:
        return EvolutionResult(self.grid, self.mean, "montecarlo")


def unitary_from_phases(decomposition: SpectralDecomposition, chi) -> np.ndarray:
    """Materialize sum_k exp(-i chi[k]) P_k for one set of level phases."""
    chi_arr = np.asarray(chi, dtype=float).reshape(-1)
    if chi_arr.shape[0] != decomposition.num_levels:
        raise GridMismatch(
            f"need one phase per distinct level ({decomposition.num_levels}), got {chi_arr.shape[0]}"
        )
    phases = np.exp(-1j * chi_arr)
    return np.einsum("k,kij->ij", phases, decomposition.projectors)


def _merge_stats(a, b):
    """Combine two (count, mean, m2_re, m2_im) accumulators."""
    n_a, mean_a, m2re_a, m2im_a = a
    n_b, mean_b, m2re_b, m2im_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    scale = n_a * n_b / n
    m2_re = m2re_a + m2re_b + delta.real**2 * scale
    m2_im = m2im_a + m2im_b + delta.imag**2 * scale
    return n, mean, m2_re, m2_im


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
    B B^dagger with B = V (exp(-i chi) o G).  Trajectories are processed in
    chunks (``_chunk_size``: at most ``MAX_CHUNK``, within
    ``CHUNK_ELEMENT_BUDGET`` and, at one time point, within
    ``SLAB_ELEMENT_BUDGET``; a whole number of RNG blocks).  A chunk holds
    only its chi paths and runs in time slabs of about
    ``SLAB_ELEMENT_BUDGET`` state entries; each slab forms the phases and
    sample states of its own time points and takes its mean and sum of
    squared deviations in place.  Chunks are merged by a left fold in chunk
    order.  ``n_workers`` threads (at least 1) compute the chunks.

    The grid must be finite, hold two or more points, start at 0 and increase
    strictly (else GridMismatch); a raw ``rho0`` must be a valid state.

    Deterministic for fixed (seed, n_traj, grid): block b of ``RNG_BLOCK``
    trajectories draws from one counter-based Philox stream keyed by
    (seed, b), a partial last block takes a prefix of its block's draw, and
    chunks (whole blocks) and slabs depend on shapes only, so ``n_workers``
    changes the wall time but not a single output bit.  The chi paths are
    those of ``sample_chi_paths`` with the same seed.  (Per-block keys
    replaced per-trajectory keys; that changed the output for a fixed seed
    once.)
    """
    if model.direct_lambda is not None:
        raise ValueError("a direct damping table has no Brownian realization to sample")
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    grid_arr = time_grid(grid)
    rho = state_matrix(rho0, decomposition.dim)

    levels = np.asarray(decomposition.levels, dtype=float)
    factor = psd_sqrt(correlation_matrix(model, levels))
    state_factor = _state_factor(to_energy_basis(rho, decomposition))
    vectors = decomposition.eigenvectors
    idx = decomposition.level_index
    num_points, dim = grid_arr.size, decomposition.dim

    def chunk_stats(start: int, count: int):
        chi = _chi_chunk(model, levels, grid_arr, factor, seed, start, count)
        mean = np.empty((num_points, dim, dim), dtype=complex)
        # Squared deviations with real and imaginary parts interleaved.
        m2 = np.empty((num_points, dim, 2 * dim))
        slab = _slab_size(count, dim)
        for lo in range(0, num_points, slab):
            hi = min(lo + slab, num_points)
            phases = _slab_phases(chi[:, lo:hi], idx)
            states = _sample_states(vectors, state_factor, phases)
            states -= np.mean(states, axis=0, out=mean[lo:hi])
            flat = states.view(float)
            np.square(flat, out=flat)
            np.sum(flat, axis=0, out=m2[lo:hi])
        return count, mean, m2[..., 0::2], m2[..., 1::2]

    chunk = _chunk_size(num_points, dim)
    starts = range(0, n_traj, chunk)
    counts = [min(chunk, n_traj - s) for s in starts]
    # pool.map yields in chunk order; the tree shape of the reduction is part
    # of the determinism contract, so keep it a plain left fold.
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        n, mean, m2_re, m2_im = reduce(_merge_stats, pool.map(chunk_stats, starts, counts))
    denom = max(n - 1, 1)
    stderr_re = np.sqrt(m2_re / denom / n)
    stderr_im = np.sqrt(m2_im / denom / n)
    for arr in (grid_arr, mean, stderr_re, stderr_im):
        arr.setflags(write=False)
    return EnsembleResult(
        grid=grid_arr,
        mean=mean,
        stderr_re=stderr_re,
        stderr_im=stderr_im,
        n_traj=n,
        seed=seed,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Entrywise z-score comparison of an ensemble mean to a reference.

    ``passed`` is None when the ensemble is too small to estimate standard
    errors (fewer than two trajectories).
    """

    grid: np.ndarray
    max_abs_difference: np.ndarray
    max_z_per_time: np.ndarray
    max_z: float
    frac_above_tail: float
    n_traj: int
    passed: Optional[bool]

    def to_dict(self) -> dict:
        report = {
            "n_traj": self.n_traj,
            "max_z": self.max_z,
            "frac_above_3": self.frac_above_tail,
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
        if self.passed is not None:
            report["pass"] = self.passed
        return report


def compare_to_analytic(ensemble: EnsembleResult, analytic: EvolutionResult) -> ComparisonReport:
    """z-test of the ensemble mean against a reference trajectory on its grid.

    Per entry and per real/imag component, z = |deviation| / stderr.
    Deviations at or below 1e-12 count as z = 0 outright: entries that are
    deterministic under the model (frozen populations, the t = 0 point) have
    rounding-level standard errors, and dividing one rounding error by
    another would report huge z for perfect agreement.  A deviation above
    the slack over zero standard error counts as infinite.  PASS means
    max z <= 4 and at most 5% of components above z = 3.  A reference on
    another grid raises GridMismatch, one of another dimension
    DimensionMismatch.
    """
    if not np.array_equal(analytic.grid, ensemble.grid):
        raise GridMismatch("analytic reference evaluated on a different grid")
    if analytic.dim != ensemble.dim:
        raise DimensionMismatch(
            f"analytic reference has dimension {analytic.dim}, the ensemble {ensemble.dim}"
        )
    reference = analytic.states
    dev_re = np.abs(ensemble.mean.real - reference.real)
    dev_im = np.abs(ensemble.mean.imag - reference.imag)

    def z_of(dev, stderr):
        z = np.zeros_like(dev)
        genuine = dev > ZERO_STDERR_SLACK
        positive = stderr > 0
        ratio = genuine & positive
        z[ratio] = dev[ratio] / stderr[ratio]
        z[genuine & ~positive] = np.inf
        return z

    z_re = z_of(dev_re, ensemble.stderr_re)
    z_im = z_of(dev_im, ensemble.stderr_im)
    z_all = np.stack([z_re, z_im], axis=-1)
    max_abs = np.maximum(dev_re, dev_im).reshape(ensemble.grid.size, -1).max(axis=1)
    max_z_per_time = z_all.reshape(ensemble.grid.size, -1).max(axis=1)
    max_z = float(np.max(z_all))
    frac = float(np.mean(z_all > Z_TAIL))
    passed: Optional[bool]
    if ensemble.n_traj < 2:
        passed = None
    else:
        passed = bool(max_z <= Z_MAX and frac <= TAIL_FRACTION)
    return ComparisonReport(
        grid=ensemble.grid,
        max_abs_difference=max_abs,
        max_z_per_time=max_z_per_time,
        max_z=max_z,
        frac_above_tail=frac,
        n_traj=ensemble.n_traj,
        passed=passed,
    )
