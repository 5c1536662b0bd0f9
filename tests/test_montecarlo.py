import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from noisytime import (
    ConfigError,
    DensityMatrix,
    DimensionMismatch,
    GridMismatch,
    HermitianOperator,
    NotPositive,
    compare_to_analytic,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    averaged_trajectory,
    eigendecompose,
    run_ensemble,
    sample_chi_paths,
)
from noisytime import montecarlo, operators
from noisytime.config import load_config
from noisytime.montecarlo import (
    MAX_CHUNK,
    SLAB_ELEMENT_BUDGET,
    EnsembleResult,
    _Workspace,
    _chunk_size,
    _factor_map,
    _sample_states,
    _slab_phases,
    _state_factor,
)
from noisytime.noise import RNG_BLOCK
from noisytime.operators import _time_slabs, to_energy_basis
from noisytime.results import EvolutionResult
from noisytime.verify import _rotated


def _random_case(rng, dim, rank, degenerate):
    """Random Hamiltonian (optionally with repeated levels) and a rank-r state."""
    if degenerate:
        levels = 0.5 * (np.arange(dim) // 2)  # levels in equal pairs
    else:
        levels = np.sort(rng.normal(size=dim)) + np.arange(dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    dec = eigendecompose(HermitianOperator(q @ np.diag(levels) @ q.conj().T))
    w = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = w @ w.conj().T
    return dec, DensityMatrix(0.5 * (rho + rho.conj().T) / np.trace(rho).real)


def unitary_from_phases(dec, chi):
    """sum_k exp(-i chi[k]) P_k for one phase per distinct level."""
    phases = np.exp(-1j * np.asarray(chi, dtype=float))[dec.level_index]
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def _per_sample_reference(dec, rho0, paths):
    """Every sample state U rho U^dagger, formed one unitary at a time."""
    n_traj, num_points = paths.shape[:2]
    states = np.empty((n_traj, num_points, dec.dim, dec.dim), dtype=complex)
    for j in range(n_traj):
        for k in range(num_points):
            u = unitary_from_phases(dec, paths[j, k])
            states[j, k] = u @ rho0.matrix @ u.conj().T
    return states


def _exact_mean(states):
    """Mean over the first axis with correctly rounded sums (math.fsum).

    np.mean adds the samples one after another along that axis, which for
    thousands of near-equal samples errs by more than 1e-14 on its own.
    """
    flat = states.reshape(states.shape[0], -1)
    sums = [math.fsum(col.real) + 1j * math.fsum(col.imag) for col in flat.T]
    return np.array(sums).reshape(states.shape[1:]) / states.shape[0]


def _dense_sample(dec, rho_e, phases):
    """The dense form V ((c c^dagger) o rho_e) V^dagger of one sample state."""
    vectors = dec.eigenvectors
    return vectors @ (np.outer(phases, phases.conj()) * rho_e) @ vectors.conj().T


class TestUnitaryFromPhases:
    def test_diagonal_hamiltonian(self, qubit):
        _, dec, _ = qubit
        chi = [0.3, 1.2]
        u = unitary_from_phases(dec, chi)
        assert np.allclose(u, np.diag(np.exp(-1j * np.array(chi))))

    def test_unitarity(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        dec = eigendecompose(HermitianOperator(0.5 * (raw + raw.conj().T)))
        u = unitary_from_phases(dec, [0.1, 2.0, -0.7])
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


class TestStateFactor:
    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_factor_form_matches_dense_oracle(self, dim, degenerate):
        rng = np.random.default_rng(100 * dim + degenerate)
        for rank in sorted({1, min(2, dim), dim}):
            dec, rho = _random_case(rng, dim, rank, degenerate)
            assert dec.num_levels == ((dim + 1) // 2 if degenerate else dim)
            rho_e = to_energy_basis(rho.matrix, dec)
            factor = _state_factor(rho_e)
            assert factor.shape == (dim, rank)
            assert np.max(np.abs(factor @ factor.conj().T - rho_e)) < 1e-14
            chi = rng.normal(scale=3.0, size=(5, dec.num_levels))
            work = _Workspace(1, dim, rank, 5)
            # a copy: the sample states overwrite the workspace's phases
            phases = _slab_phases(chi, work).copy()
            assert np.max(np.abs(phases - np.exp(-1j * chi))) < 1e-15
            states = _sample_states(_factor_map(dec, factor), phases, work)
            for c, state, levels_chi in zip(phases, states, chi):
                dense = _dense_sample(dec, rho_e, c[dec.level_index])
                assert np.max(np.abs(state - dense)) < 1e-13
                u = unitary_from_phases(dec, levels_chi)
                assert np.max(np.abs(state - u @ rho.matrix @ u.conj().T)) < 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_phases_read_in_place_keep_the_bits(self, dim):
        # one basis vector per level: the level map is the per-vector map
        # W[k, i, a] = V_ik G_ka bit for bit, so the level phases, read from
        # the chi slab in place, meet the products per-vector phases met
        rng = np.random.default_rng(dim)
        for rank in sorted({1, dim}):
            dec, rho = _random_case(rng, dim, rank, degenerate=False)
            assert dec.num_levels == dim
            factor = _state_factor(to_energy_basis(rho.matrix, dec))
            per_vector = dec.eigenvectors.T[:, :, None] * factor[:, None, :]
            level_map = _factor_map(dec, factor)
            assert level_map.shape == per_vector.shape == (dim, dim, rank)
            assert level_map.tobytes() == per_vector.tobytes()

    @pytest.mark.parametrize("sizes", [(3, 3), (2, 5, 1), (6,)])
    def test_degenerate_levels_sum_as_a_reduceat(self, sizes):
        # each level reduced on its own terms gives the bits of one reduceat
        # over the whole per-vector map
        dim = sum(sizes)
        rng = np.random.default_rng(dim)
        spectrum = np.repeat(np.arange(len(sizes), dtype=float), sizes)
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        dec = eigendecompose(HermitianOperator((u * spectrum) @ u.conj().T))
        factor = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        per_vector = dec.eigenvectors.T[:, :, None] * factor[:, None, :]
        starts = np.searchsorted(dec.level_index, np.arange(dec.num_levels))
        expected = np.add.reduceat(per_vector, starts, axis=0)
        assert _factor_map(dec, factor).tobytes() == expected.tobytes()

    def test_map_holds_no_temporary_of_its_size(self):
        # a freed (d, d, r) temporary, 4 MB at d = r = 64, raised glibc's
        # mmap threshold and the rest of a d = 64 run's process peak with it
        dim = 64
        dec, rho = _random_case(np.random.default_rng(64), dim, dim, degenerate=False)
        factor = _state_factor(to_energy_basis(rho.matrix, dec))
        tracemalloc.start()
        try:
            weights = _factor_map(dec, factor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights.shape == (dim, dim, dim)
        assert peak <= 1.25 * weights.nbytes, (peak, weights.nbytes)

    @pytest.mark.parametrize(
        "name", ["correlated_tau", "global_dephasing", "nonmarkovian_piecewise"]
    )
    def test_pure_preset_has_rank_one(self, scenario_yaml, name):
        config = load_config(scenario_yaml(name))
        rho_e = to_energy_basis(config.initial_state.matrix, config.decomposition())
        factor = _state_factor(rho_e)
        assert factor.shape[1] == 1
        assert np.max(np.abs(factor @ factor.conj().T - rho_e)) < 1e-14

    def test_mixed_presets_keep_their_rank(self):
        dec = eigendecompose(HermitianOperator(np.diag([0.0, 0.0, 1.0, 2.0])))
        pair = dec.eigenvectors[:, dec.level_index == 0]
        ground = DensityMatrix(pair @ pair.conj().T / 2)
        assert _state_factor(to_energy_basis(ground.matrix, dec)).shape == (4, 2)
        mixed = DensityMatrix.maximally_mixed(4)
        assert _state_factor(to_energy_basis(mixed.matrix, dec)).shape == (4, 4)


class TestGroupedProduct:
    # (dim, rank, degenerate spectrum): ranks 1, 2 and d, levels in equal pairs
    CASES = [(d, r, False) for d in (2, 3, 4, 8, 32) for r in sorted({1, 2, d})] + [
        (4, 2, True),
        (8, 8, True),
    ]

    @pytest.mark.parametrize("dim, rank, degenerate", CASES)
    def test_matches_per_sample_reference(self, dim, rank, degenerate):
        dec, rho0 = _random_case(np.random.default_rng(7 * dim + rank), dim, rank, degenerate)
        grid = np.linspace(0, 1.2, 5)
        model = correlated_model(0.7, 0.8)
        n_traj = 130
        serial = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=5, n_workers=1)
        for workers in (2, 3):
            out = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=5, n_workers=workers)
            for name in ("mean", "stderr"):
                assert getattr(out, name).tobytes() == getattr(serial, name).tobytes()
        paths = sample_chi_paths(model, dec.levels, grid, seed=5, n_traj=n_traj).paths
        states = _per_sample_reference(dec, rho0, paths)
        assert np.max(np.abs(out.mean - states.mean(axis=0))) < 1e-14
        for stderr, part in ((out.stderr.real, states.real), (out.stderr.imag, states.imag)):
            expected = part.std(axis=0, ddof=1) / np.sqrt(n_traj)
            assert np.allclose(stderr, expected, rtol=1e-10, atol=1e-15)

    def test_every_vector_of_a_level_counts(self, monkeypatch):
        # levels in equal pairs under a fixed complex rotation: a map that
        # keeps only the first basis vector of each level drops half of
        # every sample state, and the z-test must see it
        _, dec, rho0 = _rotated([0.0, 0.0, 1.1, 1.1])
        assert dec.num_levels == 2
        grid = np.linspace(0, 2, 11)
        model = dephasing_model(0.5)
        analytic = averaged_trajectory(dec, model, rho0, grid)

        def first_vector_only(decomposition, factor):
            starts = np.searchsorted(decomposition.level_index, range(decomposition.num_levels))
            return (decomposition.eigenvectors.T[:, :, None] * factor[:, None, :])[starts]

        def z_test():
            ensemble = run_ensemble(dec, model, rho0, grid, n_traj=2000, seed=17, n_workers=2)
            return compare_to_analytic(ensemble, analytic).passed

        assert z_test()
        monkeypatch.setattr(montecarlo, "_factor_map", first_vector_only)
        assert not z_test()


def _reference_sample_states(weights, phases):
    """``_sample_states`` without the workspace: fresh temporaries for every
    call, the same products in the same layouts.  Row n of the product of
    the (N, m) level phases with the (m, d r) W = ``_factor_map`` is
    B_n = V (c_n[level_index] o G), read as a (d, r) matrix."""
    levels, dim, rank = weights.shape
    b = phases.reshape(-1, levels) @ weights.reshape(levels, -1)
    b = b.reshape(phases.shape[:-1] + (dim, rank))
    return b @ np.swapaxes(b.conj(), -1, -2)


class TestWorkspace:
    # (dim, rank, grid points, n_traj): every case has two chunks, the last
    # ending inside an RNG block, and both take the whole chunk's slabs.
    # d = 2: slabs of 16 points over 41, the last slab partial; d = 8:
    # slabs of one point, though the last chunk's 76 trajectories alone
    # would fit every point in one; d = 32 and 33 at full rank: slabs of
    # one point.  Each slab forms its factors in one product, as wide as
    # its sample count times the rank.
    CASES = [(2, 2, 41, 1124), (8, 3, 11, 1100), (32, 32, 5, 100), (33, 33, 4, 100)]

    @pytest.mark.parametrize("dim, rank, num_points, n_traj", CASES)
    def test_matches_allocating_reference(self, dim, rank, num_points, n_traj, monkeypatch):
        dec, rho0 = _random_case(np.random.default_rng(dim * rank), dim, rank, degenerate=False)
        grid = np.linspace(0, 1.3, num_points)
        model = correlated_model(0.6, 0.7)
        chunk = _chunk_size(num_points, dim)
        assert chunk < n_traj < 2 * chunk and n_traj % RNG_BLOCK
        slabs = [s.stop - s.start for s in _time_slabs(num_points, chunk * dim * dim)]
        if dim == 2:
            assert 1 < slabs[-1] < slabs[0] < num_points
        if dim == 8:
            assert set(slabs) == {1}
            assert len(_time_slabs(num_points, (n_traj - chunk) * dim * dim)) == 1
        if dim >= 32:
            assert set(slabs) == {1}
        runs = [
            run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=13, n_workers=w)
            for w in (1, 3)
        ]
        monkeypatch.setattr(
            montecarlo, "_sample_states", lambda w, p, work: _reference_sample_states(w, p)
        )
        runs.append(run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=13, n_workers=1))
        for out in runs[1:]:
            for name in ("mean", "stderr"):
                assert getattr(out, name).tobytes() == getattr(runs[0], name).tobytes()

    @pytest.mark.parametrize("dim, rank", [(1, 1), (2, 1), (3, 2), (8, 8)])
    def test_three_buffers(self, dim, rank):
        # the phases, at most d per sample, are dead before the Gram product
        # writes the states, so they live in the states buffer
        work = _Workspace(5, dim, rank, 64)
        phases = _slab_phases(np.zeros((64, 5, dim)), work)
        assert np.shares_memory(phases, work.states)
        buffers = list(vars(work).values())
        assert all(a.base is None for a in buffers)
        assert [a.size for a in buffers] == [
            5 * 64 * dim * rank,
            5 * 64 * dim * rank,
            5 * 64 * dim * dim,
            5 * dim * dim,
            5 * dim * 2 * dim,
        ]

    @pytest.mark.parametrize(
        "n_workers, n_traj, expected", [(64, 1100, 7), (1, 3000, 1), (3, 5000, 3)]
    )
    def test_one_workspace_per_worker(self, n_workers, n_traj, expected, monkeypatch):
        # d = 2 on 101 points: 1024-trajectory chunks of 7 slabs each at one
        # worker; at most min(n_workers, 7) workspaces, whatever the chunk
        # count, however finely they split those slabs' budget
        built = []

        class Spy(montecarlo._Workspace):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_Workspace", Spy)
        dec, rho0 = _random_case(np.random.default_rng(2), 2, 1, degenerate=False)
        grid = np.linspace(0, 1, 101)
        assert len(_time_slabs(grid.size, _chunk_size(grid.size, 2) * 2 * 2)) == 7
        model = dephasing_model(0.5)
        run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=4, n_workers=n_workers)
        assert len(built) == expected

    @pytest.mark.parametrize("dim, num_points", [(2, 101), (4, 61)])
    def test_workers_share_one_budget(self, dim, num_points, monkeypatch):
        # rank 1, 1100 trajectories: 1024-trajectory slabs of 16 points at
        # d = 2 and of 4 at d = 4, at one worker.  Two and four workers build
        # two and four workspaces, which together hold no more bytes than the
        # one worker's one: the run's slab memory does not grow with workers.
        built = []

        class Spy(montecarlo._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(sum(a.nbytes for a in vars(self).values() if a.base is None))

        monkeypatch.setattr(montecarlo, "_Workspace", Spy)
        dec, rho0 = _random_case(np.random.default_rng(dim), dim, 1, degenerate=False)
        grid = np.linspace(0, 1, num_points)
        model = correlated_model(0.6, 0.7)
        totals = {}
        for workers in (1, 2, 4):
            built.clear()
            run_ensemble(dec, model, rho0, grid, n_traj=1100, seed=4, n_workers=workers)
            assert len(built) == workers
            totals[workers] = sum(built)
        assert totals[2] <= totals[1] and totals[4] <= totals[1], totals

    def test_workers_never_share_a_workspace(self):
        # 9 chunks on 8 workers, more than the cores, of 3 slabs at one
        # worker and of 11 in the 3 workspaces that share them, with a short
        # switch interval: a workspace used by two slabs at once, or handed
        # on before its slab is done, would corrupt their statistics, and a
        # slab folded out of chunk order would change their bits
        dec, rho0 = _random_case(np.random.default_rng(5), 3, 2, degenerate=False)
        grid = np.linspace(0, 1, 21)
        model = correlated_model(0.6, 0.7)
        assert -(-9000 // _chunk_size(grid.size, 3)) == 9
        assert len(_time_slabs(grid.size, _chunk_size(grid.size, 3) * 3 * 3)) == 3
        serial = run_ensemble(dec, model, rho0, grid, n_traj=9000, seed=3, n_workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_ensemble(dec, model, rho0, grid, n_traj=9000, seed=3, n_workers=8)
        finally:
            sys.setswitchinterval(interval)
        for name in ("mean", "stderr"):
            assert getattr(threaded, name).tobytes() == getattr(serial, name).tobytes()


class TestSlabPlan:
    """Only the chunks set the output bits: not the slabs they are formed in,
    nor the draw tasks their paths come from."""

    # (dim, rank, grid points, n_traj), three chunks each, the last ending
    # inside an RNG block.  d = 2 on 101 points takes slabs of 16 points,
    # of 4 at a budget of 2**14 and of 64 at 2**18; d = 32 at full rank on
    # 9 points takes slabs of one point, of four at 2**18.
    CASES = [(2, 1, 101, 2100), (32, 32, 9, 150)]

    @pytest.mark.parametrize("dim, rank, num_points, n_traj", CASES)
    def test_ensemble_bytes_do_not_depend_on_the_slab_budget(
        self, dim, rank, num_points, n_traj, monkeypatch
    ):
        dec, rho0 = _random_case(np.random.default_rng(dim), dim, rank, degenerate=False)
        grid = np.linspace(0, 1.3, num_points)
        model = correlated_model(0.6, 0.7)
        chunk = _chunk_size(num_points, dim)
        assert -(-n_traj // chunk) == 3 and n_traj % RNG_BLOCK
        default = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=5, n_workers=1)
        plans = {len(_time_slabs(num_points, chunk * dim * dim))}
        for budget in (1 << 14, 1 << 18):
            monkeypatch.setattr(operators, "SLAB_ELEMENT_BUDGET", budget)
            plans.add(len(_time_slabs(num_points, chunk * dim * dim)))
            for workers in (1, 2, 3):
                out = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=5, n_workers=workers)
                for name in ("mean", "stderr"):
                    assert getattr(out, name).tobytes() == getattr(default, name).tobytes()
        assert len(plans) >= 2

    @pytest.mark.parametrize("workers", [2, 3, 40])
    def test_one_draw_task_per_worker(self, workers, monkeypatch):
        # d = 2 on 101 points, two 1024-trajectory chunks of 16 RNG blocks
        # and one of 52 trajectories: each chunk's chi paths are drawn in at
        # most min(workers, blocks) contiguous runs of whole blocks, the
        # paths of the one-task draw
        dec, rho0 = _random_case(np.random.default_rng(2), 2, 1, degenerate=False)
        grid = np.linspace(0, 1, 101)
        model = dephasing_model(0.5)
        assert _chunk_size(grid.size, 2) == 1024
        serial = run_ensemble(dec, model, rho0, grid, n_traj=2100, seed=4, n_workers=1)
        paths = montecarlo._BrownianField.paths
        calls = []

        def spy(self, seed, start, count, out=None):
            calls.append((start, count))
            return paths(self, seed, start, count, out=out)

        monkeypatch.setattr(montecarlo._BrownianField, "paths", spy)
        out = run_ensemble(dec, model, rho0, grid, n_traj=2100, seed=4, n_workers=workers)
        for name in ("mean", "stderr"):
            assert getattr(out, name).tobytes() == getattr(serial, name).tobytes()
        calls.sort()
        tasks = min(workers, 16)
        assert len(calls) == 2 * tasks + 1
        assert [start for start, _ in calls[:tasks]] == [
            16 * k // tasks * RNG_BLOCK for k in range(tasks)
        ]
        assert calls[-1] == (2048, 52)
        for (start, count), (following, _) in zip(calls, calls[1:]):
            assert start % RNG_BLOCK == 0 and start + count == following


class TestBlasPin:
    """run_ensemble holds numpy's OpenBLAS at one thread while it runs."""

    @staticmethod
    def _case(dim):
        dec, rho0 = _random_case(np.random.default_rng(dim), dim, dim, degenerate=False)
        return dec, correlated_model(0.6, 0.7), rho0, np.linspace(0, 1.1, 4)

    def test_one_thread_inside(self, blas_threads, monkeypatch):
        seen = []
        sample_states = montecarlo._sample_states

        def spy(*args):
            seen.append(blas_threads())
            return sample_states(*args)

        monkeypatch.setattr(montecarlo, "_sample_states", spy)
        run_ensemble(*self._case(8), n_traj=300, seed=2, n_workers=2)
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_concurrent_calls_restore_the_count(self, blas_threads, monkeypatch):
        # four calls, more than the cores, meet inside the pin and then run
        # with a short switch interval: the first to leave must not restore
        # the count under the others, nor the last leave it pinned
        callers = 4
        together = threading.Barrier(callers, timeout=30)
        state_factor = montecarlo._state_factor

        def meet(rho_e):
            together.wait()
            return state_factor(rho_e)

        monkeypatch.setattr(montecarlo, "_state_factor", meet)
        case = self._case(4)
        results = [None] * callers

        def call(slot):
            results[slot] = run_ensemble(*case, n_traj=200, seed=slot, n_workers=2)

        threads = [threading.Thread(target=call, args=(slot,)) for slot in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert blas_threads() == 2
        monkeypatch.undo()
        for slot in range(callers):
            alone = run_ensemble(*case, n_traj=200, seed=slot, n_workers=1)
            assert results[slot].mean.tobytes() == alone.mean.tobytes()

    @pytest.mark.parametrize("dim", [8, 33, 48])
    def test_output_does_not_depend_on_the_pin(self, dim, blas_threads, monkeypatch):
        # at d >= 32 the factor products and eigh are large enough for
        # OpenBLAS to thread them when it is not held at one thread
        pinned = run_ensemble(*self._case(dim), n_traj=130, seed=9, n_workers=2)
        monkeypatch.setattr(operators, "_openblas_threads", lambda: None)
        free = run_ensemble(*self._case(dim), n_traj=130, seed=9, n_workers=2)
        for name in ("mean", "stderr"):
            assert getattr(free, name).tobytes() == getattr(pinned, name).tobytes()


class TestRunEnsemble:
    def test_reproducible(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 1, 5)
        model = dephasing_model(0.5)
        a = run_ensemble(dec, model, rho0, grid, n_traj=300, seed=17)
        b = run_ensemble(dec, model, rho0, grid, n_traj=300, seed=17)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)
        c = run_ensemble(dec, model, rho0, grid, n_traj=300, seed=18)
        assert not np.array_equal(a.mean, c.mean)

    def test_worker_count_invariant(self, monkeypatch):
        # chunks capped at 4 blocks so that this small case spans several;
        # test_full_chunks_match_per_sample_reference runs the MAX_CHUNK cap
        monkeypatch.setattr(montecarlo, "MAX_CHUNK", 4 * RNG_BLOCK)
        dec, rho0 = _random_case(np.random.default_rng(8), 8, 3, degenerate=False)
        grid = np.linspace(0, 1, 41)
        n_traj = 600
        # several chunks, the last ending inside an RNG block, and several
        # time slabs per chunk
        chunk = _chunk_size(grid.size, 8)
        assert chunk < n_traj and n_traj % chunk and n_traj % RNG_BLOCK
        assert len(_time_slabs(grid.size, chunk * 8 * 8)) > 1
        model = correlated_model(0.5, 1.0)
        serial = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=9, n_workers=1)
        threaded = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=9, n_workers=3)
        assert serial.mean.tobytes() == threaded.mean.tobytes()
        assert serial.stderr.tobytes() == threaded.stderr.tobytes()

    def test_matches_per_sample_reference(self, monkeypatch):
        # mean and standard errors against U rho U^dagger formed sample by
        # sample, with chunks capped at 4 blocks as in the test above
        monkeypatch.setattr(montecarlo, "MAX_CHUNK", 4 * RNG_BLOCK)
        dec, rho0 = _random_case(np.random.default_rng(12), 3, 2, degenerate=False)
        grid = np.linspace(0, 1.5, 7)
        model = correlated_model(0.7, 0.8)
        n_traj = 300
        # two chunks, the last one ending inside an RNG block
        assert _chunk_size(grid.size, 3) < n_traj and n_traj % RNG_BLOCK
        out = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=21, n_workers=2)
        paths = sample_chi_paths(model, dec.levels, grid, seed=21, n_traj=n_traj).paths
        states = _per_sample_reference(dec, rho0, paths)
        assert np.max(np.abs(out.mean - states.mean(axis=0))) < 1e-14
        for stderr, part in ((out.stderr.real, states.real), (out.stderr.imag, states.imag)):
            expected = part.std(axis=0, ddof=1) / np.sqrt(n_traj)
            assert np.allclose(stderr, expected, rtol=1e-10, atol=1e-15)

    def test_full_chunks_match_per_sample_reference(self):
        # d = 2 on a 3-point grid: nine chunks at the MAX_CHUNK cap, the last
        # (65 trajectories) ending inside an RNG block
        dec, rho0 = _random_case(np.random.default_rng(31), 2, 2, degenerate=False)
        grid = np.array([0.0, 0.4, 1.1])
        model = correlated_model(0.6, 0.9)
        n_traj = 8257
        chunk = _chunk_size(grid.size, 2)
        assert chunk == MAX_CHUNK
        assert -(-n_traj // chunk) == 9 and n_traj % RNG_BLOCK
        out = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=77, n_workers=2)
        serial = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=77, n_workers=1)
        for got, want in ((out.mean, serial.mean), (out.stderr, serial.stderr)):
            assert got.tobytes() == want.tobytes()
        paths = sample_chi_paths(model, dec.levels, grid, seed=77, n_traj=n_traj).paths
        states = _per_sample_reference(dec, rho0, paths)
        assert np.max(np.abs(out.mean - _exact_mean(states))) < 1e-14
        for stderr, part in ((out.stderr.real, states.real), (out.stderr.imag, states.imag)):
            expected = part.std(axis=0, ddof=1) / np.sqrt(n_traj)
            assert np.allclose(stderr, expected, rtol=1e-10, atol=1e-15)

    def test_chunk_size_rule(self):
        # at most MAX_CHUNK, within the element budget, within the slab budget
        # at one time point, a whole number of blocks and never below one
        assert _chunk_size(101, 2) == _chunk_size(3, 2) == MAX_CHUNK
        assert _chunk_size(61, 32) == 64
        assert _chunk_size(101, 64) == RNG_BLOCK
        # few time points: the slab budget binds, not the element budget
        assert _chunk_size(11, 16) == 256
        assert _chunk_size(3, 12) == 448
        for num_points in (1, 3, 11, 41, 1001):
            for dim in range(1, 33):
                chunk = _chunk_size(num_points, dim)
                assert chunk % RNG_BLOCK == 0 and RNG_BLOCK <= chunk <= MAX_CHUNK
                assert chunk * dim * dim <= SLAB_ELEMENT_BUDGET

    @pytest.mark.parametrize("dim", [2, 5])
    def test_diagonal_is_real(self, dim):
        # a non-diagonal Hamiltonian and a full-rank state: the Gram product
        # B B^dagger rounds a sample's diagonal to a few 1e-18 imaginary
        dec, rho0 = _random_case(np.random.default_rng(dim), dim, dim, degenerate=False)
        grid = np.linspace(0, 1.5, 7)
        out = run_ensemble(dec, correlated_model(0.6, 0.7), rho0, grid, n_traj=300, seed=dim)
        diagonal = np.arange(dim)
        for part in (out.mean.imag, out.stderr.imag):
            values = part[:, diagonal, diagonal]
            assert not np.any(values) and not np.any(np.signbit(values))

    def test_initial_point_exact(self, qubit):
        _, dec, rho0 = qubit
        out = run_ensemble(dec, dephasing_model(1.0), rho0, [0.0, 0.5], n_traj=50, seed=2)
        assert np.max(np.abs(out.mean[0] - rho0.matrix)) < 1e-15

    def test_stderr_scales_with_n(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 2, 4)
        model = dephasing_model(0.5)
        small = run_ensemble(dec, model, rho0, grid, n_traj=500, seed=5)
        large = run_ensemble(dec, model, rho0, grid, n_traj=8000, seed=5)
        ratio = np.max(small.stderr.real) / np.max(large.stderr.real)
        assert 2.5 < ratio < 6.5  # expect 4 from the 16x trajectory count

    def test_grid_must_start_at_zero(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(GridMismatch):
            run_ensemble(dec, dephasing_model(1.0), rho0, [0.5, 1.0], n_traj=10, seed=1)

    def test_rejects_zero_workers(self, qubit):
        _, dec, rho0 = qubit
        with pytest.raises(ValueError, match="n_workers"):
            run_ensemble(dec, dephasing_model(1.0), rho0, [0.0, 1.0], n_traj=10, seed=1, n_workers=0)

    def test_rejects_direct_model(self, qubit):
        _, dec, rho0 = qubit
        model = direct_damping_model([0.0, 1.0], [[0.1, 0.1], [0.1, 0.1]])
        with pytest.raises(ConfigError) as info:
            run_ensemble(dec, model, rho0, [0.0, 1.0], n_traj=10, seed=1)
        assert info.value.path == "noise.direct_lambda"

    def test_validates_raw_state(self, qubit):
        _, dec, _ = qubit
        with pytest.raises(NotPositive):
            run_ensemble(
                dec, dephasing_model(1.0), np.diag([1.5, -0.5]), [0.0, 1.0], n_traj=10, seed=1
            )

    def test_as_result_holds_the_mean(self, qubit):
        _, dec, rho0 = qubit
        out = run_ensemble(dec, dephasing_model(1.0), rho0, [0.0, 1.0], n_traj=20, seed=3)
        result = out.as_result()
        assert np.array_equal(result.grid, out.grid)
        assert np.array_equal(result.states, out.mean)


def _merge_stats(a, b):
    """Combine two (count, mean, m2_re, m2_im) accumulators into new arrays."""
    n_a, mean_a, m2re_a, m2im_a = a
    n_b, mean_b, m2re_b, m2im_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    scale = n_a * n_b / n
    m2_re = m2re_a + m2re_b + delta.real**2 * scale
    m2_im = m2im_a + m2im_b + delta.imag**2 * scale
    return n, mean, m2_re, m2_im


def _mirror_lower(mean, m2_re, m2_im):
    """Lower triangles from the upper ones, in place: conj(mean) with the
    imaginary part as 0 - im, and the transposed squared deviations; the
    imaginary parts of the diagonals +0."""
    diagonal = np.arange(mean.shape[-1])
    mean.imag[:, diagonal, diagonal] = m2_im[:, diagonal, diagonal] = 0.0
    k, l = np.triu_indices(mean.shape[-1], 1)
    mean.real[:, l, k] = mean.real[:, k, l]
    mean.imag[:, l, k] = 0.0 - mean.imag[:, k, l]
    m2_re[:, l, k] = m2_re[:, k, l]
    m2_im[:, l, k] = m2_im[:, k, l]


def _slab_start(view):
    """The first time point of a slab view of a run's (T, ...) totals."""
    return (view.ctypes.data - view.base.ctypes.data) // view[0].nbytes


class TestInPlaceFold:
    """run_ensemble's in-place fold: chunk by chunk, the slabs of each shared
    by the workers."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 8])
    def test_matches_reduce_reference(self, monkeypatch, dim, workers):
        # against reduce(_merge_stats) from zero totals over the same
        # chunks' statistics, as _merge receives them: chunk c's under the
        # trajectory count of the chunks before it, chunk 0's under 0; each
        # recorded by its slab's start, whatever order the workers merge the
        # slabs of a chunk in
        chunk = 2 * RNG_BLOCK
        recorded = {}
        merge = montecarlo._merge

        def recording(mean, m2, delta, square, n_a, n):
            start = _slab_start(mean)
            recorded.setdefault(n_a, {})[start] = (n - n_a, delta.copy(), square.copy())
            merge(mean, m2, delta, square, n_a, n)

        monkeypatch.setattr(montecarlo, "_merge", recording)
        monkeypatch.setattr(montecarlo, "MAX_CHUNK", chunk)
        dec, rho0 = _random_case(np.random.default_rng(40 + dim), dim, dim, degenerate=False)
        grid = np.linspace(0, 1.2, 9)
        n_traj = 3 * chunk + 37
        out = run_ensemble(
            dec, correlated_model(0.6, 0.9), rho0, grid, n_traj=n_traj, seed=5, n_workers=workers
        )
        # four chunks, the last one partial; one slab at d = 2; at d = 8 two
        # (8 + 1 points) for one worker, and three (4 + 4 + 1) for two or
        # three, whose two workspaces share the one-worker budget
        chunks = []
        for key in sorted(recorded):
            slabs = [recorded[key][start] for start in sorted(recorded[key])]
            assert len(slabs) == (1 if dim == 2 else 2 if workers == 1 else 3)
            (count,) = {n_b for n_b, _, _ in slabs}
            mean = np.concatenate([slab_mean for _, slab_mean, _ in slabs])
            m2 = np.concatenate([slab_m2 for _, _, slab_m2 in slabs])
            assert len(mean) == grid.size
            chunks.append((count, mean, m2[..., 0::2].copy(), m2[..., 1::2].copy()))
        assert [count for count, *_ in chunks] == [chunk] * 3 + [37]
        zero = np.zeros_like(chunks[0][2])
        totals = (0, np.zeros_like(chunks[0][1]), zero, zero)
        n, mean, m2_re, m2_im = reduce(_merge_stats, chunks, totals)
        assert n == out.n_traj == n_traj
        _mirror_lower(mean, m2_re, m2_im)
        assert out.mean.tobytes() == mean.tobytes()
        assert out.stderr.real.tobytes() == np.sqrt(m2_re / (n - 1) / n).tobytes()
        assert out.stderr.imag.tobytes() == np.sqrt(m2_im / (n - 1) / n).tobytes()

    # (dim, rank, grid points, n_traj): d = 2 on 101 points, three chunks of
    # seven 16-point slabs each at one worker, the last chunk partial, the
    # slabs' budget shared by the workers' workspaces: 13 slabs of 8 points
    # at two workers, 21 of 5 at three; d = 32 on 5 points, four
    # 64-trajectory chunks of one-point slabs, the last of 8 trajectories
    OUT_OF_ORDER = [(2, 1, 101, 3000), (32, 32, 5, 200)]

    @pytest.mark.parametrize("dim, rank, num_points, n_traj", OUT_OF_ORDER)
    def test_slabs_formed_out_of_order_keep_the_bits(
        self, dim, rank, num_points, n_traj, monkeypatch
    ):
        # the first slab of each chunk sleeps before its sample states, so
        # the other workers merge that chunk's later slabs first.  The first
        # slab is the one whose first point is t = 0, where every chi is 0
        # and every phase exactly 1.
        dec, rho0 = _random_case(np.random.default_rng(dim), dim, rank, degenerate=False)
        grid = np.linspace(0, 1.3, num_points)
        model = correlated_model(0.6, 0.7)
        chunk = _chunk_size(num_points, dim)
        assert -(-n_traj // chunk) >= 3 and n_traj % chunk
        assert len(_time_slabs(num_points, chunk * dim * dim)) == (7 if dim == 2 else num_points)
        serial = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=8, n_workers=1)
        sample_states = montecarlo._sample_states
        merge = montecarlo._merge
        merged = []

        def late_first_slab(weights, phases, work):
            if np.all(phases[:, 0] == 1):
                time.sleep(0.2)
            return sample_states(weights, phases, work)

        def spy(mean, m2, delta, square, n_a, n):
            merged.append((n_a, _slab_start(mean)))
            merge(mean, m2, delta, square, n_a, n)

        monkeypatch.setattr(montecarlo, "_sample_states", late_first_slab)
        monkeypatch.setattr(montecarlo, "_merge", spy)
        for workers in (2, 3):
            merged.clear()
            threaded = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=8, n_workers=workers)
            # every later chunk merged a later slab before its first one
            step = 16 // workers if dim == 2 else 1
            for n_a in range(chunk, n_traj, chunk):
                order = [start for key, start in merged if key == n_a]
                assert sorted(order) == list(range(0, num_points, step))
                assert order[0] != 0, (workers, n_a, order)
            for name in ("mean", "stderr"):
                assert getattr(threaded, name).tobytes() == getattr(serial, name).tobytes()

    @pytest.mark.parametrize("failing", [0, 1])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_failing_chunk_releases_the_waiting_ones(self, failing, workers, monkeypatch):
        # d = 2 on 101 points, three chunks of seven slabs at one worker,
        # which the workers' workspaces split into 13 at two workers and 21
        # at three: in chunk ``failing``, the second draw task and then, in a
        # second call, one slab task sleeps and raises while the chunk's other
        # tasks run.  The error must come back as the call's, and the call
        # must end, so it runs in a daemon thread that the test stops waiting
        # for after 60 s.
        dec, rho0 = _random_case(np.random.default_rng(2), 2, 1, degenerate=False)
        grid = np.linspace(0, 1, 101)
        chunk = _chunk_size(grid.size, 2)
        assert len(_time_slabs(grid.size, chunk * 2 * 2)) == 7
        slabs = len(range(0, grid.size, 16 // workers))
        # one draw task per worker, each a contiguous run of whole blocks
        second = failing * chunk + chunk // RNG_BLOCK // workers * RNG_BLOCK
        paths = montecarlo._BrownianField.paths
        sample_states = montecarlo._sample_states

        def failing_draw(self, seed, start, count, out=None):
            if start == second:
                time.sleep(0.1)
                raise RuntimeError("draw failed")
            return paths(self, seed, start, count, out=out)

        def failing_slab(*args):
            if next(calls) == failing * slabs + 3:
                time.sleep(0.1)
                raise RuntimeError("slab failed")
            return sample_states(*args)

        def call():
            try:
                run_ensemble(
                    dec, dephasing_model(0.5), rho0, grid, n_traj=3000, seed=4, n_workers=workers
                )
            except RuntimeError as exc:
                raised.append(str(exc))

        for target, name, spy, error in (
            (montecarlo._BrownianField, "paths", failing_draw, "draw failed"),
            (montecarlo, "_sample_states", failing_slab, "slab failed"),
        ):
            calls = itertools.count()
            raised = []
            with monkeypatch.context() as patch:
                patch.setattr(target, name, spy)
                thread = threading.Thread(target=call, daemon=True)
                thread.start()
                thread.join(timeout=60)
            assert not thread.is_alive()
            assert raised == [error]

    def test_peak_holds_no_chunk_statistics(self, monkeypatch):
        # d = 16 in eight pairs of equal levels on 401 points, a pure state:
        # four 64-trajectory chunks of 201 two-point slabs (101 four-point
        # slabs at one worker, whose budget the two workspaces share), whose
        # (T, d, d) mean and (T, d, 2d) squared deviations outweigh the chi
        # array and a workspace.  A run holds those once, its one chi array,
        # two slab workspaces and little else, however the workers' timing
        # falls: also when chunk 0's draw sleeps 0.3 s.
        built, chis = [], {}
        paths = montecarlo._BrownianField.paths

        class Workspace(montecarlo._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def late_first_chunk(self, seed, start, count, out=None):
            if late and start == 0:
                time.sleep(0.3)
            chis[id(out.base)] = out.base.nbytes
            return paths(self, seed, start, count, out=out)

        monkeypatch.setattr(montecarlo, "_Workspace", Workspace)
        monkeypatch.setattr(montecarlo._BrownianField, "paths", late_first_chunk)
        dec, rho0 = _random_case(np.random.default_rng(16), 16, 1, degenerate=True)
        grid = np.linspace(0, 1, 401)
        for late in (False, True):
            built.clear()
            chis.clear()
            tracemalloc.start()
            try:
                out = run_ensemble(
                    dec, dephasing_model(0.5), rho0, grid, n_traj=256, seed=6, n_workers=2
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(built) == 2 and len(chis) == 1
            (chi,) = chis.values()
            # each buffer once: the phases live in the states buffer
            workspace = sum(a.nbytes for a in vars(built[0]).values() if a.base is None)
            statistics = out.mean.nbytes + out.stderr.nbytes
            assert statistics > chi + workspace
            assert peak <= 1.25 * (statistics + chi + 2 * workspace), (late, peak)

    def test_one_chunk_shares_its_slabs(self, monkeypatch):
        # d = 2 on 101 points with 1000 trajectories: one chunk of seven
        # 16-point slabs at one worker, which two workers, sharing its
        # budget, take as thirteen slabs of 8 points on two threads, byte
        # for byte as one
        dec, rho0 = _random_case(np.random.default_rng(3), 2, 2, degenerate=False)
        grid = np.linspace(0, 1, 101)
        chunk = _chunk_size(grid.size, 2)
        assert 1000 <= chunk and len(_time_slabs(grid.size, 1000 * 2 * 2)) == 7
        model = correlated_model(0.6, 0.7)
        serial = run_ensemble(dec, model, rho0, grid, n_traj=1000, seed=11, n_workers=1)
        sample_states = montecarlo._sample_states
        threads = []

        def spy(*args):
            threads.append(threading.get_ident())
            time.sleep(0.01)
            return sample_states(*args)

        monkeypatch.setattr(montecarlo, "_sample_states", spy)
        threaded = run_ensemble(dec, model, rho0, grid, n_traj=1000, seed=11, n_workers=2)
        assert len(threads) == 13 and len(set(threads)) == 2
        for name in ("mean", "stderr"):
            assert getattr(threaded, name).tobytes() == getattr(serial, name).tobytes()


class TestCompare:
    def test_passes_on_matching_model(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 2, 6)
        model = dephasing_model(0.5)
        ensemble = run_ensemble(dec, model, rho0, grid, n_traj=4000, seed=90125)
        analytic = averaged_trajectory(dec, model, rho0, grid)
        report = compare_to_analytic(ensemble, analytic)
        assert report.passed is True
        assert report.max_z <= 4.0

    def test_fails_on_wrong_model(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 2, 6)
        ensemble = run_ensemble(dec, dephasing_model(0.5), rho0, grid, n_traj=4000, seed=90125)
        wrong = averaged_trajectory(dec, dephasing_model(1.0), rho0, grid)
        report = compare_to_analytic(ensemble, wrong)
        assert report.passed is False
        assert report.max_z > 4.0

    def test_frozen_entries_do_not_inflate_z(self, four_level):
        # populations are deterministic: rounding-level deviation over
        # rounding-level stderr must not register as disagreement
        _, dec, rho0 = four_level
        grid = np.linspace(0, 1.5, 4)
        model = correlated_model(0.8, 1.0)
        ensemble = run_ensemble(dec, model, rho0, grid, n_traj=2000, seed=44)
        report = compare_to_analytic(ensemble, averaged_trajectory(dec, model, rho0, grid))
        assert report.passed is True

    def test_insufficient_trajectories(self, qubit):
        # one trajectory gives no standard errors, so no ensemble to compare
        _, dec, rho0 = qubit
        with pytest.raises(ValueError, match="n_traj must be >= 2"):
            run_ensemble(dec, dephasing_model(0.5), rho0, [0.0, 1.0], n_traj=1, seed=1)

    def test_nan_reference_fails(self, qubit):
        # a NaN deviation is no agreement, however small the slack: over a
        # positive stderr it scores z = inf like any disagreement
        _, dec, rho0 = qubit
        grid = np.linspace(0, 2, 6)
        ensemble = run_ensemble(dec, dephasing_model(0.5), rho0, grid, n_traj=200, seed=90125)
        nan = EvolutionResult(grid, np.full((6, 2, 2), complex(np.nan, np.nan)))
        report = compare_to_analytic(ensemble, nan)
        assert report.passed is False
        assert report.max_z == np.inf
        assert np.all(report.max_z_per_time == np.inf)

    def test_nan_mean_fails(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 2, 6)
        model = dephasing_model(0.5)
        ensemble = run_ensemble(dec, model, rho0, grid, n_traj=200, seed=90125)
        analytic = averaged_trajectory(dec, model, rho0, grid)
        assert compare_to_analytic(ensemble, analytic).passed is True
        mean = ensemble.mean.copy()
        mean.real[3, 0, 1] = np.nan
        broken = dataclasses.replace(ensemble, mean=mean)
        assert compare_to_analytic(broken, analytic).passed is False

    def test_one_pass_matches_per_component_z(self):
        # a hand-built ensemble: a zero-stderr deviation above the slack at
        # t[1] (z = inf), one below it at t[2] (z = 0), ordinary components
        # elsewhere, all against z taken one component at a time
        rng = np.random.default_rng(23)
        grid = np.array([0.0, 0.5, 1.0])
        shape = (3, 3, 3)
        reference = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stderr = np.empty(shape, dtype=complex)
        stderr.real, stderr.imag = rng.uniform(0.01, 0.1, (2,) + shape)
        mean = reference + 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        stderr[1, 0, 2] = complex(stderr[1, 0, 2].real, 0.0)
        mean[1, 0, 2] = complex(mean[1, 0, 2].real, reference[1, 0, 2].imag + 1e-9)
        stderr[2, 1, 1] = complex(0.0, stderr[2, 1, 1].imag)
        mean[2, 1, 1] = complex(reference[2, 1, 1].real + 1e-13, mean[2, 1, 1].imag)
        ensemble = EnsembleResult(grid, mean, stderr, n_traj=100, seed=0)
        report = compare_to_analytic(ensemble, EvolutionResult(grid, reference))

        devs, zs = [], []
        for part in (np.real, np.imag):
            dev = np.abs(part(mean) - part(reference))
            error = part(stderr)
            z = np.zeros_like(dev)
            genuine, positive = dev > 1e-12, error > 0
            z[genuine & positive] = dev[genuine & positive] / error[genuine & positive]
            z[genuine & ~positive] = np.inf
            devs.append(dev)
            zs.append(z)
        z_all = np.stack(zs, axis=-1)
        assert zs[1][1, 0, 2] == np.inf and zs[0][2, 1, 1] == 0.0
        assert report.max_z == float(np.max(z_all)) == np.inf
        assert report.frac_above_tail == float(np.mean(z_all > 3.0))
        assert np.array_equal(report.max_z_per_time, z_all.reshape(3, -1).max(axis=1))
        assert np.isfinite(report.max_z_per_time[[0, 2]]).all()
        max_abs = np.maximum(*devs).reshape(3, -1).max(axis=1)
        assert report.max_abs_difference.tobytes() == max_abs.tobytes()
        assert report.passed is False

    def test_grid_mismatch(self, qubit):
        _, dec, rho0 = qubit
        model = dephasing_model(0.5)
        ensemble = run_ensemble(dec, model, rho0, [0.0, 1.0], n_traj=10, seed=1)
        other = averaged_trajectory(dec, model, rho0, [0.0, 2.0])
        with pytest.raises(GridMismatch):
            compare_to_analytic(ensemble, other)

    def test_dimension_mismatch(self, qubit):
        # a 3-level reference on the qubit ensemble's grid
        _, dec, rho0 = qubit
        ensemble = run_ensemble(dec, dephasing_model(0.5), rho0, [0.0, 1.0], n_traj=10, seed=1)
        dec3 = eigendecompose(HermitianOperator(np.diag([0.0, 1.0, 2.0])))
        other = averaged_trajectory(
            dec3, dephasing_model(0.5), DensityMatrix.maximally_mixed(3), [0.0, 1.0]
        )
        with pytest.raises(DimensionMismatch):
            compare_to_analytic(ensemble, other)

    def test_to_dict_fields(self, qubit):
        _, dec, rho0 = qubit
        model = dephasing_model(0.5)
        grid = [0.0, 1.0]
        ensemble = run_ensemble(dec, model, rho0, grid, n_traj=100, seed=6)
        payload = compare_to_analytic(ensemble, averaged_trajectory(dec, model, rho0, grid)).to_dict()
        assert payload["n_traj"] == 100
        assert payload["thresholds"] == {"max_z": 4.0, "tail_z": 3.0, "tail_fraction": 0.05}
        assert len(payload["per_time"]) == 2
