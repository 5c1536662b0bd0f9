import math

import numpy as np
import pytest

from noisytime import (
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
    load_config,
    sample_chi_paths,
    to_energy_basis,
    unitary_from_phases,
)
from noisytime import montecarlo
from noisytime.montecarlo import (
    MAX_CHUNK,
    SLAB_ELEMENT_BUDGET,
    _chunk_size,
    _sample_states,
    _slab_phases,
    _slab_size,
    _state_factor,
)
from noisytime.noise import RNG_BLOCK


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

    def test_wrong_length(self, qubit):
        _, dec, _ = qubit
        with pytest.raises(GridMismatch):
            unitary_from_phases(dec, [0.1, 0.2, 0.3])


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
            phases = _slab_phases(chi, dec.level_index)
            assert np.max(np.abs(phases - np.exp(-1j * chi)[:, dec.level_index])) < 1e-15
            states = _sample_states(dec.eigenvectors, factor, phases)
            for c, state, levels_chi in zip(phases, states, chi):
                assert np.max(np.abs(state - _dense_sample(dec, rho_e, c))) < 1e-13
                u = unitary_from_phases(dec, levels_chi)
                assert np.max(np.abs(state - u @ rho.matrix @ u.conj().T)) < 1e-13

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
        ground = DensityMatrix(dec.projectors[0] / 2)
        assert _state_factor(to_energy_basis(ground.matrix, dec)).shape == (4, 2)
        mixed = DensityMatrix.maximally_mixed(4)
        assert _state_factor(to_energy_basis(mixed.matrix, dec)).shape == (4, 4)


class TestRunEnsemble:
    def test_reproducible(self, qubit):
        _, dec, rho0 = qubit
        grid = np.linspace(0, 1, 5)
        model = dephasing_model(0.5)
        a = run_ensemble(dec, model, rho0, grid, n_traj=300, seed=17)
        b = run_ensemble(dec, model, rho0, grid, n_traj=300, seed=17)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr_re, b.stderr_re)
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
        assert _slab_size(chunk, 8) < grid.size
        model = correlated_model(0.5, 1.0)
        serial = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=9, n_workers=1)
        threaded = run_ensemble(dec, model, rho0, grid, n_traj=n_traj, seed=9, n_workers=3)
        assert serial.mean.tobytes() == threaded.mean.tobytes()
        assert serial.stderr_re.tobytes() == threaded.stderr_re.tobytes()
        assert serial.stderr_im.tobytes() == threaded.stderr_im.tobytes()

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
        for stderr, part in ((out.stderr_re, states.real), (out.stderr_im, states.imag)):
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
        for got, want in ((out.mean, serial.mean), (out.stderr_re, serial.stderr_re)):
            assert got.tobytes() == want.tobytes()
        paths = sample_chi_paths(model, dec.levels, grid, seed=77, n_traj=n_traj).paths
        states = _per_sample_reference(dec, rho0, paths)
        assert np.max(np.abs(out.mean - _exact_mean(states))) < 1e-14
        for stderr, part in ((out.stderr_re, states.real), (out.stderr_im, states.imag)):
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
        ratio = np.max(small.stderr_re) / np.max(large.stderr_re)
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
        model = direct_damping_model([0.0, 1.0], [[0.1, 0.0], [0.0, 0.1]])
        with pytest.raises(ValueError):
            run_ensemble(dec, model, rho0, [0.0, 1.0], n_traj=10, seed=1)

    def test_validates_raw_state(self, qubit):
        _, dec, _ = qubit
        with pytest.raises(NotPositive):
            run_ensemble(
                dec, dephasing_model(1.0), np.diag([1.5, -0.5]), [0.0, 1.0], n_traj=10, seed=1
            )

    def test_as_result_provenance(self, qubit):
        _, dec, rho0 = qubit
        out = run_ensemble(dec, dephasing_model(1.0), rho0, [0.0, 1.0], n_traj=20, seed=3)
        assert out.as_result().provenance == "montecarlo"


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
        _, dec, rho0 = qubit
        grid = [0.0, 1.0]
        model = dephasing_model(0.5)
        ensemble = run_ensemble(dec, model, rho0, grid, n_traj=1, seed=1)
        report = compare_to_analytic(ensemble, averaged_trajectory(dec, model, rho0, grid))
        assert report.passed is None
        assert "pass" not in report.to_dict()

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
