import numpy as np
import pytest

from noisytime import (
    DensityMatrix,
    DimensionMismatch,
    HermitianOperator,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    eigendecompose,
)
from noisytime import operators
from noisytime.operators import (
    DEGENERACY_TOL,
    _fix_column_phases,
    _single_threaded_blas,
    from_energy_basis,
    to_energy_basis,
    validate_density,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (raw + raw.conj().T)


def _fix_column_phases_loop(vectors):
    """Column-by-column reference of operators._fix_column_phases."""
    fixed = vectors.copy()
    for col in range(fixed.shape[1]):
        value = fixed[np.argmax(np.abs(fixed[:, col])), col]
        fixed[:, col] *= np.conj(value) / np.abs(value)
    return fixed


class TestHermitianOperator:
    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian) as info:
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
        assert info.value.violation > 0.1

    def test_symmetrizes_roundoff(self):
        almost = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
        op = HermitianOperator(almost)
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        for matrix in ([[0.5, bad], [bad, 0.5]], [[bad, 0.0], [0.0, 0.5]]):
            with pytest.raises(NotHermitian):
                HermitianOperator(matrix)
            with pytest.raises(NotHermitian):
                DensityMatrix(matrix)


def _projectors(dec):
    """P_k, the sum of v v^dagger over the eigenvector columns of level k."""
    columns = [dec.eigenvectors[:, dec.level_index == k] for k in range(dec.num_levels)]
    return [v @ v.conj().T for v in columns]


def _eigendecompose_loop(matrix):
    """Levels, level index and eigenvectors by a Python loop over the gaps."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eigvecs = _fix_column_phases(eigvecs)
    groups = [[0]]
    for i in range(1, eigvals.shape[0]):
        if eigvals[i] - eigvals[groups[-1][-1]] <= DEGENERACY_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    levels = np.empty(len(groups))
    level_index = np.empty(eigvals.shape[0], dtype=int)
    for k, group in enumerate(groups):
        levels[k] = float(np.mean(eigvals[group]))
        level_index[group] = k
    return levels, level_index, eigvecs


def _rotated(eigvals, seed):
    """Q diag(eigvals) Q^dagger for a random unitary Q."""
    q = np.linalg.qr(random_hermitian(len(eigvals), seed) + 1j * np.eye(len(eigvals)))[0]
    return q @ np.diag(eigvals) @ q.conj().T


SPECTRA = {
    **{f"random-d{dim}": random_hermitian(dim, 100 + dim) for dim in (1, 2, 3, 5, 17, 64)},
    "identity-9": np.eye(9),
    "rotated-triple": _rotated([-1.0, -1.0, -1.0, 0.5, 2.0, 2.0], 5),
    "consecutive-gap-chain": np.diag([0.0, 0.6e-9, 1.2e-9, 1.0]),
    "signed-zero-pair": np.diag([-0.0, 0.0, 1.0]),
}


class TestEigendecompose:
    def test_levels_ascending_and_complete(self):
        op = HermitianOperator(random_hermitian(5, 11))
        dec = eigendecompose(op)
        assert np.all(np.diff(dec.levels) > 0)
        assert np.allclose(sum(_projectors(dec)), np.eye(5), atol=1e-12)
        assert np.allclose(dec.reconstruct(), op.matrix, atol=1e-12)

    def test_projector_orthogonality(self):
        projectors = _projectors(eigendecompose(HermitianOperator(random_hermitian(4, 3))))
        for j, pj in enumerate(projectors):
            for k, pk in enumerate(projectors):
                assert np.allclose(pj @ pk, pj if j == k else 0.0, atol=1e-12)

    def test_degenerate_levels_merge(self):
        op = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 4.0]))
        dec = eigendecompose(op)
        assert dec.num_levels == 2
        assert tuple(np.bincount(dec.level_index)) == (2, 1)
        assert np.trace(_projectors(dec)[0]).real == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(dec.reconstruct(), op.matrix, atol=1e-12)

    def test_degeneracy_tol_merges_close_levels(self):
        close = HermitianOperator(np.diag([1.0, 1.0 + 0.5 * DEGENERACY_TOL, 4.0]))
        assert tuple(np.bincount(eigendecompose(close).level_index)) == (2, 1)
        apart = HermitianOperator(np.diag([1.0, 1.0 + 2.0 * DEGENERACY_TOL, 4.0]))
        assert eigendecompose(apart).num_levels == 3
        assert eigendecompose(HermitianOperator(np.diag([1.0, 1.5, 4.0]))).num_levels == 3

    def test_consecutive_gaps_chain_into_one_level(self):
        # 0 and 1.2e-9 are further apart than the tolerance, but each gap is not
        dec = eigendecompose(HermitianOperator(SPECTRA["consecutive-gap-chain"]))
        assert list(dec.level_index) == [0, 0, 0, 1]
        assert dec.levels[0] == np.mean([0.0, 0.6e-9, 1.2e-9])

    @pytest.mark.parametrize("name", SPECTRA)
    def test_keeps_the_bytes_of_the_loop(self, name):
        op = HermitianOperator(SPECTRA[name])
        dec = eigendecompose(op)
        levels, level_index, eigvecs = _eigendecompose_loop(op.matrix)
        assert dec.levels.dtype == levels.dtype and dec.levels.tobytes() == levels.tobytes()
        assert dec.level_index.dtype == level_index.dtype
        assert dec.level_index.tobytes() == level_index.tobytes()
        assert dec.eigenvectors.tobytes() == eigvecs.tobytes()
        assert not any(a.flags.writeable for a in (dec.levels, dec.eigenvectors, dec.level_index))

    def test_column_levels_and_index(self):
        dec = eigendecompose(HermitianOperator(np.diag([2.0, 2.0, 5.0])))
        assert np.allclose(dec.column_levels(), [2.0, 2.0, 5.0])
        assert list(dec.level_index) == [0, 0, 1]

    def test_eigenvector_phase_fixed(self):
        # Largest-magnitude component of each column is real and positive,
        # so decompositions are reproducible across runs.
        for dim, seed in ((4, 99), (32, 7)):
            hamiltonian = random_hermitian(dim, seed)
            raw = np.linalg.eigh(hamiltonian)[1]
            assert np.array_equal(_fix_column_phases(raw), _fix_column_phases_loop(raw))
            dec = eigendecompose(HermitianOperator(hamiltonian))
            for col in dec.eigenvectors.T:
                pivot = col[np.argmax(np.abs(col))]
                assert pivot.imag == pytest.approx(0.0, abs=1e-12)
                assert pivot.real > 0


class TestValidateDensity:
    def test_order_hermitian_first(self):
        bad = np.array([[2.0, 1.0], [0.0, -1.0]])
        with pytest.raises(NotHermitian):
            validate_density(bad)

    def test_trace(self):
        with pytest.raises(TraceNotOne) as info:
            validate_density(np.diag([0.7, 0.7]))
        assert info.value.violation == pytest.approx(0.4, abs=1e-12)

    def test_positivity(self):
        # violation carries the offending (most negative) eigenvalue
        with pytest.raises(NotPositive) as info:
            validate_density(np.diag([1.5, -0.5]))
        assert info.value.violation == pytest.approx(-0.5, abs=1e-12)

    def test_accepts_valid(self):
        validate_density(np.diag([0.25, 0.75]))


class TestDensityMatrix:
    def test_pure_normalizes(self):
        rho = DensityMatrix.pure([2.0, 0.0])
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_pure_rejects_zero_vector(self):
        with pytest.raises(NotPositive):
            DensityMatrix.pure([0.0, 0.0])

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(3)
        assert np.allclose(rho.matrix, np.eye(3) / 3)

    def test_constructor_validates(self):
        with pytest.raises(NotPositive):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_unchecked_bypasses_validation(self):
        # Sub-normalized states come out of population-damping evolutions.
        rho = DensityMatrix.unchecked(np.diag([0.3, 0.3]))
        assert np.trace(rho.matrix).real == pytest.approx(0.6)


class TestBasisChange:
    def test_exchange_hamiltonian_plus_state(self):
        # Levels sort ascending (-1 before +1), so the +1 eigenstate |+>
        # lands in the second energy slot.
        op = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        dec = eigendecompose(op)
        rho = DensityMatrix.pure([1.0, 1.0])
        rotated = to_energy_basis(rho.matrix, dec)
        assert np.allclose(rotated, np.diag([0.0, 1.0]), atol=1e-12)

    def test_round_trip(self):
        dec = eigendecompose(HermitianOperator(random_hermitian(4, 5)))
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        back = from_energy_basis(to_energy_basis(rho, dec), dec)
        assert np.allclose(back, rho, atol=1e-12)

    def test_diagonal_hamiltonian_is_identity_rotation(self):
        dec = eigendecompose(HermitianOperator(np.diag([0.0, 1.0])))
        rho = DensityMatrix.pure([1.0, 1.0]).matrix
        assert np.allclose(to_energy_basis(rho, dec), rho, atol=0.0)


class TestSingleThreadedBlas:
    def test_nested_pins_restore_the_outer_value(self, blas_threads):
        with _single_threaded_blas():
            assert blas_threads() == 1
            with _single_threaded_blas():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restored_when_the_body_raises(self, blas_threads):
        with pytest.raises(RuntimeError):
            with _single_threaded_blas():
                raise RuntimeError("inside the pin")
        assert blas_threads() == 2

    def test_does_nothing_without_openblas(self, blas_threads, monkeypatch):
        monkeypatch.setattr(operators, "_openblas_threads", lambda: None)
        with _single_threaded_blas():
            assert blas_threads() == 2
        assert blas_threads() == 2
