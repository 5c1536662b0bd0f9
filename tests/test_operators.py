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
    from_energy_basis,
    to_energy_basis,
    validate_density,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (raw + raw.conj().T)


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


class TestEigendecompose:
    def test_levels_ascending_and_complete(self):
        op = HermitianOperator(random_hermitian(5, 11))
        dec = eigendecompose(op)
        assert np.all(np.diff(dec.levels) > 0)
        assert np.allclose(dec.projectors.sum(axis=0), np.eye(5), atol=1e-12)
        assert np.allclose(dec.reconstruct(), op.matrix, atol=1e-12)

    def test_projector_orthogonality(self):
        dec = eigendecompose(HermitianOperator(random_hermitian(4, 3)))
        for j in range(dec.num_levels):
            for k in range(dec.num_levels):
                product = dec.projectors[j] @ dec.projectors[k]
                target = dec.projectors[j] if j == k else 0.0
                assert np.allclose(product, target, atol=1e-12)

    def test_degenerate_levels_merge(self):
        op = HermitianOperator(np.diag([1.0, 1.0 + 1e-12, 4.0]))
        dec = eigendecompose(op)
        assert dec.num_levels == 2
        assert tuple(dec.multiplicities) == (2, 1)
        assert np.trace(dec.projectors[0]).real == pytest.approx(2.0, abs=1e-12)

    def test_degeneracy_tol_is_a_knob(self):
        op = HermitianOperator(np.diag([1.0, 1.5, 4.0]))
        assert eigendecompose(op).num_levels == 3
        assert eigendecompose(op, degeneracy_tol=1.0).num_levels == 2

    def test_column_levels_and_index(self):
        dec = eigendecompose(HermitianOperator(np.diag([2.0, 2.0, 5.0])))
        assert np.allclose(dec.column_levels(), [2.0, 2.0, 5.0])
        assert list(dec.level_index) == [0, 0, 1]

    def test_eigenvector_phase_fixed(self):
        # Largest-magnitude component of each column is real and positive,
        # so decompositions are reproducible across runs.
        dec = eigendecompose(HermitianOperator(random_hermitian(4, 99)))
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
