import numpy as np
import pytest

from noisytime import (
    DensityMatrix,
    DimensionMismatch,
    HermitianOperator,
    eigendecompose,
    energy_expectation,
)
from noisytime.metrics import coherence_l1, purity


def test_purity_limits():
    assert purity(DensityMatrix.pure([1.0, 0.0])) == pytest.approx(1.0)
    assert purity(DensityMatrix.maximally_mixed(4)) == pytest.approx(0.25)


def test_purity_accepts_raw_matrix():
    assert purity(np.diag([0.5, 0.5])) == pytest.approx(0.5)


def test_coherence_l1(qubit):
    _, dec, rho0 = qubit
    assert coherence_l1(rho0, dec) == pytest.approx(1.0)
    assert coherence_l1(DensityMatrix.maximally_mixed(2), dec) == pytest.approx(0.0)


def test_coherence_l1_measured_in_energy_basis():
    # |+><+| is an eigenstate of the exchange Hamiltonian: no coherence there
    dec = eigendecompose(HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert coherence_l1(DensityMatrix.pure([1.0, 1.0]), dec) == pytest.approx(0.0, abs=1e-12)


def test_energy_expectation(qubit):
    hamiltonian, _, rho0 = qubit
    assert energy_expectation(rho0, hamiltonian) == pytest.approx(0.5)
    assert energy_expectation(rho0.matrix, hamiltonian.matrix) == pytest.approx(0.5)


def test_energy_dimension_mismatch(qubit):
    hamiltonian, _, _ = qubit
    with pytest.raises(DimensionMismatch):
        energy_expectation(DensityMatrix.maximally_mixed(3), hamiltonian)



def test_stack_gives_the_per_state_values():
    # a (T, d, d) stack returns one value per state, bit for bit the same
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    states = raw @ np.conj(np.swapaxes(raw, -1, -2))
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    hamiltonian = HermitianOperator(0.5 * (h + h.conj().T))
    dec = eigendecompose(hamiltonian)
    for value, one in (
        (purity(states), purity),
        (coherence_l1(states, dec), lambda s: coherence_l1(s, dec)),
        (energy_expectation(states, hamiltonian), lambda s: energy_expectation(s, hamiltonian)),
    ):
        assert value.shape == (5,)
        assert value.tolist() == [one(s) for s in states]
