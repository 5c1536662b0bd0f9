"""Property-based cross-route checks: RK4 on the master equation against the
analytic propagator, on random Hamiltonians, noise parameters and grids.

Derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from noisytime import (  # noqa: E402
    DensityMatrix,
    HermitianOperator,
    averaged_trajectory,
    build_correlated,
    correlated_model,
    eigendecompose,
    integrate,
)


@st.composite
def systems(draw):
    """Random Hermitian H (d = 1..6, levels in [-2, 2], some repeated) and a
    full-rank state."""
    d = draw(st.integers(1, 6))
    distinct = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=d))
    # Assigning d eigenvectors to at most d levels forces degeneracies.
    assignment = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    hamiltonian = q @ np.diag(np.asarray(distinct)[assignment]) @ q.conj().T
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return HermitianOperator(hamiltonian), DensityMatrix(rho / np.trace(rho).real)


@st.composite
def grids(draw):
    """Uneven grids from 0 to t_end <= 3 with up to 8 intervals."""
    t_end = draw(st.floats(0.05, 3.0))
    weights = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=8)))
    return np.concatenate([[0.0], np.cumsum(weights / weights.sum() * t_end)])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    system=systems(),
    gamma=st.floats(0.0, 2.0),
    tau=st.floats(0.0, 3.0),
    grid=grids(),
)
def test_rk4_matches_analytic_and_stays_a_state(system, gamma, tau, grid):
    hamiltonian, rho0 = system
    dec = eigendecompose(hamiltonian)
    ode = integrate(build_correlated(dec, gamma, tau), rho0, grid, decomposition=dec).states
    analytic = averaged_trajectory(dec, correlated_model(gamma, tau), rho0, grid).states
    assert np.max(np.abs(ode - analytic)) <= 1e-8
    assert np.max(np.abs(ode - np.conj(np.swapaxes(ode, 1, 2)))) <= 1e-12
    assert np.max(np.abs(np.trace(ode, axis1=1, axis2=2) - 1.0)) <= 1e-12
