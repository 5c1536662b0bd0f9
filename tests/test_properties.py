"""Property-based cross-route checks: RK4 on the master equation against the
analytic propagator, on random Hamiltonians, noise models and grids.

Derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from noisytime import (  # noqa: E402
    CorrelationPreset,
    DensityMatrix,
    DriftPreset,
    HermitianOperator,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    averaged_trajectory,
    build_generator,
    direct_damping_model,
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


@st.composite
def noise_models(draw, levels):
    """A time-independent model with an affine drift: a nonnegative direct
    table over ``levels``, or a uniform, gaussian or exponential correlation
    with a linear or degree-2 sigma_theta and a constant sigma_time in [0, 2]."""
    drift = DriftPreset.affine(draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.0, 1.0)))
    kind = draw(st.sampled_from(["uniform", "gaussian", "exponential", "direct"]))
    if kind == "direct":
        m = len(levels)
        entries = draw(st.lists(st.floats(0.0, 1.0), min_size=m * m, max_size=m * m))
        table = np.reshape(entries, (m, m))
        return direct_damping_model(levels, table + table.T, drift=drift)
    if kind == "uniform":
        correlation = CorrelationPreset.uniform()
    elif kind == "gaussian":
        correlation = CorrelationPreset.gaussian(draw(st.floats(0.0, 3.0)))
    else:
        correlation = CorrelationPreset.exponential(draw(st.floats(0.1, 3.0)))
    if draw(st.booleans()):
        sigma_theta = SigmaThetaPreset.linear(draw(st.floats(0.0, 1.5)))
    else:
        coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
        sigma_theta = SigmaThetaPreset.polynomial(coeffs)
    return NoiseModel(
        drift_h=drift,
        sigma_theta=sigma_theta,
        sigma_time=SigmaTimePreset.constant(draw(st.floats(0.0, 2.0))),
        correlation_g=correlation,
    )


@pytest.mark.filterwarnings("ignore::noisytime.DissipativeTraceLoss")
@settings(max_examples=50, derandomize=True, deadline=None)
@given(system=systems(), grid=grids(), data=st.data())
def test_rk4_matches_analytic_and_stays_a_state(system, grid, data):
    hamiltonian, rho0 = system
    dec = eigendecompose(hamiltonian)
    model = data.draw(noise_models(dec.levels))
    ode = integrate(build_generator(dec, model), rho0, grid, decomposition=dec).states
    analytic = averaged_trajectory(dec, model, rho0, grid).states
    assert np.max(np.abs(ode - analytic)) <= 1e-8
    assert np.max(np.abs(ode - np.conj(np.swapaxes(ode, 1, 2)))) <= 1e-12
    if not model.is_dissipative:
        assert np.max(np.abs(np.trace(ode, axis1=1, axis2=2) - 1.0)) <= 1e-12
