"""The routes' shared input contract: one time-grid rule, one scalar-time rule
and one state check."""

import numpy as np
import pytest

from noisytime import (
    DensityMatrix,
    DimensionMismatch,
    DissipativeTraceLoss,
    GridMismatch,
    HermitianOperator,
    NotPositive,
    averaged_state,
    averaged_trajectory,
    build_generator,
    correlated_model,
    dephasing_model,
    direct_damping_model,
    eigendecompose,
    integrate,
    lambda_pair,
    moment_report,
    run_ensemble,
    sample_chi_paths,
    sample_phase_differences,
    semigroup_defect,
)

MODEL = dephasing_model(1.0)
DISSIPATIVE = direct_damping_model([0.0, 1.0], [[0.6, 0.7], [0.7, 0.8]])
BAD_TIMES = pytest.mark.parametrize(
    "t", [np.nan, np.inf, -np.inf, -0.1], ids=["nan", "inf", "-inf", "negative"]
)


def _analytic(dec, rho0, grid):
    return averaged_trajectory(dec, MODEL, rho0, grid)


def _ode(dec, rho0, grid):
    return integrate(build_generator(dec, MODEL), rho0, grid, decomposition=dec)


def _ensemble(dec, rho0, grid):
    return run_ensemble(dec, MODEL, rho0, grid, n_traj=10, seed=1).as_result()


def _chi_paths(dec, rho0, grid):
    return sample_chi_paths(MODEL, dec.levels, grid, seed=1, n_traj=4)


def _state(dec, rho0, grid):
    return averaged_state(dec, MODEL, rho0, 1.0)


GRID_ROUTES = [_analytic, _ode, _ensemble, _chi_paths]
STATE_ROUTES = [_state, _analytic, _ode, _ensemble]


@pytest.mark.parametrize("route", GRID_ROUTES, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "grid",
    [[0.5, 1.0], [0.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [0.0, 1.0, 0.5]],
    ids=["late-start", "one-point", "nan", "inf", "decreasing"],
)
def test_bad_grid_raises(qubit, route, grid):
    _, dec, rho0 = qubit
    with pytest.raises(GridMismatch):
        route(dec, rho0, grid)


@pytest.mark.parametrize("route", GRID_ROUTES, ids=lambda f: f.__name__)
def test_result_grid_is_a_copy(qubit, route):
    _, dec, rho0 = qubit
    grid = np.linspace(0.0, 1.0, 5)
    result = route(dec, rho0, grid)
    grid[1] = 7.0
    assert np.array_equal(result.grid, [0.0, 0.25, 0.5, 0.75, 1.0])


@BAD_TIMES
@pytest.mark.parametrize("model", [MODEL, DISSIPATIVE], ids=["brownian", "dissipative"])
def test_bad_time_raises(qubit, model, t):
    _, dec, rho0 = qubit
    for call in (
        lambda: averaged_state(dec, model, rho0, t),
        lambda: semigroup_defect(dec, model, rho0, t, 0.5),
        lambda: semigroup_defect(dec, model, rho0, 0.5, t),
        lambda: lambda_pair(model, t, 0.0, 1.0),
        lambda: sample_phase_differences(model, t, 0.0, 1.0, 5, 1),
        lambda: moment_report(model, t, 0.0, 1.0, 5, 1),
    ):
        with pytest.raises(ValueError, match="finite and >= 0"):
            call()


@pytest.mark.parametrize("route", STATE_ROUTES, ids=lambda f: f.__name__)
def test_raw_non_state_raises(qubit, route):
    _, dec, _ = qubit
    with pytest.raises(NotPositive):
        route(dec, np.diag([1.5, -0.5]), [0.0, 1.0])


@pytest.mark.parametrize("route", STATE_ROUTES, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "state", [np.eye(3) / 3, DensityMatrix.maximally_mixed(3)], ids=["raw", "density-matrix"]
)
def test_wrong_dimension_raises(qubit, route, state):
    _, dec, _ = qubit
    with pytest.raises(DimensionMismatch):
        route(dec, state, [0.0, 1.0])


@pytest.mark.parametrize("route", [_analytic, _ode, _ensemble], ids=lambda f: f.__name__)
def test_unchecked_state_passes_as_is(qubit, route):
    # A sub-normalized state, as a dissipative evolution leaves it.
    _, dec, _ = qubit
    result = route(dec, DensityMatrix.unchecked(np.diag([0.4, 0.3])), [0.0, 1.0])
    assert np.allclose(np.trace(result.states, axis1=1, axis2=2), 0.7)


def _random_system(rng, dim, full_rank, degenerate):
    """A non-diagonal Hamiltonian (levels in equal pairs if ``degenerate``)
    and a pure or full-rank state."""
    levels = 0.5 * (np.arange(dim) // 2) if degenerate else np.sort(rng.normal(size=dim))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    dec = eigendecompose(HermitianOperator(q @ np.diag(levels) @ q.conj().T))
    w = rng.normal(size=(dim, dim if full_rank else 1))
    w = w + 1j * rng.normal(size=w.shape)
    rho = w @ w.conj().T
    return dec, DensityMatrix(0.5 * (rho + rho.conj().T) / np.trace(rho).real)


def _assert_hermitian_to_the_bit(states):
    """Entry (l, k) is (Re S_kl, 0 - Im S_kl) and the diagonal's imaginary part
    +0, compared as bits, so that -0 and +0 differ: the rule by which the CSV
    writer copies a lower triangle's texts."""
    k, l = np.triu_indices(states.shape[-1], 1)
    upper = states[:, k, l]
    mirror = np.empty_like(upper)
    mirror.real, mirror.imag = upper.real, 0.0 - upper.imag
    assert states[:, l, k].tobytes() == mirror.tobytes()
    diagonal = np.diagonal(states, axis1=1, axis2=2).imag
    assert diagonal.tobytes() == np.zeros_like(diagonal).tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("full_rank", [False, True], ids=["pure", "full-rank"])
@pytest.mark.parametrize("degenerate", [False, True], ids=["distinct", "degenerate"])
def test_states_are_hermitian_to_the_bit(dim, full_rank, degenerate):
    rng = np.random.default_rng(10 * dim + 2 * full_rank + degenerate)
    dec, rho0 = _random_system(rng, dim, full_rank, degenerate)
    grid = np.linspace(0.0, 2.0, 7)
    model = correlated_model(0.6, 0.8)
    _assert_hermitian_to_the_bit(averaged_trajectory(dec, model, rho0, grid).states)
    ode = integrate(build_generator(dec, model), rho0, grid, decomposition=dec)
    _assert_hermitian_to_the_bit(ode.states)
    ensemble = run_ensemble(dec, model, rho0, grid, n_traj=64, seed=3)
    _assert_hermitian_to_the_bit(ensemble.mean)
    # so are the standard errors symmetric
    assert np.array_equal(ensemble.stderr, np.swapaxes(ensemble.stderr, 1, 2))


@pytest.mark.parametrize("dim", range(1, 9))
def test_dissipative_states_are_hermitian_to_the_bit(dim):
    rng = np.random.default_rng(dim)
    dec, rho0 = _random_system(rng, dim, full_rank=True, degenerate=False)
    points, diagonal = rng.normal(size=dim), rng.uniform(0.1, 1.0, size=dim)
    table = (points[:, None] - points) ** 2 + 0.5 * (diagonal[:, None] + diagonal)
    model = direct_damping_model(dec.levels, table)
    grid = np.linspace(0.0, 1.5, 6)
    with pytest.warns(DissipativeTraceLoss):
        _assert_hermitian_to_the_bit(averaged_trajectory(dec, model, rho0, grid).states)
    ode = integrate(build_generator(dec, model), rho0, grid, decomposition=dec)
    _assert_hermitian_to_the_bit(ode.states)
