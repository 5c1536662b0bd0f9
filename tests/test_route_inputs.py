"""The routes' shared input contract: one time-grid rule, one scalar-time rule
and one state check."""

import numpy as np
import pytest

from noisytime import (
    DensityMatrix,
    DimensionMismatch,
    GridMismatch,
    NotPositive,
    averaged_state,
    averaged_state_global,
    averaged_trajectory,
    build_generator,
    dephasing_model,
    direct_damping_model,
    integrate,
    run_ensemble,
    sample_chi_paths,
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


@BAD_TIMES
@pytest.mark.parametrize("model", [MODEL, DISSIPATIVE], ids=["brownian", "dissipative"])
def test_bad_time_raises(qubit, model, t):
    _, dec, rho0 = qubit
    for call in (
        lambda: averaged_state(dec, model, rho0, t),
        lambda: averaged_state_global(dec, 1.0, rho0, t),
        lambda: semigroup_defect(dec, model, rho0, t, 0.5),
        lambda: semigroup_defect(dec, model, rho0, 0.5, t),
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
