"""Property-based checks: RK4 on the master equation against the analytic
propagator, on random Hamiltonians, noise models and grids; the scenario
codec on random presets of every kind; and the complete-positivity test of
direct damping tables against a dense scan in t.

Derandomized, so every run draws the same examples.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from noisytime import (  # noqa: E402
    ConfigError,
    CorrelationPreset,
    DensityMatrix,
    DirectDampingPreset,
    DriftPreset,
    HermitianOperator,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    averaged_trajectory,
    build_generator,
    cp_report,
    direct_damping_model,
    eigendecompose,
    integrate,
)
from noisytime.config import config_to_dict, parse_config  # noqa: E402
from noisytime.generator import Superoperator  # noqa: E402
from noisytime.noise import PRESETS  # noqa: E402


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
def constant_profiles(draw):
    """A constant sigma_time in [0, 2], as such or as 1 to 3 equal pieces."""
    value = draw(st.floats(0.0, 2.0))
    breakpoints = sorted(draw(st.sets(st.floats(0.0, 5.0), max_size=2)))
    if draw(st.booleans()):
        return SigmaTimePreset.constant(value)
    return SigmaTimePreset.piecewise_constant(breakpoints, [value] * (len(breakpoints) + 1))


@st.composite
def noise_models(draw, levels):
    """A time-independent model with an affine drift: a completely positive
    direct table over ``levels`` (squared distances of points in [-1, 1] plus
    (a_k + a_l) / 2, a in [0, 1]), or a uniform, gaussian or exponential
    correlation with a linear or degree-2 sigma_theta and a sigma_time in
    [0, 2] that is constant or has pieces of one value."""
    drift = DriftPreset.affine(draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.0, 1.0)))
    kind = draw(st.sampled_from(["uniform", "gaussian", "exponential", "direct"]))
    if kind == "direct":
        m = len(levels)
        points = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        diagonal = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
        table = (points[:, None] - points) ** 2 + 0.5 * (diagonal[:, None] + diagonal)
        return direct_damping_model(levels, table, drift=drift)
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
        sigma_time=draw(constant_profiles()),
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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Nonnegative numbers whose square is a finite float.
NONNEGATIVE = st.floats(0.0, 1e154)
# Draws of each preset field, within the range its family accepts.
FIELD_DRAWS = {
    "a": FINITE,
    "b": FINITE,
    "coeffs": st.lists(FINITE, min_size=1, max_size=4),
    "coefficient": FINITE,
    "value": NONNEGATIVE,
    "tau": NONNEGATIVE,
    "length": st.floats(1e-300, 1e300),
}


@st.composite
def presets(draw, cls):
    """A preset of any kind of the family ``cls``, with random fields."""
    kind = draw(st.sampled_from(list(cls.KINDS)))
    if kind == "piecewise_constant":
        breakpoints = sorted(draw(st.sets(FINITE, max_size=4)))
        size = len(breakpoints) + 1
        values = draw(st.lists(NONNEGATIVE, min_size=size, max_size=size))
        return cls.piecewise_constant(breakpoints, values)
    if kind == "separable_linear":
        # squared distances between the levels plus (a_k + a_l) / 2, a >= 0
        levels = np.asarray(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4)))
        m = len(levels)
        a = np.asarray(draw(st.lists(st.floats(0.0, 1e3), min_size=m, max_size=m)))
        table = (levels[:, None] - levels) ** 2 + 0.5 * (a[:, None] + a)
        return cls.separable_linear(levels, table)
    return getattr(cls, kind)(*(draw(FIELD_DRAWS[field]) for field in cls.KINDS[kind]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_preset_kind_round_trips(data):
    scenario = {
        "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
        "initial_state": "plus_state",
        "noise": {"gamma": 0.5},
        "grid": {"t_end": 1.0},
    }
    base = parse_config(scenario)
    drawn = {name: data.draw(presets(cls), label=name) for name, cls in PRESETS.items()}
    config = parse_config(config_to_dict(replace(base, noise=replace(base.noise, **drawn))))
    for name, preset in drawn.items():
        rebuilt = getattr(config.noise, name)
        assert rebuilt == preset
        assert repr(rebuilt.params) == repr(preset.params)  # signed zeros too
    assert config_to_dict(parse_config(config_to_dict(config))) == config_to_dict(config)


@st.composite
def symmetric_tables(draw):
    """A symmetric 3- to 6-level table and its margin, the smallest
    eigenvalue of -D / 2 on sum(x) = 0.  Entries in [0, 1] plus a shift in
    [0, 1] off the diagonal; a shift c adds c / 2 to every such eigenvalue,
    which makes both signs of the margin common.  A margin within 1e-3 of 0
    is moved to 1e-3 or more by a further shift of 0.004."""
    m = draw(st.integers(3, 6))
    table = np.zeros((m, m))
    table[np.triu_indices(m)] = draw(
        st.lists(st.floats(0.0, 1.0), min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2)
    )
    table += np.triu(table, 1).T + draw(st.floats(0.0, 1.0)) * (1.0 - np.eye(m))
    complement = np.linalg.svd(np.ones((1, m)))[2][1:]  # orthonormal rows, each sum 0
    margin = np.linalg.eigvalsh(complement @ (-0.5 * table) @ complement.T)[0]
    if abs(margin) < 1e-3:
        table += 0.004 * (1.0 - np.eye(m))
        margin += 0.002
    return table, margin


@settings(max_examples=200, derandomize=True, deadline=None)
@given(drawn=symmetric_tables())
def test_direct_table_accepted_exactly_when_completely_positive_for_every_t(drawn):
    table, margin = drawn
    m = len(table)
    levels = np.linspace(0.0, 1.0, m)
    try:
        DirectDampingPreset.separable_linear(levels, table)
        accepted = True
    except ConfigError:
        accepted = False
    # F(t) = exp(t R) entrywise on a dense log-spaced scan of t
    rates = -1j * np.subtract.outer(levels, levels) - 0.5 * table
    times = np.logspace(-4.0, 2.0, 400)[:, None, None]
    scan_ok = bool(np.all(np.linalg.eigvalsh(np.exp(rates * times))[:, 0] >= -1e-12))
    assert accepted == scan_ok == (margin > 0)
    assert cp_report(Superoperator(rates), [1.0]).cp_ok == accepted
