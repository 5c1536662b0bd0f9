"""Master-equation generators, their integration, and map certification.

All built-in generators act entry by entry in the energy basis:
(d rho / dt)_{kl} = r_{kl} rho_{kl}.  Storage is therefore the (d, d) rate
matrix, not a d^2 x d^2 superoperator matrix.  The Choi matrix of such a map
is the factor matrix F(t) = exp(r t) placed on the index pairs (ii, jj), so
complete positivity is certified from F(t) alone; the dense Choi matrix is
kept only as a reference for tests.

:func:`integrate` runs RK4 through its amplification polynomial P: on such a
system one step of size h is exactly y <- P(h r) y, so each grid interval is
one power of P, and the step-doubling check of every substep is evaluated in
closed form.  It never calls exp on the rates, which keeps route 2
independent of the analytic route.

Rate convention: a damping-rate table lam_dot enters as r = -i dh - lam_dot/2,
so lam_dot is always the accumulated variance per unit time and the factor
one half lives here, matching the exp(-lambda/2) of the analytic propagator.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KernelAsymmetric, StepTooLarge
from .noise import DriftPreset
from .operators import SpectralDecomposition, from_energy_basis, state_matrix, to_energy_basis
from .results import EvolutionResult, time_grid

__all__ = [
    "Superoperator",
    "CPCheckpoint",
    "CPReport",
    "correlated_rate_table",
    "build_phase_destroying",
    "build_correlated",
    "build_general",
    "integrate",
    "choi_matrix",
    "cp_report",
    "CHOI_PSD_TOL",
]

# Eigensolver jitter sits around 1e-13 times the norm; the acceptance margin
# is set three orders above that.
CHOI_PSD_TOL = -1e-10

LOCAL_ERROR_LIMIT = 1e-6
# integrate refuses grids that would need more RK4 substeps than this
# instead of running for hours; the bundled scenarios need at most a few
# thousand.
MAX_SUBSTEPS = 10_000_000


@dataclass(frozen=True)
class Superoperator:
    """Elementwise generator in the energy basis.

    ``rates[k, l]`` multiplies entry (k, l).  The constructor enforces
    rates = conj(rates.T), which makes the generated flow Hermiticity
    preserving.  ``name`` records the construction.
    """

    rates: np.ndarray
    name: str

    def __init__(self, rates, name: str = "custom"):
        arr = np.asarray(rates, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"rates must be square, got shape {arr.shape}")
        defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
        if defect > 1e-12:
            raise ValueError(
                f"rates must satisfy r[k,l] = conj(r[l,k]); defect {defect:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "rates", arr)
        object.__setattr__(self, "name", name)

    @property
    def dim(self) -> int:
        return self.rates.shape[0]

    def propagator_factors(self, t: float) -> np.ndarray:
        """Entrywise solution factors exp(rates * t)."""
        return np.exp(self.rates * t)

    def apply(self, rho_energy: np.ndarray, t: float) -> np.ndarray:
        """Evolve an energy-basis matrix for time t under this generator."""
        return self.propagator_factors(t) * np.asarray(rho_energy, dtype=complex)


def _drift_values(decomposition: SpectralDecomposition, h: DriftPreset | None) -> np.ndarray:
    theta = decomposition.column_levels()
    return theta if h is None else np.asarray(h(theta), dtype=float)


def _rates_from_table(drift: np.ndarray, table: np.ndarray) -> np.ndarray:
    gaps = drift[:, None] - drift[None, :]
    return -1j * gaps - 0.5 * table


def build_phase_destroying(decomposition: SpectralDecomposition, gamma: float) -> Superoperator:
    """Double-commutator dephasing: r_{kl} = -i(theta_k - theta_l) - (gamma/2)(theta_k - theta_l)^2."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    theta = decomposition.column_levels()
    gaps = theta[:, None] - theta[None, :]
    table = gamma * gaps**2
    return Superoperator(_rates_from_table(theta, table), "phase-destroying")


def correlated_rate_table(levels: np.ndarray, gamma: float, tau: float) -> np.ndarray:
    """Damping rates gamma (theta^2 + theta'^2 - 2 theta theta' g) for gaussian g.

    Written as gamma ((theta - theta')^2 + 2 theta theta' (1 - g)) so that
    tau = 0 reproduces the dephasing table exactly, not just to roundoff.
    """
    theta = np.asarray(levels, dtype=float)
    gaps = theta[:, None] - theta[None, :]
    cross = theta[:, None] * theta[None, :]
    g = np.exp(-(tau**2) * gaps**2)
    return gamma * (gaps**2 + 2.0 * cross * (1.0 - g))


def build_correlated(
    decomposition: SpectralDecomposition, gamma: float, tau: float, h: DriftPreset | None = None
) -> Superoperator:
    """Generator of the gaussian-correlated noise model.

    r_{kl} = -i(h_k - h_l) - (gamma/2)(theta_k^2 + theta_l^2
             - 2 theta_k theta_l exp(-tau^2 (theta_k - theta_l)^2)).
    ``h`` is a DriftPreset, or None for identity.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    theta = decomposition.column_levels()
    table = correlated_rate_table(theta, gamma, tau)
    return Superoperator(_rates_from_table(_drift_values(decomposition, h), table), "correlated")


def build_general(
    decomposition: SpectralDecomposition, table, h: DriftPreset | None = None
) -> Superoperator:
    """Generator from an explicit damping-rate table over distinct levels.

    The table is the accumulated variance per unit time; this builder applies
    the one-half convention, r_{kl} = -i(h_k - h_l) - table_{kl} / 2.  The
    table must be symmetric with nonnegative diagonal; a positive diagonal
    damps populations (dissipative branch).
    """
    arr = np.asarray(table, dtype=float)
    m = decomposition.num_levels
    if arr.shape != (m, m):
        raise DimensionMismatch(
            f"damping table shape {arr.shape} does not match {m} distinct levels"
        )
    asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if asym > 1e-12:
        raise KernelAsymmetric(f"damping table asymmetric by {asym:.3e}")
    if m and float(np.min(np.diag(arr))) < 0:
        raise ValueError("diagonal damping rates must be >= 0")
    idx = decomposition.level_index
    expanded = arr[np.ix_(idx, idx)]
    return Superoperator(
        _rates_from_table(_drift_values(decomposition, h), expanded), "general"
    )


def _amplification(z: np.ndarray) -> np.ndarray:
    """RK4's stability polynomial P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def integrate(
    generator: Superoperator,
    rho0,
    grid,
    decomposition: SpectralDecomposition | None = None,
    max_step: float | None = None,
) -> EvolutionResult:
    """Runge-Kutta integration of the elementwise master equation.

    The equation is exactly solvable entry by entry; RK4 is kept so the
    integrator can be validated against that exact solution.  Each grid
    interval is subdivided to n substeps of at most 0.01 / max|rates| (or
    ``max_step`` if given; +inf means one per interval).  On y' = r * y one
    RK4 step of size h is exactly y <- P(h r) * y, P the RK4 amplification
    polynomial, so an interval advances by P(h r / 2)^(2 n): two half steps
    per substep, the halved result kept.  The step-doubling estimate
    max |P(h r) - P(h r / 2)^2| |y| of every substep is checked in closed
    form.  A grid that would need more than ``MAX_SUBSTEPS`` substeps in
    total raises StepTooLarge before the first step.

    The grid must be finite, hold two or more points, start at 0 and increase
    strictly (else GridMismatch); a raw ``rho0`` must be a valid state.
    ``decomposition`` rotates in and out of the energy basis; pass None when
    rho0 is already expressed there.
    """
    grid_arr = time_grid(grid)
    if max_step is not None and not (isinstance(max_step, numbers.Real) and max_step > 0):
        raise ValueError(f"max_step must be None or a number > 0, got {max_step!r}")
    rho = state_matrix(rho0, generator.dim)
    rates = generator.rates
    max_rate = float(np.max(np.abs(rates)))
    if max_step is None:
        max_step = 0.01 / max_rate if max_rate > 0 else np.inf

    spans = np.diff(grid_arr)
    n_subs = np.maximum(1, np.ceil(spans / max_step))
    total = float(np.sum(n_subs))
    if total > MAX_SUBSTEPS:
        raise StepTooLarge(
            f"grid needs {total:.6g} RK4 substeps (limit {MAX_SUBSTEPS:g}) at largest "
            f"rate {max_rate:.6g}; shorten t_end or reduce the rates"
        )

    h = (spans / n_subs)[:, None, None]
    n = n_subs.astype(np.int64)[:, None, None]
    y = to_energy_basis(rho, decomposition) if decomposition is not None else rho
    with np.errstate(over="ignore", invalid="ignore"):
        full = _amplification(h * rates)
        half = _amplification(0.5 * h * rates) ** 2
        states = np.concatenate([y[None], np.cumprod(half**n, axis=0) * y])
        # Entry by entry |half|^j is monotone in j, so the largest of an
        # interval's n estimates is at its first or last substep.
        growth = np.maximum(1.0, np.abs(half) ** (n - 1))
        estimates = np.max(np.abs(full - half) * np.abs(states[:-1]) * growth, axis=(1, 2))
    failed = np.flatnonzero(~(estimates <= LOCAL_ERROR_LIMIT))  # NaN fails too
    if failed.size:
        k = failed[0]
        raise StepTooLarge(
            f"local error estimate {estimates[k]:.3e} exceeds {LOCAL_ERROR_LIMIT:g} "
            f"at step size {h[k, 0, 0]:.3e}"
        )
    if decomposition is not None:
        states = from_energy_basis(states, decomposition)
    return EvolutionResult(grid_arr, states, "ode")


def choi_matrix(generator: Superoperator, t: float) -> np.ndarray:
    """Choi matrix of the time-t map: sum_ij |i><j| (x) map[|i><j|].

    The map is the entrywise exponential of the rates; it is applied to every
    matrix unit and the images are assembled blockwise.  This dense d^2 x d^2
    form is a reference for checking :func:`cp_report`, which never builds it.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    d = generator.dim
    factors = generator.propagator_factors(t)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi[i * d : (i + 1) * d, j * d : (j + 1) * d] = factors * unit
    return choi


@dataclass(frozen=True)
class CPCheckpoint:
    """Map diagnostics at one time."""

    t: float
    min_choi_eigenvalue: float
    trace_defect: float
    unitality_defect: float
    semigroup_defect: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "min_choi_eigenvalue": self.min_choi_eigenvalue,
            "trace_defect": self.trace_defect,
            "unitality_defect": self.unitality_defect,
            "semigroup_defect": self.semigroup_defect,
        }


@dataclass(frozen=True)
class CPReport:
    """Complete-positivity, trace, unitality, and semigroup diagnostics."""

    generator_name: str
    checkpoints: tuple[CPCheckpoint, ...]

    @property
    def cp_ok(self) -> bool:
        return all(c.min_choi_eigenvalue >= CHOI_PSD_TOL for c in self.checkpoints)

    @property
    def min_choi_eigenvalue(self) -> float:
        return min(c.min_choi_eigenvalue for c in self.checkpoints)

    def to_dict(self) -> dict:
        return {
            "generator": self.generator_name,
            "cp_ok": self.cp_ok,
            "min_choi_eigenvalue": self.min_choi_eigenvalue,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
        }


def cp_report(generator: Superoperator, times) -> CPReport:
    """Evaluate the four map diagnostics at each requested time.

    The Choi matrix of an elementwise map is the Hermitian factor matrix
    F(t) on the pairs (ii, jj) and zero elsewhere, so its spectrum is that of
    F(t) plus d^2 - d zeros: the minimum Choi eigenvalue is lambda_min(F) for
    d = 1 and min(0, lambda_min(F)) otherwise.  Trace and unitality defects
    coincide for elementwise maps (both are max |F_kk - 1|).  The semigroup
    defect compares the map at 2t with the squared map at t.
    """
    checkpoints = []
    for t in np.asarray(times, dtype=float).reshape(-1):
        t = float(t)
        factors = generator.propagator_factors(t)
        min_eig = float(np.linalg.eigvalsh(factors)[0])
        if generator.dim > 1:
            min_eig = min(0.0, min_eig)
        defect = float(np.max(np.abs(np.diag(factors) - 1.0)))
        semigroup = float(
            np.max(np.abs(generator.propagator_factors(2.0 * t) - factors * factors))
        )
        checkpoints.append(
            CPCheckpoint(
                t=t,
                min_choi_eigenvalue=min_eig,
                trace_defect=defect,
                unitality_defect=defect,
                semigroup_defect=semigroup,
            )
        )
    return CPReport(generator_name=generator.name, checkpoints=tuple(checkpoints))
