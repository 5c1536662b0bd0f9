"""Master-equation generators, their integration, and map certification.

All built-in generators act entry by entry in the energy basis:
(d rho / dt)_{kl} = r_{kl} rho_{kl}.  Storage is therefore the (d, d) rate
matrix, not a d^2 x d^2 superoperator matrix.  The Choi matrix of such a map
is the factor matrix F(t) = exp(r t) placed on the index pairs (ii, jj), so
complete positivity is certified from F(t) alone; the dense Choi matrix is
kept only as a reference for tests.

Rate convention: a damping-rate table lam_dot enters as r = -i dh - lam_dot/2,
so lam_dot is always the accumulated variance per unit time and the factor
one half lives here, matching the exp(-lambda/2) of the analytic propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, KernelAsymmetric, StepTooLarge
from .noise import DriftPreset
from .operators import DensityMatrix, SpectralDecomposition, from_energy_basis, to_energy_basis
from .results import EvolutionResult

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


def _drift_values(decomposition: SpectralDecomposition, h) -> np.ndarray:
    theta = decomposition.column_levels()
    if h is None:
        return theta
    if isinstance(h, DriftPreset):
        return np.asarray(h(theta), dtype=float)
    return np.asarray([float(h(v)) for v in theta], dtype=float)


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
    decomposition: SpectralDecomposition, gamma: float, tau: float, h=None
) -> Superoperator:
    """Generator of the gaussian-correlated noise model.

    r_{kl} = -i(h_k - h_l) - (gamma/2)(theta_k^2 + theta_l^2
             - 2 theta_k theta_l exp(-tau^2 (theta_k - theta_l)^2)).
    ``h`` is a DriftPreset, a scalar callable, or None for identity.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    theta = decomposition.column_levels()
    table = correlated_rate_table(theta, gamma, tau)
    return Superoperator(_rates_from_table(_drift_values(decomposition, h), table), "correlated")


def build_general(decomposition: SpectralDecomposition, table, h=None) -> Superoperator:
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


def _rk4_step(rates: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rates * y
    k2 = rates * (y + 0.5 * h * k1)
    k3 = rates * (y + 0.5 * h * k2)
    k4 = rates * (y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    generator: Superoperator,
    rho0,
    grid,
    decomposition: SpectralDecomposition | None = None,
    max_step: float | None = None,
) -> EvolutionResult:
    """Runge-Kutta integration of the elementwise master equation.

    The equation is exactly solvable entry by entry; RK4 is kept so the
    integrator can be validated against that exact solution and reused for
    generators that are not elementwise.  Each grid interval is subdivided to
    steps of at most 0.01 / max|rates| (or ``max_step`` if given); every
    substep is compared against two half steps and the halved result is kept.
    A grid that would need more than ``MAX_SUBSTEPS`` substeps in total raises
    StepTooLarge before the first step.

    ``decomposition`` rotates in and out of the energy basis; pass None when
    rho0 is already expressed there.
    """
    grid_arr = np.asarray(grid, dtype=float).reshape(-1)
    if grid_arr.size < 1 or grid_arr[0] != 0.0:
        raise GridMismatch("grid must start at 0")
    if np.any(np.diff(grid_arr) <= 0):
        raise GridMismatch("grid must be strictly increasing")
    if isinstance(rho0, DensityMatrix):
        rho = rho0.matrix
    else:
        rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (generator.dim, generator.dim):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match generator dimension {generator.dim}"
        )
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

    y = to_energy_basis(rho, decomposition) if decomposition is not None else rho.copy()
    states = np.empty((grid_arr.size, generator.dim, generator.dim), dtype=complex)

    def emit(index: int, value: np.ndarray) -> None:
        states[index] = (
            from_energy_basis(value, decomposition) if decomposition is not None else value
        )

    emit(0, y)
    for k in range(1, grid_arr.size):
        n_sub = int(n_subs[k - 1])
        h = spans[k - 1] / n_sub
        for _ in range(n_sub):
            full = _rk4_step(rates, y, h)
            mid = _rk4_step(rates, y, 0.5 * h)
            halved = _rk4_step(rates, mid, 0.5 * h)
            estimate = float(np.max(np.abs(full - halved)))
            if estimate > LOCAL_ERROR_LIMIT:
                raise StepTooLarge(
                    f"local error estimate {estimate:.3e} exceeds {LOCAL_ERROR_LIMIT:g} "
                    f"at step size {h:.3e}"
                )
            y = halved
        emit(k, y)
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
