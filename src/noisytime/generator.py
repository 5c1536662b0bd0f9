"""Master-equation generators, their integration, and map certification.

All built-in generators act entry by entry in the energy basis:
(d rho / dt)_{kl} = r_{kl} rho_{kl}.  Storage is therefore the (d, d) rate
matrix, not a d^2 x d^2 superoperator matrix.  The Choi matrix of such a map
is the factor matrix F(t) = exp(r t) placed on the index pairs (ii, jj), so
complete positivity at a time is certified from F(t) alone, and at every
time from r alone (:func:`cp_report`).

:func:`build_generator` reads the rates from the noise model's presets, as
the other two routes do; it shares no kernel with the analytic route.

:func:`integrate` runs RK4 through its amplification polynomial P: on such a
system one step of size h is exactly y <- P(h r) y, so each grid interval is
one power of P, and the step-doubling check of every substep is evaluated in
closed form.  It never calls exp on the rates, which keeps route 2
independent of the analytic route.

Rate convention: a damping-rate table lam_dot enters as r = -i dh - lam_dot/2,
so lam_dot is always the accumulated variance per unit time, sigma_time^2 E
for a constant sigma_time, and the factor one half lives here, matching the
exp(-lambda/2) of the analytic route.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, StepTooLarge
from .noise import NoiseModel, correlation_matrix
from .operators import (
    SpectralDecomposition,
    _hermitian_part,
    _time_slabs,
    from_energy_basis,
    state_matrix,
    to_energy_basis,
)
from .results import EvolutionResult, time_grid

__all__ = [
    "Superoperator",
    "CPReport",
    "build_generator",
    "integrate",
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
    finite rates = conj(rates.T), which makes the generated flow Hermiticity
    preserving.
    """

    rates: np.ndarray

    def __init__(self, rates):
        arr = np.asarray(rates, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"rates must be square, got shape {arr.shape}")
        with np.errstate(invalid="ignore"):  # a NaN or inf entry gives NaN and fails
            defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
        if not defect <= 1e-12:
            raise ValueError(
                f"rates must be finite with r[k,l] = conj(r[l,k]); defect {defect:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "rates", arr)

    @property
    def dim(self) -> int:
        return self.rates.shape[0]

    def factors(self, t) -> np.ndarray:
        """Entrywise solution factors exp(rates * t); times of shape (K, 1, 1)
        give the (K, d, d) stack."""
        return np.exp(self.rates * t)


def build_generator(decomposition: SpectralDecomposition, noise: NoiseModel) -> Superoperator:
    """Generator of a time-independent noise model, read from its presets.

    The damping-rate table over the distinct levels is sigma_time^2 E, for
    every model.  A sigma_time whose pieces differ has no time-independent
    table and raises ConfigError naming noise.sigma_time.  E is the direct
    damping table, looked up by level, if the model has one; else route 2
    writes it in its own gap form, E_kl = (s_k - s_l)^2 + 2 s_k s_l (1 -
    g_kl) with s = sigma_theta and g = correlation_g, so a zero gap or g = 1
    gives the dephasing table exactly.  The drift gaps come from drift_h.
    """
    if not noise.sigma_time.is_constant:
        raise ConfigError(
            "noise.sigma_time",
            "the master-equation generator needs a time-independent rate table; "
            "use evolve for time-dependent profiles",
        )
    levels = decomposition.levels
    if noise.direct_lambda is not None:
        form = noise.direct_lambda(levels)
    else:
        s = noise.sigma_theta(levels)
        g = correlation_matrix(noise, levels)
        form = (s[:, None] - s[None, :]) ** 2 + 2.0 * s[:, None] * s[None, :] * (1.0 - g)
    table = noise.sigma_time.pieces[1][0] ** 2 * form
    h = noise.drift_h(levels)
    rates = -1j * (h[:, None] - h[None, :]) - 0.5 * table
    idx = decomposition.level_index
    return Superoperator(rates[np.ix_(idx, idx)])


def _amplification(z: np.ndarray) -> np.ndarray:
    """RK4's stability polynomial P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def integrate(
    generator: Superoperator,
    rho0,
    grid,
    decomposition: SpectralDecomposition,
    max_step: float | None = None,
) -> EvolutionResult:
    """Runge-Kutta integration of the elementwise master equation.

    Each grid interval is subdivided into substeps of at most
    0.01 / max|rates|, or ``max_step`` if given (+inf means one per
    interval), and the step-doubling error estimate of every substep must
    stay within ``LOCAL_ERROR_LIMIT`` (else StepTooLarge).  A grid that would
    need more than ``MAX_SUBSTEPS`` substeps in total raises StepTooLarge
    before the first step.  The grid must be finite, hold two or more
    points, start at 0 and increase strictly (else GridMismatch); a raw
    ``rho0`` must be a valid state.  ``decomposition`` rotates in and out of
    the energy basis, where the equation is elementwise.  Every returned
    state is Hermitian to the bit, and no (T, d, d) array is built besides
    the result.
    """
    # The equation is exactly solvable entry by entry; RK4 is kept so the
    # integrator can be checked against that exact solution.  On y' = r y
    # one RK4 step of size h is exactly y <- P(h r) y, P the amplification
    # polynomial, so an interval of n substeps advances by P(h r / 2)^(2 n):
    # two half steps per substep, the halved result kept, and the estimate
    # max |P(h r) - P(h r / 2)^2| |y| is checked in closed form.
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
    y = to_energy_basis(rho, decomposition)
    states = np.empty((grid_arr.size,) + y.shape, dtype=complex)
    states[0] = y
    # One slab of intervals at a time, each writing the states at its ends.
    # The cumulative product runs on from the previous slab's last row,
    # prepended to this slab's powers.  The first slab prepends nothing:
    # (1 + 0j) x is not x to the bit, it can flip the sign of a zero part.
    # The slabs count d^2 entries per interval, not every array the pass
    # holds: the states' bits depend on this plan.  From 16384 complex
    # entries (256 KiB) on, numpy elides the temporaries of
    # ``_amplification``, evaluating ``z * (tmp)`` as ``tmp *= z``, and its
    # complex array multiply is not bitwise commutative (z w and w z differ
    # in about a third of random pairs), so a slab below that size rounds
    # its entries otherwise than one above it.
    for slab in _time_slabs(spans.size, y.size):
        with np.errstate(over="ignore", invalid="ignore"):
            full = _amplification(h[slab] * rates)
            half = _amplification(0.5 * h[slab] * rates) ** 2
            powers = half ** n[slab]
            if slab.start:
                powers = np.concatenate([cumulative[-1:], powers])
            cumulative = np.cumprod(powers, axis=0)[-len(half) :]
            states[slab.start + 1 : slab.stop + 1] = cumulative * y
            # states[slab] are the intervals' starts.  Entry by entry |half|^j
            # is monotone in j, so the largest of an interval's n estimates
            # is at its first or last substep.
            growth = np.maximum(1.0, np.abs(half) ** (n[slab] - 1))
            estimates = np.max(np.abs(full - half) * np.abs(states[slab]) * growth, axis=(1, 2))
        failed = np.flatnonzero(~(estimates <= LOCAL_ERROR_LIMIT))  # NaN fails too
        if failed.size:
            k = failed[0]
            raise StepTooLarge(
                f"local error estimate {estimates[k]:.3e} exceeds {LOCAL_ERROR_LIMIT:g} "
                f"at step size {h[slab][k, 0, 0]:.3e}"
            )
    # Rotated and replaced by its Hermitian part one time slab at a time, in
    # place, so no second (T, d, d) array is made.
    for slab in _time_slabs(grid_arr.size, y.size):
        states[slab] = from_energy_basis(states[slab], decomposition)
        _hermitian_part(states[slab])
    return EvolutionResult(grid_arr, states)


@dataclass(frozen=True)
class CPReport:
    """Complete-positivity, trace and semigroup diagnostics of a generator.

    ``times`` are the checkpoints; ``choi_minima``, ``trace_defects`` and
    ``semigroup_defects`` hold one value per checkpoint.
    ``min_generator_eigenvalue`` certifies every t >= 0 at once, and
    ``cp_ok`` requires it and every checkpoint's Choi minimum.
    """

    times: np.ndarray
    choi_minima: np.ndarray
    trace_defects: np.ndarray
    semigroup_defects: np.ndarray
    min_generator_eigenvalue: float
    cp_ok: bool

    @property
    def min_choi_eigenvalue(self) -> float:
        return float(np.min(self.choi_minima))

    def to_dict(self) -> dict:
        rows = np.stack([self.times, self.choi_minima, self.trace_defects, self.semigroup_defects])
        return {
            "cp_ok": self.cp_ok,
            "min_choi_eigenvalue": self.min_choi_eigenvalue,
            "min_generator_eigenvalue": self.min_generator_eigenvalue,
            "checkpoints": [
                {"t": t, "min_choi_eigenvalue": e, "trace_defect": d, "semigroup_defect": s}
                for t, e, d, s in rows.T.tolist()
            ],
        }


def cp_report(generator: Superoperator, times) -> CPReport:
    """Evaluate the map diagnostics at every requested time in one array pass.

    The Choi matrix of an elementwise map is the Hermitian factor matrix
    F(t) on the pairs (ii, jj) and zero elsewhere, so its spectrum is that of
    F(t) plus d^2 - d zeros: the minimum Choi eigenvalue is lambda_min(F) for
    d = 1 and min(0, lambda_min(F)) otherwise, taken for the (K, d, d) stack
    of all checkpoints in one batched eigensolve.  The trace defect is
    max |F_kk - 1|, which for an elementwise map is also its distance from
    unitality.  The semigroup defect compares the map at 2t with the squared
    map at t.

    F(t) = exp(R t) entrywise is PSD for every t >= 0 exactly when R is
    conditionally PSD, x^dagger R x >= 0 whenever sum(x) = 0 (Horn & Johnson,
    Topics in Matrix Analysis, Thm 6.3.6).  ``min_generator_eigenvalue`` is
    lambda_min(J R J) with J = I - 1 1^T / d the centering matrix, and
    ``cp_ok`` requires it to be at least CHOI_PSD_TOL * max|R| as well as
    every checkpoint's Choi minimum to be at least CHOI_PSD_TOL.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    stacked = times[:, None, None]
    factors = generator.factors(stacked)
    choi_minima = np.linalg.eigvalsh(factors)[:, 0]
    if generator.dim > 1:
        choi_minima = np.minimum(choi_minima, 0.0)
    trace_defects = np.max(np.abs(np.diagonal(factors, axis1=1, axis2=2) - 1.0), axis=1)
    semigroup = np.abs(generator.factors(2.0 * stacked) - factors * factors)
    semigroup_defects = np.max(semigroup, axis=(1, 2))
    centering = np.eye(generator.dim) - 1.0 / generator.dim
    min_generator = float(np.linalg.eigvalsh(centering @ generator.rates @ centering)[0])
    tolerance = CHOI_PSD_TOL * float(np.max(np.abs(generator.rates)))
    cp_ok = bool(np.all(choi_minima >= CHOI_PSD_TOL)) and min_generator >= tolerance
    return CPReport(times, choi_minima, trace_defects, semigroup_defects, min_generator, cp_ok)
