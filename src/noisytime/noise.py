"""Stochastic model of the randomized evolution time.

A :class:`NoiseModel` bundles closed preset families for the drift h(theta),
the level and time parts of the diffusion amplitude sigma(t; theta) =
sigma_time(t) * sigma_theta(theta), and the level-to-level correlation
g(theta, theta') of the driving Brownian motions.  From these it derives
lambda(t; a, b), the accumulated variance of the phase difference
chi_t(a) - chi_t(b), which controls the damping factor exp(-lambda/2) of each
coherence.

The module also samples that correlated Brownian field.  One private set-up,
built once per run, owns it: the chi paths of ``sample_chi_paths``, the
Monte Carlo ensemble and the phase differences behind the moment identities
all draw from it, on the same (seed, block) Philox streams, and it alone
refuses a direct damping table, which no Brownian field realizes.

Presets are deliberately closed families (no arbitrary callables): configs stay
serializable and every lambda has a closed form.  Every model obeys one time
law, lambda(t; a, b) = S(t) E(a, b), with S(t) the integral of sigma_time^2
over [0, t] and E(a, b) the variance rate at unit sigma_time: the Brownian
form of sigma_theta and correlation_g, or a direct damping table in their
place.  A constant sigma_time gives the Markovian regime, a piecewise one the
non-Markovian; a table with a nonzero diagonal is dissipative in either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, KernelAsymmetric, KernelNotPSD
from .operators import _rank_factor, _time_slabs
from .results import _sorted_unique, time_grid, time_point

__all__ = [
    "DriftPreset",
    "SigmaThetaPreset",
    "SigmaTimePreset",
    "CorrelationPreset",
    "DirectDampingPreset",
    "NoiseModel",
    "LambdaKernel",
    "ChiPaths",
    "MomentRow",
    "dephasing_model",
    "correlated_model",
    "direct_damping_model",
    "lambda_pair",
    "correlation_matrix",
    "psd_sqrt",
    "sample_chi_paths",
    "sample_phase_differences",
    "moment_report",
    "predicted_moment",
]

# Below this, a correlation matrix is treated as genuinely indefinite rather
# than noisy-PSD; between this and zero, eigenvalues are clipped.
PSD_EIG_FLOOR = -1e-8

# Trajectories per Philox stream: block b of a seed holds trajectories
# [RNG_BLOCK * b, RNG_BLOCK * (b + 1)).  Every chunk of trajectories starts on
# a block boundary.
RNG_BLOCK = 64


# The ``KINDS`` spec of a field that is a square table of numbers, row by row.
ROWS = "rows"


@dataclass(frozen=True)
class _Preset:
    """A closed preset family: a ``kind`` and the numbers of its fields.

    ``KINDS`` is the one table of a family: it maps each kind to its fields,
    in the order the kind's classmethod takes them, and each field to
    ``float`` (one number), ``tuple`` (a list of numbers), ``ROWS`` (a square
    table of numbers) or a float default (one number that may be left out).
    ``params`` holds one entry per field, in that order, lists and rows as
    tuples.  The config reader and writer work from this table alone; a
    family with one kind lets a config file leave ``kind`` out.  Every number
    must be finite, else ConfigError naming the field.
    """

    SECTION: ClassVar[str]
    KINDS: ClassVar[dict[str, dict]]

    kind: str
    params: tuple = ()

    def __post_init__(self):
        path = f"noise.{self.SECTION}"
        fields = self.KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if fields is None:
            known = tuple(self.KINDS)
            raise ConfigError(f"{path}.kind", f"unknown kind {self.kind!r}; known: {known}")
        if len(self.params) != len(fields):
            raise ConfigError(
                path, f"{self.kind} takes {len(fields)} fields {tuple(fields)}, got {len(self.params)}"
            )
        params = tuple(
            tuple(map(float, value)) if spec is tuple
            else tuple(tuple(map(float, row)) for row in value) if spec is ROWS
            else float(value)
            for spec, value in zip(fields.values(), self.params)
        )
        for name, value in zip(fields, params):
            if not np.all(np.isfinite(value)):
                raise ConfigError(f"{path}.{name}", f"expected finite numbers, got {value!r}")
        object.__setattr__(self, "params", params)

    @property
    def fields(self) -> dict:
        """Each field of the kind with its number or numbers, in table order."""
        return dict(zip(self.KINDS[self.kind], self.params))


class _LevelPolynomial(_Preset):
    """A family whose every kind is a polynomial in the level theta.

    ``COEFFICIENTS`` maps each kind to a function of its fields that returns
    its ascending coefficients: c[k] multiplies theta**k.  The value is
    Horner's rule in the operations of numpy's ``polyval``, in its order:
    c[-1] + theta*0, then c[-i] + value*theta.  An empty coefficient list
    raises ConfigError naming ``coeffs``.
    """

    COEFFICIENTS: ClassVar[dict[str, Callable[..., tuple]]]
    EMPTY: ClassVar[str]

    def __post_init__(self):
        super().__post_init__()
        if not self.COEFFICIENTS[self.kind](*self.params):
            raise ConfigError(f"noise.{self.SECTION}.coeffs", self.EMPTY)

    @classmethod
    def polynomial(cls, coeffs):
        return cls("polynomial", (coeffs,))

    def __call__(self, theta):
        *rest, last = self.COEFFICIENTS[self.kind](*self.params)
        theta = np.asarray(theta, dtype=float)
        value = last + theta * 0
        for coefficient in reversed(rest):
            value = coefficient + value * theta
        return value


class DriftPreset(_LevelPolynomial):
    """Deterministic drift h(theta) of the phase SDE.

    Kinds: ``identity`` (h = theta), ``affine`` (a*theta + b),
    ``polynomial`` (ascending coefficients).
    """

    SECTION = "drift_h"
    KINDS = {"identity": {}, "affine": {"a": float, "b": float}, "polynomial": {"coeffs": tuple}}
    COEFFICIENTS = {
        "identity": lambda: (0.0, 1.0),
        "affine": lambda a, b: (b, a),
        "polynomial": lambda coeffs: coeffs,
    }
    EMPTY = "polynomial drift needs coefficients"

    @classmethod
    def identity(cls) -> "DriftPreset":
        return cls("identity")

    @classmethod
    def affine(cls, a: float, b: float) -> "DriftPreset":
        return cls("affine", (a, b))


class SigmaThetaPreset(_LevelPolynomial):
    """Level part of the diffusion amplitude.

    Kinds: ``constant`` (c), ``linear`` (c*theta), ``polynomial``.  Noise
    strength lives here: a strength gamma is expressed as a sqrt(gamma)
    coefficient (see :func:`dephasing_model`).
    """

    SECTION = "sigma_theta"
    KINDS = {
        "constant": {"coefficient": float},
        "linear": {"coefficient": float},
        "polynomial": {"coeffs": tuple},
    }
    COEFFICIENTS = {
        "constant": lambda c: (c,),
        "linear": lambda c: (0.0, c),
        "polynomial": lambda coeffs: coeffs,
    }
    EMPTY = "polynomial needs coefficients"

    @classmethod
    def constant(cls, c: float) -> "SigmaThetaPreset":
        return cls("constant", (c,))

    @classmethod
    def linear(cls, c: float) -> "SigmaThetaPreset":
        return cls("linear", (c,))


class SigmaTimePreset(_Preset):
    """Time part of the diffusion amplitude: nonnegative, piecewise constant.

    Kinds: ``piecewise_constant`` (breakpoints strictly increasing, one more
    value than breakpoints; values[i] applies on [breakpoints[i-1],
    breakpoints[i]) ) and ``constant`` (value, default 1), which is the
    one-piece profile.
    """

    SECTION = "sigma_time"
    KINDS = {
        "constant": {"value": 1.0},
        "piecewise_constant": {"breakpoints": tuple, "values": tuple},
    }

    def __post_init__(self):
        super().__post_init__()
        breakpoints, values = ((), self.params) if self.kind == "constant" else self.params
        where = "noise.sigma_time.value" if self.kind == "constant" else "noise.sigma_time.values"
        if len(values) != len(breakpoints) + 1:
            raise ConfigError(where, "piecewise_constant needs len(values) == len(breakpoints) + 1")
        if any(v < 0 for v in values):
            raise ConfigError(where, "must be >= 0")
        if not all(math.isfinite(v * v) for v in values):
            raise ConfigError(where, "the square of each value must be a finite float")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ConfigError("noise.sigma_time.breakpoints", "must be strictly increasing")

    @classmethod
    def constant(cls, value: float = 1.0) -> "SigmaTimePreset":
        return cls("constant", (value,))

    @classmethod
    def piecewise_constant(cls, breakpoints, values) -> "SigmaTimePreset":
        return cls("piecewise_constant", (breakpoints, values))

    @property
    def pieces(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The breakpoints and the values, neighbouring pieces of equal value
        merged: a constant profile, however written, is one piece."""
        if self.kind == "constant":
            return (), self.params
        breakpoints, values = self.params
        kept = [i for i in range(len(breakpoints)) if values[i + 1] != values[i]]
        return tuple(breakpoints[i] for i in kept), values[:1] + tuple(values[i + 1] for i in kept)

    @property
    def is_constant(self) -> bool:
        """True when every piece has the same value."""
        return len(self.pieces[1]) == 1

    def __call__(self, t):
        breakpoints, values = self.pieces
        idx = np.searchsorted(np.asarray(breakpoints, dtype=float), t, side="right")
        return np.asarray(values)[idx]

    def integrated_square(self, t):
        """S(t), the integral of sigma_time(s)^2 over [0, t], elementwise in t:
        the sum of values[i]^2 times the length of [breakpoints[i-1],
        breakpoints[i]) inside [0, t]."""
        breakpoints, values = self.pieces
        t = np.asarray(t, dtype=float)
        edges = np.concatenate(([-np.inf], breakpoints, [np.inf]))
        overlap = np.minimum(t[..., None], edges[1:]) - np.maximum(0.0, edges[:-1])
        return np.clip(overlap, 0.0, None) @ np.square(values)


class CorrelationPreset(_Preset):
    """Correlation g(theta, theta') between level Brownian motions.

    Kinds: ``uniform`` (g = 1, one shared motion), ``gaussian`` with scale tau
    (exp(-tau^2 (theta-theta')^2)), ``exponential`` with length ell
    (exp(-|theta-theta'| / ell)).  All three satisfy g(theta, theta) = 1,
    symmetry, and |g| <= 1, and yield positive semidefinite matrices.
    """

    SECTION = "correlation_g"
    KINDS = {"uniform": {}, "gaussian": {"tau": float}, "exponential": {"length": float}}

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "gaussian" and self.params[0] < 0:
            raise ConfigError("noise.correlation_g.tau", "must be >= 0")
        if self.kind == "gaussian" and not math.isfinite(self.params[0] * self.params[0]):
            raise ConfigError("noise.correlation_g.tau", "its square must be a finite float")
        if self.kind == "exponential" and self.params[0] <= 0:
            raise ConfigError("noise.correlation_g.length", "must be > 0")

    @classmethod
    def uniform(cls) -> "CorrelationPreset":
        return cls("uniform")

    @classmethod
    def gaussian(cls, tau: float) -> "CorrelationPreset":
        return cls("gaussian", (tau,))

    @classmethod
    def exponential(cls, length: float) -> "CorrelationPreset":
        return cls("exponential", (length,))

    def __call__(self, theta, theta_prime):
        theta = np.asarray(theta, dtype=float)
        theta_prime = np.asarray(theta_prime, dtype=float)
        if self.kind == "uniform":
            return np.ones(np.broadcast_shapes(theta.shape, theta_prime.shape))
        diff = theta - theta_prime
        if self.kind == "gaussian":
            return np.exp(-(self.params[0] ** 2) * diff**2)
        return np.exp(-np.abs(diff) / self.params[0])


class DirectDampingPreset(_Preset):
    """Explicit damping-rate table, bypassing the Brownian construction.

    One kind, ``separable_linear``: the table is the level part E of the
    kernel, lambda(t; theta_i, theta_j) = S(t) * table[i, j] over the
    tabulated levels (t * table[i, j] under the default unit sigma_time), and
    ``params`` holds the levels and the symmetrized table.  A nonzero
    diagonal makes populations decay (dissipative branch).  The Brownian
    samplers refuse this preset.  The table D must be conditionally negative
    semidefinite: exp(-S D / 2) entrywise is PSD for every S >= 0 exactly
    when -J D J / 2 is PSD, J = I - 1 1^T / m (Horn & Johnson, Topics in
    Matrix Analysis, Thm 6.3.6).  A squared-distance table plus (a_k + a_l)
    / 2 with a >= 0 passes; so do its sub-tables and degenerate-level
    expansions.
    """

    SECTION = "direct_lambda"
    KINDS = {"separable_linear": {"levels": tuple, "table": ROWS}}

    def __post_init__(self):
        super().__post_init__()
        levels, rows = self.params
        arr = np.array(rows)
        m = len(levels)
        if arr.shape != (m, m):
            raise DimensionMismatch(f"damping table shape {arr.shape} does not match {m} levels")
        asym = float(np.max(np.abs(arr - arr.T)))
        if asym > 1e-12:
            raise KernelAsymmetric(f"damping table asymmetric by {asym:.3e}")
        with np.errstate(over="ignore"):
            arr = 0.5 * (arr + arr.T)
        if not np.all(np.isfinite(arr)):
            raise ConfigError("noise.direct_lambda.table", "entries overflow when symmetrized")
        if float(np.min(np.diag(arr))) < 0:
            raise ConfigError("noise.direct_lambda.table", "diagonal rates must be >= 0")
        centering = np.eye(m) - 1.0 / m
        gram = np.linalg.eigvalsh(-0.5 * centering @ arr @ centering)
        # A NaN eigenvalue fails too.
        if not gram[0] >= PSD_EIG_FLOOR * np.max(np.abs(arr)):
            raise ConfigError(
                "noise.direct_lambda.table",
                f"not completely positive at small t: -J D J / 2 has eigenvalue {gram[0]:.3e}",
            )
        object.__setattr__(self, "params", (levels, tuple(map(tuple, arr.tolist()))))

    @classmethod
    def separable_linear(cls, levels, table) -> "DirectDampingPreset":
        return cls("separable_linear", (levels, table))

    @property
    def levels(self) -> tuple[float, ...]:
        return self.params[0]

    @property
    def table(self) -> np.ndarray:
        """The symmetrized table, as a read-only array."""
        arr = np.array(self.params[1])
        arr.setflags(write=False)
        return arr

    def __call__(self, levels) -> np.ndarray:
        """The table over the given levels, each looked up by value to 1e-9;
        a level matching several tabulated ones takes the first."""
        wanted = np.asarray(levels, dtype=float).reshape(-1)
        hits = np.isclose(wanted[:, None], np.asarray(self.levels), rtol=0.0, atol=1e-9)
        missing = ~hits.any(axis=1)
        if missing.any():
            theta = float(wanted[np.argmax(missing)])
            raise DimensionMismatch(f"level {theta!r} is not tabulated in direct_lambda")
        idx = np.argmax(hits, axis=1)
        return self.table[np.ix_(idx, idx)]


# The sections of a NoiseModel, each to its family.
_FAMILIES = (DriftPreset, SigmaThetaPreset, SigmaTimePreset, CorrelationPreset, DirectDampingPreset)
PRESETS = {cls.SECTION: cls for cls in _FAMILIES}


@dataclass(frozen=True)
class NoiseModel:
    """Full stochastic model: drift, diffusion amplitude and correlation.

    A direct damping table, when given, stands in place of sigma_theta and
    correlation_g as the level part E of the kernel; sigma_time still sets
    its time part S(t), and drift_h its phases.

    The sigma presets carry the noise strength numerically: a dephasing
    model of strength gamma uses sigma_theta = linear(sqrt(gamma)).
    """

    drift_h: DriftPreset = field(default_factory=DriftPreset.identity)
    sigma_theta: SigmaThetaPreset = field(default_factory=lambda: SigmaThetaPreset.linear(1.0))
    sigma_time: SigmaTimePreset = field(default_factory=SigmaTimePreset.constant)
    correlation_g: CorrelationPreset = field(default_factory=CorrelationPreset.uniform)
    direct_lambda: Optional[DirectDampingPreset] = None

    @property
    def is_dissipative(self) -> bool:
        """True when the direct table damps populations (nonzero diagonal)."""
        direct = self.direct_lambda
        return direct is not None and bool(np.any(np.diag(direct.table) > 0.0))


def dephasing_model(gamma: float) -> NoiseModel:
    """Uniform correlation, sigma(t; theta) = sqrt(gamma) * theta."""
    return NoiseModel(
        sigma_theta=SigmaThetaPreset.linear(math.sqrt(gamma)),
        correlation_g=CorrelationPreset.uniform(),
    )


def correlated_model(gamma: float, tau: float) -> NoiseModel:
    """Gaussian correlation of scale tau, sigma(t; theta) = sqrt(gamma) * theta."""
    return NoiseModel(
        sigma_theta=SigmaThetaPreset.linear(math.sqrt(gamma)),
        correlation_g=CorrelationPreset.gaussian(tau),
    )


def direct_damping_model(levels, table, drift: Optional[DriftPreset] = None) -> NoiseModel:
    """Model defined by an explicit damping-rate table (no Brownian field)."""
    return NoiseModel(
        drift_h=drift if drift is not None else DriftPreset.identity(),
        sigma_theta=SigmaThetaPreset.constant(0.0),
        direct_lambda=DirectDampingPreset.separable_linear(levels, table),
    )


def lambda_pair(model: NoiseModel, t: float, theta: float, theta_prime: float) -> float:
    """Accumulated variance of the phase difference over [0, t], in closed form."""
    return float(LambdaKernel(model, [theta, theta_prime]).lambda_matrix(t)[0, 1])


@dataclass(frozen=True)
class LambdaKernel:
    """Damping kernel bound to a set of distinct levels.

    The kernel separates as lambda(t) = S(t) E, S = sigma_time's integrated
    square, with the time-independent (m, m) matrix ``form`` E: the direct
    damping table looked up by level value if the model has one, else E(a, b)
    = max(0, s(a)^2 g(a,a) + s(b)^2 g(b,b) - 2 s(a) s(b) g(a,b)), s =
    sigma_theta, clamped at zero against roundoff.  ``lambda_matrix(t)``
    accepts a scalar or an array of times and returns an array of shape
    t.shape + (m, m); the diagonal vanishes for any Brownian-constructed
    model and is S(t) times the tabulated population-decay rates for a
    direct table.
    """

    model: NoiseModel
    levels: np.ndarray
    form: np.ndarray

    def __init__(self, model: NoiseModel, levels):
        lv = np.asarray(levels, dtype=float).reshape(-1)
        lv.setflags(write=False)
        if model.direct_lambda is not None:
            form = model.direct_lambda(lv)
        else:
            s = np.asarray(model.sigma_theta(lv), dtype=float)
            g = correlation_matrix(model, lv)
            diag = s * s * np.diag(g)
            cross = 2.0 * s[:, None] * s[None, :] * g
            form = np.maximum(diag[:, None] + diag[None, :] - cross, 0.0)
        form.setflags(write=False)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "form", form)

    def lambda_matrix(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise ValueError("times must be finite and >= 0")
        return self.model.sigma_time.integrated_square(t)[..., None, None] * self.form


def correlation_matrix(model: NoiseModel, levels) -> np.ndarray:
    """Correlation matrix G[i, j] = g(theta_i, theta_j) over distinct levels."""
    lv = np.asarray(levels, dtype=float).reshape(-1)
    return np.asarray(model.correlation_g(lv[:, None], lv[None, :]), dtype=float)


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Factor L of shape (d, r) with L L^T equal to the given PSD matrix.

    Eigendecomposition with clipping, not Cholesky: a uniform correlation is
    rank one and Cholesky would fail.  Eigenvalues in [-1e-8, 0) are clipped
    to zero; anything below -1e-8 raises KernelNotPSD.  Only the eigenpairs
    above d * eps * lambda_max are kept (the rule of ``_rank_factor``), so r
    is the numerical rank, at least 1: a uniform correlation gives one
    column, and the chi paths draw r normals per step.  Rows are rescaled so
    the marginal variances match the diagonal exactly after clipping.
    """
    arr = np.asarray(matrix, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (arr + arr.T))
    if eigvals[0] < PSD_EIG_FLOOR:
        raise KernelNotPSD(float(eigvals[0]))
    factor = _rank_factor(np.clip(eigvals, 0.0, None), eigvecs)
    row_var = np.sum(factor**2, axis=1)
    target = np.diag(arr)
    scale = np.ones_like(row_var)
    positive = row_var > 0
    scale[positive] = np.sqrt(target[positive] / row_var[positive])
    # Row-major: the rounding of the chi paths' product z L^T depends on the
    # layout, and full-rank streams are defined with this one.
    return np.ascontiguousarray(factor * scale[:, None])


@dataclass(frozen=True)
class ChiPaths:
    """Accumulated phases chi_t(theta) per trajectory on a grid that starts at
    t = 0, where every path is 0."""

    seed: int
    grid: np.ndarray
    levels: np.ndarray
    paths: np.ndarray  # (n_traj, len(grid), len(levels))


class _BrownianField:
    """The correlated Brownian field of one run, driving the chi paths.

    Built once per run: it refuses a direct damping table (ConfigError naming
    ``noise.direct_lambda``), applies the grid rule of ``results.time_grid``,
    factors the level correlation matrix, refines the grid at the sigma_time
    breakpoints inside it, and precomputes the step scale, the drift
    increments and the read-out indices of the requested grid points.
    Evaluating sigma_time at the left end of each refined step is then exact,
    so the grid [0, t] takes one exact Gaussian step per sigma_time piece.
    """

    def __init__(self, model: NoiseModel, levels, grid):
        if model.direct_lambda is not None:
            raise ConfigError(
                "noise.direct_lambda",
                "a direct damping table has no Brownian realization to sample",
            )
        self.levels = np.asarray(levels, dtype=float).reshape(-1)
        self.grid = time_grid(grid)
        self.levels.setflags(write=False)
        self.grid.setflags(write=False)
        self.factor = psd_sqrt(correlation_matrix(model, self.levels))
        inside = [b for b in model.sigma_time.pieces[0] if 0.0 < b < self.grid[-1]]
        fine = _sorted_unique(np.concatenate([self.grid, inside]))
        dt = np.diff(fine)
        time_part = np.asarray(model.sigma_time(fine[:-1]), dtype=float)
        level_part = np.asarray(model.sigma_theta(self.levels), dtype=float)
        self.scale = (time_part * np.sqrt(dt))[:, None] * level_part[None, :]
        self.drift = np.asarray(model.drift_h(self.levels), dtype=float)[None, :] * dt[:, None]
        self.readout = np.searchsorted(fine, self.grid) if fine.size > self.grid.size else None

    def paths(
        self, seed: int, start: int, count: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Chi paths of trajectories [start, start+count), shape (count, T, m).

        ``start`` must be a multiple of ``RNG_BLOCK`` (else ValueError).  The
        paths are written to ``out`` when it is given (a C-contiguous float
        array of that shape), else to a new array.
        """
        if start % RNG_BLOCK:
            raise ValueError(f"chunk start {start} is not a multiple of RNG_BLOCK ({RNG_BLOCK})")
        num_steps, rank = self.scale.shape[0], self.factor.shape[1]
        shape = (count, num_steps + 1, self.levels.shape[0])
        paths = out if out is not None and self.readout is None else np.empty(shape)
        paths[:, 0, :] = 0.0
        steps = paths[:, 1:, :]
        for lo in range(0, count, RNG_BLOCK):
            hi = min(lo + RNG_BLOCK, count)
            key = np.array([seed, (start + lo) // RNG_BLOCK], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            block = steps[lo:hi]
            # Pieces of whole trajectories, about SLAB_ELEMENT_BUDGET normals
            # each, read the block's stream in the order of one draw.
            for piece in _time_slabs(hi - lo, num_steps * rank):
                z = rng.standard_normal((piece.stop - piece.start, num_steps, rank))
                np.matmul(z, self.factor.T, out=block[piece])
        steps *= self.scale
        steps += self.drift
        np.cumsum(steps, axis=1, out=steps)
        if self.readout is None:
            return paths
        return np.take(paths, self.readout, axis=1, out=out, mode="clip")


def sample_chi_paths(
    model: NoiseModel, levels, grid, seed: int, n_traj: int
) -> ChiPaths:
    """Euler-Maruyama paths of the phase SDE, exact in distribution here.

    The presets make drift and diffusion independent of chi, so each step adds
    an exactly Gaussian increment; stepping through the sigma_time breakpoints
    leaves no discretization bias on any grid.  Block b of ``RNG_BLOCK``
    trajectories reads one Philox stream keyed by (seed, b), so a trajectory
    depends only on the seed, its index and the step/level shape, never on
    how many others are drawn.  The grid must be finite, hold two or more
    points, start at 0 and increase strictly (else GridMismatch); a direct
    damping table raises ConfigError.
    """
    field = _BrownianField(model, levels, grid)
    paths = field.paths(seed, 0, n_traj)
    paths.setflags(write=False)
    return ChiPaths(seed=seed, grid=field.grid, levels=field.levels, paths=paths)


def sample_phase_differences(
    model: NoiseModel,
    t: float,
    theta: float,
    theta_prime: float,
    n_traj: int,
    seed: int,
) -> np.ndarray:
    """Samples of the driftless phase difference X_t between two levels.

    X_t is the stochastic integral of sigma dB at theta minus the same at
    theta_prime; its distribution is exactly N(0, lambda(t)).  Each sample is
    the end-point difference of a ``sample_chi_paths`` pair of the model with
    zero drift on the grid [0, t]: one exact Gaussian step per sigma_time
    piece.  ``t`` must be finite and >= 0 (else ValueError); X_0 is 0.  A
    direct damping table raises ConfigError.
    """
    t = time_point(t)
    if t == 0.0:
        return np.zeros(n_traj)
    driftless = replace(model, drift_h=DriftPreset.affine(0.0, 0.0))
    ends = sample_chi_paths(driftless, [theta, theta_prime], [0.0, t], seed, n_traj).paths[:, -1]
    return ends[:, 0] - ends[:, 1]


@dataclass(frozen=True)
class MomentRow:
    """One moment comparison: E[X^order] empirical vs predicted."""

    order: int
    empirical: float
    predicted: float
    stderr: float


def predicted_moment(order: int, lam: float) -> float:
    """Gaussian moments of X ~ N(0, lambda): odd vanish, even are
    (2n)! / (2^n n!) * lambda^n for order 2n."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order % 2 == 1:
        return 0.0
    n = order // 2
    return math.factorial(2 * n) / (2**n * math.factorial(n)) * lam**n


def moment_report(
    model: NoiseModel,
    t: float,
    theta: float,
    theta_prime: float,
    n_traj: int,
    seed: int,
    max_order: int = 4,
) -> list[MomentRow]:
    """Empirical moments of the phase difference against the Gaussian values.

    Returns rows for orders 2..max_order (2..4 by default, as the
    ``moments`` subcommand).  Standard errors are the sample standard
    deviation of X^order over sqrt(n_traj).  Raises ValueError
    naming ``max_order`` when a row would not be finite doubles.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2 for standard errors")
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    x = sample_phase_differences(model, t, theta, theta_prime, n_traj, seed)
    lam = lambda_pair(model, t, theta, theta_prime)
    rows = []
    for order in range(2, max_order + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            powers = x**order
            empirical = float(np.mean(powers))
            variance = float(np.var(powers, ddof=1))
        try:
            predicted = predicted_moment(order, lam)
        except OverflowError:
            predicted = math.inf
        stderr = math.sqrt(variance / n_traj)
        if not all(map(math.isfinite, (empirical, predicted, stderr))):
            raise ValueError(
                f"max_order {max_order} is too high: the order-{order} moment "
                "overflows a float"
            )
        rows.append(MomentRow(order=order, empirical=empirical, predicted=predicted, stderr=stderr))
    return rows
