"""Stochastic model of the randomized evolution time.

A :class:`NoiseModel` bundles closed preset families for the drift h(theta),
the level and time parts of the diffusion amplitude sigma(t; theta) =
sigma_time(t) * sigma_theta(theta), and the level-to-level correlation
g(theta, theta') of the driving Brownian motions.  From these it derives

    eta(t; a, b)    variance rate of the phase difference chi_t(a) - chi_t(b)
    lambda(t; a, b) accumulated variance, integral of eta from 0 to t

which control the damping factor exp(-lambda/2) of each coherence.  The module
also samples the chi paths, driven by the correlated Brownian field, and
checks the even/odd moment identities of the phase difference empirically,
from one exact Gaussian step per sigma_time piece of [0, t].

Presets are deliberately closed families (no arbitrary callables): configs stay
serializable and every lambda has a closed form.  Because the amplitude
factorizes, eta(t; a, b) = sigma_time(t)^2 E(a, b) and lambda(t; a, b) =
S(t) E(a, b), with S(t) the integral of sigma_time^2 over [0, t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, KernelAsymmetric, KernelNotPSD
from .results import time_grid

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
    "eta",
    "lambda_pair",
    "correlation_matrix",
    "psd_sqrt",
    "sample_chi_paths",
    "sample_phase_differences",
    "moment_report",
]

# Below this, a correlation matrix is treated as genuinely indefinite rather
# than noisy-PSD; between this and zero, eigenvalues are clipped.
PSD_EIG_FLOOR = -1e-8

# Trajectories per Philox stream: block b of a seed holds trajectories
# [RNG_BLOCK * b, RNG_BLOCK * (b + 1)).  Every chunk of trajectories starts on
# a block boundary.
RNG_BLOCK = 64
# Most trajectories either sampler draws at once: a whole number of blocks.
MAX_CHUNK = 16 * RNG_BLOCK


def _poly_eval(coeffs: tuple[float, ...], x):
    # Ascending-order coefficients: coeffs[k] multiplies x**k.
    return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)


@dataclass(frozen=True)
class DriftPreset:
    """Deterministic drift h(theta) of the phase SDE.

    Kinds: ``identity`` (h = theta), ``affine`` (a*theta + b),
    ``polynomial`` (ascending coefficients).
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("identity", "affine", "polynomial"):
            raise ConfigError("noise.drift_h.kind", f"unknown kind {self.kind!r}")
        if self.kind == "affine" and len(self.params) != 2:
            raise ConfigError("noise.drift_h", "affine drift needs exactly (a, b)")
        if self.kind == "polynomial" and len(self.params) == 0:
            raise ConfigError("noise.drift_h.coeffs", "polynomial drift needs coefficients")

    @classmethod
    def identity(cls) -> "DriftPreset":
        return cls("identity")

    @classmethod
    def affine(cls, a: float, b: float) -> "DriftPreset":
        return cls("affine", (float(a), float(b)))

    @classmethod
    def polynomial(cls, coeffs) -> "DriftPreset":
        return cls("polynomial", tuple(map(float, coeffs)))

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "identity":
            return theta + 0.0
        if self.kind == "affine":
            a, b = self.params
            return a * theta + b
        return _poly_eval(self.params, theta)


@dataclass(frozen=True)
class SigmaThetaPreset:
    """Level part of the diffusion amplitude.

    Kinds: ``constant`` (c), ``linear`` (c*theta), ``polynomial``.  Noise
    strength lives here: a strength gamma is expressed as a sqrt(gamma)
    coefficient (see :func:`dephasing_model`).
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "polynomial"):
            raise ConfigError("noise.sigma_theta.kind", f"unknown kind {self.kind!r}")
        if self.kind in ("constant", "linear") and len(self.params) != 1:
            raise ConfigError(
                "noise.sigma_theta.coefficient", f"{self.kind} needs exactly one coefficient"
            )
        if self.kind == "polynomial" and len(self.params) == 0:
            raise ConfigError("noise.sigma_theta.coeffs", "polynomial needs coefficients")

    @classmethod
    def constant(cls, c: float) -> "SigmaThetaPreset":
        return cls("constant", (float(c),))

    @classmethod
    def linear(cls, c: float) -> "SigmaThetaPreset":
        return cls("linear", (float(c),))

    @classmethod
    def polynomial(cls, coeffs) -> "SigmaThetaPreset":
        return cls("polynomial", tuple(map(float, coeffs)))

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "constant":
            return np.full_like(theta, self.params[0])
        if self.kind == "linear":
            return self.params[0] * theta
        return _poly_eval(self.params, theta)


@dataclass(frozen=True)
class SigmaTimePreset:
    """Time part of the diffusion amplitude, nonnegative.

    Kinds: ``constant`` (value, default 1) and ``piecewise_constant``
    (breakpoints strictly increasing, one more value than breakpoints;
    values[i] applies on [breakpoints[i-1], breakpoints[i]) ).
    """

    kind: str
    value: float = 1.0
    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if self.value < 0:
                raise ConfigError("noise.sigma_time.value", "must be >= 0")
        elif self.kind == "piecewise_constant":
            if len(self.values) != len(self.breakpoints) + 1:
                raise ConfigError(
                    "noise.sigma_time.values",
                    "piecewise_constant needs len(values) == len(breakpoints) + 1",
                )
            if any(v < 0 for v in self.values):
                raise ConfigError("noise.sigma_time.values", "must all be >= 0")
            if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
                raise ConfigError("noise.sigma_time.breakpoints", "must be strictly increasing")
        else:
            raise ConfigError("noise.sigma_time.kind", f"unknown kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float = 1.0) -> "SigmaTimePreset":
        return cls("constant", value=float(value))

    @classmethod
    def piecewise_constant(cls, breakpoints, values) -> "SigmaTimePreset":
        return cls(
            "piecewise_constant",
            breakpoints=tuple(map(float, breakpoints)),
            values=tuple(map(float, values)),
        )

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.value)
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        return np.asarray(self.values, dtype=float)[idx]

    def integrated_square(self, t):
        """S(t), the integral of sigma_time(s)^2 over [0, t], elementwise in t.

        value^2 t for a constant profile; for a piecewise one, the sum of
        values[i]^2 times the length of [breakpoints[i-1], breakpoints[i])
        inside [0, t].
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return self.value**2 * t
        edges = np.concatenate(([-np.inf], self.breakpoints, [np.inf]))
        overlap = np.minimum(t[..., None], edges[1:]) - np.maximum(0.0, edges[:-1])
        return np.clip(overlap, 0.0, None) @ np.square(self.values)


@dataclass(frozen=True)
class CorrelationPreset:
    """Correlation g(theta, theta') between level Brownian motions.

    Kinds: ``uniform`` (g = 1, one shared motion), ``gaussian`` with scale tau
    (exp(-tau^2 (theta-theta')^2)), ``exponential`` with length ell
    (exp(-|theta-theta'| / ell)).  All three satisfy g(theta, theta) = 1,
    symmetry, and |g| <= 1, and yield positive semidefinite matrices.
    """

    kind: str
    tau: float = 0.0
    length: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "exponential"):
            raise ConfigError("noise.correlation_g.kind", f"unknown kind {self.kind!r}")
        if self.kind == "gaussian" and self.tau < 0:
            raise ConfigError("noise.correlation_g.tau", "must be >= 0")
        if self.kind == "exponential" and self.length <= 0:
            raise ConfigError("noise.correlation_g.length", "must be > 0")

    @classmethod
    def uniform(cls) -> "CorrelationPreset":
        return cls("uniform")

    @classmethod
    def gaussian(cls, tau: float) -> "CorrelationPreset":
        return cls("gaussian", tau=float(tau))

    @classmethod
    def exponential(cls, length: float) -> "CorrelationPreset":
        return cls("exponential", length=float(length))

    def __call__(self, theta, theta_prime):
        theta = np.asarray(theta, dtype=float)
        theta_prime = np.asarray(theta_prime, dtype=float)
        if self.kind == "uniform":
            return np.ones(np.broadcast_shapes(theta.shape, theta_prime.shape))
        diff = theta - theta_prime
        if self.kind == "gaussian":
            return np.exp(-(self.tau**2) * diff**2)
        return np.exp(-np.abs(diff) / self.length)


@dataclass(frozen=True)
class DirectDampingPreset:
    """Explicit damping-rate table, bypassing the Brownian construction.

    ``separable_linear`` means lambda(t; theta_i, theta_j) = t * table[i, j]
    over the tabulated distinct levels.  A nonzero diagonal makes populations
    decay (dissipative branch); no Brownian field realizes that, so models
    carrying this preset cannot be sampled, only propagated and integrated.
    """

    levels: tuple[float, ...]
    table: np.ndarray

    def __init__(self, levels, table):
        levels = tuple(map(float, levels))
        arr = np.asarray(table, dtype=float)
        m = len(levels)
        if arr.shape != (m, m):
            raise DimensionMismatch(
                f"direct damping table shape {arr.shape} does not match {m} levels"
            )
        asym = float(np.max(np.abs(arr - arr.T))) if m else 0.0
        if asym > 1e-12:
            raise KernelAsymmetric(f"damping table asymmetric by {asym:.3e}")
        arr = 0.5 * (arr + arr.T)
        if m and float(np.min(np.diag(arr))) < 0:
            raise ConfigError("noise.direct_lambda.table", "diagonal rates must be >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "table", arr)

    def __call__(self, levels) -> np.ndarray:
        """The table over the given levels, each looked up by value to 1e-9."""
        tabulated = np.asarray(self.levels)
        idx = []
        for theta in np.asarray(levels, dtype=float).reshape(-1):
            hit = np.nonzero(np.isclose(tabulated, theta, rtol=0.0, atol=1e-9))[0]
            if hit.size == 0:
                raise DimensionMismatch(f"level {theta!r} is not tabulated in direct_lambda")
            idx.append(int(hit[0]))
        return self.table[np.ix_(idx, idx)]

    def has_dissipation(self) -> bool:
        return bool(np.any(np.diag(self.table) > 0.0))


@dataclass(frozen=True)
class NoiseModel:
    """Full stochastic model: drift, diffusion amplitude, correlation, strength.

    ``gamma`` records the declared noise strength; the sigma presets carry it
    numerically (a dephasing model of strength gamma uses sigma_theta =
    linear(sqrt(gamma))).  Neither the kernel nor the generator builder reads
    gamma again.
    """

    drift_h: DriftPreset = field(default_factory=DriftPreset.identity)
    sigma_theta: SigmaThetaPreset = field(default_factory=lambda: SigmaThetaPreset.linear(1.0))
    sigma_time: SigmaTimePreset = field(default_factory=SigmaTimePreset.constant)
    correlation_g: CorrelationPreset = field(default_factory=CorrelationPreset.uniform)
    gamma: float = 1.0
    direct_lambda: Optional[DirectDampingPreset] = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError("noise.gamma", "must be >= 0")

    @property
    def is_dissipative(self) -> bool:
        """True when the direct table damps populations (nonzero diagonal)."""
        return self.direct_lambda is not None and self.direct_lambda.has_dissipation()


def dephasing_model(gamma: float) -> NoiseModel:
    """Uniform correlation, sigma(t; theta) = sqrt(gamma) * theta."""
    return NoiseModel(
        sigma_theta=SigmaThetaPreset.linear(math.sqrt(gamma)),
        correlation_g=CorrelationPreset.uniform(),
        gamma=gamma,
    )


def correlated_model(gamma: float, tau: float) -> NoiseModel:
    """Gaussian correlation of scale tau, sigma(t; theta) = sqrt(gamma) * theta."""
    return NoiseModel(
        sigma_theta=SigmaThetaPreset.linear(math.sqrt(gamma)),
        correlation_g=CorrelationPreset.gaussian(tau),
        gamma=gamma,
    )


def direct_damping_model(levels, table, drift: Optional[DriftPreset] = None) -> NoiseModel:
    """Model defined by an explicit damping-rate table (no Brownian field)."""
    return NoiseModel(
        drift_h=drift if drift is not None else DriftPreset.identity(),
        sigma_theta=SigmaThetaPreset.constant(0.0),
        gamma=0.0,
        direct_lambda=DirectDampingPreset(levels, table),
    )


def eta(model: NoiseModel, t: float, theta: float, theta_prime: float) -> float:
    """Variance rate of the phase difference between two levels.

    eta = sigma(t;a)^2 g(a,a) + sigma(t;b)^2 g(b,b) - 2 sigma(t;a) sigma(t;b) g(a,b).
    Nonnegative for |g| <= 1; clamped at zero against roundoff.  For a direct
    damping table this returns the tabulated rate instead.
    """
    return float(LambdaKernel(model, [theta, theta_prime]).eta_matrix(t)[0, 1])


def lambda_pair(model: NoiseModel, t: float, theta: float, theta_prime: float) -> float:
    """Accumulated variance: integral of eta over [0, t], in closed form."""
    return float(LambdaKernel(model, [theta, theta_prime]).lambda_matrix(t)[0, 1])


@dataclass(frozen=True)
class LambdaKernel:
    """Damping and variance-rate kernels bound to a set of distinct levels.

    The kernels separate as eta(t) = sigma_time(t)^2 E and lambda(t) = S(t) E
    with the time-independent (m, m) matrix
    E(a, b) = max(0, s(a)^2 g(a,a) + s(b)^2 g(b,b) - 2 s(a) s(b) g(a,b)),
    s = sigma_theta.  A direct damping table is the case S(t) = t, E = table,
    looked up by level value.  ``lambda_matrix(t)`` and ``eta_matrix(t)``
    accept a scalar or an array of times and return arrays of shape
    t.shape + (m, m); the diagonal vanishes for any Brownian-constructed model
    and equals the tabulated population-decay rates for a direct table.
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

    @property
    def num_levels(self) -> int:
        return self.levels.shape[0]

    def eta_matrix(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.model.direct_lambda is not None:
            rate = np.ones_like(t)
        else:
            rate = np.square(self.model.sigma_time(t))
        return rate[..., None, None] * self.form

    def lambda_matrix(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be >= 0")
        if self.model.direct_lambda is not None:
            accumulated = t
        else:
            accumulated = self.model.sigma_time.integrated_square(t)
        return accumulated[..., None, None] * self.form


def correlation_matrix(model: NoiseModel, levels) -> np.ndarray:
    """Correlation matrix G[i, j] = g(theta_i, theta_j) over distinct levels."""
    lv = np.asarray(levels, dtype=float).reshape(-1)
    return np.asarray(model.correlation_g(lv[:, None], lv[None, :]), dtype=float)


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Factor L with L L^T equal to the given PSD matrix.

    Eigendecomposition with clipping, not Cholesky: a uniform correlation is
    rank one and Cholesky would fail.  Eigenvalues in [-1e-8, 0) are clipped
    to zero; anything below -1e-8 raises KernelNotPSD.  Rows are rescaled so
    the marginal variances match the diagonal exactly after clipping.
    """
    arr = np.asarray(matrix, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (arr + arr.T))
    if eigvals[0] < PSD_EIG_FLOOR:
        raise KernelNotPSD(float(eigvals[0]))
    clipped = np.clip(eigvals, 0.0, None)
    factor = eigvecs * np.sqrt(clipped)[None, :]
    row_var = np.sum(factor**2, axis=1)
    target = np.diag(arr)
    scale = np.ones_like(row_var)
    positive = row_var > 0
    scale[positive] = np.sqrt(target[positive] / row_var[positive])
    return factor * scale[:, None]


@dataclass(frozen=True)
class ChiPaths:
    """Accumulated phases chi_t(theta) per trajectory on a grid that starts at
    t = 0, where every path is 0."""

    seed: int
    grid: np.ndarray
    levels: np.ndarray
    paths: np.ndarray  # (n_traj, len(grid), len(levels))


def _chi_chunk(
    model: NoiseModel,
    lv: np.ndarray,
    grid_arr: np.ndarray,
    factor: np.ndarray,
    seed: int,
    start: int,
    count: int,
    include_drift: bool = True,
) -> np.ndarray:
    """Chi paths for trajectories [start, start+count), shape (count, T, m).

    Block b of ``RNG_BLOCK`` trajectories draws its normals, in C order, from
    one Philox generator keyed by (seed, b), so ``start`` must be a multiple
    of ``RNG_BLOCK``; a partial block takes a prefix of its block's draw.
    Steps run on the grid refined by the sigma_time breakpoints inside it, so
    sigma evaluated at the left endpoint of each step is exact; the paths are
    then read out at the requested grid points.  The grid [0, t] thus takes
    one exact step per sigma_time piece.
    """
    if start % RNG_BLOCK:
        raise ValueError(f"chunk start {start} is not a multiple of RNG_BLOCK ({RNG_BLOCK})")
    inside = [b for b in model.sigma_time.breakpoints if grid_arr[0] < b < grid_arr[-1]]
    fine = np.union1d(grid_arr, inside)
    dt = np.diff(fine)
    time_part = np.asarray(model.sigma_time(fine[:-1]), dtype=float)
    level_part = np.asarray(model.sigma_theta(lv), dtype=float)
    scale = (time_part * np.sqrt(dt))[:, None] * level_part[None, :]
    paths = np.empty((count, fine.shape[0], lv.shape[0]))
    paths[:, 0, :] = 0.0
    steps = paths[:, 1:, :]
    for lo in range(0, count, RNG_BLOCK):
        hi = min(lo + RNG_BLOCK, count)
        key = np.array([seed, (start + lo) // RNG_BLOCK], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        z = rng.standard_normal((hi - lo, dt.shape[0], factor.shape[1]))
        np.matmul(z, factor.T, out=steps[lo:hi])
    steps *= scale
    if include_drift:
        steps += np.asarray(model.drift_h(lv), dtype=float)[None, :] * dt[:, None]
    np.cumsum(steps, axis=1, out=steps)
    if inside:
        return paths[:, np.searchsorted(fine, grid_arr), :]
    return paths


def sample_chi_paths(
    model: NoiseModel, levels, grid, seed: int, n_traj: int
) -> ChiPaths:
    """Euler-Maruyama paths of the phase SDE, exact in distribution here.

    The presets make drift and diffusion independent of chi, so each step adds
    an exactly Gaussian increment; stepping through the sigma_time breakpoints
    leaves no discretization bias on any grid.  Trajectories are drawn in
    blocks of ``RNG_BLOCK``: block b reads one counter-based Philox stream
    keyed by (seed, b), and fewer than ``RNG_BLOCK`` trajectories of a block
    take a prefix of its draw.  So a trajectory depends only on the seed, its
    index and the step/level shape, never on how many others are drawn.  (Keys
    were per trajectory before; the switch changed float output for a fixed
    seed once.)  The grid must be finite, hold two or more points, start at 0
    and increase strictly (else GridMismatch).
    """
    if model.direct_lambda is not None:
        raise ValueError("a direct damping table has no Brownian realization to sample")
    lv = np.asarray(levels, dtype=float).reshape(-1)
    grid_arr = time_grid(grid)
    factor = psd_sqrt(correlation_matrix(model, lv))
    paths = _chi_chunk(model, lv, grid_arr, factor, seed, 0, n_traj)
    grid_arr.setflags(write=False)
    lv.setflags(write=False)
    paths.setflags(write=False)
    return ChiPaths(seed=seed, grid=grid_arr, levels=lv, paths=paths)


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
    theta_prime; its distribution is exactly N(0, lambda(t)).  Each sample ends
    a driftless chi-path pair on the grid [0, t]: one exact Gaussian step per
    sigma_time piece.
    """
    if model.direct_lambda is not None:
        raise ValueError("a direct damping table has no Brownian realization to sample")
    if t <= 0:
        return np.zeros(n_traj)
    if theta == theta_prime:
        # One level twice: the shared Brownian motion cancels identically.
        return np.zeros(n_traj)
    lv = np.array([theta, theta_prime], dtype=float)
    grid_arr = np.array([0.0, t], dtype=float)
    factor = psd_sqrt(correlation_matrix(model, lv))
    out = np.empty(n_traj)
    for start in range(0, n_traj, MAX_CHUNK):
        count = min(MAX_CHUNK, n_traj - start)
        paths = _chi_chunk(model, lv, grid_arr, factor, seed, start, count, include_drift=False)
        out[start : start + count] = paths[:, -1, 0] - paths[:, -1, 1]
    return out


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
    max_order: int = 6,
) -> list[MomentRow]:
    """Empirical moments of the phase difference against the Gaussian values.

    Returns rows for orders 2..max_order.  Standard errors are the sample
    standard deviation of X^order over sqrt(n_traj).  Raises ValueError
    naming ``max_order`` when a row would not be finite doubles.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2 for standard errors")
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    lam = lambda_pair(model, t, theta, theta_prime)
    x = sample_phase_differences(model, t, theta, theta_prime, n_traj, seed)
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
