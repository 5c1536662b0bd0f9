"""Command line front end.

Subcommands
    evolve     analytic averaged evolution -> analytic.csv
    integrate  master-equation route -> me.csv, cp_report.json
    sample     Monte Carlo ensemble -> mc_mean.csv, mc_stderr.csv, comparison.json
    moments    phase-difference moment table -> moments.csv
    verify     built-in invariant suite, one PASS/FAIL line per check

Shared flags (--config, --out, --seed, --threads) go after the subcommand.
Exit codes: 0 success, 1 a verification or statistical comparison failed,
2 configuration or usage error.

Trajectory tables are CSV, reports are JSON; the ``outputs.formats`` list in
the scenario selects which of the two families is written.  Every file is
written to a temporary name and renamed into place, so a crash never leaves
a half-written table behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ScenarioConfig, load_config
from .errors import ConfigError, NoisytimeError
from .generator import build_generator, cp_report, integrate
from .montecarlo import compare_to_analytic, run_ensemble
from .noise import NoiseModel, SigmaTimePreset, moment_report
from .propagator import averaged_trajectory
from .results import EvolutionResult
from .verify import run_suite, check_names

__all__ = [
    "main",
    "cmd_evolve",
    "cmd_integrate",
    "cmd_sample",
    "cmd_moments",
    "cmd_verify",
]

FLOAT_FORMAT = ".17g"

# sigma_theta = linear(c) matches a family of strength gamma when c^2 equals
# gamma to this relative tolerance; sqrt(gamma) written out in decimal
# squares back to gamma only up to rounding.
FAMILY_GAMMA_RTOL = 1e-12


def _fmt(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def _atomic_write(path: Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def _entry_columns(dim: int) -> list[str]:
    columns = []
    for k in range(dim):
        for l in range(dim):
            columns.append(f"rho_re_{k}_{l}")
            columns.append(f"rho_im_{k}_{l}")
    return columns


METRIC_COLUMNS = ("purity", "coherence_l1", "energy", "trace")


def _csv_text(columns: list[str], table: np.ndarray) -> str:
    """Header line plus one line per table row, every value in FLOAT_FORMAT."""
    row_format = ",".join(["%" + FLOAT_FORMAT] * len(columns))
    lines = [",".join(columns)]
    lines.extend(row_format % tuple(row) for row in table.tolist())
    return "\n".join(lines) + "\n"


def _trajectory_csv(result: EvolutionResult, metrics: Optional[dict] = None) -> str:
    columns = ["t"] + _entry_columns(result.dim)
    # The float view of a complex row interleaves re and im per entry (k, l).
    entries = np.ascontiguousarray(result.states).view(float).reshape(result.num_points, -1)
    blocks = [result.grid[:, None], entries]
    if metrics is not None:
        columns += METRIC_COLUMNS
        blocks.append(np.column_stack([metrics[key] for key in METRIC_COLUMNS]))
    return _csv_text(columns, np.hstack(blocks))


def _stderr_csv(grid: np.ndarray, stderr_re: np.ndarray, stderr_im: np.ndarray) -> str:
    columns = ["t"] + _entry_columns(stderr_re.shape[1])
    entries = np.stack([stderr_re, stderr_im], axis=-1).reshape(grid.shape[0], -1)
    return _csv_text(columns, np.hstack([grid[:, None], entries]))


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_trajectory(path: Path, config: ScenarioConfig, result: EvolutionResult) -> Path:
    metrics = result.metrics_table(config.decomposition(), config.hamiltonian)
    return _atomic_write(path, _trajectory_csv(result, metrics))


def _out_dir(config: ScenarioConfig) -> Path:
    return Path(config.out_dir)


def cmd_evolve(config: ScenarioConfig) -> tuple[int, list[Path]]:
    """Exact elementwise evolution on the scenario grid."""
    decomposition = config.decomposition()
    result = averaged_trajectory(
        decomposition, config.noise, config.initial_state, config.times()
    )
    written = []
    if "csv" in config.formats:
        written.append(_write_trajectory(_out_dir(config) / "analytic.csv", config, result))
    return 0, written


def _check_family(noise: NoiseModel, kind: str) -> None:
    """Refuse a model that the phase or correlated generator does not represent."""
    correlation = "uniform" if kind == "phase" else "gaussian"
    sigma_theta = noise.sigma_theta
    coefficient = sigma_theta.params[0] if sigma_theta.kind == "linear" else math.nan
    if noise.direct_lambda is not None:
        field = "direct_lambda"
    elif noise.correlation_g.kind != correlation:
        field = "correlation_g"
    elif kind == "phase" and noise.drift_h.kind != "identity":
        field = "drift_h"
    elif noise.sigma_time != SigmaTimePreset.constant(1.0):
        field = "sigma_time"
    elif not math.isclose(coefficient**2, noise.gamma, rel_tol=FAMILY_GAMMA_RTOL):
        field = "sigma_theta"
    else:
        return
    drift = ", the identity drift" if kind == "phase" else ""
    raise ConfigError(
        f"noise.{field}",
        f"the {kind} generator represents only sigma_time constant 1, sigma_theta "
        f"linear(sqrt(gamma)), a {correlation} correlation{drift} and no direct_lambda; "
        "--generator general takes any time-independent model",
    )


def cmd_integrate(config: ScenarioConfig, generator_kind: str) -> tuple[int, list[Path]]:
    """Integrate the scenario's master equation and certify the map.

    Every family runs the one builder; ``generator_kind`` only guards which
    models a family accepts.
    """
    if generator_kind in ("phase", "correlated"):
        _check_family(config.noise, generator_kind)
    elif generator_kind != "general":
        raise ConfigError("--generator", f"unknown generator kind {generator_kind!r}")
    decomposition = config.decomposition()
    generator = build_generator(decomposition, config.noise)
    grid = config.times()
    result = integrate(generator, config.initial_state, grid, decomposition=decomposition)
    written = []
    if "csv" in config.formats:
        written.append(_write_trajectory(_out_dir(config) / "me.csv", config, result))
    checkpoint_indices = np.unique(np.linspace(0, grid.size - 1, 9).astype(int))
    checkpoint_times = [float(grid[i]) for i in checkpoint_indices if grid[i] > 0.0]
    report = cp_report(generator, checkpoint_times)
    payload = report.to_dict()
    payload["generator"] = generator_kind
    payload["scenario"] = config.name
    if "json" in config.formats:
        written.append(_atomic_write(_out_dir(config) / "cp_report.json", _json_text(payload)))
    return (0 if report.cp_ok else 1), written


def _check_ensemble(config: ScenarioConfig, command: str) -> None:
    """Sampling needs a Brownian model and two trajectories for standard errors."""
    if config.noise.direct_lambda is not None:
        raise ConfigError(
            "noise.direct_lambda",
            f"{command} needs a Brownian model; a direct damping table has no "
            "stochastic realization",
        )
    if config.n_traj < 2:
        raise ConfigError(
            "montecarlo.n_traj",
            f"{command} needs >= 2 trajectories for standard errors, got {config.n_traj}",
        )


def cmd_sample(config: ScenarioConfig, threads: int = 1) -> tuple[int, list[Path]]:
    """Monte Carlo ensemble, cross-checked against the analytic route."""
    _check_ensemble(config, "sample")
    decomposition = config.decomposition()
    grid = config.times()
    ensemble = run_ensemble(
        decomposition,
        config.noise,
        config.initial_state,
        grid,
        n_traj=config.n_traj,
        seed=config.seed,
        n_workers=threads,
    )
    analytic = averaged_trajectory(decomposition, config.noise, config.initial_state, grid)
    report = compare_to_analytic(ensemble, analytic)
    written = []
    if "csv" in config.formats:
        written.append(_write_trajectory(_out_dir(config) / "mc_mean.csv", config, ensemble.as_result()))
        written.append(
            _atomic_write(
                _out_dir(config) / "mc_stderr.csv",
                _stderr_csv(grid, ensemble.stderr_re, ensemble.stderr_im),
            )
        )
    payload = report.to_dict()
    payload["scenario"] = config.name
    if "json" in config.formats:
        written.append(_atomic_write(_out_dir(config) / "comparison.json", _json_text(payload)))
    return (0 if report.passed else 1), written


def cmd_moments(
    config: ScenarioConfig, theta: float, theta_prime: float, max_order: int = 4
) -> tuple[int, list[Path]]:
    """Empirical versus predicted moments of the phase difference."""
    _check_ensemble(config, "moments")
    if max_order < 2:
        raise ConfigError("--max-order", f"must be >= 2, got {max_order}")
    for flag, level in (("--theta", theta), ("--theta-prime", theta_prime)):
        if not math.isfinite(level):
            raise ConfigError(flag, f"expected a finite number, got {level}")
    try:
        rows = moment_report(
            config.noise,
            t=config.t_end,
            theta=theta,
            theta_prime=theta_prime,
            n_traj=config.n_traj,
            seed=config.seed,
            max_order=max_order,
        )
    except ValueError:  # the checks above leave only a row that overflows
        raise ConfigError(
            "--max-order", f"moments up to order {max_order} overflow a float; lower it"
        ) from None
    lines = ["order,empirical,predicted,stderr"]
    for row in rows:
        lines.append(
            ",".join([str(row.order), _fmt(row.empirical), _fmt(row.predicted), _fmt(row.stderr)])
        )
    written = []
    if "csv" in config.formats:
        written.append(_atomic_write(_out_dir(config) / "moments.csv", "\n".join(lines) + "\n"))
    return 0, written


def cmd_verify(
    config: Optional[ScenarioConfig] = None,
    quick: bool = False,
    analytic_gamma_factor: float = 1.0,
    stream=None,
) -> int:
    """Run the invariant suite; one line per check, nonzero exit on failure."""
    stream = stream if stream is not None else sys.stdout
    results = run_suite(
        scenario=config, quick=quick, analytic_gamma_factor=analytic_gamma_factor
    )
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}  ({r.seconds:.2f} s)", file=stream)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=stream)
        return 1
    print(f"all {len(results)} checks passed", file=stream)
    return 0


def _parent_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", metavar="PATH", help="scenario YAML file")
    parent.add_argument("--out", metavar="DIR", help="override the scenario output directory")
    parent.add_argument("--seed", type=int, help="override the scenario seed")
    parent.add_argument(
        "--threads", type=int, default=1, help="worker threads for sampling, >= 1 (default 1)"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisytime",
        description="Simulate and cross-validate decoherence from randomized evolution time.",
    )
    parent = _parent_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", parents=[parent], help="analytic averaged evolution")
    p.set_defaults(handler=_run_evolve)

    p = sub.add_parser("integrate", parents=[parent], help="master-equation route")
    p.add_argument(
        "--generator",
        choices=("phase", "correlated", "general"),
        required=True,
        help="model family the scenario must match; every family runs the same builder",
    )
    p.set_defaults(handler=_run_integrate)

    p = sub.add_parser("sample", parents=[parent], help="Monte Carlo ensemble")
    p.set_defaults(handler=_run_sample)

    p = sub.add_parser("moments", parents=[parent], help="phase-difference moment table")
    p.add_argument("--theta", type=float, required=True, help="first level")
    p.add_argument("--theta-prime", type=float, required=True, help="second level")
    p.add_argument(
        "--max-order", type=int, default=4, help="highest moment order, >= 2 (default 4)"
    )
    p.set_defaults(handler=_run_moments)

    p = sub.add_parser("verify", parents=[parent], help="built-in invariant suite")
    p.add_argument("--list", action="store_true", help="list check names and exit")
    p.add_argument("--quick", action="store_true", help="smaller ensembles, same checks")
    p.add_argument(
        "--inject-wrong-gamma",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="corrupt the analytic reference of the ensemble comparison "
        "(sanity check for the failure path; default 1.0 = no corruption)",
    )
    p.set_defaults(handler=_run_verify)
    return parser


def _load(args, required: bool = True) -> Optional[ScenarioConfig]:
    if args.config is None:
        if required:
            raise ConfigError("--config", "this command needs a scenario file")
        return None
    config = load_config(args.config)
    return config.with_overrides(seed=args.seed, out_dir=args.out)


def _report(written: list[Path]) -> None:
    for path in written:
        print(f"wrote {path}")


def _run_evolve(args) -> int:
    code, written = cmd_evolve(_load(args))
    _report(written)
    return code


def _run_integrate(args) -> int:
    code, written = cmd_integrate(_load(args), args.generator)
    _report(written)
    return code


def _run_sample(args) -> int:
    code, written = cmd_sample(_load(args), threads=args.threads)
    _report(written)
    return code


def _run_moments(args) -> int:
    code, written = cmd_moments(
        _load(args), theta=args.theta, theta_prime=args.theta_prime, max_order=args.max_order
    )
    _report(written)
    return code


def _run_verify(args) -> int:
    if args.list:
        for name in check_names():
            print(name)
        return 0
    return cmd_verify(
        config=_load(args, required=False),
        quick=args.quick,
        analytic_gamma_factor=args.inject_wrong_gamma,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoisytimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
