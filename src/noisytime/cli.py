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

Trajectory tables are CSV, reports are strict JSON (a number that is not
finite is written as null); the ``outputs.formats`` list in the scenario
selects which of the two families is written.  Every file is written to
``<name>.tmp`` and renamed into place, so a crash never leaves a
half-written table behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .config import ScenarioConfig, load_config
from .errors import ConfigError, DimensionMismatch, NoisytimeError, StepTooLarge
from .generator import build_generator, cp_report, integrate
from .montecarlo import compare_to_analytic, run_ensemble
from .noise import LambdaKernel, moment_report
from .operators import _single_threaded_blas, _time_slabs
from .propagator import averaged_trajectory
from .results import METRIC_COLUMNS, EvolutionResult, _sorted_unique
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


def _fmt(value: float) -> str:
    return format(float(value), FLOAT_FORMAT)


def _atomic_write(path: Path, chunks: Union[str, Iterable[str]]) -> Path:
    """Write one string, or the strings of an iterable in turn, to ``path``.

    The text goes to ``<name>.tmp``, which is renamed into place once
    complete; on any failure the temporary file is removed and the error
    re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(chunks, str):
        chunks = (chunks,)
    try:
        with tmp.open("w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _entry_columns(dim: int) -> list[str]:
    columns = []
    for k in range(dim):
        for l in range(dim):
            columns.append(f"rho_re_{k}_{l}")
            columns.append(f"rho_im_{k}_{l}")
    return columns


def _mirror_columns(dim: int, flip_imaginary: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value columns of the lower-triangle entries, of their mirrors, and the sign rule.

    Entry (k, l) of a table row has its real part in column 1 + 2 (k d + l)
    and its imaginary part in the next.  Returns, for every entry below the
    diagonal, its two columns, the two columns of its mirror (l, k), and
    whether the mirror's text is negated (the imaginary part of a state).
    """
    k, l = np.tril_indices(dim, -1)
    lower = 1 + 2 * (k * dim + l)
    upper = 1 + 2 * (l * dim + k)
    return (
        np.stack([lower, lower + 1], axis=-1).reshape(-1),
        np.stack([upper, upper + 1], axis=-1).reshape(-1),
        np.tile([False, flip_imaginary], k.size),
    )


def _trajectory_csv(
    grid: np.ndarray, stack: np.ndarray, flip_imaginary: bool, metrics: Optional[dict] = None
) -> Iterator[str]:
    """The lines of a trajectory table, every value in FLOAT_FORMAT.

    A row holds t, the real and imaginary parts of each entry (k, l) of the
    (T, d, d) complex ``stack`` at t and, given ``metrics``, the row's
    ``METRIC_COLUMNS``; the header line comes first.  ``flip_imaginary``
    says how a Hermitian row's lower triangle mirrors its upper one: a
    state's imaginary parts negated, a standard error's not.  The bytes are
    those of formatting every value of the whole table at once.
    """
    # Neither a whole table nor a block of rows is held as text: each block
    # of rows (``_time_slabs`` at one value per column) is put in a float
    # table of its own and written a row at a time.  Formatting is the cost
    # of writing, so a row whose every lower-triangle value is its mirror's,
    # or 0 - x of its mirror's x where flipped, sign of zero included (the
    # rule by which every route writes its lower triangle), formats its
    # other columns and copies the mirrors' texts, a negated one as ``-``
    # toggled and ``0`` and ``-0`` as ``0``.  Any other row formats every
    # value.
    num_rows, dim = stack.shape[:2]
    keys = METRIC_COLUMNS if metrics is not None else ()
    columns = ["t"] + _entry_columns(dim) + list(keys)
    lower, upper, flip = _mirror_columns(dim, flip_imaginary)
    negated = upper[flip]
    # A mirrored row formats its values in ``order``, the mirrors to be
    # negated last, and ``pick`` puts every column's text in its place.
    keep = np.ones(len(columns), dtype=bool)
    keep[lower] = keep[negated] = False
    order = np.concatenate([np.flatnonzero(keep), negated])
    first = order.size - negated.size
    place = np.empty(len(columns), dtype=np.int64)
    place[order] = np.arange(order.size)
    place[lower] = place[upper]
    place[lower[flip]] = order.size + np.arange(negated.size)
    pick = itemgetter(*place.tolist())
    mirrored_format = ",".join(["%" + FLOAT_FORMAT] * order.size)
    row_format = ",".join(["%" + FLOAT_FORMAT] * len(columns))
    yield ",".join(columns) + "\n"
    for block in _time_slabs(num_rows, len(columns)):
        # The float view of a complex row interleaves re and im per entry (k, l).
        entries = np.ascontiguousarray(stack[block]).view(float)
        table = np.hstack(
            [grid[block, None], entries.reshape(entries.shape[0], -1)]
            + [metrics[key][block, None] for key in keys]
        )
        own, mirror = table[:, lower], table[:, upper]
        np.subtract(0.0, mirror, out=mirror, where=flip)
        same = (own == mirror) & (np.signbit(own) == np.signbit(mirror))
        for row, mirrored in zip(table, same.all(axis=1)):
            if not mirrored:
                yield row_format % tuple(row.tolist()) + "\n"
                continue
            texts = (mirrored_format % tuple(row[order].tolist())).split(",")
            texts += [
                text[1:] if text[0] == "-" else text if text == "0" else "-" + text
                for text in texts[first:]
            ]
            yield ",".join(pick(texts)) + "\n"


def _json_text(data: dict) -> str:
    """Strict JSON: a non-finite float (a NaN or infinite z) is written as null."""
    strict = json.loads(json.dumps(data), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(config: ScenarioConfig, files: dict) -> list[Path]:
    """Write the files whose family, the suffix of the name, ``outputs.formats`` selects.

    ``files`` maps each name to its text, to its lines (an iterable, so a
    generator forms a table only when the file is written) or to a report, a
    dict written as strict JSON with the scenario's name under ``scenario``.
    Returns the paths written, in the order of ``files``.
    """
    written = []
    for name, content in files.items():
        if Path(name).suffix[1:] in config.formats:
            if isinstance(content, dict):
                content = _json_text({**content, "scenario": config.name})
            written.append(_atomic_write(Path(config.out_dir) / name, content))
    return written


def _states_csv(config: ScenarioConfig, decomposition, result: EvolutionResult):
    """The lines of a trajectory table with its metrics, formed when first read."""
    metrics = result.metrics_table(decomposition, config.hamiltonian)
    yield from _trajectory_csv(result.grid, result.states, True, metrics)


def _refuse_overflow(model, levels, t: float, level_field: str, message: str) -> None:
    """Raise ConfigError(field, message) when lambda(t) on ``levels`` is not finite.

    lambda(t) = S(t) E never decreases in t, so a model that overflows
    anywhere on [0, t] overflows at t.  The field is ``noise.sigma_time``
    where S(t) itself is not finite, else ``level_field``, the source of the
    level part E.  numpy warns of nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(np.isfinite(LambdaKernel(model, levels).lambda_matrix(t))):
            return
        finite_time = np.isfinite(model.sigma_time.integrated_square(t))
    raise ConfigError(level_field if finite_time else "noise.sigma_time", message)


def _decomposition(config: ScenarioConfig):
    """The scenario's spectral decomposition, once its model passes the gate
    of every route on the scenario's levels and grid.

    A direct table must tabulate every level, else ConfigError naming
    ``noise.direct_lambda.levels``.  lambda(t_end) must be finite
    (``_refuse_overflow``, with the direct table or ``noise.sigma_theta`` as
    the level source), else the run would write NaN or fail.  And t_end
    max|h(theta_k) - h(theta_l)| must be below 2^52: floats that large are
    whole radians apart, so the phases t (h_k - h_l) would carry no
    significant digit.  Else ConfigError naming ``noise.drift_h``.
    """
    decomposition = config.decomposition()
    levels, noise = decomposition.levels, config.noise
    try:
        _refuse_overflow(
            noise, levels, config.t_end,
            "noise.sigma_theta" if noise.direct_lambda is None else "noise.direct_lambda.table",
            "lambda(t) overflows a float on the scenario's levels and grid",
        )
    except DimensionMismatch as exc:  # a level the direct table lacks
        raise ConfigError("noise.direct_lambda.levels", str(exc)) from None
    with np.errstate(over="ignore", invalid="ignore"):
        drift = noise.drift_h(levels)
        # A NaN or infinite drift gap fails the test too.
        if not config.t_end * (np.max(drift) - np.min(drift)) < 2.0**52:
            raise ConfigError(
                "noise.drift_h", "t_end times the largest drift gap between levels reaches 2^52"
            )
    return decomposition


def cmd_evolve(config: ScenarioConfig) -> tuple[int, list[Path]]:
    """Exact elementwise evolution on the scenario grid."""
    decomposition = _decomposition(config)
    result = averaged_trajectory(
        decomposition, config.noise, config.initial_state, config.times()
    )
    return 0, _write(config, {"analytic.csv": _states_csv(config, decomposition, result)})


def cmd_integrate(config: ScenarioConfig) -> tuple[int, list[Path]]:
    """Integrate the scenario's master equation and certify the map.

    One builder takes every time-independent model; a time-dependent
    sigma_time raises ConfigError naming noise.sigma_time.  A grid that
    needs too many RK4 substeps raises ConfigError with the integrator's
    message, naming ``noise.drift_h`` where the drift gap is the larger
    part of the largest rate, else ``grid.t_end``: the substep count
    scales with t_end max|r|.
    """
    decomposition = _decomposition(config)
    generator = build_generator(decomposition, config.noise)
    grid = config.times()
    try:
        result = integrate(generator, config.initial_state, grid, decomposition=decomposition)
    except StepTooLarge as exc:
        largest = generator.rates.flat[np.argmax(np.abs(generator.rates))]
        field = "noise.drift_h" if abs(largest.imag) >= abs(largest.real) else "grid.t_end"
        raise ConfigError(field, str(exc)) from None
    checkpoint_indices = _sorted_unique(np.linspace(0, grid.size - 1, 9).astype(int))
    checkpoint_times = [float(grid[i]) for i in checkpoint_indices if grid[i] > 0.0]
    report = cp_report(generator, checkpoint_times)
    files = {
        "me.csv": _states_csv(config, decomposition, result),
        "cp_report.json": report.to_dict(),
    }
    return (0 if report.cp_ok else 1), _write(config, files)


def _check_ensemble(config: ScenarioConfig, command: str) -> None:
    """Sampling needs two trajectories for standard errors."""
    if config.n_traj < 2:
        raise ConfigError(
            "montecarlo.n_traj",
            f"{command} needs >= 2 trajectories for standard errors, got {config.n_traj}",
        )


def cmd_sample(config: ScenarioConfig, threads: int = 1) -> tuple[int, list[Path]]:
    """Monte Carlo ensemble, cross-checked against the analytic route."""
    _check_ensemble(config, "sample")
    decomposition = _decomposition(config)
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
    files = {
        "mc_mean.csv": _states_csv(config, decomposition, ensemble.as_result()),
        "mc_stderr.csv": _trajectory_csv(grid, ensemble.stderr, False),
        "comparison.json": report.to_dict(),
    }
    return (0 if report.passed else 1), _write(config, files)


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
    # The phase difference has variance lambda(t) of the pair: where it
    # overflows, every draw and moment is inf or NaN whatever the order, so
    # the pair is refused before sampling, its level of larger sigma_theta
    # named unless S(t) itself overflows.  A direct table has no draws, and
    # the sampler refuses it.
    model = config.noise
    if model.direct_lambda is None:
        with np.errstate(over="ignore", invalid="ignore"):
            larger = abs(model.sigma_theta(theta)) > abs(model.sigma_theta(theta_prime))
        _refuse_overflow(
            model, [theta, theta_prime], config.t_end, "--theta" if larger else "--theta-prime",
            "the phase-difference variance lambda(t) of this level pair overflows a float",
        )
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
    lines = [f"{r.order},{_fmt(r.empirical)},{_fmt(r.predicted)},{_fmt(r.stderr)}\n" for r in rows]
    return 0, _write(config, {"moments.csv": ["order,empirical,predicted,stderr\n", *lines]})


def cmd_verify(config: Optional[ScenarioConfig] = None, quick: bool = False) -> int:
    """Run the invariant suite; one line per check, nonzero exit on failure."""
    results = run_suite(scenario=config, quick=quick)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}  ({r.seconds:.2f} s)")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
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
    p.set_defaults(handler=lambda args: cmd_evolve(_load_writing(args)))

    p = sub.add_parser("integrate", parents=[parent], help="master-equation route")
    p.add_argument(
        "--generator",
        choices=("phase", "correlated", "general"),
        help="accepted and ignored: one builder takes every time-independent model",
    )
    p.set_defaults(handler=lambda args: cmd_integrate(_load_writing(args)))

    p = sub.add_parser("sample", parents=[parent], help="Monte Carlo ensemble")
    p.set_defaults(handler=lambda args: cmd_sample(_load_writing(args), threads=args.threads))

    p = sub.add_parser("moments", parents=[parent], help="phase-difference moment table")
    p.add_argument("--theta", type=float, required=True, help="first level")
    p.add_argument("--theta-prime", type=float, required=True, help="second level")
    p.add_argument(
        "--max-order", type=int, default=4, help="highest moment order, >= 2 (default 4)"
    )
    p.set_defaults(
        handler=lambda args: cmd_moments(
            _load_writing(args),
            theta=args.theta,
            theta_prime=args.theta_prime,
            max_order=args.max_order,
        )
    )

    p = sub.add_parser("verify", parents=[parent], help="built-in invariant suite")
    p.add_argument("--list", action="store_true", help="list check names and exit")
    p.add_argument("--quick", action="store_true", help="smaller ensembles, same checks")
    p.set_defaults(handler=_run_verify)
    return parser


def _load(args, required: bool = True) -> Optional[ScenarioConfig]:
    if args.config is None:
        if required:
            raise ConfigError("--config", "this command needs a scenario file")
        return None
    config = load_config(args.config)
    return config.with_overrides(seed=args.seed, out_dir=args.out)


def _load_writing(args) -> ScenarioConfig:
    """The scenario of a command that writes files.

    Its output directory must be one or be creatable as one: a path that is
    a file or a dangling link, or lies under one, is refused here, before
    any route runs, with a ConfigError naming ``--out`` or
    ``outputs.directory``.
    """
    config = _load(args)
    existing = Path(config.out_dir)
    while not os.path.lexists(existing):
        existing = existing.parent
    if not existing.is_dir():
        field = "--out" if args.out is not None else "outputs.directory"
        raise ConfigError(
            field, f"{config.out_dir} cannot be a directory: {existing} is not a directory"
        )
    return config


def _run_verify(args) -> tuple[int, list[Path]]:
    if args.list:
        for name in check_names():
            print(name)
        return 0, []
    config = _load(args, required=False)
    if config is not None:
        # The scenario's ensemble check runs on a Brownian model only.
        if config.noise.direct_lambda is None:
            _check_ensemble(config, "verify")
        # The routes' refusals, before any check runs.
        _decomposition(config)
    return cmd_verify(config=config, quick=args.quick), []


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        # --threads is the only parallelism: BLAS runs on one thread.
        with _single_threaded_blas():
            code, written = args.handler(args)
        for path in written:
            print(f"wrote {path}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NoisytimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
