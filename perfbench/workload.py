"""One workload in its own process.

Started by run.py as ``python3 perfbench/workload.py --workload W --seed N
[--trace 0|1 | --setup-only]``.  Set-up imports noisytime from ``src/`` and
writes the workload's inputs, then prints ``ready <monotonic clock>``.  The
body is the workload's list of ``noisytime.cli.main`` calls, made in this
process.  The last stdout line is one JSON object for run.py.

Untraced (--trace 0): run the body once and report its wall and CPU time and
the process's peak resident memory.

Traced (--trace 1): two untraced bodies, one traced body, then same-seed
replays that split the ensemble into chi-path sampling and accumulation and
time it at one and two workers.  Reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import yaml

import gates
from inputs import write_inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"


def import_program():
    """Import noisytime from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import noisytime
    import noisytime.cli

    if not Path(noisytime.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported noisytime from {noisytime.__file__}, not {SRC}")
    return noisytime


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call_main(cli, argv: list[str]) -> int:
    """Exit code of one CLI call, as the ``noisytime`` command would return it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage with exit 2
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error exits the command with status 1
        traceback.print_exc()
        return 1


def run_body(cli, steps, tracer=None) -> dict:
    """Run every step once and time it; then check that body's outputs."""
    for step in steps:
        if step.out_dir is not None:
            shutil.rmtree(step.out_dir, ignore_errors=True)
    outcomes = []
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    for step in steps:
        captured = io.StringIO()
        span = tracer.span(f"cli.{step.command}") if tracer else nullcontext()
        with redirect_stdout(captured), redirect_stderr(captured), span:
            code = _call_main(cli, step.argv())
        outcomes.append((step, code, captured.getvalue()))
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "gates": check_outputs(outcomes)}


def _guarded(label, check, *args):
    try:
        return check(label, *args)
    except (OSError, ValueError, KeyError) as exc:
        return gates.Gate(label, False, f"{type(exc).__name__}: {exc}")


def check_outputs(outcomes) -> list:
    """Every gate for one body; see gates.py."""
    results = []
    for step, code, output in outcomes:
        label = step.command if step.config is None else f"{step.command} {step.config.stem}"
        results.append(gates.exit_code(label, code))
        if step.command == "verify":
            results.append(gates.verify_passed(output))
            continue
        results.append(gates.files_present(label, step.expected()))
        out = step.out_dir
        # A direct damping table may also damp populations (dissipative_direct).
        noise = yaml.safe_load(step.config.read_text())["noise"]
        if step.command == "evolve" and "direct_lambda" not in noise:
            results.append(_guarded(label, gates.dephased_states, out / "analytic.csv", step.config))
        elif step.command == "integrate":
            results.append(_guarded(label, gates.route_gap, out / "analytic.csv", out / "me.csv"))
            results.append(_guarded(label, gates.cp_ok, out / "cp_report.json"))
        elif step.command == "sample":
            results.append(
                _guarded(label, gates.familywise,
                         out / "mc_mean.csv", out / "mc_stderr.csv", out / "analytic.csv")
            )
    return results


def _bound(fn, call) -> dict:
    return inspect.signature(fn).bind(*call.args, **call.kwargs).arguments


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def per_layer_metrics(noisytime, tracer, steps, untraced_wall: float, traced_wall: float) -> dict:
    """Layer times from the spans, counts computed from shapes, and the replays."""
    montecarlo, noise = noisytime.montecarlo, noisytime.noise
    total, calls = tracer.total, tracer.calls
    self_times = tracer.self_times()

    pair_evals = 0
    for call in calls["propagator.averaged_trajectory"]:
        arg = _bound(noisytime.propagator.averaged_trajectory, call)
        model, m = arg["model"], arg["decomposition"].num_levels
        if model.direct_lambda is None and not model.sigma_time.is_constant:
            pair_evals += m * (m + 1) // 2 * int(np.count_nonzero(np.asarray(arg["grid"]) > 0))

    # integrate's step rule: substeps of at most 0.01 / max|rate| per interval.
    substeps = 0
    for call in calls["generator.integrate"]:
        arg = _bound(noisytime.generator.integrate, call)
        max_rate = float(np.max(np.abs(arg["generator"].rates)))
        spans = np.diff(np.asarray(arg["grid"], dtype=float))
        if max_rate > 0:
            substeps += int(np.sum(np.maximum(1, np.ceil(spans / (0.01 / max_rate)))))
        else:
            substeps += spans.size

    choi_bytes = 0
    for call in calls["generator.cp_report"]:
        arg = _bound(noisytime.generator.cp_report, call)
        choi_bytes += 16 * arg["generator"].dim ** 4 * np.asarray(arg["times"]).size

    budget = getattr(montecarlo, "CHUNK_ELEMENT_BUDGET", 4_000_000)
    max_chunk = getattr(montecarlo, "MAX_CHUNK", 256)
    chunks = traj_points = 0
    chi_s = serial_s = parallel_s = 0.0
    for call in calls["montecarlo.run_ensemble"]:
        arg = _bound(montecarlo.run_ensemble, call)
        dec, grid, n_traj = arg["decomposition"], np.asarray(arg["grid"]), arg["n_traj"]
        chunk = max(1, min(max_chunk, budget // max(1, grid.size * dec.dim**2)))
        chunks += math.ceil(n_traj / chunk)
        traj_points += n_traj * grid.size
        chi_s += _timed(noise.sample_chi_paths, arg["model"], dec.levels, grid, arg["seed"], n_traj)
        serial_s += _timed(montecarlo.run_ensemble, **{**arg, "n_workers": 1})
        parallel_s += _timed(montecarlo.run_ensemble, **{**arg, "n_workers": 2})

    reports = [c.result for c in calls["montecarlo.compare"]]
    ensemble_s = total("montecarlo.run_ensemble")
    cli_spans = {s.name for s in tracer.spans if s.name.startswith("cli.")}
    output_bytes = sum(p.stat().st_size for s in steps if s.out_dir for p in s.expected() if p.is_file())

    seconds, count, computed = "s", "count", "computed-count"
    metrics = {
        "noise.lambda_kernel_s": (total("noise.lambda_kernel"), seconds),
        "noise.lambda_pair_evals": (pair_evals, computed),
        "propagator.averaged_trajectory_s": (total("propagator.averaged_trajectory"), seconds),
        "propagator.self_s": (self_times.get("propagator.averaged_trajectory", 0.0), seconds),
        "generator.integrate_s": (total("generator.integrate"), seconds),
        "generator.rk4_substeps": (substeps, computed),
        "generator.cp_report_s": (total("generator.cp_report"), seconds),
        "generator.choi_bytes": (int(choi_bytes), "computed-bytes"),
        "noise.chi_paths_s": (chi_s, seconds),
        "montecarlo.run_ensemble_s": (ensemble_s, seconds),
        "montecarlo.accumulate_s": (serial_s - chi_s, seconds),
        "montecarlo.chunks": (chunks, computed),
        "montecarlo.traj_points_per_s": (traj_points / ensemble_s if ensemble_s else 0.0, "1/s"),
        "montecarlo.speedup_2t": (serial_s / parallel_s if parallel_s else 0.0, "ratio"),
        "montecarlo.compare_s": (total("montecarlo.compare"), seconds),
        "montecarlo.max_z": (max((r.max_z for r in reports), default=0.0), "z"),
        "montecarlo.ztest_failed": (sum(1 for r in reports if r.passed is False), count),
        "operators.eigendecompose_s": (total("operators.eigendecompose"), seconds),
        "operators.eigendecompose_calls": (tracer.count("operators.eigendecompose"), count),
        "results.metrics_table_s": (total("results.metrics_table"), seconds),
        "cli.self_s": (sum(self_times[name] for name in cli_spans), seconds),
        "cli.output_bytes": (output_bytes, "computed-bytes"),
        "config.load_s": (total("config.load"), seconds),
        "noise.moment_report_s": (total("noise.moment_report"), seconds),
        "verify.run_suite_s": (total("verify.run_suite"), seconds),
        "verify.checks": (sum(len(c.result) for c in calls["verify.run_suite"]), count),
    }
    for command in ("evolve", "integrate", "sample", "moments", "verify"):
        metrics[f"cli.{command}_s"] = (total(f"cli.{command}"), seconds)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, seconds)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    noisytime = import_program()
    work_dir = RUN_DIR / args.workload
    steps = write_inputs(args.workload, args.seed, work_dir)
    # CLOCK_MONOTONIC is system-wide on Linux, so run.py can subtract its own
    # start time from this stamp to get set-up time from interpreter launch.
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    cli = noisytime.cli
    if args.trace == 0:
        bodies = [run_body(cli, steps)]
        per_layer = None
    else:
        # The first body warms caches; the second is the untraced reference.
        untraced = [run_body(cli, steps) for _ in range(2)][-1]
        tracer = Tracer()
        with tracer.installed():
            traced = run_body(cli, steps, tracer)
        bodies = [untraced, traced]
        per_layer = per_layer_metrics(noisytime, tracer, steps, untraced["wall_s"], traced["wall_s"])
        tracer.dump(work_dir / f"spans-seed{args.seed}.json")

    payload = {
        "wall_s": [b["wall_s"] for b in bodies],
        "cpu_s": [b["cpu_s"] for b in bodies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gates": [g.to_dict() for body in bodies for g in body["gates"]],
        "per_layer": per_layer,
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
