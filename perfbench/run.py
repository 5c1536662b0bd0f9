"""Benchmark of the noisytime command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see inputs.py for why each exists): bundled_cli, markov_d32 and
piecewise_d16, which BENCHMARK.json leaves out as unsteady.  Each body runs in a fresh process of its own (workload.py),
which calls ``noisytime.cli.main`` in process with ``--threads 2``.

--trace 0 starts body processes one after another until --seconds have
passed (at least one), and prints the end-to-end metrics:
    setup_s      median over at least SETUP_RUNS fresh interpreters of the
                 time until noisytime is imported and the inputs are written
    wall_s       median wall time of the workload body
    cpu_s        median user + system CPU time of the body
    peak_rss_mb  median peak resident memory of the body processes
--trace 1 prints the per-layer metrics from one traced body (workload.py).
Counts labelled ``computed-*`` are derived from shapes and outputs, not
timed, and repeat exactly for a given seed.

Every run checks the outputs (gates.py); each failed gate is one failed
operation.  The last stdout line is the JSON result.  The full record, with
gate details and provenance (CPU, versions, commit), is written under
.perfbench-run/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PACKAGE = ROOT / "src" / "noisytime"
RESULTS_DIR = ROOT / ".perfbench-run" / "results"
WORKLOADS = ("bundled_cli", "markov_d32", "piecewise_d16")

SETUP_RUNS = 5
# Every run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run workload.py; return set-up seconds and its stdout."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(args)} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = next((l for l in lines if l.startswith("ready ")), None)
    if ready is None:
        raise BenchmarkError(f"{' '.join(args)} never finished set-up")
    return float(ready.split()[1]) - started, lines[-1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC_PACKAGE.rglob("*")):
        if path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "PyYAML"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups, children = [], []
    while not children or (trace == 0 and time.monotonic() - start < seconds):
        setup, last = _spawn(base + ["--trace", str(trace)], deadline)
        setups.append(setup)
        children.append(json.loads(last))
    while trace == 0 and len(setups) < SETUP_RUNS:
        setups.append(_spawn(base + ["--setup-only"], deadline)[0])

    gates = [g for child in children for g in child["gates"]]
    failed = sum(1 for g in gates if not g["passed"])
    walls = [w for child in children for w in child["wall_s"]]
    cpus = [c for child in children for c in child["cpu_s"]]
    rss = [child["peak_rss_mb"] for child in children]
    if trace == 0:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(statistics.median(rss), "MB"),
        }
    else:
        metrics = children[0]["per_layer"]
    result = {"correct": failed == 0, "attempted": len(gates), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(),
        "setup_samples_s": setups,
        "body_wall_s": walls,
        "body_cpu_s": cpus,
        "body_peak_rss_mb": rss,
        "gates": gates,
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="noisytime CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"error: no noisytime sources at {SRC_PACKAGE}", file=sys.stderr)
        return 1
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for gate in record["gates"]:
        if not gate["passed"]:
            print(f"FAIL  {gate['name']}: {gate['detail']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
