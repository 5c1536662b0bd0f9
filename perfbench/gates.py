"""Correctness gates on the files the CLI writes.

Each gate returns a ``Gate``; every gate that fails counts as one failed
operation.  The gates read only the output files and the scenario YAML, never program
internals:

* every expected output file is present;
* no subcommand exits with code 2 (configuration or usage error);
* analytic.csv and me.csv agree entrywise to ROUTE_GAP_TOL;
* cp_report.json reports ``cp_ok``;
* verify prints "all N checks passed";
* the Monte Carlo mean lies within the family-wise z bound of analytic.csv;
* under a Brownian noise model every analytic.csv row is a state that keeps
  its populations in the eigenbasis of the scenario's Hamiltonian.

The family-wise bound is Phi^-1(1 - FAMILYWISE_ALPHA / (2 N)) over the N
compared components with nonzero standard error (a Bonferroni correction), so
the chance that a correct ensemble fails the gate is at most FAMILYWISE_ALPHA.
Components whose standard error is at rounding level are deterministic and
must instead match the reference to ROUNDING.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np
import yaml

ROUTE_GAP_TOL = 1e-8
FAMILYWISE_ALPHA = 1e-3
# Standard errors at or below this are rounding noise of a deterministic
# component (the t = 0 row, frozen populations): such a component is not
# z-tested but must match the reference to the same absolute level.
ROUNDING = 1e-12
# Hermiticity, unit trace, positivity and energy-basis populations of the
# analytic states; measured errors are below 1e-15.
STATE_TOL = 1e-10

_VERIFY_OK = re.compile(r"^all (\d+) checks passed$", re.MULTILINE)


@dataclass(frozen=True)
class Gate:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def read_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Grid and complex (T, d, d) states from a trajectory or stderr CSV."""
    path = Path(path)
    with path.open() as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    re_cols = [i for i, c in enumerate(header) if c.startswith("rho_re_")]
    im_cols = [i for i, c in enumerate(header) if c.startswith("rho_im_")]
    dim = int(round(len(re_cols) ** 0.5))
    if dim * dim != len(re_cols) or len(im_cols) != len(re_cols):
        raise ValueError(f"{path}: {len(re_cols)} real columns is not a square matrix")
    states = (data[:, re_cols] + 1j * data[:, im_cols]).reshape(-1, dim, dim)
    return data[:, header.index("t")], states


def files_present(label: str, paths: list[Path]) -> Gate:
    missing = [p.name for p in paths if not p.is_file()]
    detail = f"missing {missing}" if missing else f"{len(paths)} files"
    return Gate(f"{label}: outputs present", not missing, detail)


def exit_code(label: str, code: int) -> Gate:
    return Gate(f"{label}: exit code", code != 2, f"exit {code}")


def route_gap(label: str, analytic_csv: Path, me_csv: Path) -> Gate:
    """Analytic and master-equation trajectories agree to ROUTE_GAP_TOL."""
    grid_a, analytic = read_table(analytic_csv)
    grid_m, me = read_table(me_csv)
    if analytic.shape != me.shape or not np.array_equal(grid_a, grid_m):
        return Gate(f"{label}: route gap", False, "grids or shapes differ")
    gap = float(np.max(np.abs(analytic - me)))
    return Gate(f"{label}: route gap", gap <= ROUTE_GAP_TOL, f"max |analytic - me| = {gap:.3e}")


def cp_ok(label: str, report_json: Path) -> Gate:
    report = json.loads(Path(report_json).read_text())
    return Gate(
        f"{label}: cp_ok",
        report.get("cp_ok") is True,
        f"min Choi eigenvalue {report.get('min_choi_eigenvalue')!r}",
    )


def verify_passed(output: str) -> Gate:
    match = _VERIFY_OK.search(output)
    last = output.strip().splitlines()[-1] if output.strip() else "no output"
    return Gate("verify: all checks passed", match is not None, last)


def familywise_z(mean: np.ndarray, stderr_re: np.ndarray, stderr_im: np.ndarray,
                 reference: np.ndarray) -> tuple[float, float, int, float]:
    """Largest z over components with nonzero stderr, the bound, their count,
    and the largest deviation over the deterministic components."""
    dev = np.concatenate([
        np.abs(mean.real - reference.real).ravel(), np.abs(mean.imag - reference.imag).ravel()
    ])
    stderr = np.concatenate([stderr_re.ravel(), stderr_im.ravel()])
    compared = stderr > ROUNDING
    n = int(np.count_nonzero(compared))
    fixed_dev = float(np.max(dev[~compared], initial=0.0))
    if n == 0:
        return 0.0, float("inf"), 0, fixed_dev
    max_z = float(np.max(dev[compared] / stderr[compared]))
    bound = NormalDist().inv_cdf(1.0 - FAMILYWISE_ALPHA / (2 * n))
    return max_z, bound, n, fixed_dev


def familywise(label: str, mc_mean_csv: Path, mc_stderr_csv: Path, analytic_csv: Path) -> Gate:
    grid_m, mean = read_table(mc_mean_csv)
    _, stderr = read_table(mc_stderr_csv)
    grid_a, reference = read_table(analytic_csv)
    if reference.shape != mean.shape or not np.array_equal(grid_a, grid_m):
        return Gate(f"{label}: Monte Carlo family-wise z", False, "grids or shapes differ")
    max_z, bound, n, fixed_dev = familywise_z(mean, stderr.real, stderr.imag, reference)
    return Gate(
        f"{label}: Monte Carlo family-wise z",
        max_z <= bound and fixed_dev <= ROUNDING,
        f"max z {max_z:.3f} vs bound {bound:.3f} over {n} components; "
        f"max deviation {fixed_dev:.1e} where the ensemble is deterministic",
    )


def dephased_states(label: str, analytic_csv: Path, scenario_yaml: Path) -> Gate:
    """Noise that only randomizes the evolution time dephases in the energy
    basis: each state is Hermitian, unit trace and positive, and its
    populations in the eigenbasis of H stay at their t = 0 values."""
    rows = yaml.safe_load(Path(scenario_yaml).read_text())["hamiltonian"]
    _, basis = np.linalg.eigh(np.array([[complex(*v) for v in row] for row in rows]))
    _, states = read_table(analytic_csv)
    errors = {
        "hermiticity": np.max(np.abs(states - states.conj().transpose(0, 2, 1))),
        "trace": np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)),
        "negativity": max(0.0, -np.min(np.linalg.eigvalsh(states))),
        "population drift": np.max(np.abs(
            np.einsum("ia,tij,ja->ta", basis.conj(), states - states[0], basis)
        )),
    }
    return Gate(
        f"{label}: dephased states",
        all(e <= STATE_TOL for e in errors.values()),
        ", ".join(f"{k} {float(e):.1e}" for k, e in errors.items()),
    )
