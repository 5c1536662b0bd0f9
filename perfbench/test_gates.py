"""Self-test of the correctness gates.

Runs the CLI on a small qubit scenario, then feeds the route-gap and
family-wise gates an analytic reference computed with twice the noise
strength: both gates must pass on the true reference and trip on the
perturbed one.  The dephased-states gate must pass with the scenario's own
Hamiltonian and trip when it is given a Hamiltonian with another eigenbasis.

    python3 perfbench/test_gates.py        # or: python3 -m pytest perfbench/test_gates.py
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gates  # noqa: E402
from workload import import_program  # noqa: E402

GAMMA_FACTOR = 2.0


def _scenario(tmp: Path, name: str, gamma_factor: float) -> Path:
    from noisytime import bundled_scenario_text

    data = yaml.safe_load(bundled_scenario_text("global_dephasing"))
    data["noise"]["sigma_theta"]["coefficient"] *= gamma_factor**0.5
    data["noise"]["gamma"] *= gamma_factor
    data["grid"]["n_steps"] = 20
    data["montecarlo"]["n_traj"] = 4000
    data["outputs"]["directory"] = str(tmp / name)
    path = tmp / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def _run(cli, *argv: str) -> None:
    with redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise AssertionError(f"noisytime {' '.join(argv)} exited with {code}")


def _outputs(tmp: Path) -> tuple[Path, Path]:
    """True outputs in tmp/true, and the perturbed analytic.csv in tmp/perturbed."""
    cli = import_program().cli
    true_cfg = _scenario(tmp, "true", 1.0)
    _run(cli, "evolve", "--config", str(true_cfg))
    _run(cli, "integrate", "--config", str(true_cfg), "--generator", "phase")
    _run(cli, "sample", "--config", str(true_cfg))
    _run(cli, "evolve", "--config", str(_scenario(tmp, "perturbed", GAMMA_FACTOR)))
    return tmp / "true", tmp / "perturbed"


def test_route_gap_trips_on_perturbed_reference():
    with tempfile.TemporaryDirectory() as tmp:
        true, perturbed = _outputs(Path(tmp))
        assert gates.route_gap("true", true / "analytic.csv", true / "me.csv").passed
        assert not gates.route_gap("perturbed", perturbed / "analytic.csv", true / "me.csv").passed


def test_familywise_trips_on_perturbed_reference():
    with tempfile.TemporaryDirectory() as tmp:
        true, perturbed = _outputs(Path(tmp))
        mean, stderr = true / "mc_mean.csv", true / "mc_stderr.csv"
        assert gates.familywise("true", mean, stderr, true / "analytic.csv").passed
        assert not gates.familywise("perturbed", mean, stderr, perturbed / "analytic.csv").passed


def test_dephased_states_trips_on_wrong_eigenbasis():
    with tempfile.TemporaryDirectory() as tmp:
        true, _ = _outputs(Path(tmp))
        data = yaml.safe_load((Path(tmp) / "true.yaml").read_text())
        data["hamiltonian"] = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        wrong = Path(tmp) / "wrong_basis.yaml"
        wrong.write_text(yaml.safe_dump(data))
        analytic = true / "analytic.csv"
        assert gates.dephased_states("true", analytic, Path(tmp) / "true.yaml").passed
        assert not gates.dephased_states("wrong basis", analytic, wrong).passed


TESTS = (
    test_route_gap_trips_on_perturbed_reference,
    test_familywise_trips_on_perturbed_reference,
    test_dephased_states_trips_on_wrong_eigenbasis,
)

if __name__ == "__main__":
    for test in TESTS:
        test()
        print(f"PASS  {test.__name__}")
