import csv
import json
import math
import re

import numpy as np
import pytest

from noisytime import (
    EvolutionResult,
    averaged_trajectory,
    build_generator,
    integrate,
    load_config,
)
from noisytime.cli import _stderr_csv, _trajectory_csv, main


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


METRIC_KEYS = ("purity", "coherence_l1", "energy", "trace")


def _reference_csv(grid, re, im, metrics=None) -> str:
    """Per-element format(x, ".17g"), row by row, as the writers once did."""
    dim = re.shape[1]
    header = ["t"]
    for k in range(dim):
        for l in range(dim):
            header += [f"rho_re_{k}_{l}", f"rho_im_{k}_{l}"]
    if metrics is not None:
        header += METRIC_KEYS
    lines = [",".join(header)]
    for i, t in enumerate(grid):
        row = [format(float(t), ".17g")]
        for k in range(dim):
            for l in range(dim):
                row.append(format(float(re[i, k, l]), ".17g"))
                row.append(format(float(im[i, k, l]), ".17g"))
        if metrics is not None:
            row += [format(float(metrics[key][i]), ".17g") for key in METRIC_KEYS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _awkward_values(rng, shape):
    """Random doubles of many magnitudes, led by -0.0, 0.0, a subnormal, a huge value and 0.1."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    special = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1]
    flat = values.reshape(-1)
    n = min(flat.size, len(special))
    flat[:n] = special[:n]
    return values


class TestCsvWriters:
    """The table writers against a per-element format(x, ".17g") loop."""

    def test_trajectory_matches_per_element_format(self):
        rng = np.random.default_rng(3)
        grid = np.array([0.0, 0.1, 1.0 / 3.0, 2.5])
        states = _awkward_values(rng, (4, 3, 3)) + 1j * _awkward_values(rng, (4, 3, 3))
        metrics = {key: _awkward_values(rng, (4,)) for key in METRIC_KEYS}
        result = EvolutionResult(grid, states, "analytic")
        expected = _reference_csv(grid, states.real, states.imag, metrics)
        assert "-0," in expected
        assert _trajectory_csv(result, metrics).encode() == expected.encode()
        plain = _reference_csv(grid, states.real, states.imag)
        assert _trajectory_csv(result).encode() == plain.encode()

    def test_stderr_matches_per_element_format(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 1.0, 5)
        stderr_re = _awkward_values(rng, (5, 2, 2))
        stderr_im = _awkward_values(rng, (5, 2, 2))
        expected = _reference_csv(grid, stderr_re, stderr_im)
        assert "-0," in expected
        assert _stderr_csv(grid, stderr_re, stderr_im).encode() == expected.encode()


class TestEvolve:
    def test_writes_trajectory(self, scenario_yaml, tmp_path):
        config = scenario_yaml("global_dephasing", **{"grid.n_steps": 10})
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        rows = read_csv(out / "analytic.csv")
        assert len(rows) == 11
        header = list(rows[0])
        assert header[:5] == ["t", "rho_re_0_0", "rho_im_0_0", "rho_re_0_1", "rho_im_0_1"]
        assert header[-4:] == ["purity", "coherence_l1", "energy", "trace"]

    def test_values_round_trip_doubles(self, scenario_yaml, tmp_path):
        # %.17g is enough digits to reconstruct the exact binary double
        config = scenario_yaml("global_dephasing", **{"grid.n_steps": 4})
        out = tmp_path / "run"
        main(["evolve", "--config", str(config), "--out", str(out)])
        rows = read_csv(out / "analytic.csv")
        t = float(rows[-1]["t"])
        coherence = float(rows[-1]["coherence_l1"])
        assert t == 5.0
        assert coherence == pytest.approx(math.exp(-0.5 * 0.5 * 5.0), rel=1e-12)

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "ghost.yaml")]) == 2
        assert main(["evolve"]) == 2

    def test_no_leftover_tempfiles(self, scenario_yaml, tmp_path):
        config = scenario_yaml("global_dephasing", **{"grid.n_steps": 4})
        out = tmp_path / "run"
        main(["evolve", "--config", str(config), "--out", str(out)])
        assert not list(out.glob("*.tmp"))

    def test_formats_filter(self, scenario_yaml, tmp_path):
        config = scenario_yaml(
            "global_dephasing", **{"grid.n_steps": 4, "outputs.formats": ["json"]}
        )
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        assert not (out / "analytic.csv").exists()


class TestIntegrate:
    def test_phase_generator_matches_analytic(self, scenario_yaml, tmp_path):
        config = scenario_yaml("global_dephasing", **{"grid.n_steps": 20})
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        assert (
            main(["integrate", "--config", str(config), "--out", str(out), "--generator", "phase"])
            == 0
        )
        analytic = read_csv(out / "analytic.csv")
        ode = read_csv(out / "me.csv")
        for row_a, row_b in zip(analytic, ode):
            for key in row_a:
                assert float(row_a[key]) == pytest.approx(float(row_b[key]), abs=1e-8)
        report = json.loads((out / "cp_report.json").read_text())
        assert report["cp_ok"] is True
        assert report["generator"] == "phase"

    def test_trajectories_are_in_the_computational_basis(self, scenario_yaml, tmp_path):
        # a non-diagonal Hamiltonian separates the computational basis from
        # the energy eigenbasis; both CSVs hold the states of the routes as
        # EvolutionResult.states, i.e. in the computational basis
        hamiltonian = [
            [[0.2, 0.0], [0.5, 0.3], [0.0, -0.4]],
            [[0.5, -0.3], [1.0, 0.0], [0.25, 0.0]],
            [[0.0, 0.4], [0.25, 0.0], [1.7, 0.0]],
        ]
        config_path = scenario_yaml(
            "global_dephasing", **{"hamiltonian": hamiltonian, "grid.n_steps": 12}
        )
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config_path), "--out", str(out)]) == 0
        args = ["integrate", "--config", str(config_path), "--out", str(out), "--generator", "phase"]
        assert main(args) == 0
        config = load_config(config_path)
        dec, grid = config.decomposition(), config.times()
        assert np.max(np.abs(dec.eigenvectors - np.diag(np.diag(dec.eigenvectors)))) > 0.1
        generator = build_generator(dec, config.noise)
        expected = {
            "analytic.csv": averaged_trajectory(dec, config.noise, config.initial_state, grid),
            "me.csv": integrate(generator, config.initial_state, grid, decomposition=dec),
        }
        for name, result in expected.items():
            rows = read_csv(out / name)
            assert len(rows) == grid.size
            for row, state in zip(rows, result.states):
                for k in range(3):
                    for l in range(3):
                        assert float(row[f"rho_re_{k}_{l}"]) == state[k, l].real
                        assert float(row[f"rho_im_{k}_{l}"]) == state[k, l].imag
            assert abs(float(rows[0]["rho_re_0_1"]) - 1.0 / 3.0) < 1e-15  # plus state

    def test_huge_rate_exits_2(self, scenario_yaml, tmp_path, capsys):
        # sigma_theta carries the strength, so it must match gamma for the
        # phase generator to represent the model
        config = scenario_yaml(
            "global_dephasing",
            **{"noise.gamma": 1e9, "noise.sigma_theta.coefficient": math.sqrt(1e9)},
        )
        out = tmp_path / "run"
        args = ["integrate", "--config", str(config), "--out", str(out), "--generator", "phase"]
        assert main(args) == 2
        assert "RK4 substeps" in capsys.readouterr().err
        assert not (out / "me.csv").exists()

    def test_correlated_generator(self, scenario_yaml, tmp_path):
        config = scenario_yaml("correlated_tau", **{"grid.n_steps": 15})
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        code = main(
            ["integrate", "--config", str(config), "--out", str(out), "--generator", "correlated"]
        )
        assert code == 0
        for row_a, row_b in zip(read_csv(out / "analytic.csv"), read_csv(out / "me.csv")):
            for key in row_a:
                assert float(row_a[key]) == pytest.approx(float(row_b[key]), abs=1e-8)

    def test_correlated_needs_gaussian_kernel(self, scenario_yaml, tmp_path):
        config = scenario_yaml("global_dephasing")  # uniform correlation
        code = main(
            ["integrate", "--config", str(config), "--out", str(tmp_path), "--generator", "correlated"]
        )
        assert code == 2

    # Models that the phase or correlated family does not represent; built
    # anyway, the family would integrate a different model, with
    # max|analytic - me| of order 1.
    MISMATCHED = [
        (
            "correlated_tau",
            "correlated",
            {"noise.sigma_time": {"kind": "constant", "value": 2.0}},
            "noise.sigma_time",
        ),
        (
            "correlated_tau",
            "correlated",
            {"noise.sigma_theta.coefficient": 0.3},
            "noise.sigma_theta",
        ),
        (
            "global_dephasing",
            "phase",
            {"noise.correlation_g": {"kind": "gaussian", "tau": 1.0}},
            "noise.correlation_g",
        ),
        (
            "global_dephasing",
            "phase",
            {"noise.drift_h": {"kind": "affine", "a": 2.0, "b": 0.0}},
            "noise.drift_h",
        ),
    ]

    @pytest.mark.parametrize("name, generator, patch, field", MISMATCHED)
    def test_family_refuses_other_models(
        self, name, generator, patch, field, scenario_yaml, tmp_path, capsys
    ):
        config = scenario_yaml(name, **patch)
        out = tmp_path / "run"
        args = ["integrate", "--config", str(config), "--out", str(out), "--generator", generator]
        assert main(args) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_general_generator_on_direct_table(self, scenario_yaml, tmp_path):
        config = scenario_yaml("dissipative_direct", **{"grid.n_steps": 20})
        out = tmp_path / "run"
        assert (
            main(["integrate", "--config", str(config), "--out", str(out), "--generator", "general"])
            == 0
        )
        rows = read_csv(out / "me.csv")
        # trace decays under the dissipative table
        assert float(rows[-1]["trace"]) < 0.5
        assert float(rows[0]["trace"]) == pytest.approx(1.0, abs=1e-12)

    def test_general_rejects_time_dependent_profile(self, scenario_yaml, tmp_path):
        config = scenario_yaml("nonmarkovian_piecewise")
        code = main(
            ["integrate", "--config", str(config), "--out", str(tmp_path), "--generator", "general"]
        )
        assert code == 2


class TestSample:
    def test_outputs_and_pass(self, scenario_yaml, tmp_path):
        config = scenario_yaml(
            "global_dephasing", **{"grid.n_steps": 5, "montecarlo.n_traj": 4000}
        )
        out = tmp_path / "run"
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["pass"] is True
        assert report["n_traj"] == 4000
        mean_rows = read_csv(out / "mc_mean.csv")
        stderr_rows = read_csv(out / "mc_stderr.csv")
        assert len(mean_rows) == len(stderr_rows) == 6
        assert "purity" in mean_rows[0]
        assert "purity" not in stderr_rows[0]

    def test_seed_override_changes_output(self, scenario_yaml, tmp_path):
        config = scenario_yaml(
            "global_dephasing", **{"grid.n_steps": 4, "montecarlo.n_traj": 200}
        )
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["sample", "--config", str(config), "--out", str(a), "--seed", "1"])
        main(["sample", "--config", str(config), "--out", str(b), "--seed", "2"])
        main(["sample", "--config", str(config), "--out", str(c), "--seed", "1"])
        bytes_a = (a / "mc_mean.csv").read_bytes()
        assert bytes_a != (b / "mc_mean.csv").read_bytes()
        assert bytes_a == (c / "mc_mean.csv").read_bytes()

    def test_grid_misaligned_with_breakpoint(self, scenario_yaml, tmp_path):
        # the sigma_time step at t = 1 falls inside the grid step (6/7, 8/7)
        config = scenario_yaml(
            "nonmarkovian_piecewise", **{"grid.n_steps": 7, "montecarlo.n_traj": 20000}
        )
        out = tmp_path / "run"
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["pass"] is True
        assert len(report["per_time"]) == 8

    def test_dissipative_rejected(self, scenario_yaml, tmp_path):
        config = scenario_yaml("dissipative_direct")
        assert main(["sample", "--config", str(config), "--out", str(tmp_path)]) == 2

    def test_zero_threads_exits_2(self, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 10})
        out = tmp_path / "run"
        assert main(["sample", "--config", str(config), "--out", str(out), "--threads", "0"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_single_trajectory_exits_2(self, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 1})
        out = tmp_path / "run"
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 2
        assert "montecarlo.n_traj" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_exits_2(self, seed, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 10})
        out = tmp_path / "run"
        assert main(["sample", "--config", str(config), "--out", str(out), "--seed", seed]) == 2
        assert "config error: --seed:" in capsys.readouterr().err
        assert not out.exists()


class TestThreads:
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("evolve", []),
            ("integrate", ["--generator", "phase"]),
            ("sample", []),
            ("moments", ["--theta", "0.0", "--theta-prime", "1.0"]),
            ("verify", ["--quick"]),
        ],
    )
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_exits_2(self, command, extra, threads, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 10})
        out = tmp_path / "run"
        args = [command, "--config", str(config), "--out", str(out), "--threads", threads]
        assert main(args + extra) == 2
        assert "config error: --threads:" in capsys.readouterr().err
        assert not out.exists()


class TestMoments:
    def test_writes_table(self, scenario_yaml, tmp_path):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 2000})
        out = tmp_path / "run"
        code = main(
            [
                "moments",
                "--config",
                str(config),
                "--out",
                str(out),
                "--theta",
                "0.0",
                "--theta-prime",
                "1.0",
            ]
        )
        assert code == 0
        rows = read_csv(out / "moments.csv")
        assert [r["order"] for r in rows] == ["2", "3", "4"]
        lam = 0.5 * 5.0  # gamma t (theta - theta')^2 under uniform correlation
        assert float(rows[0]["predicted"]) == pytest.approx(lam, rel=1e-12)
        assert float(rows[2]["predicted"]) == pytest.approx(3 * lam * lam, rel=1e-12)

    @staticmethod
    def _moments(config, out, *extra):
        args = ["moments", "--config", str(config), "--out", str(out)]
        return main(args + ["--theta", "0.0", "--theta-prime", "1.0", *extra])

    def test_max_order_below_2_exits_2(self, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 10})
        out = tmp_path / "run"
        assert self._moments(config, out, "--max-order", "1") == 2
        assert "--max-order" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["200", "400"])
    def test_max_order_overflow_exits_2(self, order, scenario_yaml, tmp_path, capsys):
        # 200: the sampled powers overflow (inf stderr); 400: the predicted moment does
        config = scenario_yaml("global_dephasing")
        out = tmp_path / "run"
        assert self._moments(config, out, "--max-order", order) == 2
        err = capsys.readouterr().err
        assert "config error: --max-order:" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_single_trajectory_exits_2(self, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 1})
        out = tmp_path / "run"
        assert self._moments(config, out) == 2
        assert "montecarlo.n_traj" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--theta", "--theta-prime"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_level_exits_2(self, flag, value, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 10})
        out = tmp_path / "run"
        # --flag=value form: argparse reads a bare "-inf" as an option name
        levels = {"--theta": "0.0", "--theta-prime": "1.0", flag: value}
        args = ["moments", "--config", str(config), "--out", str(out)]
        assert main(args + [f"{name}={level}" for name, level in levels.items()]) == 2
        assert f"config error: {flag}:" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "ensemble-matches-analytic" in lines
        assert len(lines) > 15

    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20
        lines = out.strip().splitlines()
        # the perfbench gate matches the last line as it stands
        assert lines[-1] == f"all {len(lines) - 1} checks passed"
        for line in lines[:-1]:
            assert re.fullmatch(r"PASS  \S+ +.*  \(\d+\.\d\d s\)", line), line

    def test_scenario_checks_are_timed(self, scenario_yaml, capsys):
        config = scenario_yaml("correlated_tau", **{"montecarlo.n_traj": 500})
        assert main(["verify", "--quick", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        scenario = [line for line in lines if line.startswith("PASS  scenario-")]
        assert [line.split()[1] for line in scenario] == [
            "scenario-round-trip",
            "scenario-analytic-hermitian",
            "scenario-ensemble-z-test",
        ]
        assert all(re.search(r"  \(\d+\.\d\d s\)$", line) for line in scenario)

    def test_fault_injection_fails(self, capsys):
        assert main(["verify", "--quick", "--inject-wrong-gamma", "2.0"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  ensemble-matches-analytic" in out
