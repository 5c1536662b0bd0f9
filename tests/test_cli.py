import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import noisytime.config
import noisytime.verify
from noisytime import (
    DimensionMismatch,
    averaged_trajectory,
    build_generator,
    eigendecompose,
    integrate,
)
from noisytime import operators
from noisytime.cli import _atomic_write, _trajectory_csv, main
from noisytime.config import load_config
from noisytime.operators import _time_slabs
from noisytime.results import EvolutionResult


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


def _complex(re, im):
    """The complex stack with parts re and im, signed zeros kept."""
    stack = np.empty(np.shape(re), dtype=complex)
    stack.real, stack.imag = re, im
    return stack


def _awkward_values(rng, shape):
    """Random doubles of many magnitudes, led by -0.0, 0.0, a subnormal, a huge value and 0.1."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    special = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1]
    flat = values.reshape(-1)
    n = min(flat.size, len(special))
    flat[:n] = special[:n]
    return values


def _mirrored_awkward(rng, num_rows, dim, negate):
    """Awkward tables whose lower triangle copies the upper one, the
    imaginary parts negated when ``negate`` (a Hermitian state) or not (the
    standard errors of one).  Row 0 holds a subnormal and +-max double
    mirrored, and rows 0-3 every pair of signed zeros across the diagonal at
    entry (0, 1), as (upper, lower).  Under the routes' rule, lower = 0 - upper,
    (-0, +0) and (+0, +0) are a state's mirrors; (+0, +0) and (-0, -0) are a
    standard error's.  A state's diagonal is real."""
    re, im = _awkward_values(rng, (2, num_rows, dim, dim))
    re[0, 0, 1], im[0, 0, 1], re[0, 1, 1] = 5e-324, 1.7976931348623157e308, -1.7976931348623157e308
    k, l = np.tril_indices(dim, -1)
    re[:, k, l] = re[:, l, k]
    im[:, k, l] = -im[:, l, k] if negate else im[:, l, k]
    if negate:  # a real diagonal, zeros of both signs
        diagonal = np.arange(dim)
        im[0::2, diagonal, diagonal], im[1::2, diagonal, diagonal] = 0.0, -0.0
    for row, (upper, lower) in enumerate([(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)]):
        im[row, 0, 1], im[row, 1, 0] = upper, lower
    return re, im


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of about 2**13 values: 356 rows of 23 columns, 910 of 9."""
    monkeypatch.setattr(operators, "SLAB_ELEMENT_BUDGET", 1 << 13)
    assert [s.stop - s.start for s in _time_slabs(1000, 23)] == [356, 356, 288]
    assert [s.stop - s.start for s in _time_slabs(2000, 9)] == [910, 910, 180]


class TestCsvWriters:
    """The table writer against a per-element format(x, ".17g") loop."""

    def test_trajectory_matches_per_element_format(self):
        rng = np.random.default_rng(3)
        grid = np.array([0.0, 0.1, 1.0 / 3.0, 2.5])
        states = _awkward_values(rng, (4, 3, 3)) + 1j * _awkward_values(rng, (4, 3, 3))
        metrics = {key: _awkward_values(rng, (4,)) for key in METRIC_KEYS}
        expected = _reference_csv(grid, states.real, states.imag, metrics)
        assert "-0," in expected
        assert "".join(_trajectory_csv(grid, states, True, metrics)).encode() == expected.encode()

    def test_stderr_matches_per_element_format(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 1.0, 5)
        stderr_re = _awkward_values(rng, (5, 2, 2))
        stderr_im = _awkward_values(rng, (5, 2, 2))
        expected = _reference_csv(grid, stderr_re, stderr_im)
        assert "-0," in expected
        stderr = _complex(stderr_re, stderr_im)
        assert "".join(_trajectory_csv(grid, stderr, False)).encode() == expected.encode()

    def test_trajectory_across_row_blocks(self, small_blocks):
        # 1000 rows of 23 columns: two whole blocks of 356 rows and a partial one
        rng = np.random.default_rng(5)
        num_rows, dim = 1000, 3
        grid = np.linspace(0.0, 7.0, num_rows)
        states = _awkward_values(rng, (num_rows, dim, dim)) + 1j * _awkward_values(
            rng, (num_rows, dim, dim)
        )
        metrics = {key: _awkward_values(rng, (num_rows,)) for key in METRIC_KEYS}
        chunks = list(_trajectory_csv(grid, states, True, metrics))
        assert [chunk.count("\n") for chunk in chunks] == [1] * (1 + num_rows)
        expected = _reference_csv(grid, states.real, states.imag, metrics)
        assert "".join(chunks).encode() == expected.encode()

    def test_stderr_across_row_blocks(self, small_blocks):
        # 2000 rows of 9 columns: two whole blocks of 910 rows and a partial one
        rng = np.random.default_rng(6)
        num_rows = 2000
        grid = np.linspace(0.0, 3.0, num_rows)
        stderr_re = _awkward_values(rng, (num_rows, 2, 2))
        stderr_im = _awkward_values(rng, (num_rows, 2, 2))
        chunks = list(_trajectory_csv(grid, _complex(stderr_re, stderr_im), False))
        assert [chunk.count("\n") for chunk in chunks] == [1] * (1 + num_rows)
        expected = _reference_csv(grid, stderr_re, stderr_im)
        assert "".join(chunks).encode() == expected.encode()

    @pytest.mark.parametrize("num_rows", [6, 1000])
    def test_hermitian_trajectory(self, num_rows, small_blocks):
        # 1000 rows of 23 columns: three blocks, the last partial
        rng = np.random.default_rng(8)
        re, im = _mirrored_awkward(rng, num_rows, 3, negate=True)
        grid = np.linspace(0.0, 7.0, num_rows)
        metrics = {key: _awkward_values(rng, (num_rows,)) for key in METRIC_KEYS}
        states = _complex(re, im)
        assert np.array_equal(states, np.conj(np.swapaxes(states, 1, 2)))
        chunks = list(_trajectory_csv(grid, states, True, metrics))
        assert [chunk.count("\n") for chunk in chunks] == [1] * (1 + num_rows)
        expected = _reference_csv(grid, re, im, metrics)
        for text in ("4.9406564584124654e-324", "-1.7976931348623157e+308", ",-0,0,", ",0,-0,"):
            assert text in expected
        assert "".join(chunks).encode() == expected.encode()

    @pytest.mark.parametrize("num_rows", [6, 2000])
    def test_symmetric_stderr(self, num_rows, small_blocks):
        # 2000 rows of 9 columns: three blocks, the last partial
        rng = np.random.default_rng(9)
        stderr_re, stderr_im = _mirrored_awkward(rng, num_rows, 2, negate=False)
        grid = np.linspace(0.0, 3.0, num_rows)
        chunks = list(_trajectory_csv(grid, _complex(stderr_re, stderr_im), False))
        assert [chunk.count("\n") for chunk in chunks] == [1] * (1 + num_rows)
        expected = _reference_csv(grid, stderr_re, stderr_im)
        assert "".join(chunks).encode() == expected.encode()

    def test_broken_mirror_is_formatted(self):
        # one lower-triangle entry of a Hermitian table one ulp off its
        # mirror's conjugate, in the real part of one row and the imaginary
        # part of the next: a writer that reused the mirror would copy it
        rng = np.random.default_rng(10)
        re, im = _mirrored_awkward(rng, 8, 4, negate=True)
        re[5, 3, 1] = np.nextafter(re[5, 3, 1], np.inf)
        im[6, 2, 0] = np.nextafter(im[6, 2, 0], np.inf)
        grid = np.linspace(0.0, 1.0, 8)
        metrics = {key: _awkward_values(rng, (8,)) for key in METRIC_KEYS}
        states = _complex(re, im)
        expected = _reference_csv(grid, re, im, metrics)
        assert "".join(_trajectory_csv(grid, states, True, metrics)) == expected
        stderr = "".join(_trajectory_csv(grid, _complex(re, np.swapaxes(re, 1, 2)), False))
        assert stderr == _reference_csv(grid, re, np.swapaxes(re, 1, 2))

    def test_writing_memory_follows_the_blocks(self, tmp_path):
        # The traced peak of writing a T = 10001, d = 8 Hermitian table
        # (25 MB) in the writer's own blocks of 492 rows stays below a
        # quarter of the file: no whole-table float copy or text is built.
        # A block is a twentieth of the table, and only its float table and
        # one row's text are held at a time.
        rng = np.random.default_rng(7)
        num_rows, dim = 10001, 8
        assert len(_time_slabs(num_rows, 1 + 2 * dim * dim + len(METRIC_KEYS))) == 21
        grid = np.linspace(0.0, 10.0, num_rows)
        noise = rng.normal(size=(num_rows, dim, dim)) + 1j * rng.normal(size=(num_rows, dim, dim))
        states = noise + np.conj(np.swapaxes(noise, 1, 2))
        metrics = {key: rng.normal(size=num_rows) for key in METRIC_KEYS}
        target = tmp_path / "analytic.csv"
        tracemalloc.start()
        try:
            _atomic_write(target, _trajectory_csv(grid, states, True, metrics))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 25_000_000
        assert peak < size / 4


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

    def test_formats_filter(self, scenario_yaml, tmp_path, monkeypatch):
        # a table that is not written is never formed
        def unwanted(*args):
            raise AssertionError("metrics_table called for a table that is not written")

        monkeypatch.setattr(EvolutionResult, "metrics_table", unwanted)
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
        # sigma_theta carries the strength: a rate of 1e9 needs too many
        # substeps; the damping is the larger part of the largest rate, and
        # the substep count scales with t_end
        config = scenario_yaml(
            "global_dephasing", **{"noise.sigma_theta.coefficient": math.sqrt(1e9)}
        )
        out = tmp_path / "run"
        args = ["integrate", "--config", str(config), "--out", str(out), "--generator", "phase"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error: grid.t_end: grid needs" in err and "RK4 substeps" in err
        assert not (out / "me.csv").exists()

    def test_huge_drift_gap_exits_2(self, scenario_yaml, tmp_path, capsys):
        # a drift gap of 1e6 to t_end = 5 needs 5e8 substeps; the phase is
        # the larger part of the largest rate
        drift = {"kind": "affine", "a": 1e6, "b": 0.0}
        config = scenario_yaml("global_dephasing", **{"noise.drift_h": drift})
        out = tmp_path / "run"
        assert main(["integrate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: noise.drift_h: grid needs 5e+08 RK4 substeps" in err
        assert not out.exists()

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

    # Models that the phase or correlated family once refused: the one
    # builder reads each from its presets, whatever --generator says.
    OUTSIDE_THE_FAMILIES = [
        pytest.param(
            "correlated_tau",
            "correlated",
            {"noise.sigma_time": {"kind": "constant", "value": 2.0}},
            id="correlated_tau-sigma_time",
        ),
        pytest.param(
            "correlated_tau",
            "correlated",
            {"noise.sigma_theta.coefficient": 0.3},
            id="correlated_tau-sigma_theta",
        ),
        pytest.param(
            "global_dephasing",
            "phase",
            {"noise.correlation_g": {"kind": "gaussian", "tau": 1.0}},
            id="global_dephasing-correlation_g",
        ),
        pytest.param(
            "global_dephasing",
            "phase",
            {"noise.drift_h": {"kind": "affine", "a": 2.0, "b": 0.0}},
            id="global_dephasing-drift_h",
        ),
        pytest.param("global_dephasing", "correlated", {}, id="global_dephasing-uniform"),
    ]

    @pytest.mark.parametrize("name, family, patch", OUTSIDE_THE_FAMILIES)
    def test_other_model_matches_analytic(self, name, family, patch, scenario_yaml, tmp_path):
        config = scenario_yaml(name, **{"grid.n_steps": 20, **patch})
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
        args = ["integrate", "--config", str(config), "--out", str(out), "--generator", family]
        assert main(args) == 0
        analytic = read_csv(out / "analytic.csv")
        ode = read_csv(out / "me.csv")
        assert len(ode) == len(analytic) == 21
        for row_a, row_b in zip(analytic, ode):
            for key in row_a:
                assert float(row_a[key]) == pytest.approx(float(row_b[key]), abs=1e-8)

    @pytest.mark.parametrize("name", ["global_dephasing", "correlated_tau", "dissipative_direct"])
    def test_generator_flag_changes_no_byte(self, name, scenario_yaml, tmp_path):
        config = scenario_yaml(name, **{"grid.n_steps": 20})
        written = {}
        for family in (None, "phase", "correlated", "general"):
            out = tmp_path / str(family)
            flag = [] if family is None else ["--generator", family]
            assert main(["integrate", "--config", str(config), "--out", str(out)] + flag) == 0
            written[family] = [(out / file).read_bytes() for file in ("me.csv", "cp_report.json")]
        for family in ("phase", "correlated", "general"):
            assert written[family] == written[None], family

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

    @pytest.mark.filterwarnings("ignore::noisytime.DissipativeTraceLoss")
    def test_direct_table_follows_sigma_time(self, scenario_yaml, tmp_path):
        # lambda = S(t) table on both routes: a constant sigma_time of 1.7
        # scales the table by 1.7^2, and the states leave the unit run's
        written = {}
        for value in (1.0, 1.7):
            profile = {"kind": "constant", "value": value}
            config = scenario_yaml(
                "dissipative_direct", **{"grid.n_steps": 20, "noise.sigma_time": profile}
            )
            out = tmp_path / str(value)
            assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
            assert main(["integrate", "--config", str(config), "--out", str(out)]) == 0
            written[value] = [read_csv(out / name) for name in ("analytic.csv", "me.csv")]
        analytic, ode = written[1.7]
        for row_a, row_b in zip(analytic, ode):
            for key in row_a:
                assert float(row_a[key]) == pytest.approx(float(row_b[key]), abs=1e-8)
        unit = written[1.0][0]
        assert abs(float(analytic[-1]["trace"]) - float(unit[-1]["trace"])) > 0.1

    def test_one_piece_profile_is_the_constant_one(self, scenario_yaml, tmp_path):
        # a profile whose pieces all have the same value is time-independent,
        # and integrate takes it however it is written
        for scenario, value in (("correlated_tau", 0.7), ("global_dephasing", 1.0)):
            written = []
            for name, profile in {
                "constant": {"kind": "constant", "value": value},
                "one_piece": {"kind": "piecewise_constant", "breakpoints": [], "values": [value]},
                "equal_pieces": {
                    "kind": "piecewise_constant",
                    "breakpoints": [1.0],
                    "values": [value, value],
                },
            }.items():
                config = scenario_yaml(scenario, **{"noise.sigma_time": profile})
                out = tmp_path / scenario / name
                assert main(["integrate", "--config", str(config), "--out", str(out)]) == 0
                written.append((out / "me.csv").read_bytes())
            assert written[1] == written[0] and written[2] == written[0]

    def test_general_rejects_time_dependent_profile(self, scenario_yaml, tmp_path, capsys):
        # a direct table is refused as every other model: lambda = S(t) table
        profile = {"kind": "piecewise_constant", "breakpoints": [1.0], "values": [0.4, 1.6]}
        out = tmp_path / "run"
        for scenario in ("nonmarkovian_piecewise", "dissipative_direct"):
            config = scenario_yaml(scenario, **{"noise.sigma_time": profile})
            for flag in ([], ["--generator", "general"]):
                assert main(["integrate", "--config", str(config), "--out", str(out)] + flag) == 2
                assert "config error: noise.sigma_time:" in capsys.readouterr().err
                assert not out.exists()


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

    @pytest.mark.parametrize("fault", ["nan", "inf"])
    def test_non_finite_z_is_strict_json(self, fault, scenario_yaml, tmp_path, monkeypatch):
        # a NaN reference gives NaN deviations; an imaginary part on the
        # reference's diagonal, where every stderr is zero, gives z = inf.
        # Both are written as null.
        def reference(*args):
            result = averaged_trajectory(*args)
            states = result.states.copy()
            if fault == "nan":
                states[:] = complex(np.nan, np.nan)
            else:
                states[:, 0, 0] += 1e-6j
            return EvolutionResult(result.grid, states)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        monkeypatch.setattr(noisytime.cli, "averaged_trajectory", reference)
        config = scenario_yaml(
            "global_dephasing", **{"grid.n_steps": 4, "montecarlo.n_traj": 200}
        )
        out = tmp_path / "run"
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 1
        report = json.loads((out / "comparison.json").read_text(), parse_constant=refuse)
        assert report["max_z"] is None
        assert report["pass"] is False

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

    def test_dissipative_rejected(self, scenario_yaml, tmp_path, capsys):
        config = scenario_yaml("dissipative_direct")
        out = tmp_path / "run"
        assert main(["sample", "--config", str(config), "--out", str(out)]) == 2
        assert "config error: noise.direct_lambda:" in capsys.readouterr().err
        assert not out.exists()

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


class TestOutputPathIsAFile:
    """An output directory that is a file, or lies under one, exits 2 naming
    where it came from, before any route runs and without writing."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("evolve", []),
            ("integrate", ["--generator", "phase"]),
            ("sample", []),
            ("moments", ["--theta", "0.0", "--theta-prime", "1.0"]),
        ],
    )
    @pytest.mark.parametrize(
        "field, below",
        [
            ("--out", ""),
            ("--out", "run/tables"),
            ("outputs.directory", ""),
            ("outputs.directory", "run"),
        ],
    )
    def test_exits_2(
        self, command, extra, field, below, scenario_yaml, tmp_path, capsys, monkeypatch
    ):
        def route(*args, **kwargs):
            pytest.fail("a route ran")

        for name in ("averaged_trajectory", "integrate", "run_ensemble", "moment_report"):
            monkeypatch.setattr(f"noisytime.cli.{name}", route)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        if field == "--out":
            config = scenario_yaml("global_dephasing")
            extra = extra + ["--out", str(out)]
        else:
            config = scenario_yaml("global_dephasing", **{"outputs.directory": str(out)})
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(config)] + extra) == 2
        err = capsys.readouterr().err
        message = f"{out} cannot be a directory: {blocker} is not a directory"
        assert err.startswith(f"config error: {field}: {message}")
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["evolve", "sample"])
    def test_dangling_link_exits_2(self, command, scenario_yaml, tmp_path, capsys):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere")
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 10})
        assert main([command, "--config", str(config), "--out", str(link)]) == 2
        assert f"config error: --out: {link} cannot be a directory" in capsys.readouterr().err
        assert link.is_symlink() and not (tmp_path / "nowhere").exists()

    def test_verify_writes_nothing_and_ignores_it(self, scenario_yaml, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        config = scenario_yaml("dissipative_direct")
        assert main(["verify", "--quick", "--config", str(config), "--out", str(blocker)]) == 0
        assert blocker.read_text() == "kept\n"


class TestTableThatIsNotCompletelyPositive:
    """H = diag(0, 1, 2.5) with the direct table [[0, 1, 1], [1, 0, 5],
    [1, 5, 0]]: exp(-t D / 2) entrywise is not PSD for t below about 0.5, so
    no subcommand takes the config."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("evolve", []),
            ("integrate", ["--generator", "general"]),
            ("sample", []),
            ("moments", ["--theta", "0.0", "--theta-prime", "1.0"]),
            ("verify", ["--quick"]),
        ],
    )
    def test_exits_2(self, command, extra, scenario_yaml, tmp_path, capsys):
        row = [[0.0, 0.0]] * 3
        config = scenario_yaml(
            "dissipative_direct",
            **{
                "hamiltonian": [row, [row[0], [1.0, 0.0], row[0]], [row[0], row[0], [2.5, 0.0]]],
                "noise.direct_lambda.levels": [0.0, 1.0, 2.5],
                "noise.direct_lambda.table": [[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]],
            },
        )
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)] + extra) == 2
        assert "config error: noise.direct_lambda.table:" in capsys.readouterr().err
        assert not out.exists()


class TestTableThatOverflowsWhenSymmetrized:
    def test_evolve_exits_2(self, scenario_yaml, tmp_path, capsys):
        # each entry is finite, but 0.5 (D + D^T) overflows, and the run
        # would write non-finite states
        config = scenario_yaml(
            "dissipative_direct", **{"noise.direct_lambda.table": [[0.0, 1e308], [1e308, 0.0]]}
        )
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: noise.direct_lambda.table: entries overflow" in err
        assert not out.exists()


class TestKernelThatOverflowsOnTheGrid:
    """Numbers that parse, whose lambda(t) overflows on the scenario's own
    levels before t_end: the runs wrote NaN rows or failed with a
    traceback, and now exit 2 naming the field."""

    HUGE_TIME = {"noise.sigma_time": {"kind": "constant", "value": 1e154}}
    # (scenario, field named, overrides); the field is sigma_time where S(t)
    # itself overflows, else the source of the level part E
    CASES = {
        "sigma_theta": (
            "global_dephasing",
            "noise.sigma_theta",
            {"noise.sigma_theta": {"kind": "linear", "coefficient": 1e200}},
        ),
        "sigma_time": ("global_dephasing", "noise.sigma_time", HUGE_TIME),
        "table": (
            "dissipative_direct",
            "noise.direct_lambda.table",
            {"noise.direct_lambda.table": [[0.0, 8e307], [8e307, 0.0]]},
        ),
        # a direct table follows sigma_time as every model does
        "table_sigma_time": ("dissipative_direct", "noise.sigma_time", HUGE_TIME),
        # S(5) = 5e200 and E(0, 1) = 1e200 are finite, their product is not
        "sigma_theta_times_sigma_time": (
            "global_dephasing",
            "noise.sigma_theta",
            {
                "noise.sigma_theta": {"kind": "linear", "coefficient": 1e100},
                "noise.sigma_time": {"kind": "constant", "value": 1e100},
            },
        ),
        # nothing overflows, but t_end (h(1) - h(0)) = 5e300 leaves the
        # phases no significant digit
        "drift_h": (
            "global_dephasing",
            "noise.drift_h",
            {"noise.drift_h": {"kind": "affine", "a": 1e300, "b": 0.0}},
        ),
    }

    @pytest.mark.parametrize("command", ["evolve", "integrate", "sample", "verify"])
    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_naming_the_field(self, case, command, scenario_yaml, tmp_path, capsys):
        scenario, field, overrides = self.CASES[case]
        config = scenario_yaml(scenario, **overrides)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    def test_finite_kernel_at_the_float_limit_runs(self, scenario_yaml, tmp_path):
        # lambda(t_end) = 4 * 4e307 is finite, however close to overflow.
        table = [[0.0, 4e307], [4e307, 0.0]]
        config = scenario_yaml("dissipative_direct", **{"noise.direct_lambda.table": table})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--config", str(config), "--out", str(tmp_path)]) == 0


class TestTableThatLacksALevel:
    """A direct table that does not tabulate a level of the Hamiltonian."""

    @pytest.mark.parametrize("command", ["evolve", "integrate", "sample", "verify"])
    def test_exits_2_naming_the_levels(self, command, scenario_yaml, tmp_path, capsys):
        # the Hamiltonian's levels are 1 and 2
        config = scenario_yaml("dissipative_direct", **{"noise.direct_lambda.levels": [1.0, 3.0]})
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: noise.direct_lambda.levels: level 2.0 is not tabulated" in err
        assert not out.exists()

    def test_library_raises_dimension_mismatch(self, scenario_yaml):
        path = scenario_yaml("dissipative_direct", **{"noise.direct_lambda.levels": [1.0, 3.0]})
        config = load_config(path)
        # the scenario's own decomposition refuses the table (tests/test_config.py)
        with pytest.raises(DimensionMismatch):
            build_generator(eigendecompose(config.hamiltonian), config.noise)


class TestBlasPin:
    """cli.main runs each handler with numpy's OpenBLAS on one thread."""

    def test_one_thread_inside_the_handler(self, blas_threads, scenario_yaml, monkeypatch):
        seen = []

        def handler(config):
            seen.append(blas_threads())
            return 0, []

        monkeypatch.setattr(noisytime.cli, "cmd_evolve", handler)
        assert main(["evolve", "--config", str(scenario_yaml("global_dephasing"))]) == 0
        assert seen == [1]
        assert blas_threads() == 2

    def test_restored_after_a_config_error(self, blas_threads, capsys):
        assert main(["evolve"]) == 2  # no --config: the handler raises ConfigError
        assert "config error: --config:" in capsys.readouterr().err
        assert blas_threads() == 2

    def test_restored_after_the_handler_raises(self, blas_threads, scenario_yaml, monkeypatch):
        def handler(config):
            raise RuntimeError("inside the handler")

        monkeypatch.setattr(noisytime.cli, "cmd_evolve", handler)
        with pytest.raises(RuntimeError):
            main(["evolve", "--config", str(scenario_yaml("global_dephasing"))])
        assert blas_threads() == 2

    def test_sample_output_does_not_depend_on_the_pin(
        self, blas_threads, scenario_yaml, tmp_path, monkeypatch
    ):
        config = scenario_yaml("correlated_tau", **{"grid.n_steps": 6, "montecarlo.n_traj": 1500})
        pinned, free = tmp_path / "pinned", tmp_path / "free"
        args = ["sample", "--config", str(config), "--threads", "2", "--out"]
        assert main(args + [str(pinned)]) == 0
        monkeypatch.setattr(noisytime.operators, "_openblas_threads", lambda: None)
        assert main(args + [str(free)]) == 0
        for name in ("mc_mean.csv", "mc_stderr.csv", "comparison.json"):
            assert (free / name).read_bytes() == (pinned / name).read_bytes()


def _full_disk_chunks():
    """A table's first block, then the error of a disk that is full."""
    yield "t,x\n0,1\n"
    raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrite:
    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "table.csv"
        with pytest.raises(OSError) as info:
            _atomic_write(target, _full_disk_chunks())
        assert info.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "table.csv"
        target.write_bytes(b"t,x\n0,2\n")
        with pytest.raises(OSError) as info:
            _atomic_write(target, _full_disk_chunks())
        assert info.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"t,x\n0,2\n"


class TestDecomposition:
    @pytest.mark.parametrize(
        "command, extra", [("evolve", []), ("integrate", ["--generator", "phase"]), ("sample", [])]
    )
    def test_hamiltonian_decomposed_once(
        self, command, extra, scenario_yaml, tmp_path, monkeypatch
    ):
        # The writer's metrics table reuses the route's decomposition.
        calls = []

        def counted(operator):
            calls.append(operator)
            return eigendecompose(operator)

        monkeypatch.setattr(noisytime.config, "eigendecompose", counted)
        config = scenario_yaml(
            "global_dephasing", **{"grid.n_steps": 4, "montecarlo.n_traj": 200}
        )
        assert main([command, "--config", str(config), "--out", str(tmp_path), *extra]) == 0
        assert len(calls) == 1


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

    @pytest.mark.parametrize(
        "theta, theta_prime, flag", [("0", "1e200", "--theta-prime"), ("1e200", "0", "--theta")]
    )
    def test_overflowing_level_exits_2(
        self, theta, theta_prime, flag, scenario_yaml, tmp_path, capsys
    ):
        # lambda(t) of the pair overflows a float, so every draw and moment
        # would be inf or NaN, at order 2 too: the level that overflows is
        # named before any sampling, and numpy warns of nothing
        self._refused(scenario_yaml("global_dephasing"), theta, theta_prime, flag, tmp_path, capsys)

    def test_overflowing_time_profile_exits_2(self, scenario_yaml, tmp_path, capsys):
        # S(t_end) overflows, so lambda(t) does for every level pair
        profile = {"kind": "constant", "value": 1e154}
        config = scenario_yaml("global_dephasing", **{"noise.sigma_time": profile})
        self._refused(config, "0", "1", "noise.sigma_time", tmp_path, capsys)

    @staticmethod
    def _refused(config, theta, theta_prime, field, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["moments", "--config", str(config), "--out", str(out), "--max-order", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--theta", theta, "--theta-prime", theta_prime])
        assert code == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not caught
        assert not out.exists()

    def test_dissipative_rejected(self, scenario_yaml, tmp_path, capsys):
        # levels 1 and 2 are tabulated, so only the sampler's refusal applies
        config = scenario_yaml("dissipative_direct")
        out = tmp_path / "run"
        args = ["moments", "--config", str(config), "--out", str(out)]
        assert main(args + ["--theta", "1.0", "--theta-prime", "2.0"]) == 2
        assert "config error: noise.direct_lambda:" in capsys.readouterr().err
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

    def test_single_trajectory_exits_2(self, scenario_yaml, tmp_path, capsys, monkeypatch):
        # a Brownian scenario's ensemble check needs two trajectories, as
        # sample and moments do; a direct table's scenario samples nothing,
        # so its checks still run (the built-in ones are left out here)
        config = scenario_yaml("global_dephasing", **{"montecarlo.n_traj": 1})
        out = tmp_path / "run"
        assert main(["verify", "--quick", "--config", str(config), "--out", str(out)]) == 2
        assert "config error: montecarlo.n_traj:" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(noisytime.verify, "_CHECKS", [])
        config = scenario_yaml("dissipative_direct", **{"montecarlo.n_traj": 1})
        assert main(["verify", "--quick", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS", "scenario-round-trip"],
            ["PASS", "scenario-analytic-hermitian"],
        ]

    def test_fault_injection_fails(self, capsys, monkeypatch):
        # one check made to fail: the suite reports it and exits 1
        checks = list(noisytime.verify._CHECKS)
        index = [name for name, _ in checks].index("ensemble-determinism")
        checks[index] = ("ensemble-determinism", lambda ctx: (False, "injected failure"))
        monkeypatch.setattr(noisytime.verify, "_CHECKS", checks)
        assert main(["verify", "--quick"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        failed = r"FAIL  ensemble-determinism +injected failure  \(\d+\.\d\d s\)"
        assert re.fullmatch(failed, lines[index])
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == f"1 of {len(checks)} checks failed"

    def test_no_fault_injection_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--quick", "--inject-wrong-gamma", "2.0"])
        assert "unrecognized arguments: --inject-wrong-gamma" in capsys.readouterr().err


class TestNoMaskedArrays:
    """No subcommand imports numpy.ma, whose import costs 12-17 ms per
    process, or numpy.polynomial, whose first polyval costs 3-4.5 ms and
    about 1 MB of peak memory."""

    @pytest.mark.parametrize(
        "scenario, argv",
        [
            ("nonmarkovian_piecewise", ["evolve"]),
            ("global_dephasing", ["integrate", "--generator", "phase"]),
            # a sigma_time breakpoint inside the grid refines the Brownian grid
            ("nonmarkovian_piecewise", ["sample"]),
            ("nonmarkovian_piecewise", ["moments", "--theta", "0", "--theta-prime", "1"]),
            ("nonmarkovian_piecewise", ["verify", "--quick"]),
        ],
    )
    def test_subcommand_leaves_numpy_ma_unimported(self, scenario, argv, scenario_yaml, tmp_path):
        imports = self._exit_and_imports(argv, scenario_yaml(scenario), tmp_path)
        assert imports == ["0", "False", "False"]

    @pytest.mark.parametrize(
        "argv",
        [["evolve"], ["integrate"], ["sample"], ["moments", "--theta", "0", "--theta-prime", "1"]],
        ids=lambda argv: argv[0],
    )
    def test_polynomial_levels_leave_numpy_polynomial_unimported(
        self, argv, scenario_yaml, tmp_path
    ):
        # drift_h and sigma_theta of the polynomial kind, on levels 0 and 1
        config = scenario_yaml(
            "global_dephasing",
            **{
                "noise.drift_h": {"kind": "polynomial", "coeffs": [0.0, 1.0, 0.25]},
                "noise.sigma_theta": {"kind": "polynomial", "coeffs": [0.0, 0.5, 0.25]},
                "montecarlo.n_traj": 500,
            },
        )
        assert self._exit_and_imports(argv, config, tmp_path) == ["0", "False", "False"]

    @staticmethod
    def _exit_and_imports(argv, config, tmp_path):
        """The exit code of the subcommand in a fresh interpreter, and
        whether numpy.ma and numpy.polynomial were imported."""
        argv = argv + ["--config", str(config)]
        if argv[0] != "verify":
            argv += ["--out", str(tmp_path / "out")]
        script = (
            "import contextlib, io, sys\n"
            "from noisytime.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
        )
        src = Path(noisytime.config.__file__).resolve().parent.parent
        path = os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()
