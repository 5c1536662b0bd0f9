import warnings

import numpy as np
import pytest
import yaml

from dataclasses import replace

from noisytime import (
    ConfigError,
    CorrelationPreset,
    DensityMatrix,
    DriftPreset,
    HermitianOperator,
    NoiseModel,
    SigmaThetaPreset,
    SigmaTimePreset,
    direct_damping_model,
)
from noisytime import config as config_module
from noisytime.cli import main
from noisytime.config import (
    config_to_dict,
    load_config,
    matrix_from_config,
    matrix_to_config,
    parse_config,
)
from noisytime.operators import _fix_column_phases


def minimal_config(**extra):
    data = {
        "name": "unit",
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "initial_state": "plus_state",
        "noise": {"gamma": 0.5},
        "grid": {"t_end": 2.0, "n_steps": 10},
    }
    data.update(extra)
    return data


class TestMatrixCodec:
    def test_pairs(self):
        got = matrix_from_config([[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, -1.0]]], "m")
        assert got[0, 0] == 1.0 + 2.0j
        assert got[1, 1] == 3.0 - 1.0j

    def test_bare_reals(self):
        got = matrix_from_config([[1.0, 0.0], [0.0, 2.0]], "m")
        assert got[1, 1] == 2.0 + 0.0j

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(matrix_from_config(matrix_to_config(m), "m"), m)

    def test_nonsquare_rejected(self):
        with pytest.raises(ConfigError) as info:
            matrix_from_config([[1.0, 0.0]], "ham")
        assert "ham" in str(info.value)

    def test_bad_entry_path_reported(self):
        with pytest.raises(ConfigError) as info:
            matrix_from_config([[1.0, "x"], [0.0, 1.0]], "ham")
        assert "ham[0][1]" in str(info.value)


class TestParse:
    def test_minimal(self):
        config = parse_config(minimal_config())
        assert config.name == "unit"
        assert config.t_end == 2.0
        assert config.n_traj == 10000  # default
        assert config.seed == 2024  # default
        assert config.formats == ("csv", "json")
        times = config.times()
        assert times[0] == 0.0 and times[-1] == 2.0 and times.size == 11

    def test_state_presets(self):
        for preset, diag in (
            ("plus_state", [0.5, 0.5]),
            ("maximally_mixed", [0.5, 0.5]),
            ("ground", [1.0, 0.0]),
        ):
            config = parse_config(minimal_config(initial_state=preset))
            assert np.allclose(np.diag(config.initial_state.matrix).real, diag)

    @pytest.mark.parametrize("spread", [0.0, 0.4e-9])
    def test_ground_preset_keeps_its_bytes_on_a_degenerate_level(self, spread):
        # a three-fold ground level in a rotated basis, exact or spread
        # within the degeneracy tolerance: the state is the level's
        # projector, built from its eigenvector columns, over three
        rng = np.random.default_rng(29)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q = np.linalg.qr(raw)[0]
        levels = [-1.0, -1.0 + spread, -1.0 + 2 * spread, 0.5, 2.0]
        hamiltonian = HermitianOperator(q @ np.diag(levels) @ q.conj().T)
        state = config_module._state_from_preset("ground", hamiltonian)
        eigvecs = _fix_column_phases(np.linalg.eigh(hamiltonian.matrix)[1])
        block = eigvecs[:, [0, 1, 2]]
        expected = DensityMatrix(block @ block.conj().T / np.int64(3))
        assert state.matrix.tobytes() == expected.matrix.tobytes()

    def test_explicit_state_matrix(self):
        config = parse_config(
            minimal_config(initial_state=[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]])
        )
        assert config.initial_state_preset is None
        assert config.initial_state.matrix[1, 1] == 0.75

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_config(extra_section={}))
        assert "extra_section" in str(info.value)

    def test_unknown_grid_key(self):
        data = minimal_config()
        data["grid"]["dt"] = 0.1
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        assert "grid.dt" in str(info.value)

    def test_nonzero_start_rejected(self):
        data = minimal_config()
        data["grid"]["t_start"] = 0.5
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_dimension_mismatch(self):
        data = minimal_config(
            initial_state=[
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ]
        )
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_bad_seed(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(montecarlo={"seed": -1}))

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(outputs={"formats": ["parquet"]}))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(initial_state="bell_state"))


class TestRoundTrip:
    def test_canonical_fixed_point(self):
        first = config_to_dict(parse_config(minimal_config()))
        second = config_to_dict(parse_config(first))
        assert first == second

    def test_overrides(self):
        config = parse_config(minimal_config())
        changed = config.with_overrides(seed=7, out_dir="elsewhere")
        assert changed.seed == 7
        assert changed.out_dir == "elsewhere"
        assert config.seed == 2024  # original untouched

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0])
    def test_seed_override_is_checked(self, seed):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_config()).with_overrides(seed=seed)
        assert info.value.path == "--seed"
        assert parse_config(minimal_config()).with_overrides(seed=2**64 - 1).seed == 2**64 - 1


DIRECT = {"levels": [1.0, 2.0], "table": [[0.6, 0.7], [0.7, 0.8]]}

# ({dotted field: value patched into minimal_config()}, expected ConfigError
# path); the value DELETE removes the field instead.
DELETE = object()
MALFORMED = [
    ({"noise.gamma": "abc"}, "noise.gamma"),
    ({"noise.gamma": -1}, "noise.gamma"),
    ({"grid.t_end": "abc"}, "grid.t_end"),
    ({"grid.t_start": "abc"}, "grid.t_start"),
    ({"noise.sigma_time": {"kind": "constant", "value": "abc"}}, "noise.sigma_time.value"),
    (
        {"noise.direct_lambda": {"levels": [1.0, 2.0], "table": [[0.6, 0.7], [0.7]]}},
        "noise.direct_lambda.table[1]",
    ),
    ({"noise.direct_lambda": {"levels": [1.0, 2.0], "table": "abc"}}, "noise.direct_lambda.table"),
    ({"noise.direct_lambda": [1.0, 2.0]}, "noise.direct_lambda"),
    ({"grid.t_end": float("inf")}, "grid.t_end"),
    ({"grid.t_end": float("nan")}, "grid.t_end"),
    ({"noise.sigma_time": {"kind": "constant", "value": float("nan")}}, "noise.sigma_time.value"),
    ({"grid.n_steps": True}, "grid.n_steps"),
    ({"montecarlo": {"n_traj": True}}, "montecarlo.n_traj"),
    ({"noise.sigma_time": {"kind": "constant", "valu": 2}}, "noise.sigma_time.valu"),
    # range errors carry the full path
    ({"noise.sigma_time": {"kind": "constant", "value": -1.0}}, "noise.sigma_time.value"),
    ({"noise.correlation_g": {"kind": "gaussian", "tau": -1.0}}, "noise.correlation_g.tau"),
    (
        {"noise.sigma_time": {"kind": "piecewise_constant", "breakpoints": [1.0], "values": [1]}},
        "noise.sigma_time.values",
    ),
    (
        {"noise.direct_lambda": {**DIRECT, "table": [[-0.1, 0.0], [0.0, 0.0]]}},
        "noise.direct_lambda.table",
    ),
    # more of the same readers
    ({"noise.drift_h": {"kind": "identity", "a": 1.0}}, "noise.drift_h.a"),
    ({"noise.drift_h": {"kind": "affine", "a": 1.0}}, "noise.drift_h.b"),
    ({"noise.drift_h": {"kind": "polynomial", "coeffs": [1.0, "x"]}}, "noise.drift_h.coeffs[1]"),
    (
        {"noise.sigma_theta": {"kind": "linear", "coefficient": True}},
        "noise.sigma_theta.coefficient",
    ),
    ({"noise.sigma_theta": {"coefficient": 1.0}}, "noise.sigma_theta.kind"),
    ({"noise.correlation_g": {"kind": ["gaussian"]}}, "noise.correlation_g.kind"),
    ({"noise.direct_lambda": {**DIRECT, "kind": "quadratic"}}, "noise.direct_lambda.kind"),
    ({"noise.direct_lambda": {**DIRECT, "rates": 1}}, "noise.direct_lambda.rates"),
    ({"noise.direct_lambda": {"levels": [1.0, 2.0]}}, "noise.direct_lambda.table"),
    ({"noise.direct_lambda": {**DIRECT, "levels": [1.0]}}, "noise.direct_lambda.table"),
    (
        {"noise.direct_lambda": {**DIRECT, "table": [[0.6, 0.1], [0.7, 0.8]]}},
        "noise.direct_lambda.table",
    ),
    ({"hamiltonian": [[0.0, 0.0], [0.0, float("inf")]]}, "hamiltonian[1][1]"),
    ({"hamiltonian": [[0.0, 0.0], [0.0, [1.0, True]]]}, "hamiltonian[1][1]"),
    ({"grid.t_end": DELETE}, "grid.t_end"),
    ({"grid.n_steps": 2.5}, "grid.n_steps"),
    ({"montecarlo": {"seed": 2**64}}, "montecarlo.seed"),
    ({"montecarlo": {"seed": 1.0}}, "montecarlo.seed"),
    ({"noise": DELETE}, "noise"),
]


def patched_config(patch: dict) -> dict:
    data = minimal_config()
    for dotted, value in patch.items():
        node = data
        *parents, last = dotted.split(".")
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return data


class TestMalformed:
    @pytest.mark.parametrize("patch, path", MALFORMED, ids=[path for _, path in MALFORMED])
    def test_config_error_names_full_path(self, patch, path):
        with pytest.raises(ConfigError) as info:
            parse_config(patched_config(patch))
        assert info.value.path == path

    @pytest.mark.parametrize("index", [0, 8, 13])
    def test_cli_exits_2(self, index, tmp_path, capsys):
        patch, path = MALFORMED[index]
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(patched_config(patch)))
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_strings_and_integers_read_as_numbers(self):
        # YAML 1.1 loads 1e-3 (no decimal point) as a string
        data = yaml.safe_load("gamma: 1e-3\nsigma_time: {kind: constant, value: 2}")
        config = parse_config(minimal_config(noise=data))
        assert config.noise.sigma_theta == SigmaThetaPreset.linear(0.001**0.5)
        assert config.noise.sigma_time == SigmaTimePreset.constant(2.0)

    @pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "given",
        [{}, {"sigma_theta": {"kind": "linear", "coefficient": 1.0}}],
        ids=["shorthand", "given"],
    )
    def test_gamma_refused_unless_finite_and_nonnegative(self, gamma, given):
        # gamma is read only as the sigma_theta shorthand, and refused even
        # where sigma_theta is given
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_config(noise={"gamma": gamma, **given}))
        assert info.value.path == "noise.gamma"

    @pytest.mark.parametrize(
        "section, path",
        [
            ({"correlation_g": {"kind": "gaussian", "tau": 1e200}}, "noise.correlation_g.tau"),
            ({"sigma_time": {"kind": "constant", "value": 1e200}}, "noise.sigma_time.value"),
        ],
        ids=["tau", "value"],
    )
    @pytest.mark.parametrize("command", ["evolve", "integrate", "sample", "moments"])
    def test_number_whose_square_overflows_exits_2(self, section, path, command, tmp_path, capsys):
        config = tmp_path / "big.yaml"
        config.write_text(yaml.safe_dump(minimal_config(noise={"gamma": 0.5, **section})))
        out = tmp_path / "run"
        extra = ["--theta", "0", "--theta-prime", "1"] if command == "moments" else []
        assert main([command, "--config", str(config), "--out", str(out), *extra]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err
        assert not out.exists()


class TestNoiseSection:
    PRESETS = {
        "drift_h": (
            DriftPreset.identity(),
            DriftPreset.affine(1.5, -0.5),
            DriftPreset.polynomial([0.0, 1.0, 0.25]),
        ),
        "sigma_theta": (
            SigmaThetaPreset.constant(0.3),
            SigmaThetaPreset.linear(0.7),
            SigmaThetaPreset.polynomial([0.0, 1.0, 0.25]),
        ),
        "sigma_time": (
            SigmaTimePreset.constant(1.5),
            SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
        ),
        "correlation_g": (
            CorrelationPreset.uniform(),
            CorrelationPreset.gaussian(1.3),
            CorrelationPreset.exponential(2.0),
        ),
    }

    def test_preset_round_trips(self):
        base = parse_config(minimal_config())
        for name, presets in self.PRESETS.items():
            for preset in presets:
                config = replace(base, noise=replace(base.noise, **{name: preset}))
                rebuilt = parse_config(config_to_dict(config)).noise
                assert getattr(rebuilt, name) == preset

    def test_canonical_preset_form(self):
        config = parse_config(minimal_config())
        noise = NoiseModel(
            drift_h=DriftPreset.affine(2.0, 0.5),
            sigma_theta=SigmaThetaPreset.polynomial([0.0, 1.0]),
            sigma_time=SigmaTimePreset.piecewise_constant([1.0], [0.4, 1.6]),
            correlation_g=CorrelationPreset.gaussian(1.3),
        )
        assert config_to_dict(replace(config, noise=noise))["noise"] == {
            "drift_h": {"kind": "affine", "a": 2.0, "b": 0.5},
            "sigma_theta": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
            "sigma_time": {
                "kind": "piecewise_constant",
                "breakpoints": [1.0],
                "values": [0.4, 1.6],
            },
            "correlation_g": {"kind": "gaussian", "tau": 1.3},
        }

    def test_gamma_shorthand_sets_sigma_theta(self):
        noise = parse_config(minimal_config(noise={"gamma": 0.25})).noise
        assert noise.sigma_theta == SigmaThetaPreset.linear(0.5)

    def test_sigma_time_value_defaults_to_one(self):
        noise = parse_config(minimal_config(noise={"sigma_time": {"kind": "constant"}})).noise
        assert noise.sigma_time == SigmaTimePreset.constant(1.0)

    def test_direct_lambda_kind_is_optional(self):
        model = direct_damping_model(DIRECT["levels"], DIRECT["table"])
        for direct in (DIRECT, {"kind": "separable_linear", **DIRECT}):
            noise = parse_config(minimal_config(noise={"direct_lambda": direct})).noise
            assert noise.direct_lambda.levels == model.direct_lambda.levels
            assert np.array_equal(noise.direct_lambda.table, model.direct_lambda.table)
        emitted = config_to_dict(parse_config(minimal_config(noise={"direct_lambda": DIRECT})))
        assert emitted["noise"]["direct_lambda"] == {"kind": "separable_linear", **DIRECT}


class TestLoad:
    def test_load(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(minimal_config()))
        config = load_config(path)
        assert config.name == "unit"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_bad_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [unclosed")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_yaml_exits_2(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: x\nhamiltonian: [[[0.0, 0.0]\n  - ]: {")
        with pytest.raises(ConfigError, match="could not parse"):
            load_config(path)
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_file_exits_2(self, tmp_path, kind):
        # a directory raises IsADirectoryError on open, a binary file
        # UnicodeDecodeError on read: both are config errors, not tracebacks
        path = tmp_path / "scenario.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"name: \xff\xfe\x00\x80")
        with pytest.raises(ConfigError, match="could not read"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


class TestYamlLoader:
    @staticmethod
    def _large_config_text():
        rng = np.random.default_rng(32)
        raw = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        hamiltonian = HermitianOperator(0.5 * (raw + raw.conj().T)).matrix
        return yaml.safe_dump(minimal_config(hamiltonian=matrix_to_config(hamiltonian)))

    def test_uses_libyaml_when_available(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert config_module._YAML_LOADER is expected

    def test_loaders_agree(self):
        text = self._large_config_text()
        fast = yaml.load(text, Loader=config_module._YAML_LOADER)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)

    def test_pure_python_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "scenario.yaml"
        path.write_text(self._large_config_text())
        expected = load_config(path)
        monkeypatch.setattr(config_module, "_YAML_LOADER", yaml.SafeLoader)
        fallback = load_config(path)
        assert np.array_equal(fallback.hamiltonian.matrix, expected.hamiltonian.matrix)
        broken = tmp_path / "broken.yaml"
        broken.write_text("a: [unclosed")
        with pytest.raises(ConfigError):
            load_config(broken)


class TestDecompositionGate:
    """``ScenarioConfig.decomposition`` refuses, naming the field, a model
    that no route can run on the scenario's own levels and grid, so the
    commands, verify's scenario checks and library callers get one refusal."""

    # (scenario, field named, overrides)
    CASES = {
        # S(t_end) = 1e308 t_end overflows for every level pair
        "sigma_time": (
            "global_dephasing",
            "noise.sigma_time",
            {"noise.sigma_time": {"kind": "constant", "value": 1e154}},
        ),
        # S(t_end) is finite, the level part E is not
        "sigma_theta": (
            "global_dephasing",
            "noise.sigma_theta",
            {"noise.sigma_theta": {"kind": "linear", "coefficient": 1e200}},
        ),
        # the Hamiltonian's levels are 1 and 2
        "untabulated_level": (
            "dissipative_direct",
            "noise.direct_lambda.levels",
            {"noise.direct_lambda.levels": [1.0, 3.0]},
        ),
        # nothing overflows, but t_end (h(1) - h(0)) = 5e300 is past 2^52
        "drift_h": (
            "global_dephasing",
            "noise.drift_h",
            {"noise.drift_h": {"kind": "affine", "a": 1e300, "b": 0.0}},
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refuses_naming_the_field(self, case, scenario_yaml):
        scenario, field, overrides = self.CASES[case]
        config = load_config(scenario_yaml(scenario, **overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as refused:
                config.decomposition()
        assert refused.value.path == field
