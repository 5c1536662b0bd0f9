import numpy as np
import pytest
import yaml

from noisytime import (
    ConfigError,
    HermitianOperator,
    config_to_dict,
    load_config,
    parse_config,
)
from noisytime import config as config_module
from noisytime.cli import main
from noisytime.config import matrix_from_config, matrix_to_config


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
