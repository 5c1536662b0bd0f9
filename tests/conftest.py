import numpy as np
import pytest

from noisytime import (
    DensityMatrix,
    HermitianOperator,
    eigendecompose,
)


@pytest.fixture
def qubit():
    hamiltonian = HermitianOperator(np.diag([0.0, 1.0]))
    return hamiltonian, eigendecompose(hamiltonian), DensityMatrix.pure([1.0, 1.0])


@pytest.fixture
def four_level():
    hamiltonian = HermitianOperator(np.diag([0.0, 0.37, 1.1, 2.03]))
    return hamiltonian, eigendecompose(hamiltonian), DensityMatrix.pure(np.ones(4))


@pytest.fixture
def scenario_yaml(tmp_path):
    """Write a bundled scenario to disk, optionally patched, return its path."""
    import yaml

    from noisytime import bundled_scenario_text

    def _write(name, **overrides):
        data = yaml.safe_load(bundled_scenario_text(name))
        for dotted, value in overrides.items():
            node = data
            keys = dotted.split(".")
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data))
        return path

    return _write


@pytest.fixture
def blas_threads():
    """Getter of numpy's OpenBLAS thread count, set to 2 for the test.

    Two threads outside the pin tell a restored count from a pinned one on
    any machine.  Skips where ``_single_threaded_blas`` finds no OpenBLAS.
    """
    from noisytime import operators

    controls = operators._openblas_threads()
    if controls is None:
        pytest.skip("numpy loaded no OpenBLAS whose thread count can be set")
    _, get, set_ = controls
    before = get()
    set_(2)
    yield get
    set_(before)
