"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import noisytime

MODULES = sorted(info.name for info in pkgutil.iter_modules(noisytime.__path__))


def test_package_all_resolves():
    missing = [name for name in noisytime.__all__ if not hasattr(noisytime, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"noisytime.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
