"""Every name an export list promises exists on its module. The package
itself exports nothing: the API is its submodules."""

import importlib
import pkgutil

import pytest

import lexmrc

MODULES = [f"lexmrc.{m.name}" for m in pkgutil.iter_modules(lexmrc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_nothing():
    """The package's only public attributes are the submodules imported
    so far."""
    assert not hasattr(lexmrc, "__all__")
    public = {n for n in vars(lexmrc) if not n.startswith("_")}
    assert public <= {m.name for m in pkgutil.iter_modules(lexmrc.__path__)}
