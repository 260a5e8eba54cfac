"""Every name an export list promises exists on its module."""

import importlib
import pkgutil

import pytest

import lexmrc

MODULES = ["lexmrc"] + [f"lexmrc.{m.name}" for m in pkgutil.iter_modules(lexmrc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
