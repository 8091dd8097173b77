"""Every name a module exports in ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import yqchar

MODULES = ["yqchar"] + [f"yqchar.{m.name}" for m in pkgutil.iter_modules(yqchar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []

