"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import modgrad

MODULES = ["modgrad"] + [
    f"modgrad.{info.name}" for info in pkgutil.iter_modules(modgrad.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
