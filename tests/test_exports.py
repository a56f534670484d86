import importlib
import pkgutil

import pytest

import gsdof

MODULES = ["gsdof", *(f"gsdof.{m.name}" for m in pkgutil.iter_modules(gsdof.__path__))]


@pytest.mark.parametrize(
    "name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
)
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks `from <module> import *`.
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
