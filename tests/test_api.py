import importlib
import pkgutil

import pytest

import bathpair

MODULES = ["bathpair"] + sorted(f"bathpair.{m.name}"
                                for m in pkgutil.iter_modules(bathpair.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every name a module exports in __all__ is an attribute of that module."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}"
