import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_library_import_does_not_load_scipy_signal():
    """`scipy.signal` roughly doubles the import time of the package; nothing
    on the library's import path may pull it in."""
    code = ("import sys, bathpair.analysis, bathpair.oracle; "
            "print('scipy.signal' in sys.modules)")
    src = str(pathlib.Path(bathpair.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_library_never_prints():
    """The library reports through the "bathpair" logger; only the CLI
    writes to standard output.  No module but `cli.py` calls `print`."""
    package = pathlib.Path(bathpair.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"print() in the library: {offenders}"
