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


def _fresh_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(pathlib.Path(bathpair.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, **kwargs)


def test_no_module_of_the_package_loads_scipy():
    """numpy is the library's one dependency: importing every module, the
    CLI included, loads no module of scipy, whose subpackages cost most of
    a command's start-up."""
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _fresh_python(code, check=True)
    assert out.stdout.strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    """With scipy unimportable, critical-distance, a short time-trace and a
    short oracle-compare each exit 0 and write a complete MANIFEST."""
    runs = {
        "d0": ["critical-distance", "--gamma", "1", "--omega-cut", "10", "--tol", "2e-3"],
        "trace": ["time-trace", "--gamma", "1", "--omega-cut", "10", "--distance", "0.2",
                  "--t-max", "2", "--dt", "0.05"],
        "oracle": ["oracle-compare", "--gamma", "1", "--omega-cut", "10", "--distance", "0.1",
                   "--t-max", "4", "--dt", "1", "--oracle-modes", "1000"],
    }
    argvs = {name: argv + ["--output-dir", str(tmp_path / name)] for name, argv in runs.items()}
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from bathpair.cli import main\n"
            f"print([main(argv) for argv in {list(argvs.values())!r}])")
    out = _fresh_python(code, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0]", out.stdout + out.stderr
    for name in argvs:
        assert "status: COMPLETE" in (tmp_path / name / "MANIFEST").read_text(), name
