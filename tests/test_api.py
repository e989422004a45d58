"""Every name the package exports has a user outside the tests and is the
object of its home module, the package namespace loads its modules on
first use, and no module keeps per-call state in a global.

The system is the library itself, the CLI, the scripts and the benchmark
harness.  A name exported from `sweeplab/__init__.py` that none of them
reads is public API that only tests call, and should be deleted or moved
into `tests/`.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import sweeplab
from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sweeplab"
SUBMODULES = ["errors", "paths", "diagram", "sweeping", "stats", "recursion", "verify"]


def exported_names() -> set[str]:
    """The names of the package's export table, its submodules left out."""
    return {name for names in sweeplab._EXPORTS.values() for name in names}


def used_names() -> set[str]:
    """Every name read, attribute taken or name imported in the other
    package modules, the scripts and the benchmark harness."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_user_outside_the_tests():
    assert sorted(exported_names() - used_names()) == []


def test_the_export_table_names_each_export_once():
    assert list(sweeplab._EXPORTS) == SUBMODULES
    assert len(exported_names()) == sum(map(len, sweeplab._EXPORTS.values()))


@pytest.mark.parametrize("home", SUBMODULES)
def test_each_export_is_the_object_of_its_home_module(home):
    module = importlib.import_module(f"sweeplab.{home}")
    assert getattr(sweeplab, home) is module
    for name in sweeplab._EXPORTS[home]:
        assert getattr(sweeplab, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__", "_walk", "sweep_key"])
def test_an_unknown_name_raises_attribute_error(name):
    # __wrapped__ is what doctest and inspect.unwrap probe; _walk and
    # sweep_key live in submodules but are not exported
    with pytest.raises(AttributeError, match=name):
        getattr(sweeplab, name)
    with pytest.raises(ImportError):
        exec(f"from sweeplab import {name}", {})


def test_star_import_takes_every_export_and_submodule():
    namespace: dict = {}
    exec("from sweeplab import *", namespace)
    assert set(namespace) - {"__builtins__"} == exported_names() | set(SUBMODULES)


def test_a_fresh_import_lists_and_resolves_every_name():
    # in a fresh interpreter, where no name is loaded yet (test_cli pins
    # that a bare import loads no submodule)
    script = (
        "import types, sweeplab\n"
        "print(sorted(name for name in dir(sweeplab) if not name.startswith('_')))\n"
        f"for home in {SUBMODULES!r}:\n"
        "    module = getattr(sweeplab, home)\n"
        "    assert isinstance(module, types.ModuleType)\n"
        "    assert module.__name__ == 'sweeplab.' + home\n"
        "print(hasattr(sweeplab, 'render'), hasattr(sweeplab, 'cli'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    listed, unbound = proc.stdout.splitlines()
    assert listed == repr(sorted(exported_names() | set(SUBMODULES)))
    assert unbound == "False False"


def test_no_module_rebinds_a_global():
    # a `global` statement is per-call state kept at module level, such as
    # a memo of the last result; every library function takes what it
    # needs as arguments
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert offenders == []


def test_no_module_asserts():
    # python -O strips an assert statement, and with it the check; every
    # library check raises a named error instead
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
