"""Every name the package exports has a user outside the tests, and no
module keeps per-call state in a global.

The system is the library itself, the CLI, the scripts and the benchmark
harness.  A name exported from `sweeplab/__init__.py` that none of them
reads is public API that only tests call, and should be deleted or moved
into `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sweeplab"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


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
