"""The two sides of each two-sided check share no code but the input layer.

A check that compares two computations sharing the code under test
compares that code with itself, so it cannot fail where the code is
wrong.  This audit builds a static call graph of src/sweeplab with ast:
each name that a function's source reads, bare or as `module.name`, is
resolved through that function's module globals as they stand when the
audit runs, as verify resolves its calls at call time, so a function
monkeypatched into its module is audited as patched.  A package class
that a function names stands for its methods; annotations name no callee.

The closure of each side stops at the input layer in ALLOWED, which both
sides may share: the start ranks, the Dyck test and the move check.  The
audit sees code shared between functions, not a formula repeated inside
one function; the mutant catalogue (test_mutants.py) covers that case.
"""

import ast
import functools
import importlib
import inspect
import textwrap

import pytest

from sweeplab import paths, stats
from conftest import rebuilt

ALLOWED = {
    "paths.start_ranks",
    "paths.is_dyck",
    "paths.require_dyck",
    "recursion._check_move",
}

# check: (one side, the other side), each the functions verify calls for it
SIDES = {
    "area-formula": (["stats.area_cells"], ["stats.area_rank_formula"]),
    "dinv-formulations": (["stats.dinv_pairs"], ["stats.dinv_cells"]),
    "green-line-rank": (
        ["sweeping.green_line_ranks"], ["sweeping.sweep_order", "sweeping.sweep"]
    ),
    "dinv-sweeps-to-area": (["stats.dinv_pairs"], ["sweeping.sweep", "stats.area_cells"]),
    "area-recursion": (
        ["recursion._region_counts"],
        ["recursion._apply_move", "sweeping.sweep", "stats.area_cells"],
    ),
    "dinv-recursion": (
        ["recursion._region_counts"], ["recursion._apply_move", "stats.dinv_pairs"]
    ),
    "rank-difference": (
        ["recursion._rank_band"],
        ["sweeping.sweep", "sweeping.sweep_order", "recursion._apply_move"],
    ),
}

# the enumeration walk's realizations of the word functions, which the tests
# take as each other's reference
WALK_SIDES = {
    "walk counts": (["stats._walk_counts"], ["stats.area_cells", "stats.dinv_pairs"]),
    "walk image": (["paths._walk"], ["sweeping.sweep_order"]),
}


def _name(function) -> str:
    return f"{function.__module__.removeprefix('sweeplab.')}.{function.__qualname__}"


def _ours(target) -> bool:
    return (inspect.isfunction(target) or inspect.isclass(target)) and (
        target.__module__.startswith("sweeplab.")
    )


def _methods(cls):
    """The methods written in the source of a package class; those that
    NamedTuple generates have no source file of their own."""
    for member in vars(cls).values():
        if isinstance(member, property):
            member = member.fget
        elif isinstance(member, (functools.cached_property, paths._once)):
            member = member.func
        elif isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member) and (
            member.__code__.co_filename == inspect.getsourcefile(cls)
        ):
            yield member


def _syntax(source: str) -> tuple[ast.AST, ...]:
    """The nodes of `source` outside its annotations."""
    tree = ast.parse(textwrap.dedent(source))
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef))
    ]
    skipped = {id(inner) for note in annotations if note for inner in ast.walk(note)}
    return tuple(node for node in ast.walk(tree) if id(node) not in skipped)


def _callees(function):
    """The package functions that `function`'s source names, with the
    methods of each package class it names."""
    names = function.__globals__
    for node in _syntax(inspect.getsource(function)):
        if isinstance(node, ast.Name):
            target = names.get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = names.get(node.value.id)
            target = getattr(owner, node.attr, None) if inspect.ismodule(owner) else None
        else:
            continue
        target = inspect.unwrap(target) if callable(target) else target
        if not _ours(target):
            continue
        if inspect.isclass(target):
            yield from _methods(target)
        else:
            yield target


def _resolve(name: str):
    module, attribute = name.split(".")
    return getattr(importlib.import_module(f"sweeplab.{module}"), attribute)


def closure(side) -> set[str]:
    """The names of the functions `side` reaches, itself included; the
    walk does not enter an ALLOWED function."""
    seen: set[str] = set()
    todo = [_resolve(name) for name in side]
    while todo:
        function = todo.pop()
        name = _name(function)
        if name in seen:
            continue
        seen.add(name)
        if name not in ALLOWED:
            todo.extend(_callees(function))
    return seen


def shared(sides) -> set[str]:
    one, other = sides
    return closure(one) & closure(other)


@pytest.mark.parametrize("check", [*SIDES, *WALK_SIDES])
def test_the_sides_share_only_the_input_layer(check):
    sides = {**SIDES, **WALK_SIDES}[check]
    assert shared(sides) <= ALLOWED


def test_the_closures_reach_through_modules_and_classes():
    # verify names stats.dinv_cells, which reaches dinv_cell_list; the
    # recursion's deltas are properties of the RegionCounts that
    # region_counts builds; sweep builds a StepWord, whose __new__ checks it
    assert {"stats.dinv_cells", "stats.dinv_cell_list"} <= closure(["stats.dinv_cells"])
    assert "recursion.RegionCounts.area_delta" in closure(["recursion.region_counts"])
    assert "paths.StepWord.__new__" in closure(["sweeping.sweep"])
    # the input layer is reached, but not entered
    assert closure(["paths.require_dyck"]) == {"paths.require_dyck"}


def test_the_closures_reach_the_bodies_of_lazy_attributes():
    # StepWord's start ranks and the Dyck verdict that is_dyck reads are
    # _once descriptors; is_dyck itself is input layer, not entered, and
    # names no class, so a word built by sweep is the way in
    assert {"paths.StepWord._ranks", "paths.StepWord._dyck"} <= closure(["sweeping.sweep"])


def test_a_shared_definition_fails_the_audit(monkeypatch):
    # dinv_cells that counts dinv_pairs compares dinv_pairs with itself
    monkeypatch.setattr(
        stats, "dinv_cells",
        rebuilt(stats, "dinv_cells", "len(dinv_cell_list(word))", "dinv_pairs(word)"),
    )
    assert shared(SIDES["dinv-formulations"]) - ALLOWED == {"stats.dinv_pairs"}
