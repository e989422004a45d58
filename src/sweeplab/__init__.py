"""Exact-arithmetic toolkit for rational Dyck path combinatorics.

Covers the sweep map with exact tie-breaking, the area and dinv statistics
in two formulations each, the stretched path-diagram segment calculus, the
area-cell removal recursions, and exhaustive verification that dinv of a
path equals the area of its sweep image.

`import sweeplab` loads no submodule.  A name loads its home module on
first use (PEP 562), and is a plain attribute from then on; so a program
that uses only the paths and their statistics never loads the checks.
"""

from importlib import import_module as _import_module

#: Each submodule the package exposes, with the names it exports.
_EXPORTS = {
    "errors": (
        "BadCounts", "BadLetter", "IndexOutOfRange", "InvalidMove", "LimitExceeded",
        "NoMoveAvailable", "NonCoprime", "NonIntegral", "NonPositive", "NotDyck",
        "NotInImage", "SweeplabError",
    ),
    "paths": (
        "DEFAULT_STEP_LIMIT", "EAST", "NORTH", "Params", "StepWord", "base_path",
        "corner_path", "count_dyck", "enumerate_dyck", "is_dyck", "make_params",
        "parse_word", "south_end_ranks", "start_ranks",
    ),
    "diagram": ("Arrow", "PathDiagram", "build_diagram", "check_row_structure"),
    "sweeping": (
        "green_line_rank", "green_line_ranks", "image_start_rank", "sweep",
        "sweep_order", "unsweep",
    ),
    "stats": (
        "StatTable", "area_cells", "area_rank_formula", "dinv_cell_list", "dinv_cells",
        "dinv_pairs", "joint_distribution", "max_stat",
    ),
    "recursion": (
        "RegionCounts", "RemovalMove", "apply_move", "area_recursion_delta",
        "dinv_recursion_delta", "rank_difference_check", "reduce_to_base",
        "region_counts", "valid_moves",
    ),
    "verify": ("CHECK_NAMES", "CheckResult", "run_checks"),
}

#: Each public name, submodules included, to its home module.
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """Import `name`'s home module and bind `name` in the package, so this
    runs once per name."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    """The bound names and every public name, bound or not."""
    return sorted(set(globals()) | set(__all__))
