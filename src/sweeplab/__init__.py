"""Exact-arithmetic toolkit for rational Dyck path combinatorics.

Covers the sweep map with exact tie-breaking, the area and dinv statistics
in two formulations each, the stretched path-diagram segment calculus, the
area-cell removal recursions, and exhaustive verification that dinv of a
path equals the area of its sweep image.
"""

from .errors import (
    BadCounts,
    BadLetter,
    IndexOutOfRange,
    InvalidMove,
    LimitExceeded,
    NoMoveAvailable,
    NonCoprime,
    NonIntegral,
    NonPositive,
    NotDyck,
    NotInImage,
    SweeplabError,
)
from .paths import (
    DEFAULT_STEP_LIMIT,
    EAST,
    NORTH,
    Params,
    StepWord,
    base_path,
    corner_path,
    count_dyck,
    enumerate_dyck,
    is_dyck,
    make_params,
    parse_word,
    south_end_ranks,
    start_ranks,
)
from .diagram import (
    Arrow,
    PathDiagram,
    build_diagram,
    check_row_structure,
)
from .sweeping import (
    green_line_rank,
    green_line_ranks,
    image_start_rank,
    sweep,
    sweep_order,
    unsweep,
)
from .stats import (
    StatTable,
    area_cells,
    area_rank_formula,
    dinv_cell_list,
    dinv_cells,
    dinv_pairs,
    joint_distribution,
    max_stat,
)
from .recursion import (
    RegionCounts,
    RemovalMove,
    apply_move,
    area_recursion_delta,
    dinv_recursion_delta,
    rank_difference_check,
    reduce_to_base,
    region_counts,
    valid_moves,
)
from .verify import CHECK_NAMES, CheckResult, run_checks

__version__ = "0.1.0"
