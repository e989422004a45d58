"""Path statistics: area and dinv, each in two independent formulations.

area counts the lattice cells between a Dyck path and the main diagonal.
A cell (x, y) of the dm x dn grid (0-based, from the lower-left) lies
below the path when the (y+1)-th North step comes before the (x+1)-th
East step, and weakly above the diagonal when its south-east corner rank
m*y - n*(x+1) is nonnegative.  The corner convention matters only for
d > 1, where the diagonal passes through interior lattice points; it is
the convention under which the greedy base path is the unique area-0 path
and the corner path attains the maximum.  area_cells solves that cell
condition row by row in one O(L) walk over the L steps; area_rank_formula
reads the North-step start ranks instead.

dinv counts pairs of an East step before a North step whose start ranks
a, b satisfy 0 <= a - b < m + n.  dinv_pairs counts them for each North
step by bisecting the sorted start ranks of the East steps before it, in
O(L log L) comparisons; dinv_cell_list tests the same inequality cell by
cell over the cells above the path, in O(L^2).
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Mapping

from .errors import NonIntegral, RowOutOfRange
from .paths import (
    EAST,
    NORTH,
    Params,
    StepWord,
    enumerate_dyck,
    require_dyck,
    south_end_ranks,
    start_ranks,
)


def area_cells(word: StepWord) -> int:
    """Cells below the path and weakly above the diagonal, counted row by
    row in one O(L) walk over the steps.

    The North step of row y, taken after x East steps, lies to the left of
    the cells x' >= x of its row, and m*y - n*(x'+1) >= 0 keeps those with
    x' < m*y // n, so the row adds m*y // n - x cells.  On a Dyck word its
    start rank m*y - n*x is nonnegative, so no row adds a negative count.

    >>> from .paths import make_params, parse_word
    >>> params = make_params(3, 2)
    >>> area_cells(parse_word("NENEE", params)), area_cells(parse_word("NNEEE", params))
    (0, 1)
    """
    require_dyck(word)
    m, n = word.params.m, word.params.n
    total = x = y = 0
    for ch in word.steps:
        if ch == NORTH:
            total += m * y // n - x
            y += 1
        else:
            x += 1
    return total


def area_rank_formula(word: StepWord) -> int:
    """area from the sum of the North-step start ranks.

    Computes (1/n) * sum_j r(S_j) - d(n-1)/2 with exact integer
    arithmetic; a nonzero remainder raises NonIntegral instead of
    rounding, so a violated identity cannot pass silently.
    """
    params = word.params
    rank_sum = sum(south_end_ranks(word))
    numerator = 2 * rank_sum - params.d * params.n * (params.n - 1)
    quotient, remainder = divmod(numerator, 2 * params.n)
    if remainder:
        raise NonIntegral(
            f"rank sum {rank_sum} is not congruent for {word.text} with {params}"
        )
    return quotient


def least_row_rank(j: int, params: Params) -> int:
    """The least nonnegative cell rank in grid row j, an int in
    0..dn-1: (m*j) mod n."""
    if type(j) is not int or not 0 <= j < params.north_count:
        raise RowOutOfRange(f"row {j!r} outside 0..{params.north_count - 1}")
    return (params.m * j) % params.n


def dinv_pairs(word: StepWord) -> int:
    """dinv as a count over (East, later North) step pairs.

    The start ranks of the East steps met so far are kept sorted, and a
    North step of rank b adds the number of them in [b, b + m + n).  East
    steps of equal rank, which occur for d > 1, each keep their own entry,
    so tied pairs count with multiplicity.  Cost: O(L log L) comparisons,
    with insort's list shifts done in C.

    >>> from .paths import make_params, parse_word
    >>> params = make_params(3, 2)
    >>> dinv_pairs(parse_word("NENEE", params)), dinv_pairs(parse_word("NNEEE", params))
    (1, 0)
    """
    require_dyck(word)
    width = word.params.m + word.params.n
    seen: list[int] = []
    total = 0
    for ch, rank in zip(word.steps, start_ranks(word)):
        if ch == NORTH:
            total += bisect_left(seen, rank + width) - bisect_left(seen, rank)
        else:
            insort(seen, rank)
    return total


def dinv_cell_list(word: StepWord) -> list[tuple[int, int]]:
    """The cells above the path that contribute to dinv.

    A cell (x, y) above the path contributes when the start rank a of the
    East step below it and the start rank b of the North step to its
    right satisfy 0 <= a - b < m + n.  This is the cell-by-cell O(L^2)
    formulation: for each North step it scans the East steps from the
    left and stops at the first one after the North step, since no cell
    of that column or a later one is above the path in its row.  verify
    checks dinv_pairs against it, so it is kept independent of dinv_pairs
    on purpose: the two share no code but the start ranks.
    """
    require_dyck(word)
    m, n = word.params.m, word.params.n
    ranks = start_ranks(word)
    norths = [i for i, ch in enumerate(word.steps) if ch == NORTH]
    easts = [i for i, ch in enumerate(word.steps) if ch == EAST]
    cells = []
    for y, npos in enumerate(norths):
        north_rank = ranks[npos]
        for x, epos in enumerate(easts):
            if epos > npos:
                break
            if 0 <= ranks[epos] - north_rank < m + n:
                cells.append((x, y))
    return cells


def dinv_cells(word: StepWord) -> int:
    """dinv as a count over cells above the path; see dinv_cell_list."""
    return len(dinv_cell_list(word))


def max_stat(params: Params) -> int:
    """The shared maximum of area and dinv: ((dm-1)(dn-1) + d-1) / 2.

    Attained by the corner path for area and by the base path for dinv.
    The numerator is always even for co-prime (m, n).
    """
    numerator = (params.east_count - 1) * (params.north_count - 1) + params.d - 1
    quotient, remainder = divmod(numerator, 2)
    if remainder:
        raise NonIntegral(f"({params}) gives odd extreme-value numerator {numerator}")
    return quotient


@dataclass(frozen=True)
class StatTable:
    """Joint (area, dinv) counts over all Dyck paths of one parameter set."""

    params: Params
    counts: Mapping[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def area_marginal(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (area, _), c in self.counts.items():
            out[area] = out.get(area, 0) + c
        return out

    def dinv_marginal(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (_, dinv), c in self.counts.items():
            out[dinv] = out.get(dinv, 0) + c
        return out

    def marginals_agree(self) -> bool:
        return self.area_marginal() == self.dinv_marginal()

    def to_csv(self) -> str:
        """CSV with columns area, dinv, count; rows sorted by (area, dinv)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["area", "dinv", "count"])
        for (area, dinv) in sorted(self.counts):
            writer.writerow([area, dinv, self.counts[(area, dinv)]])
        return buf.getvalue()

    def to_matrix_text(self) -> str:
        """Plain-text matrix, area down the side and dinv across the top."""
        top = max_stat(self.params)
        width = max(5, len(str(max(self.counts.values(), default=0))) + 1)
        lines = ["area\\dinv" + "".join(f"{j:>{width}}" for j in range(top + 1))]
        for i in range(top + 1):
            row = "".join(
                f"{self.counts.get((i, j), 0):>{width}}" for j in range(top + 1)
            )
            lines.append(f"{i:<9}" + row)
        return "\n".join(lines) + "\n"


def joint_distribution(params: Params, limit: int | None = None) -> StatTable:
    """Tabulate (area_cells, dinv_pairs) over every Dyck path."""
    counts: dict[tuple[int, int], int] = {}
    for word in enumerate_dyck(params, limit):
        key = (area_cells(word), dinv_pairs(word))
        counts[key] = counts.get(key, 0) + 1
    return StatTable(params, counts)
