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

dinv_pairs counts pairs of an East step before a North step whose start
ranks a, b satisfy 0 <= a - b < m + n: for each North step it bisects the
sorted start ranks of the East steps before it, in O(L log L)
comparisons.  dinv_cell_list reads no ranks: it tests each cell above the
path by its arm and leg, the hook rule n*arm < m*(leg+1) and
m*leg <= n*(arm+1), with one bisection per column.  On a Dyck path both
select the same cells, d > 1 included, where the rule's `<=` side
decides the rank ties.

Each formulation has one body for a single word.  area_cells and
dinv_pairs are public wrappers: each refuses a non-Dyck word
(require_dyck), then calls its private kernel, _area_cells over the
letters or _dinv_pairs over the letters and start ranks, which checks
nothing.  verify calls the wrappers, so a broken kernel shows there.

The consumers of the whole enumeration walk (`paths._walk`), which yields
only Dyck paths, read _walk_counts instead: joint_distribution here and
`sweeplab enumerate`, which also takes each path's sweep image from the
walk's buffer that _walk_counts passes on.  It keeps both counts as
running sums by position across the walk, with the kernels' per-step
terms, and recounts each path only from the first step the walk rewrote up
to its last North step; the East steps after that add to neither count.
The kernels stay separate on purpose: made resumable so that the walk
could share them, they would double the cost of a single word, which
verify pays per path, and save the walk no measurable time.  The tests
take the kernels as the reference for _walk_counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Mapping

from .errors import NonIntegral
from .paths import (
    NORTH,
    Params,
    StepWord,
    _walk,
    check_step_limit,
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
    return _area_cells(word.steps, word.params)


def _area_cells(steps, params: Params) -> int:
    """area_cells' count over the letters of a Dyck path; unchecked."""
    m, n = params.m, params.n
    total = x = y = 0
    for ch in steps:
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
    return _dinv_pairs(word.steps, start_ranks(word), word.params)


def _dinv_pairs(steps, ranks, params: Params) -> int:
    """dinv_pairs' count over the letters and start ranks of a Dyck path;
    unchecked."""
    width = params.m + params.n
    seen: list[int] = []
    total = 0
    for ch, rank in zip(steps, ranks):
        if ch == NORTH:
            total += bisect_left(seen, rank + width) - bisect_left(seen, rank)
        else:
            insort(seen, rank)
    return total


def dinv_cell_list(word: StepWord) -> list[tuple[int, int]]:
    """The cells above the path that contribute to dinv, by the arm/leg
    (hook) rule, row by row and left to right.

    ends[y] counts the East steps before the North step of row y, so the
    cells above the path in row y are x < ends[y].  Such a cell has arm
    ends[y] - 1 - x, the cells above the path to its right in its row, and
    leg y - first_row[x], those below it in its column, where first_row[x]
    = bisect_right(ends, x) is the first row whose end exceeds x, since the
    row ends never decrease.  It contributes when n*arm < m*(leg+1) and
    m*leg <= n*(arm+1).  Either side can be an equality only for d > 1,
    and this split of the ties is the one that matches dinv_pairs.
    verify checks dinv_pairs against it, so it is kept independent of
    dinv_pairs on purpose: it reads no start ranks.
    """
    require_dyck(word)
    m, n = word.params.m, word.params.n
    norths = [i for i, ch in enumerate(word.steps) if ch == NORTH]
    ends = [i - y for y, i in enumerate(norths)]
    first_row = [bisect_right(ends, x) for x in range(ends[-1])]
    cells = []
    for y, end in enumerate(ends):
        for x in range(end):
            arm = end - 1 - x
            leg = y - first_row[x]
            if n * arm < m * (leg + 1) and m * leg <= n * (arm + 1):
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

    def _marginal(self, axis: int) -> dict[int, int]:
        """Counts summed over the other statistic: axis 0 is area, 1 dinv."""
        out: dict[int, int] = {}
        for key, c in self.counts.items():
            out[key[axis]] = out.get(key[axis], 0) + c
        return out

    def marginals_agree(self) -> bool:
        return self._marginal(0) == self._marginal(1)

    def to_csv(self) -> str:
        """CSV with columns area, dinv, count; rows sorted by (area, dinv).
        Every field is an int, so none needs quoting."""
        counts = self.counts
        return "area,dinv,count\n" + "".join(
            f"{area},{dinv},{counts[area, dinv]}\n" for area, dinv in sorted(counts)
        )

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
    """Tabulate (area_cells, dinv_pairs) over every Dyck path.

    Both counts come from _walk_counts, with no word built per path: the
    walk yields only Dyck paths with the right letter counts, so the
    wrappers' Dyck check has nothing to refuse.
    """
    check_step_limit(params, limit)
    counts: dict[tuple[int, int], int] = {}
    for _, _, area, dinv in _walk_counts(params):
        key = (area, dinv)
        counts[key] = counts.get(key, 0) + 1
    return StatTable(params, counts)


def _walk_counts(params: Params):
    """Yield (steps, swept, area, dinv) for every path of `paths._walk`,
    whose letters and image buffer are yielded as they are; no limit is
    checked here.

    area and dinv are _area_cells and _dinv_pairs of the path, kept as
    running sums by position: area_at[i] and dinv_at[i] count the steps
    before position i, and `easts` holds the start ranks of the East steps
    inserted into the sorted `seen`, in position order.  The walk rewrites
    only the steps from its `lo` on, so a path drops the East ranks at
    positions >= lo and counts from lo until its last North step.
    """
    m, n = params.m, params.n
    width = m + n
    norths = params.north_count
    area_at = [0] * (params.step_count + 1)
    dinv_at = [0] * (params.step_count + 1)
    seen: list[int] = []
    easts: list[int] = []
    for steps, ranks, lo, swept in _walk(params):
        y = (ranks[lo] + n * lo) // width  # North steps before lo: r = m*y - n*x
        for rank in easts[lo - y:]:
            del seen[bisect_left(seen, rank)]
        del easts[lo - y:]
        area, dinv = area_at[lo], dinv_at[lo]
        i = lo
        while y < norths:
            rank = ranks[i]
            if steps[i] == NORTH:
                area += rank // n  # _area_cells' m*y//n - x, as r = m*y - n*x
                dinv += bisect_left(seen, rank + width) - bisect_left(seen, rank)
                y += 1
            else:
                insort(seen, rank)
                easts.append(rank)
            i += 1
            area_at[i] = area
            dinv_at[i] = dinv
        yield steps, swept, area, dinv
