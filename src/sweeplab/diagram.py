"""The stretched path diagram: one arrow per step on a (dm+dn) x dmn rectangle.

Column c holds an up arrow (1, m) for a North step or a down arrow (1, -n)
for an East step, drawn from the step's starting rank.  Up arrows are
"red", down arrows "blue".  Row j is the band of lattice cells between the
horizontal lines at levels j and j+1; a red arrow occupies rows
[start, start+m), a blue arrow rows [start-n, start).  All membership
tests are integer interval tests, never geometry.

For Dyck words every arrow stays inside rows 0..dmn-1.  Non-Dyck words are
allowed too (their arrows dip below row 0), which is exactly what the row
structure check detects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import RowOutOfRange
from .paths import NORTH, Params, StepWord, start_ranks

RED = "red"
BLUE = "blue"


@dataclass(frozen=True)
class Arrow:
    column: int  # 1-based step position
    color: str  # RED (up) or BLUE (down)
    start_rank: int

    def row_span(self, params: Params) -> range:
        """The rows of cells this arrow passes through."""
        if self.color == RED:
            return range(self.start_rank, self.start_rank + params.m)
        return range(self.start_rank - params.n, self.start_rank)

    def end_rank(self, params: Params) -> int:
        return self.start_rank + (params.m if self.color == RED else -params.n)


@dataclass(frozen=True)
class PathDiagram:
    params: Params
    arrows: tuple[Arrow, ...]

    @property
    def height(self) -> int:
        return self.params.rect_height

    @property
    def width(self) -> int:
        return self.params.step_count

    @cached_property
    def rows(self) -> dict[int, list[tuple[int, str]]]:
        """Row -> its (column, color) segments, left to right; only the
        rows some arrow crosses appear.  Built in one pass over the arrows."""
        rows: dict[int, list[tuple[int, str]]] = {}
        for a in self.arrows:
            for j in a.row_span(self.params):
                rows.setdefault(j, []).append((a.column, a.color))
        return rows

    def attained_rows(self) -> range:
        """Rows touched by at least one arrow; [0, dmn) for Dyck words."""
        return range(min(self.rows), max(self.rows) + 1)


@dataclass(frozen=True)
class RowCounts:
    row: int
    c_red: int
    c_blue: int

    @property
    def c(self) -> int:
        return self.c_red - self.c_blue


def build_diagram(word: StepWord) -> PathDiagram:
    """One arrow per column: color from the letter, level from the rank."""
    arrows = tuple(
        Arrow(c, RED if ch == NORTH else BLUE, rank)
        for c, (ch, rank) in enumerate(zip(word.steps, start_ranks(word)), start=1)
    )
    return PathDiagram(word.params, arrows)


def segments_in_row(diagram: PathDiagram, j: int) -> list[tuple[int, str]]:
    """The (column, color) segments of row j, left to right.

    j must lie in 0..dmn-1, the rows of the diagram rectangle.
    """
    if not 0 <= j < diagram.height:
        raise RowOutOfRange(f"row {j} outside 0..{diagram.height - 1}")
    return list(diagram.rows.get(j, ()))


def row_counts(diagram: PathDiagram, j: int) -> RowCounts:
    """Red and blue segment counts of row j."""
    segs = segments_in_row(diagram, j)
    c_red = sum(1 for _, color in segs if color == RED)
    return RowCounts(j, c_red, len(segs) - c_red)


def check_row_structure(diagram: PathDiagram) -> bool:
    """True iff every nonempty row reads (red, blue) repeated.

    The arrows chain into one connected zigzag from level 0 back to level
    0, so segment colors always alternate within a row and the red and
    blue counts agree.  What distinguishes Dyck words is that every
    nonempty row also *starts* red and ends blue; a word that dips below
    rank 0 produces a row (at a negative level) that starts blue.  Every
    row some arrow crosses is scanned, down to the rows below row 0 that
    non-Dyck words reach.
    """
    for segs in diagram.rows.values():
        if [color for _, color in segs] != [RED, BLUE] * (len(segs) // 2):
            return False
    return True
