"""The stretched path diagram: one arrow per step on a (dm+dn) x dmn rectangle.

Column c holds an up arrow (1, m) for a North step or a down arrow (1, -n)
for an East step, drawn from the step's starting rank.  Up arrows are
"red", down arrows "blue".  Row j is the band of lattice cells between the
horizontal lines at levels j and j+1; a red arrow occupies rows
[start, start+m), a blue arrow rows [start-n, start).  All membership
tests are integer interval tests, never geometry.

For Dyck words every arrow stays inside rows 0..dmn-1.  Non-Dyck words are
allowed too (their arrows dip below row 0), which is exactly what the row
structure check detects.  That check walks the arrows once with one
expected color per row, so it costs one slice compare and one slice write
per arrow; the per-row segment lists of `PathDiagram.rows` are built only
for the row queries (`segments_in_row`, `row_counts`, `attained_rows`).
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
        """Rows touched by at least one arrow; [0, dmn) for Dyck words, and
        empty for a diagram without arrows."""
        rows = self.rows
        if not rows:
            return range(0)
        return range(min(rows), max(rows) + 1)


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
    row some arrow crosses is checked, down to the rows below row 0 that
    non-Dyck words reach.

    The check is a state walk over the arrows in tuple order, the order
    in which `rows` lists each row's segments, with one state per row: 0
    while the row expects red, 1 while it expects blue.  A red arrow needs
    every row it crosses at 0 and sets them to 1; a blue arrow needs them
    at 1 and sets them to 0; every row must end at 0.  Each arrow reads
    and writes its rows as one bytearray slice, so the cost is one step
    per arrow and `rows` is never built.
    """
    arrows = diagram.arrows
    if not arrows:
        return True
    m, n = diagram.params.m, diagram.params.n
    starts = [a.start_rank for a in arrows]
    low = min(starts) - n  # the lowest row a blue arrow can cross
    state = bytearray(max(starts) + m - low)
    zeros_m, ones_m = bytes(m), b"\x01" * m
    zeros_n, ones_n = bytes(n), b"\x01" * n
    for arrow, start in zip(arrows, starts):
        r = start - low
        if arrow.color == RED:
            if state[r:r + m] != zeros_m:
                return False
            state[r:r + m] = ones_m
        else:
            if state[r - n:r] != ones_n:
                return False
            state[r - n:r] = zeros_n
    return not any(state)
