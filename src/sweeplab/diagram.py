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
expected color per row, held as one bit of a single int, so no per-row
segment list is ever built.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import NamedTuple

from .paths import EAST, NORTH, Params, StepWord, start_ranks

RED = "red"
BLUE = "blue"


class Arrow(NamedTuple):
    """The arrow of one step.  A named tuple, so a diagram's arrows are
    built, hashed and compared in C, and each equals its plain
    (column, color, start_rank) tuple."""

    column: int  # 1-based step position
    color: str  # RED (up) or BLUE (down)
    start_rank: int


class PathDiagram(NamedTuple):
    params: Params
    arrows: tuple[Arrow, ...]


_COLORS = {NORTH: RED, EAST: BLUE}


def build_diagram(word: StepWord) -> PathDiagram:
    """One arrow per column: color from the letter, level from the rank.

    The ranks are read first, so a letter other than N and E raises
    BadLetter there.
    """
    ranks = start_ranks(word)
    colors = map(_COLORS.__getitem__, word.steps)
    # tuple.__new__ builds each Arrow in C; Arrow's own __new__ is a Python call
    arrows = tuple(map(tuple.__new__, repeat(Arrow), zip(count(1), colors, ranks)))
    return PathDiagram(word.params, arrows)


def check_row_structure(diagram: PathDiagram) -> bool:
    """True iff every nonempty row reads (red, blue) repeated.

    The arrows chain into one connected zigzag from level 0 back to level
    0, so segment colors always alternate within a row and the red and
    blue counts agree.  What distinguishes Dyck words is that every
    nonempty row also *starts* red and ends blue; a word that dips below
    rank 0 produces a row (at a negative level) that starts blue.  Every
    row some arrow crosses is checked, down to the rows below row 0 that
    non-Dyck words reach.

    The check is a state walk over the arrows in tuple order, which reads
    each row's segments left to right for a built diagram, with one state
    per row: 0 while the row expects red, 1 while it expects blue.  A red
    arrow needs every row it crosses at 0 and sets them to 1; a blue arrow
    needs them at 1 and sets them to 0; either way it flips them, and every
    row must end at 0.  The states are the bits of one int, bit r - low for
    row r, so each arrow tests and flips its rows with one mask: one step
    per arrow, and no row's segment list is built.
    """
    if not diagram.arrows:
        return True
    m, n = diagram.params.m, diagram.params.n
    _, colors, starts = zip(*diagram.arrows)
    low = min(starts) - n  # the lowest row a blue arrow can cross
    reds, blues = (1 << m) - 1, (1 << n) - 1
    state = 0
    for color, start in zip(colors, starts):
        if color == RED:
            rows = reds << (start - low)
            if state & rows:
                return False
        else:
            rows = blues << (start - n - low)
            if state & rows != rows:
                return False
        state ^= rows
    return not state
