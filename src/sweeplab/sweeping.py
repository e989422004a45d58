"""The sweep map and its exact tie-breaking order.

The sweep map rearranges the steps of a word by increasing starting rank.
Ties (which occur only for dilation d > 1) break rightmost-first: the
geometric picture sweeps the stretched diagram with lines of tiny positive
slope, so within one level the line meets the rightmost start first.  The
key (rank ascending, column descending) encodes this exactly; no floating
point epsilon is ever used.

`image_start_rank` reads a step's image rank off the swept word.
`green_line_rank` recomputes it from the geometry of the stretched diagram
alone: segment counts relative to the slope-epsilon line through the
step's start.  It never consults the sweep order, so the two routes are
independent and serve as mutual checks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import IndexOutOfRange, NotInImage
from .paths import (
    NORTH,
    Params,
    StepWord,
    enumerate_dyck,
    require_dyck,
    start_ranks,
)


def sweep_key(rank: int, column: int) -> tuple[int, int]:
    """Sort key realizing the sweep order: rank ascending, then rightmost
    column first within a level."""
    return (rank, -column)


def key_precedes(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True iff the step with (rank, column) `a` is swept before `b`."""
    return sweep_key(*a) < sweep_key(*b)


@dataclass(frozen=True)
class GreenLine:
    """The line of infinitesimal positive slope through a step's start.

    level is the start rank of the reference step and ref_column its
    1-based position, so the line passes through the point
    (ref_column - 1, level).  The slope is symbolic: a point at integer
    height h and x-coordinate x is strictly below the line iff h < level,
    or h == level and x > ref_column - 1.  Points on the line
    (h == level, x == x0) are not below it.
    """

    level: int
    ref_column: int

    @property
    def x0(self) -> int:
        return self.ref_column - 1

    def strictly_below(self, h: int, x: int) -> bool:
        return h < self.level or (h == self.level and x > self.x0)

    def start_strictly_below(self, rank: int, column: int) -> bool:
        """Whether the arrow starting at (column - 1, rank) lies strictly
        below the line; equivalent to being swept before the reference."""
        return self.strictly_below(rank, column - 1)


def sweep_order(word: StepWord) -> tuple[int, ...]:
    """Step positions (1-based) sorted into sweep order."""
    ranks = start_ranks(word)
    order = sorted(range(1, len(word) + 1), key=lambda c: sweep_key(ranks[c - 1], c))
    return tuple(order)


def sweep(word: StepWord) -> StepWord:
    """The word's letters read in sweep order.

    >>> from .paths import make_params, parse_word
    >>> sweep(parse_word("NENEE", make_params(3, 2))).text
    'NNEEE'
    """
    steps = tuple(word.steps[c - 1] for c in sweep_order(word))
    return StepWord(steps, word.params)


def image_start_rank(word: StepWord, position_in_sweep: int) -> int:
    """Start rank of the image step at the given 1-based sweep position.

    This is start_ranks(sweep(word)) at that position: b*m - a*n where b
    North and a East steps are swept strictly earlier.
    """
    if not 1 <= position_in_sweep <= len(word):
        raise IndexOutOfRange(f"sweep position {position_in_sweep} outside 1..{len(word)}")
    return start_ranks(sweep(word))[position_in_sweep - 1]


def green_line_rank(word: StepWord, step: int) -> int:
    """A step's image rank, recomputed by counting diagram segments
    against the green line through the step's start.

    Let L be the step's start rank.  The count is A + B where

      A = segments in rows >= L of up arrows that start strictly below
          the line (swept strictly before the step), and
      B = segments in rows <= L-1 of down arrows that do not start
          strictly below it (the reference arrow included when it is a
          down arrow).

    Both counts follow from the zero-row-count property applied to the
    rows below the line: the b*m segments of the early up arrows minus
    the a*n segments of the early down arrows leave exactly A above,
    and the blue deficit below is exactly B.

    "Swept before" is decided by the line alone, never by the sweep
    order, so a sweep that disagrees with the geometry shows up as a
    rank mismatch rather than being trusted.
    """
    require_dyck(word)
    if not 1 <= step <= len(word):
        raise IndexOutOfRange(f"step {step} outside 1..{len(word)}")
    params = word.params
    m, n = params.m, params.n
    ranks = start_ranks(word)
    line = GreenLine(level=ranks[step - 1], ref_column=step)

    above = below = 0
    for column, (letter, rank) in enumerate(zip(word.steps, ranks), start=1):
        starts_below = line.start_strictly_below(rank, column)
        if letter == NORTH:
            if starts_below:
                # rows [rank, rank+m) clipped to rows >= level
                above += max(0, rank + m - max(line.level, rank))
        else:
            if not starts_below:
                # rows [rank-n, rank) clipped to rows <= level-1
                below += max(0, min(rank, line.level) - (rank - n))
    return above + below


_inverse_tables: dict[Params, dict[str, str]] = {}
_inverse_lock = threading.Lock()


def _inverse_table(params: Params, limit: int | None) -> dict[str, str]:
    words = enumerate_dyck(params, limit)  # checks the limit, even on a cache hit
    with _inverse_lock:
        table = _inverse_tables.get(params)
        if table is None:
            # Text values: a StepWord value would keep its cached ranks alive.
            table = {sweep(w).text: w.text for w in words}
            _inverse_tables[params] = table
    return table


def unsweep(image: StepWord, limit: int | None = None) -> StepWord:
    """The unique Dyck preimage of a Dyck word under the sweep map.

    Looked up in a cached table from image text to preimage text, built
    by enumerating all Dyck paths of the parameters.  The parameters must
    be within the enumeration limit, on every call, whether or not the
    table is already cached; LimitExceeded otherwise.  Raises NotInImage
    if the lookup fails, which cannot happen for a Dyck input unless the
    library is inconsistent.
    """
    require_dyck(image)
    table = _inverse_table(image.params, limit)
    try:
        return StepWord(tuple(table[image.text]), image.params)
    except KeyError:
        raise NotInImage(f"no sweep preimage recorded for {image.text}") from None
