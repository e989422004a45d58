"""The area-cell removal move and the twin recursions it satisfies.

Swapping an adjacent North-East pair (positions p, p+1) removes exactly
one area cell: only the vertex between the two steps changes rank, from
k+m to k-n where k is the North step's start rank, so the move is valid
exactly when k >= n.  In the stretched diagram the move replaces the up
arrow at level k and the down arrow at level k+m by an up arrow at level
k-n and a down arrow at level k.

Four single-row bands around this display drive the recursions.  With the
moved East step starting at level k+m and the lowered North step at k-n:

  top-left      row k+m-1, columns left of p
  top-right     row k+m,   columns right of p+1
  bottom-left   row k-n-1, columns left of p
  bottom-right  row k-n,   columns right of p+1

Counting segments of the non-displayed arrows in these bands (pure
integer rank-interval tests below) gives both the change of the sweep
image's area and the change of dinv under the move.  The two deltas agree
because each band's red and blue counts are tied by the alternating row
pattern, which is how the main identity reduces to the area-0 base case.
reduce_to_base follows one such chain of moves down to the base path,
taking at each word the move whose East step is swept last (`sweep_key`).

The image-rank drop of the moved North step reads both ranks off the sweep
images; `_rank_band`, the one inline sweep comparator, counts the band sum
they must differ by.  Each public move reader checks its move and runs a
private form on the checked (p, k), which `verify` calls directly.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidMove, NoMoveAvailable
from .paths import (
    EAST,
    NORTH,
    StepWord,
    base_path,
    hand_over_ranks,
    require_dyck,
    start_ranks,
)
from .sweeping import sweep, sweep_key, sweep_order
from .stats import area_cells


class RemovalMove(NamedTuple):
    """One area-cell removal: swap the North step at `position` (1-based)
    with the East step right after it.  `level` is the North step's start
    rank k, so the four display levels are k+m, k+m-n, k, k-n.

    A named tuple, as every record of the package is, so hashing and
    comparing a move run in C; every move reader checks that both fields
    are ints.
    """

    position: int
    level: int


class RegionCounts(NamedTuple):
    """Segment counts of the non-displayed arrows in the four bands, and
    the two recursion deltas they predict.  A named tuple, as every record
    of the package is; region_counts builds one per move."""

    red_top_left: int
    blue_top_left: int
    red_top_right: int
    blue_bottom_left: int
    blue_bottom_right: int
    red_bottom_right: int

    @property
    def area_delta(self) -> int:
        """Predicted change of the sweep image's area under the move."""
        return (
            self.red_top_left + self.red_top_right
            - self.blue_bottom_left - self.blue_bottom_right
        )

    @property
    def dinv_delta(self) -> int:
        """Predicted change of dinv under the move."""
        return (
            self.blue_top_left + self.red_top_right
            - self.blue_bottom_left - self.red_bottom_right - 1
        )


def valid_moves(word: StepWord) -> list[RemovalMove]:
    """All removal moves of a Dyck word, by ascending position.

    Empty exactly when the word has area 0.
    """
    require_dyck(word)
    n = word.params.n
    steps = word.steps
    moves = []
    for p, (letter, next_letter, r) in enumerate(
        zip(steps, steps[1:], start_ranks(word)), start=1
    ):
        if letter == NORTH and next_letter == EAST and r >= n:
            moves.append(RemovalMove(p, r))
    return moves


def _check_move(word: StepWord, move: RemovalMove) -> tuple[int, int]:
    """The (position, level) of a valid move of `word`; raises InvalidMove
    otherwise, also for a position or level that is not an int (a bool is
    refused too, as Params refuses it)."""
    p, k = move
    if type(p) is not int or type(k) is not int:
        raise InvalidMove(f"move position and level must be integers, got {move!r}")
    steps = word.steps
    if not 1 <= p < len(steps):
        raise InvalidMove(f"position {p} outside 1..{len(steps) - 1}")
    if steps[p - 1] != NORTH or steps[p] != EAST:
        raise InvalidMove(f"no North-East pair at position {p} of {word.text}")
    if start_ranks(word)[p - 1] != k:
        raise InvalidMove(f"move level {k} does not match the rank at position {p}")
    if k < word.params.n:
        raise InvalidMove(f"swap at position {p} would drop below rank 0 (level {k})")
    return p, k


def _apply_move(word: StepWord, p: int, k: int) -> StepWord:
    """apply_move for a checked (p, k).  The swapped word is handed the
    word's ranks, but k-n for the North step now at column p+1."""
    steps, ranks = word.steps, list(start_ranks(word))
    ranks[p] = k - word.params.n
    swapped = StepWord(steps[:p - 1] + EAST + NORTH + steps[p + 1:], word.params)
    return hand_over_ranks(swapped, tuple(ranks))


def apply_move(word: StepWord, move: RemovalMove) -> StepWord:
    """The word with the two steps swapped; area drops by exactly one.
    Raises InvalidMove for an invalid move, as every move reader does."""
    return _apply_move(word, *_check_move(word, move))


def region_counts(word: StepWord, move: RemovalMove) -> RegionCounts:
    """Count band segments of all arrows except the two being moved; the
    move is checked as apply_move checks it."""
    return _region_counts(word, *_check_move(word, move))


def _region_counts(word: StepWord, p: int, k: int) -> RegionCounts:
    """region_counts for a checked (p, k).

    An up arrow crosses row j iff its start lies in (j-m, j], a down
    arrow iff its start lies in (j, j+n]; substituting the four band rows
    gives the half-open rank intervals below.  The boundary inclusions
    encode the slope-epsilon sweep lines through the display vertices, so
    they are exactly right for tied ranks (d > 1) as well.

    Two slice loops count the bands: one over the columns left of p, one
    over those right of p+1, so no column is tested for its side.  Within
    a side each letter's bands are disjoint rank intervals.  No swapped
    word is built.  `verify` calls this once per move and reads both
    predicted deltas from the result.
    """
    m, n = word.params.m, word.params.n
    ranks = start_ranks(word)

    red_top_left = blue_top_left = blue_bottom_left = 0
    for letter, r in zip(word.steps[:p - 1], ranks[:p - 1]):
        if letter == NORTH:
            if k <= r < k + m:
                red_top_left += 1
        elif k + m <= r < k + m + n:
            blue_top_left += 1
        elif k - n <= r < k:
            blue_bottom_left += 1
    red_top_right = red_bottom_right = blue_bottom_right = 0
    for letter, r in zip(word.steps[p + 1:], ranks[p + 1:]):
        if letter == NORTH:
            if k < r <= k + m:
                red_top_right += 1
            elif k - n - m < r <= k - n:
                red_bottom_right += 1
        elif k - n < r <= k:
            blue_bottom_right += 1
    return RegionCounts(
        red_top_left,
        blue_top_left,
        red_top_right,
        blue_bottom_left,
        blue_bottom_right,
        red_bottom_right,
    )


def area_recursion_delta(word: StepWord, move: RemovalMove) -> int:
    """Predicted change of the sweep image's area under the move.

    Equals area_cells(sweep(word)) - area_cells(sweep(apply_move(...)))
    for every valid move.
    """
    return region_counts(word, move).area_delta


def dinv_recursion_delta(word: StepWord, move: RemovalMove) -> int:
    """Predicted change of dinv under the move.

    Equals dinv_pairs(word) - dinv_pairs(apply_move(...)) for every valid
    move.
    """
    return region_counts(word, move).dinv_delta


def rank_difference_check(word: StepWord, move: RemovalMove) -> bool:
    """Verify the image-rank drop of the moved North step: rank(S), read
    off sweep(word) at the sweep place of column p, less rank(S'), read off
    the swapped word's image at that of column p+1, is the band sum of
    _rank_band.  Raises InvalidMove for an invalid move."""
    p, k = _check_move(word, move)
    swapped = _apply_move(word, p, k)
    rank_before = start_ranks(sweep(word))[sweep_order(word).index(p)]
    rank_after = start_ranks(sweep(swapped))[sweep_order(swapped).index(p + 1)]
    return rank_before - rank_after == _rank_band(word, p, k)


def _rank_band(word: StepWord, p: int, k: int) -> int:
    """m*A - n*B for a checked (p, k): A up and B down arrows are swept
    strictly between (k-n, p+1) and (k, p), by the rank/column test of
    sweep_key.  The displayed pair needs no test of its own: step p is the
    upper bound, and step p+1 starts at k+m, above it."""
    m, n = word.params.m, word.params.n
    low = k - n
    band = 0
    for column, (letter, r) in enumerate(zip(word.steps, start_ranks(word)), start=1):
        if (r < k or (r == k and column > p)) and (r > low or (r == low and column <= p)):
            band += m if letter == NORTH else -n
    return band


def reduce_to_base(word: StepWord) -> list[RemovalMove]:
    """A chain of valid moves from `word` down to the area-0 base path,
    each the move whose East step is swept last: the highest start rank
    k+m of the East step at p+1, the smaller column among tied ranks.

    The chain length always equals the word's area.  Raises NoMoveAvailable
    if a positive-area word offers no move, which would mean the library
    is inconsistent.
    """
    m = word.params.m
    chain: list[RemovalMove] = []
    current = word
    while moves := valid_moves(current):
        move = max(moves, key=lambda mv: sweep_key(mv.level + m, mv.position + 1))
        chain.append(move)
        current = apply_move(current, move)
    if area_cells(current) != 0 or current != base_path(word.params):
        raise NoMoveAvailable(
            f"reduction of {word.text} stalled at {current.text}"
        )
    return chain
