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
from .sweeping import sweep_key
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


def _swap(word: StepWord, p: int, k: int) -> tuple[str, tuple[int, ...]]:
    """The letters and start ranks of `word` with the North-East pair at p
    swapped: the ranks are the word's, except that the North step now at
    column p+1 starts at k-n.  The move is not checked here."""
    steps, ranks = word.steps, list(start_ranks(word))
    ranks[p] = k - word.params.n
    return steps[:p - 1] + EAST + NORTH + steps[p + 1:], tuple(ranks)


def apply_move(word: StepWord, move: RemovalMove) -> StepWord:
    """The word with the two steps swapped; area drops by exactly one.

    Raises InvalidMove for an invalid move, as region_counts and
    rank_difference_check do through the same check.  The swapped word is
    handed its start ranks by _swap, so it never computes them.
    """
    p, k = _check_move(word, move)
    steps, ranks = _swap(word, p, k)
    return hand_over_ranks(StepWord(steps, word.params), ranks)


def region_counts(word: StepWord, move: RemovalMove) -> RegionCounts:
    """Count band segments of all arrows except the two being moved.

    An up arrow crosses row j iff its start lies in (j-m, j], a down
    arrow iff its start lies in (j, j+n]; substituting the four band rows
    gives the half-open rank intervals below.  The boundary inclusions
    encode the slope-epsilon sweep lines through the display vertices, so
    they are exactly right for tied ranks (d > 1) as well.

    Two slice loops count the bands: one over the columns left of p, one
    over those right of p+1, so no column is tested for its side.  Within
    a side each letter's bands are disjoint rank intervals.  The move is
    checked as apply_move checks it, and no swapped word is built.
    `verify` calls this once per move and reads both predicted deltas from
    the result.
    """
    p, k = _check_move(word, move)
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
    """Verify the image-rank drop of the moved North step.

    rank(S) is the image start rank of the North step in the original
    word, rank(S') that of its lowered replacement in the swapped word:
    b*m - a*n over the b North and a East steps swept before it.  Their
    difference must be m*A - n*B where A up arrows and B down arrows (the
    displayed pair excluded) are swept strictly between (k-n, p+1) and
    (k, p).

    Every sweep comparison is a plain rank/column test, the order of
    sweep_key: the step at column c with start rank r is swept before
    (k, p) iff r < k, or r == k and c > p, and after (k-n, p+1) iff
    r > k-n, or r == k-n and c <= p.  rank(S') is read off the swapped
    letters and ranks, the ones apply_move's word gets, but with no word
    built, against their own rank at column p+1, so the check does not
    lean on the original word for it.  One pass over the word and its
    swap side by side gives both ranks and the band sum m*A - n*B.  The
    band is counted among the steps swept before (k, p), which is the
    North step's own place once the move check has matched the rank at p;
    the displayed pair needs no test of its own, since step p is the bound
    and step p+1 starts at k+m, above it.
    """
    p, k = _check_move(word, move)
    m, n = word.params.m, word.params.n
    low = k - n
    swapped_steps, swapped_ranks = _swap(word, p, k)
    after = swapped_ranks[p]
    rank_before = rank_after = band = 0
    for column, (letter, r, swapped_letter, swapped_r) in enumerate(
        zip(word.steps, start_ranks(word), swapped_steps, swapped_ranks), start=1
    ):
        if r < k or (r == k and column > p):
            step = m if letter == NORTH else -n
            rank_before += step
            if r > low or (r == low and column <= p):
                band += step
        if swapped_r < after or (swapped_r == after and column > p + 1):
            rank_after += m if swapped_letter == NORTH else -n
    return rank_before - rank_after == band


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
