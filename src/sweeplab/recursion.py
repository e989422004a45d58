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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidMove, NoMoveAvailable
from .paths import (
    EAST,
    NORTH,
    StepWord,
    base_path,
    require_dyck,
    start_ranks,
)
from .sweeping import key_precedes
from .stats import area_cells

FIRST_VALID = "first-valid"
SWEEP_LATEST_EAST = "sweep-latest-east"
STRATEGIES = (FIRST_VALID, SWEEP_LATEST_EAST)


@dataclass(frozen=True)
class RemovalMove:
    """One area-cell removal: swap the North step at `position` (1-based)
    with the East step right after it.  `level` is the North step's start
    rank k, so the four display levels are k+m, k+m-n, k, k-n."""

    position: int
    level: int


@dataclass(frozen=True)
class RegionCounts:
    """Segment counts of the non-displayed arrows in the four bands."""

    red_top_left: int
    blue_top_left: int
    red_top_right: int
    blue_bottom_left: int
    blue_bottom_right: int
    red_bottom_right: int


def valid_moves(word: StepWord) -> list[RemovalMove]:
    """All removal moves of a Dyck word, by ascending position.

    Empty exactly when the word has area 0.
    """
    require_dyck(word)
    n = word.params.n
    ranks = start_ranks(word)
    moves = []
    for p in range(1, len(word)):
        if word.letter(p) == NORTH and word.letter(p + 1) == EAST and ranks[p - 1] >= n:
            moves.append(RemovalMove(p, ranks[p - 1]))
    return moves


def _check_move(word: StepWord, move: RemovalMove) -> None:
    p = move.position
    if not 1 <= p < len(word):
        raise InvalidMove(f"position {p} outside 1..{len(word) - 1}")
    if word.letter(p) != NORTH or word.letter(p + 1) != EAST:
        raise InvalidMove(f"no North-East pair at position {p} of {word.text}")
    if start_ranks(word)[p - 1] != move.level:
        raise InvalidMove(
            f"move level {move.level} does not match the rank at position {p}"
        )
    if move.level < word.params.n:
        raise InvalidMove(
            f"swap at position {p} would drop below rank 0 (level {move.level})"
        )


def apply_move(word: StepWord, move: RemovalMove) -> StepWord:
    """The word with the two steps swapped; area drops by exactly one."""
    _check_move(word, move)
    p = move.position
    steps = list(word.steps)
    steps[p - 1], steps[p] = steps[p], steps[p - 1]
    return StepWord(tuple(steps), word.params)


def region_counts(word: StepWord, move: RemovalMove) -> RegionCounts:
    """Count band segments of all arrows except the two being moved.

    An up arrow crosses row j iff its start lies in (j-m, j], a down
    arrow iff its start lies in (j, j+n]; substituting the four band rows
    gives the half-open rank intervals below.  The boundary inclusions
    encode the slope-epsilon sweep lines through the display vertices, so
    they are exactly right for tied ranks (d > 1) as well.
    """
    _check_move(word, move)
    m, n = word.params.m, word.params.n
    p, k = move.position, move.level
    ranks = start_ranks(word)

    red_top_left = blue_top_left = red_top_right = 0
    blue_bottom_left = blue_bottom_right = red_bottom_right = 0
    for c, letter in enumerate(word.steps, start=1):
        if c in (p, p + 1):
            continue
        r = ranks[c - 1]
        if letter == NORTH:
            if c < p and k <= r < k + m:
                red_top_left += 1
            if c > p + 1 and k < r <= k + m:
                red_top_right += 1
            if c > p + 1 and k - n - m < r <= k - n:
                red_bottom_right += 1
        else:
            if c < p and k + m <= r < k + m + n:
                blue_top_left += 1
            if c < p and k - n <= r < k:
                blue_bottom_left += 1
            if c > p + 1 and k - n < r <= k:
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
    rc = region_counts(word, move)
    return (
        rc.red_top_left + rc.red_top_right
        - rc.blue_bottom_left - rc.blue_bottom_right
    )


def dinv_recursion_delta(word: StepWord, move: RemovalMove) -> int:
    """Predicted change of dinv under the move.

    Equals dinv_pairs(word) - dinv_pairs(apply_move(...)) for every valid
    move.
    """
    rc = region_counts(word, move)
    return (
        rc.blue_top_left + rc.red_top_right
        - rc.blue_bottom_left - rc.red_bottom_right - 1
    )


def _image_rank(word: StepWord, step: int) -> int:
    """Image start rank of `step`: b*m - a*n over the b North and a East
    steps swept before it, in one pass over the sweep keys."""
    m, n = word.params.m, word.params.n
    ranks = start_ranks(word)
    ref = (ranks[step - 1], step)
    return sum(
        m if letter == NORTH else -n
        for c, (letter, r) in enumerate(zip(word.steps, ranks), start=1)
        if key_precedes((r, c), ref)
    )


def rank_difference_check(word: StepWord, move: RemovalMove) -> bool:
    """Verify the image-rank drop of the moved North step.

    rank(S) is the image start rank of the North step in the original
    word, rank(S') that of its lowered replacement in the swapped word.
    Their difference must be m*A - n*B where A up arrows and B down
    arrows (the displayed pair excluded) have sweep keys strictly between
    (k-n, p+1) and (k, p).
    """
    _check_move(word, move)
    m, n = word.params.m, word.params.n
    p, k = move.position, move.level

    rank_before = _image_rank(word, p)
    rank_after = _image_rank(apply_move(word, move), p + 1)

    low, high = (k - n, p + 1), (k, p)
    ups = downs = 0
    ranks = start_ranks(word)
    for c, letter in enumerate(word.steps, start=1):
        if c in (p, p + 1):
            continue
        key = (ranks[c - 1], c)
        if key_precedes(low, key) and key_precedes(key, high):
            if letter == NORTH:
                ups += 1
            else:
                downs += 1
    return rank_before - rank_after == m * ups - n * downs


def _pick_move(word: StepWord, moves: list[RemovalMove], strategy: str) -> RemovalMove:
    if strategy == FIRST_VALID:
        return moves[0]
    if strategy == SWEEP_LATEST_EAST:
        # The East step at p+1 starts at level k+m; latest in sweep order
        # means highest rank, ties to the smaller column.
        m = word.params.m
        return max(moves, key=lambda mv: (mv.level + m, -(mv.position + 1)))
    raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")


def reduce_to_base(word: StepWord, strategy: str = FIRST_VALID) -> list[RemovalMove]:
    """A chain of valid moves from `word` down to the area-0 base path.

    The chain length always equals the word's area.  Raises
    NoMoveAvailable if a positive-area word offers no move, which would
    mean the library is inconsistent.
    """
    chain: list[RemovalMove] = []
    current = word
    while True:
        moves = valid_moves(current)
        if not moves:
            break
        move = _pick_move(current, moves, strategy)
        chain.append(move)
        current = apply_move(current, move)
    if area_cells(current) != 0 or current != base_path(word.params):
        raise NoMoveAvailable(
            f"reduction of {word.text} stalled at {current.text}"
        )
    return chain
