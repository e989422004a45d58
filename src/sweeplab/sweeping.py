"""The sweep map and its exact tie-breaking order.

The sweep map rearranges the steps of a word by increasing starting rank.
Ties (which occur only for dilation d > 1) break rightmost-first: the
geometric picture sweeps the stretched diagram with lines of tiny positive
slope, so within one level the line meets the rightmost start first.  The
key (rank ascending, column descending) encodes this exactly; no floating
point epsilon is ever used.

`sweep_key` states that order as a sort key; its only library caller is
`recursion.reduce_to_base`.  The order has two realizations.  For one
word, `sweep_order` is one stable sort of the columns, listed right to
left, by the word's cached start ranks: equal ranks keep their input
order, rightmost first, so no key is built.  The sort runs once per word
and is kept with the word, beside its start ranks; `sweep` reads it, and
so does `verify`, to file each image rank under its column.
Along the enumeration walk, `paths._walk` keeps each path's image as a
counting sort instead, in a buffer of one slot per (rank, tie) pair that
it updates only where the path changed, so `unsweep` and `sweeplab
enumerate` sort no path; the tests check each against the other.  The
rank-difference band and the region counts of `recursion` compare ranks
and columns: the step at column c with start rank r is swept before the
one at column c' with rank r' iff r < r', or r == r' and c > c'.

`image_start_rank` reads a step's image rank off the swept word.
`green_line_ranks` recomputes every step's image rank from the geometry of
the stretched diagram alone: segment counts relative to the slope-epsilon
line through each step's start.  It never consults the sweep order, so the
two routes are independent and serve as mutual checks.  It counts a whole
path in one call, one pass over the arrows in its own line order, so
`verify` pays one call per path; `green_line_rank` reads one step off it.

`unsweep` looks the preimage up in a table of every Dyck path of the
parameters, filled from the walk's image buffer with its empty slots
removed, and `sweeplab enumerate` writes each walked path's image the same
way; neither builds a word per path.  A table entry holds two ints: the
image read as binary (N is 1, E is 0) and the path's index in the walk.
The preimage is rebuilt from its index by `paths._unrank`.  One table is
kept, that of the last parameter set used: every caller reads one set at
a time.
"""

from __future__ import annotations

import functools

from .errors import IndexOutOfRange, NotInImage
from .paths import (
    EAST,
    NORTH,
    Params,
    StepWord,
    _completions,
    _unrank,
    _walk,
    check_step_limit,
    require_dyck,
    start_ranks,
)


def sweep_key(rank: int, column: int) -> tuple[int, int]:
    """Sort key realizing the sweep order: rank ascending, then rightmost
    column first within a level.

    sweep_key(r, c) < sweep_key(r', c') iff r < r', or r == r' and c > c';
    this rank/column test is what the move checks inline, step by step.
    """
    return (rank, -column)


def sweep_order(word: StepWord) -> tuple[int, ...]:
    """Step positions (1-based) sorted into sweep order.

    One stable sort of the columns, right to left, by start rank: columns
    of equal rank keep their input order, rightmost first, which is the
    order of sweep_key.  The sort runs once per word: its tuple is kept in
    the word's __dict__, beside the word's start ranks, and read back on
    every later call.
    """
    kept = word.__dict__
    if "_sweep_order" not in kept:
        rank_of = (None, *start_ranks(word)).__getitem__
        kept["_sweep_order"] = tuple(sorted(range(len(word), 0, -1), key=rank_of))
    return kept["_sweep_order"]


def sweep(word: StepWord) -> StepWord:
    """The word's letters read in sweep order.

    >>> from .paths import make_params, parse_word
    >>> sweep(parse_word("NENEE", make_params(3, 2))).text
    'NNEEE'
    """
    steps = word.steps
    return StepWord("".join([steps[c - 1] for c in sweep_order(word)]), word.params)


def image_start_rank(word: StepWord, position_in_sweep: int) -> int:
    """Start rank of the image step at the given 1-based sweep position.

    This is start_ranks(sweep(word)) at that position: b*m - a*n where b
    North and a East steps are swept strictly earlier.  The position must
    be an int (a bool is refused); IndexOutOfRange otherwise.
    """
    if type(position_in_sweep) is not int or not 1 <= position_in_sweep <= len(word):
        raise IndexOutOfRange(f"sweep position {position_in_sweep!r} outside 1..{len(word)}")
    return start_ranks(sweep(word))[position_in_sweep - 1]


def green_line_ranks(word: StepWord) -> tuple[int, ...]:
    """Every step's image rank, recomputed by counting diagram segments
    against the green line through the step's start; in column order.

    For the step in column s with start rank L, the count is A + B where

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
    order: the arrow at x-coordinate x with start rank h starts strictly
    below the line through (s - 1, L) iff h < L, or h == L and x > s - 1.
    So a sweep that disagrees with the geometry shows up as a rank
    mismatch rather than being trusted.

    One call counts every step in one pass over the arrows sorted by
    (h, -x), which is the order of that predicate: the arrows strictly
    below a step's line are exactly those before it.  Along that order the
    level never falls, so the up arrows of A (earlier, h > L - m) and the
    down arrows of B (this one or later, h < L + n) each form a window
    that only moves forward; a running count and level sum of each window
    give A and B without visiting the arrows again.  The cost is the sort,
    O(k log k) for a word of k steps, with no function call per step.

    Read in sweep order, the counts are the start ranks of the image:

    >>> from .paths import make_params, parse_word
    >>> word = parse_word("NENEE", make_params(3, 2))
    >>> green_line_ranks(word)
    (0, 4, 3, 2, 6)
    >>> counts = green_line_ranks(word)
    >>> tuple(counts[step - 1] for step in sweep_order(word)) == start_ranks(sweep(word))
    True
    """
    require_dyck(word)
    m, n = word.params.m, word.params.n
    length = len(word)
    # (h, -x, letter) of every arrow, in the order of the line predicate
    arrows = sorted(zip(start_ranks(word), range(0, -length, -1), word.steps))
    downs = [h for h, _, letter in arrows if letter != NORTH]
    ups: list[int] = []  # levels of the up arrows passed so far
    up_lo = up_sum = 0  # A's window ups[up_lo:] and its level sum
    down_lo = down_hi = down_sum = 0  # B's window downs[down_lo:down_hi]
    counts = [0] * length
    for level, neg_x, letter in arrows:
        # rows [h, h+m) of earlier up arrows, clipped to rows >= level
        up_floor = level - m
        while up_lo < len(ups) and ups[up_lo] <= up_floor:
            up_sum -= ups[up_lo]
            up_lo += 1
        # rows [h-n, h) of this and later down arrows, clipped to rows <= level-1
        down_ceiling = level + n
        while down_hi < len(downs) and downs[down_hi] < down_ceiling:
            down_sum += downs[down_hi]
            down_hi += 1
        counts[-neg_x] = (
            up_sum - (len(ups) - up_lo) * up_floor
            + (down_hi - down_lo) * down_ceiling - down_sum
        )
        if letter == NORTH:
            ups.append(level)
            up_sum += level
        else:
            down_sum -= level
            down_lo += 1
    return tuple(counts)


def green_line_rank(word: StepWord, step: int) -> int:
    """The green-line count of one step (1-based); see green_line_ranks,
    which it reads, so there is one way to count.  Costs a whole
    green_line_ranks call; the step, an int in range, is checked first, as
    in image_start_rank."""
    if type(step) is not int or not 1 <= step <= len(word):
        raise IndexOutOfRange(f"step {step!r} outside 1..{len(word)}")
    return green_line_ranks(word)[step - 1]


#: Reads an image's N and E letters as the binary digits 1 and 0.
_BITS = bytes.maketrans((NORTH + EAST).encode(), b"10")


@functools.lru_cache(maxsize=1)
def _inverse_table(params: Params) -> tuple[dict[int, int], list[int]]:
    """Each Dyck path's image code mapped to its index in the walk, with
    the completion counts that _unrank reads, _completions(params)[1:].

    The code is the int of the walk's image buffer read as binary, with its
    empty slots removed; ints have no width limit, so it serves any length.
    Two ints per path, and no string built or hashed."""
    codes = {
        int(swept.translate(_BITS, b"\0"), 2): index
        for index, (_, _, _, swept) in enumerate(_walk(params))
    }
    return codes, _completions(params)[1:]


def unsweep(image: StepWord, limit: int | None = None) -> StepWord:
    """The unique Dyck preimage of a Dyck word under the sweep map.

    Looked up in a table from image code (the image read as binary) to the
    preimage's enumeration index, built in one pass of the enumeration walk
    over all Dyck paths of the parameters from the walk's image buffer (see
    paths._walk), with no StepWord built and no path sorted; the preimage
    text is rebuilt from its index by paths._unrank.  The table of the
    last parameter set used is kept, about 86 bytes per path; a call with
    other parameters replaces it.  The parameters must be within the
    enumeration limit (check_step_limit), on every call, whether or not
    the table is already cached; LimitExceeded otherwise.  Raises
    NotInImage if the lookup fails, which cannot happen for a Dyck input
    unless the library is inconsistent.
    """
    require_dyck(image)
    check_step_limit(image.params, limit)  # even on a cache hit
    codes, ups = _inverse_table(image.params)
    try:
        index = codes[int(image.text.encode().translate(_BITS), 2)]
    except KeyError:
        raise NotInImage(f"no sweep preimage recorded for {image.text}") from None
    return StepWord(_unrank(image.params, index, ups), image.params)
