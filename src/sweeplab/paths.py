"""Rational Dyck path words: ranks, validation, enumeration, counting.

A (dm,dn)-Dyck path, for a co-prime pair (m, n) and a dilation factor d,
is a lattice path of dn North and dm East unit steps from (0,0) to (dm,dn)
that stays weakly above the line of slope n/m.  Every lattice point (i, j)
carries the integer rank m*j - n*i; walking the path, the rank gains m
after a North step and loses n after an East step, and a word is Dyck
exactly when no vertex rank goes negative.

Words are plain strings over {N, E} wrapped in StepWord together with
their parameters.  Columns (step positions) are numbered from 1 so that
they match the columns of the stretched diagram in `diagram`.

A word's start ranks are computed at most once.  The enumeration and
`recursion.apply_move`, whose swapped word differs from its parent in one
start rank, hold them already and hand them over (`hand_over_ranks`).  The
enumeration walk (`_walk`) keeps each step's letter and start rank in two
lists that it changes in place and yields after every path, with the first
index it rewrote since its previous yield and a buffer that holds the
path's sweep image as a counting sort by start rank; `enumerate_dyck`
joins the letters into a word, hands it a copy of the ranks and ignores
the buffer.  The consumers that need no word read the walk directly: the
unsweep table in `sweeping` reads the image off the buffer, and the
running sums of `stats._walk_counts` (for `sweeplab enumerate` and
`stats.joint_distribution`) recount each path only from that index on.
The walk yields only Dyck paths of the right letter counts, so they check
none.  `_completions` counts the Dyck completions from every vertex, and
`_unrank` walks those counts to rebuild the walk's i-th path from i alone,
so the unsweep table keeps an index, not a word.  Any other word (a sweep
image, a parsed word) computes its ranks on first use, a running sum of
each letter's step, and `_once` keeps them, and its Dyck verdict, in the
word's __dict__.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from .errors import (
    BadCounts,
    BadLetter,
    LimitExceeded,
    NonCoprime,
    NonPositive,
    NotDyck,
)

NORTH = "N"
EAST = "E"

#: Default cap on d*(m+n), the number of steps, for exhaustive enumeration.
#: Counting is unbounded (polynomial DP); enumeration is not.
DEFAULT_STEP_LIMIT = 40


class _Checked:
    """A record rebuilt through its checking __new__ by _make, _replace and
    every pickle protocol; a word's cached ranks travel as its state."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self), getattr(self, "__dict__", None) or None


class _ParamsFields(NamedTuple):
    m: int
    n: int
    d: int


class Params(_Checked, _ParamsFields):
    """The triple (m, n, d): slope pair and dilation factor.

    m is the rank gained by a North step, n the rank dropped by an East
    step; the underlying grid is dm wide and dn tall.  __new__ checks the
    triple, when it is built, replaced or unpickled.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, d: int):
        for name, value in (("m", m), ("n", n), ("d", d)):
            if type(value) is not int or value < 1:
                raise NonPositive(f"{name} must be a positive integer, got {value!r}")
        if math.gcd(m, n) != 1:
            raise NonCoprime(f"m={m} and n={n} share a factor")
        return tuple.__new__(cls, (m, n, d))

    @property
    def east_count(self) -> int:
        return self.d * self.m

    @property
    def north_count(self) -> int:
        return self.d * self.n

    @property
    def step_count(self) -> int:
        return self.d * (self.m + self.n)

    @property
    def rect_height(self) -> int:
        """Height d*m*n of the stretched diagram rectangle."""
        return self.d * self.m * self.n


def make_params(m: int, n: int, d: int = 1) -> Params:
    """Validated parameters.

    >>> make_params(3, 2, 1)
    Params(m=3, n=2, d=1)
    """
    return Params(m, n, d)


class _once:
    """functools.cached_property without the lock that 3.11 takes on each
    first read, which stores func(instance) in the instance __dict__,
    shadowing this descriptor."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class _StepWordFields(NamedTuple):
    steps: str
    params: Params


class StepWord(_Checked, _StepWordFields):
    """An immutable word of North/East steps with its parameters.  `steps`
    (or `text`) is the word as one str of N and E letters, which __new__
    counts, a letter other than N and E refused first; its lazy start ranks
    live in the instance __dict__, so StepWord declares no __slots__."""

    def __new__(cls, steps: str, params: Params):
        if type(steps) is not str:
            raise BadLetter(
                f"steps must be a str of N and E letters, got {type(steps).__name__}"
            )
        # every word is recounted, images and swapped words too: a sweep
        # order that is no permutation is caught only here
        norths, easts = steps.count(NORTH), steps.count(EAST)
        if norths + easts != len(steps):
            raise BadLetter(f"letter {steps.lstrip(NORTH + EAST)[0]!r} is not N or E")
        if norths != params.d * params.n or easts != params.d * params.m:
            raise BadCounts(
                f"word needs {params.north_count} N and {params.east_count} E letters, "
                f"got {norths} N and {easts} E"
            )
        return tuple.__new__(cls, (steps, params))

    text = _StepWordFields.steps  # the field's own C getter

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.steps)

    @_once
    def _ranks(self) -> tuple[int, ...]:
        """The starting rank of each step; see start_ranks."""
        step = {NORTH: self.params.m, EAST: -self.params.n}
        return tuple(accumulate(map(step.__getitem__, self.steps[:-1]), initial=0))

    @_once
    def _dyck(self) -> bool:
        """Whether no start rank is negative; see is_dyck."""
        return min(self._ranks) >= 0


_ALPHABET = {"N": NORTH, "E": EAST, "S": NORTH, "W": EAST}


def parse_word(text: str, params: Params) -> StepWord:
    """Parse a path word over {N, E}; {S, W} are accepted as synonyms.

    >>> parse_word("SWSWW", make_params(3, 2)).text
    'NENEE'
    """
    try:
        steps = "".join(map(_ALPHABET.__getitem__, text))
    except KeyError as exc:
        raise BadLetter(f"letter {exc.args[0]!r} is not one of N, E, S, W") from None
    return StepWord(steps, params)


def hand_over_ranks(word: StepWord, ranks: tuple[int, ...]) -> StepWord:
    """Cache `ranks`, unchecked, as the start ranks of `word`, which is
    returned; for code that already holds them."""
    word.__dict__["_ranks"] = ranks  # the _once slot
    return word


def start_ranks(word: StepWord) -> tuple[int, ...]:
    """The starting rank of each step, in column order.

    r_1 = 0, then each North step adds m and each East step subtracts n.

    >>> start_ranks(parse_word("NENEE", make_params(3, 2)))
    (0, 3, 1, 4, 2)
    """
    return word._ranks


def is_dyck(word: StepWord) -> bool:
    """True iff every vertex rank along the path is nonnegative.

    The verdict is computed once per word, so the kernels that each refuse
    a non-Dyck word (require_dyck) share it."""
    return word._dyck


def require_dyck(word: StepWord) -> None:
    if not is_dyck(word):
        raise NotDyck(f"not a Dyck path: {word.text}")


def check_step_limit(params: Params, limit: int | None = None) -> None:
    """Refuse an enumeration of more than `limit` steps per word.

    Raises LimitExceeded when d(m+n) exceeds `limit` (default:
    DEFAULT_STEP_LIMIT), and ValueError when `limit` is not a positive int
    (a bool or float is refused, as Params refuses them).
    """
    if limit is None:
        limit = DEFAULT_STEP_LIMIT
    elif type(limit) is not int or limit < 1:
        raise ValueError(f"limit must be a positive integer, got {limit!r}")
    if params.step_count > limit:
        raise LimitExceeded(
            f"{params.step_count} steps exceed the enumeration limit {limit}"
        )


def enumerate_dyck(params: Params, limit: int | None = None):
    """Yield every (dm,dn)-Dyck path exactly once, in lexicographic order
    with N < E, each with the start ranks the walk tracked.

    Backtracking with the rank pruning rule: an East step is only emitted
    while the running rank stays nonnegative.  A partial word with all
    ranks nonnegative always completes (append the remaining North steps,
    then the remaining East steps), so the search has no dead ends.

    The limit is checked by check_step_limit when this is called, not when
    the first path is drawn.
    """
    check_step_limit(params, limit)
    return (
        hand_over_ranks(StepWord("".join(steps), params), tuple(ranks))
        for steps, ranks, _, _ in _walk(params)
    )


def _walk(params: Params):
    """Iterative backtracking: complete the prefix with its smallest
    continuation (the remaining North steps, then East steps), then turn
    the rightmost North step that may become East into East.

    Yields the same two lists after every path, the letters and the start
    rank of each step, and changes them in place afterwards; a consumer
    copies what it keeps.  With them comes `lo`, the first index rewritten
    since the previous yield (0 for the first path): the letters before it
    are the previous path's, and there the previous path had a North step,
    now turned East.  Last comes `swept`, a bytearray of (dmn + 1)*d slots
    that holds the path's sweep image as a counting sort of its steps: the
    step of start rank r (in [0, dmn] on a Dyck path) with h steps of that
    rank left of it holds its letter's byte at r*d + d-1-h, so tied steps
    read rightmost first, the order of `sweeping.sweep_order`, and every
    other slot is 0.  Each step's slot is written where its rank is and
    cleared when the backtrack drops it; `top[r]` is the next free slot of
    rank r.  No limit is checked here."""
    m, n, d = params.m, params.n, params.d
    length = params.step_count
    steps = [NORTH] * length
    ranks = [0] * length  # ranks[i] is the start rank of steps[i]
    swept = bytearray((params.rect_height + 1) * d)
    top = list(range(d - 1, len(swept), d))  # top[r]: next free slot of rank r
    north, east = ord(NORTH), ord(EAST)
    lo = pos = rank = 0
    norths = params.north_count
    while True:
        for i in range(pos, length):
            ranks[i] = rank
            slot = top[rank]
            top[rank] = slot - 1
            if norths:
                steps[i] = NORTH
                swept[slot] = north
                rank += m
                norths -= 1
            else:
                steps[i] = EAST
                swept[slot] = east
                rank -= n
        yield steps, ranks, lo, swept
        pos = length - 1
        while pos >= 0 and (steps[pos] == EAST or ranks[pos] < n):
            norths += steps[pos] == NORTH
            rank = ranks[pos]
            slot = top[rank] + 1
            top[rank] = slot
            swept[slot] = 0
            pos -= 1
        if pos < 0:
            return
        steps[pos] = EAST
        rank = ranks[pos]
        swept[top[rank] + 1] = east  # the same rank, so the same slot
        rank -= n
        norths += 1
        lo = pos
        pos += 1


def count_dyck(params: Params) -> int:
    """The number of (dm,dn)-Dyck paths, by dynamic programming.

    Counts monotone lattice paths through the vertices (x, y) with
    m*y - n*x >= 0, one column x at a time in a single row of counts; no
    enumeration, so no size limit.

    >>> count_dyck(make_params(7, 5))
    66
    """
    m, n = params.m, params.n
    ways = [1] + [0] * params.north_count  # ways[y]: paths to (x, y), column x
    for x in range(params.east_count + 1):
        for y in range(len(ways)):
            if m * y - n * x < 0:
                ways[y] = 0
            elif y:
                ways[y] += ways[y - 1]
    return ways[-1]


def _completions(params: Params) -> list[int]:
    """The number of Dyck completions from each vertex (x, y), at
    flat[x*(dn+1) + y], and 0 below the diagonal; flat[0] is count_dyck.

    Filled backwards from (dm, dn), the one vertex of column dm on or above
    the diagonal, so each vertex of an earlier column is its North and East
    neighbours' sum; the North neighbour of a top vertex reads row 0 of the
    next column, which is 0.
    """
    m, n = params.m, params.n
    width = params.north_count + 1
    flat = [0] * ((params.east_count + 1) * width)
    flat[-1] = 1
    for at in range(len(flat) - width - 1, -1, -1):
        x, y = divmod(at, width)
        if m * y >= n * x:
            flat[at] = flat[at + 1] + flat[at + width]
    return flat


def _unrank(params: Params, index: int, ups: list[int]) -> str:
    """The text of the index-th word of enumerate_dyck, where ups is
    _completions(params)[1:]: ups[x*(dn+1) + y] counts the completions
    after a North step from (x, y).

    Walks the N<E order: the first ups[at] words from here step North.
    Once index is 0 the rest is the smallest completion, N...NE...E.
    """
    width = params.north_count + 1
    text = ""
    at = 0  # x*width + y of the current vertex
    while index:
        count = ups[at]
        if index < count:
            text += NORTH
            at += 1
        else:
            index -= count
            text += EAST
            at += width
    x, y = divmod(at, width)
    return text + NORTH * (width - 1 - y) + EAST * (params.east_count - x)


def base_path(params: Params) -> StepWord:
    """The unique area-0 path, hugging the diagonal from below.

    Built greedily from rank 0: step East whenever the current rank
    allows it (rank >= n), otherwise step North.

    >>> base_path(make_params(5, 2)).text
    'NEENEEE'
    """
    m, n = params.m, params.n
    steps = []
    rank = 0
    for _ in range(params.step_count):
        if rank >= n:
            steps.append(EAST)
            rank -= n
        else:
            steps.append(NORTH)
            rank += m
    return StepWord("".join(steps), params)


def corner_path(params: Params) -> StepWord:
    """The maximum-area path: all North steps, then all East steps."""
    return StepWord(NORTH * params.north_count + EAST * params.east_count, params)


def south_end_ranks(word: StepWord) -> tuple[int, ...]:
    """Starting ranks of the North steps, in path order.

    The j-th entry (1-based) is the rank of the North step that starts at
    height j-1.  Requires a Dyck word.
    """
    require_dyck(word)
    ranks = start_ranks(word)
    return tuple(r for r, ch in zip(ranks, word.steps) if ch == NORTH)
