"""Exhaustive verification of every library identity over one parameter set.

The checks cover every path of the Dyck enumeration (or every valid
removal move of every path) and record counterexamples.  The headline
check is that dinv of a path equals the area of its sweep image; the
others cover the bijectivity of the sweep, the diagram row structure,
both statistic formulations, the green-line rank rule, the removal-move
recursions and their cross-identities, and the base case.

Statistic and sweep functions are resolved through their modules at call
time, so a deliberately broken implementation (a test monkeypatch, say)
is caught and reported, not trusted; one that makes the rank-sum area
formula leave a remainder fails `area-formula` with formula=undefined.

run_checks makes one enumeration per run, read as one stream of words;
bijectivity and the base case read the (word, image) texts and the area-0
paths that the pass returns, and bijectivity also compares the pass's
path count with count_dyck.  One helper gives a word's image text, dinv,
image area and image rank per column, whether the word is reached as a
path or first as the swapped word of another path's removal move, and
keeps them, but not the image word, until the path is reached; so each
word is swept and counted once per run (per worker with jobs > 1), and
the green-line rule and the rank difference read their image ranks off
it.  The image and the image ranks per column come from one sort: the
word's sweep order is sorted once and kept with the word, so `sweep` and
the helper's own `sweep_order` call read the same tuple.  A swapped word
whose image is not Dyck fails the area recursion of that move.  Each
move is checked and swapped once.

The pass is split into contiguous ranges of the enumeration, one per
worker, with no process pool: the calling process forks a child for each
range but the first, checks the first itself, and joins the children in
range order; each answers through a pipe with its pickled return or
exception.  One worker forks nothing and loads neither pickle nor signal.
`os.fork` is required, not merely a default: a forked child inherits the
caller's modules as they are, monkeypatches included, where a freshly
started interpreter would re-import and check the unpatched library.
Where `os.fork` is unavailable there is one worker.
"""

from __future__ import annotations

import itertools
import os
from typing import NamedTuple

from . import diagram, paths, recursion, stats
from . import sweeping
from .errors import NonIntegral


class CheckResult(NamedTuple):
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _word_failures(words):
    """The per-path checks on `words`, Dyck paths in enumeration order.

    Returns ({check name: [message, ...]}, valid moves checked, [(word
    text, image text), ...] of every path in enumeration order, [text of
    each area-0 path]).
    """
    fails: dict[str, list[str]] = {name: [] for name in CHECK_NAMES}
    move_total = 0
    pairs: list[tuple[str, str]] = []
    zero_area: list[str] = []
    # word text -> word_stats of each word met as a swapped word and not yet
    # as a path; a swap turns NE into EN, so that path comes later in the
    # N<E enumeration, and its entry is deleted there.
    direct: dict[str, tuple[str, int, int | None, tuple[int, ...]]] = {}

    def word_stats(word):
        """(image text, dinv, image area, by_column) of a path or a swapped
        word: the area None when the image is not Dyck, by_column[c - 1] the
        image rank of the step in column c."""
        known = direct.get(word.text)
        if known is None:
            image = sweeping.sweep(word)
            image_area = stats.area_cells(image) if paths.is_dyck(image) else None
            by_column = [0] * len(word)
            for column, rank in zip(sweeping.sweep_order(word), paths.start_ranks(image)):
                by_column[column - 1] = rank
            known = direct[word.text] = (
                image.text, stats.dinv_pairs(word), image_area, tuple(by_column))
        return known

    for word in words:
        # counted and recorded before the image check, which skips the rest
        # of the word
        moves = recursion.valid_moves(word)
        move_total += len(moves)
        image, dinv, image_area, by_column = word_stats(word)
        del direct[word.text]
        pairs.append((word.text, image))
        area = stats.area_cells(word)
        if area == 0:
            zero_area.append(word.text)
        if image_area is None:
            fails["image-is-dyck"].append(f"word={word.text} image={image}")
            continue

        if dinv != image_area:
            fails["dinv-sweeps-to-area"].append(
                f"word={word.text} dinv={dinv} image={image} area={image_area}",
            )
        try:
            area_formula = stats.area_rank_formula(word)
        except NonIntegral:  # a rank sum off the congruence: no area equals it
            area_formula = "undefined"
        if area != area_formula:
            fails["area-formula"].append(
                f"word={word.text} cells={area} formula={area_formula}"
            )
        dinv_cells = stats.dinv_cells(word)
        if dinv_cells != dinv:
            fails["dinv-formulations"].append(
                f"word={word.text} cells={dinv_cells} pairs={dinv}"
            )
        if not diagram.check_row_structure(diagram.build_diagram(word)):
            fails["row-structure"].append(f"word={word.text}")

        line_ranks = sweeping.green_line_ranks(word)
        if line_ranks != by_column:  # the first mismatch in sweep order
            for step in sweeping.sweep_order(word):
                counted, rank = line_ranks[step - 1], by_column[step - 1]
                if counted != rank:
                    fails["green-line-rank"].append(
                        f"word={word.text} step={step} counted={counted} rank={rank}")
                    break

        if area > 0 and not moves:
            fails["move-existence"].append(f"word={word.text} area={area}")
        for move in moves:
            p, k = recursion._check_move(word, move)
            swapped = recursion._apply_move(word, p, k)
            _, swapped_dinv, swapped_image_area, swapped_by_column = word_stats(swapped)
            counts = recursion._region_counts(word, p, k)
            # "undefined" when the swapped image is not Dyck: no delta equals it
            direct_area = ("undefined" if swapped_image_area is None
                           else image_area - swapped_image_area)
            if counts.area_delta != direct_area:
                fails["area-recursion"].append(
                    f"word={word.text} p={p} delta={counts.area_delta} direct={direct_area}")
            direct_dinv = dinv - swapped_dinv
            if counts.dinv_delta != direct_dinv:
                fails["dinv-recursion"].append(
                    f"word={word.text} p={p} delta={counts.dinv_delta} direct={direct_dinv}")
            # rank(S) at column p less rank(S') at column p + 1
            if by_column[p - 1] - swapped_by_column[p] != recursion._rank_band(word, p, k):
                fails["rank-difference"].append(f"word={word.text} p={p}")
            if (
                counts.red_top_left != counts.blue_top_left
                or counts.blue_bottom_right != counts.red_bottom_right + 1
            ):
                fails["cross-identities"].append(f"word={word.text} p={p}")
    return fails, move_total, pairs, zero_area


def check_jobs(jobs: int) -> None:
    """Raise ValueError unless jobs is a positive int; a bool or a float is
    refused too, as Params refuses them."""
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")


def _worker_count(jobs: int, path_count: int) -> int:
    """jobs clamped to the CPUs this process may use and to the path count;
    1 where os.fork is unavailable (see the module docstring)."""
    if min(jobs, path_count) <= 1 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, path_count)


def _fork_range(words, lo, hi):
    """Fork a child that runs _word_failures on paths [lo, hi) of its own
    copy of `words` and pickles its return, or the exception it raised,
    into a pipe; returns the child's pid and the pipe's read end, opened.

    The child leaves through os._exit, so it never returns into the
    caller's stack and never flushes the stdio buffers it inherited; it
    exits 0 only once its whole answer is written.
    """
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                answer = _word_failures(itertools.islice(words, lo, hi))
            except BaseException as exc:
                answer = exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(answer, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _join(children) -> list:
    """Wait for each child in `children`, a list of (lo, hi, pid, read end)
    in range order, after reading its pipe to the end, and remove it from
    the list; returns their _word_failures returns in order.  A child's
    exception is raised here, with its own type and message, before any
    later child is waited for; a child with no complete answer raises
    RuntimeError.
    """
    partials = []
    while children:
        import pickle  # in the loop: with no child, pickle is never loaded

        lo, hi, pid, pipe = children[0]
        with pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        del children[0]
        code = os.waitstatus_to_exitcode(status)
        try:
            answer = pickle.loads(payload)
        except Exception:  # no answer, or one cut short
            answer = None
        if code or answer is None:
            ended = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise RuntimeError(
                f"the worker checking paths [{lo}, {hi}) gave no complete result ({ended})"
            )
        if isinstance(answer, BaseException):
            raise answer from None
        partials.append(answer)
    return partials


def _fork_join(words, ranges) -> list:
    """The _word_failures returns of the contiguous index ranges of
    `words`, an enumeration not yet started, in order.

    One forked child runs each range but the first, on its inherited copy
    of `words`, so every child is forked before this process reads `words`
    for the first range, which it checks itself.  The children are joined
    in range order, so the exception raised is the earliest range's.  No
    child outlives this call: on an exception in the first range, or on
    KeyboardInterrupt, each child not yet joined is killed and waited for
    before the exception propagates.
    """
    children = []  # (lo, hi, pid, read end) of each child not yet waited for
    try:
        for lo, hi in ranges[1:]:
            children.append((lo, hi, *_fork_range(words, lo, hi)))
        first = _word_failures(itertools.islice(words, *ranges[0]))
        return [first, *_join(children)]
    finally:
        for _, _, pid, pipe in children:
            import signal  # in the loop, as pickle is in _join

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


CHECK_NAMES = (
    "image-is-dyck",
    "bijectivity",
    "area-formula",
    "dinv-formulations",
    "green-line-rank",
    "row-structure",
    "rank-difference",
    "area-recursion",
    "dinv-recursion",
    "cross-identities",
    "move-existence",
    "base-case",
    "dinv-sweeps-to-area",
)


def _bijectivity_failures(pairs) -> list[str]:
    """pairs: (word text, image text) of every path, in enumeration order."""
    images: dict[str, str] = {}
    domain = set()
    fails = []
    for word, image in pairs:
        if image in images:
            fails.append(f"words {images[image]} and {word} both map to {image}")
        images[image] = word
        domain.add(word)
    missing = sorted(domain - images.keys())
    extra = sorted(images.keys() - domain)
    fails.extend(f"word {t} is not a sweep image" for t in missing)
    fails.extend(f"image {t} is not a Dyck word of the set" for t in extra)
    return fails


def _base_case_failures(params, zero_area) -> list[str]:
    """zero_area: the text of every area-0 path, in enumeration order.
    Each value compared is computed once, and a failure reports it."""
    base = paths.base_path(params)
    corner = paths.corner_path(params)
    top = stats.max_stat(params)
    dinv, area, image = stats.dinv_pairs(base), stats.area_cells(corner), sweeping.sweep(base)
    checks = [
        (zero_area != [base.text], f"area-0 paths {zero_area} instead of [{base.text}]"),
        (dinv != top, f"dinv(base)={dinv} max={top}"),
        (area != top, f"area(corner)={area} max={top}"),
        (image != corner, f"sweep(base)={image.text} corner={corner.text}"),
    ]
    return [message for failed, message in checks if failed]


def run_checks(params, limit: int | None = None, jobs: int = 1) -> list[CheckResult]:
    """Run all checks; the result order matches CHECK_NAMES.

    The enumeration is made once, here, and checked in one pass, as one
    contiguous index range per worker sized from count_dyck, the last open
    to the end of the enumeration (see _fork_join).
    The returns are concatenated in index order, so the outcome never
    depends on scheduling, and bijectivity fails when the pass saw other
    than count_dyck paths.  The worker count is _worker_count's.  A fork
    copies only the calling thread, so pass jobs > 1 only from a process
    that runs no other threads.  Raises ValueError, before any work, when
    jobs or an explicit limit is not a positive int (check_jobs, and
    paths.check_step_limit, which enumerate_dyck calls).
    """
    check_jobs(jobs)
    words = paths.enumerate_dyck(params, limit)  # checks the limit, before any work
    path_count = paths.count_dyck(params)
    workers = _worker_count(jobs, path_count)

    starts = [path_count * i // workers for i in range(workers)]
    partials = _fork_join(words, list(zip(starts, starts[1:] + [None])))

    # ranges are contiguous, so concatenation keeps enumeration order
    part_fails, part_moves, part_pairs, part_zero_area = zip(*partials)
    fails = {
        name: [message for part in part_fails for message in part[name]]
        for name in CHECK_NAMES
    }
    fails["bijectivity"] = _bijectivity_failures(itertools.chain.from_iterable(part_pairs))
    fails["base-case"] = _base_case_failures(
        params, list(itertools.chain.from_iterable(part_zero_area))
    )
    path_total = sum(map(len, part_pairs))  # one pair per path
    if path_total != path_count:
        fails["bijectivity"].append(
            f"the pass saw {path_total} paths, count_dyck gives {path_count}"
        )
    move_total = sum(part_moves)
    checked = dict.fromkeys(CHECK_NAMES, path_total)
    for name in ("rank-difference", "area-recursion", "dinv-recursion", "cross-identities"):
        checked[name] = move_total
    checked["green-line-rank"] = path_total * params.step_count
    checked["base-case"] = 1
    return [CheckResult(name, checked[name], tuple(fails[name])) for name in CHECK_NAMES]
