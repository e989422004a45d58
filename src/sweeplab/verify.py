"""Exhaustive verification of every library identity over one parameter set.

The checks cover every path of the Dyck enumeration (or every valid
removal move of every path) and record counterexamples.  The headline
check is that dinv of a path equals the area of its sweep image; the
others cover the bijectivity of the sweep, the diagram row structure,
both statistic formulations, the green-line rank rule, the removal-move
recursions and their cross-identities, and the base case.

Statistic and sweep functions are resolved through their modules at call
time, so a deliberately broken implementation (installed, say, by a test
monkeypatch) is caught and reported rather than silently trusted.  So is
one that makes the rank-sum area formula leave a remainder: that path
fails `area-formula` with formula=undefined.

run_checks makes one enumeration per run, and the per-path checks read
it as one stream of words: bijectivity and the base case read the (word,
image) texts and the area-0 paths that the pass returns, and no list of
the paths is held; bijectivity also compares the pass's path count with
count_dyck.  One helper gives a word's image, dinv and image area,
whether the word is reached as a path or first as the swapped word of
another path's removal move, and keeps them until the path is reached;
so each word is swept and its statistics counted once per run (once per
worker with jobs > 1).  A swapped word whose image is not Dyck fails the
area recursion of that move.  Each move is checked and swapped once.

The pass is split into contiguous ranges of the enumeration, one per
worker, with no process pool: the calling process forks one child per
range but the first, checks the first range itself, and then joins the
children in range order.  Each child answers through a pipe, with its
pickled return or the exception it raised.  One worker is the one-range
case: no fork, no pipe, and neither pickle nor signal is loaded.
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
    # word text -> (image, dinv, image area or None) of every word met so
    # far as a swapped word and not yet reached as a path.  A swap turns NE
    # into EN, so the swapped word comes later in the N<E enumeration: its
    # entry is deleted when that path is reached.
    direct: dict[str, tuple[paths.StepWord, int, int | None]] = {}

    def word_stats(word):
        """(image, dinv, image area) of a path or a swapped word, the area
        None when the image is not Dyck; each word is swept once."""
        known = direct.get(word.text)
        if known is None:
            image = sweeping.sweep(word)
            image_area = stats.area_cells(image) if paths.is_dyck(image) else None
            known = direct[word.text] = (image, stats.dinv_pairs(word), image_area)
        return known

    for word in words:
        # counted and recorded before the image check, which skips the rest
        # of the word
        moves = recursion.valid_moves(word)
        move_total += len(moves)
        image, dinv, image_area = word_stats(word)
        del direct[word.text]
        pairs.append((word.text, image.text))
        area = stats.area_cells(word)
        if area == 0:
            zero_area.append(word.text)
        if image_area is None:
            fails["image-is-dyck"].append(f"word={word.text} image={image.text}")
            continue

        if dinv != image_area:
            fails["dinv-sweeps-to-area"].append(
                f"word={word.text} dinv={dinv} image={image.text} area={image_area}",
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
        image_ranks = paths.start_ranks(image)
        order = sweeping.sweep_order(word)
        for step, image_rank in zip(order, image_ranks):
            counted = line_ranks[step - 1]
            if counted != image_rank:
                fails["green-line-rank"].append(
                    f"word={word.text} step={step} counted={counted} rank={image_rank}",
                )
                break

        if area > 0 and not moves:
            fails["move-existence"].append(f"word={word.text} area={area}")
        for move in moves:
            p, k = recursion._check_move(word, move)
            swapped = recursion._apply_move(word, p, k)
            swapped_image, swapped_dinv, swapped_image_area = word_stats(swapped)
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
            rank_drop = image_ranks[order.index(p)] - paths.start_ranks(swapped_image)[
                sweeping.sweep_order(swapped).index(p + 1)]
            if rank_drop != recursion._rank_band(word, p, k):
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
    in range order, reading its pipe to the end first; each is removed from
    the list once waited for.  Returns their _word_failures returns in
    order.  The exception a child reported is raised here, with its own
    type and message, before any later child is waited for; a child that
    exited without a complete answer raises RuntimeError.
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

    One forked child runs each range but the first, on the copy of `words`
    it inherits, so every child is forked before this process reads
    `words` for the first range, which it checks itself meanwhile.  The
    children are then joined in range order, and the exception raised is
    the earliest range's, as with one range.  However this call ends, no
    child outlives it: on an exception in the first range, or on
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
    """zero_area: the text of every area-0 path, in enumeration order."""
    fails = []
    base = paths.base_path(params)
    corner = paths.corner_path(params)
    top = stats.max_stat(params)
    if zero_area != [base.text]:
        fails.append(f"area-0 paths {zero_area} instead of [{base.text}]")
    if stats.dinv_pairs(base) != top:
        fails.append(f"dinv(base)={stats.dinv_pairs(base)} max={top}")
    if stats.area_cells(corner) != top:
        fails.append(f"area(corner)={stats.area_cells(corner)} max={top}")
    if sweeping.sweep(base) != corner:
        fails.append(f"sweep(base)={sweeping.sweep(base).text} corner={corner.text}")
    return fails


def run_checks(params, limit: int | None = None, jobs: int = 1) -> list[CheckResult]:
    """Run all checks; the result order matches CHECK_NAMES.

    The enumeration is made once, here, and its paths are checked in one
    pass, as one contiguous index range per worker, sized from count_dyck,
    the last left open to the end of the enumeration (see _fork_join).
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
