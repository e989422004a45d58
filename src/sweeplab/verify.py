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

All checks read one streaming pass over the enumeration; bijectivity and
the base case read the (word, image) texts and the area-0 paths that the
pass returns, and no list of the paths is held.  One helper gives a word's
image, dinv and image area, whether the word is reached as a path or
first as the swapped word of another path's removal move, and keeps them
until the path is reached; so each word is swept and its statistics
counted once per run (once per worker with jobs > 1).  A swapped word
whose image is not Dyck fails the area recursion of that move.  Each move
is validated and swapped once, the swapped word inheriting all start ranks
but one from its path, and its band counts are counted once and give both
predicted deltas.

With jobs > 1 the pass runs in forked worker processes, each on its own
contiguous range of the enumeration.  The `fork` start method is
required, not merely a default: a forked worker inherits the caller's
modules as they are, monkeypatches included, where a `spawn` worker would
re-import and check the unpatched library.  Where `fork` is unavailable
the pass runs serially.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from . import diagram, paths, recursion, stats
from . import sweeping
from .errors import NonIntegral


@dataclass(frozen=True)
class CheckResult:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _word_failures(params, limit, lo, hi):
    """The per-path checks on enumeration indices [lo, hi), or [lo, end)
    when hi is None; the paths are enumerated here, so that no word
    crosses a process boundary.

    Returns ({check name: [message, ...]}, (paths, steps, valid moves)
    checked, [(word text, image text), ...] in enumeration order, [text of
    each area-0 path]).
    """
    fails: dict[str, list[str]] = {name: [] for name in CHECK_NAMES}
    path_total = move_total = step_total = 0
    pairs: list[tuple[str, str]] = []
    zero_area: list[str] = []
    # word text -> (image, dinv, image area or None) of every word met so
    # far as a swapped word and not yet reached as a path.  A swap turns NE
    # into EN, so the swapped word comes later in the N<E enumeration: its
    # entry is deleted when that path is reached.
    direct: dict[str, tuple[paths.StepWord, int, int | None]] = {}

    def note(check: str, message: str) -> None:
        fails[check].append(message)

    def word_stats(word):
        """(image, dinv, image area) of a path or a swapped word, the area
        None when the image is not Dyck; each word is swept once."""
        known = direct.get(word.text)
        if known is None:
            image = sweeping.sweep(word)
            image_area = stats.area_cells(image) if paths.is_dyck(image) else None
            known = direct[word.text] = (image, stats.dinv_pairs(word), image_area)
        return known

    for word in itertools.islice(paths.enumerate_dyck(params, limit), lo, hi):
        # counted and recorded before the image check, which skips the rest
        # of the word
        moves = recursion.valid_moves(word)
        path_total += 1
        move_total += len(moves)
        step_total += len(word)
        image, dinv, image_area = word_stats(word)
        del direct[word.text]
        pairs.append((word.text, image.text))
        area = stats.area_cells(word)
        if area == 0:
            zero_area.append(word.text)
        if image_area is None:
            note("image-is-dyck", f"word={word.text} image={image.text}")
            continue

        if dinv != image_area:
            note(
                "dinv-sweeps-to-area",
                f"word={word.text} dinv={dinv} image={image.text} area={image_area}",
            )
        try:
            area_formula = stats.area_rank_formula(word)
        except NonIntegral:  # a rank sum off the congruence: no area equals it
            area_formula = "undefined"
        if area != area_formula:
            note("area-formula", f"word={word.text} cells={area} formula={area_formula}")
        dinv_cells = stats.dinv_cells(word)
        if dinv_cells != dinv:
            note("dinv-formulations", f"word={word.text} cells={dinv_cells} pairs={dinv}")
        if not diagram.check_row_structure(diagram.build_diagram(word)):
            note("row-structure", f"word={word.text}")

        line_ranks = sweeping.green_line_ranks(word)
        for step, image_rank in zip(sweeping.sweep_order(word), paths.start_ranks(image)):
            counted = line_ranks[step - 1]
            if counted != image_rank:
                note(
                    "green-line-rank",
                    f"word={word.text} step={step} counted={counted} rank={image_rank}",
                )
                break

        if area > 0 and not moves:
            note("move-existence", f"word={word.text} area={area}")
        for move in moves:
            _, swapped_dinv, swapped_image_area = word_stats(recursion.apply_move(word, move))
            counts = recursion.region_counts(word, move)
            # "undefined" when the swapped image is not Dyck: no delta equals it
            direct_area = ("undefined" if swapped_image_area is None
                           else image_area - swapped_image_area)
            if counts.area_delta != direct_area:
                note(
                    "area-recursion",
                    f"word={word.text} p={move.position} "
                    f"delta={counts.area_delta} direct={direct_area}",
                )
            direct_dinv = dinv - swapped_dinv
            if counts.dinv_delta != direct_dinv:
                note(
                    "dinv-recursion",
                    f"word={word.text} p={move.position} "
                    f"delta={counts.dinv_delta} direct={direct_dinv}",
                )
            if not recursion.rank_difference_check(word, move):
                note("rank-difference", f"word={word.text} p={move.position}")
            if (
                counts.red_top_left != counts.blue_top_left
                or counts.blue_bottom_right != counts.red_bottom_right + 1
            ):
                note("cross-identities", f"word={word.text} p={move.position}")
    return fails, (path_total, step_total, move_total), pairs, zero_area


def _worker_count(jobs: int, path_count: int) -> int:
    """jobs clamped to the CPUs this process may use and to the path count;
    1 where the fork start method is unavailable."""
    if min(jobs, path_count) <= 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, path_count)


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

    One pass enumerates, sweeps and checks each path, and no list of the
    paths is kept: bijectivity and the base case read the (word, image)
    texts and the area-0 paths that the pass returns.  With jobs > 1 the
    pass is split into contiguous index ranges sized from count_dyck, one
    per forked worker process, and the last range is left open, so it runs
    to the end of the enumeration.  The parent concatenates the returns in
    index order, so the outcome never depends on scheduling.  The worker
    count is jobs clamped to the available CPUs and to the path count; with
    one worker, or without `fork`, the pass runs in this process.  A fork
    copies only the calling thread, so pass jobs > 1 only from a process
    that runs no other threads.  Raises ValueError, before any work, when
    jobs or an explicit limit is not a positive int; a bool or a float is
    refused too, as Params refuses them.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    paths.enumerate_dyck(params, limit)  # checks the limit before any work
    path_count = paths.count_dyck(params)
    workers = _worker_count(jobs, path_count)

    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        starts = [path_count * i // workers for i in range(workers)]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            partials = list(
                pool.map(
                    _word_failures, [params] * workers, [limit] * workers,
                    starts, starts[1:] + [None],
                )
            )
    else:
        partials = [_word_failures(params, limit, 0, None)]

    # ranges are contiguous, so concatenation keeps enumeration order
    part_fails, part_totals, part_pairs, part_zero_area = zip(*partials)
    fails = {
        name: [message for part in part_fails for message in part[name]]
        for name in CHECK_NAMES
    }
    fails["bijectivity"] = _bijectivity_failures(itertools.chain.from_iterable(part_pairs))
    fails["base-case"] = _base_case_failures(
        params, list(itertools.chain.from_iterable(part_zero_area))
    )
    path_total, step_total, move_total = map(sum, zip(*part_totals))
    checked = dict.fromkeys(CHECK_NAMES, path_total)
    for name in ("rank-difference", "area-recursion", "dinv-recursion", "cross-identities"):
        checked[name] = move_total
    checked["green-line-rank"] = step_total
    checked["base-case"] = 1
    return [CheckResult(name, checked[name], tuple(fails[name])) for name in CHECK_NAMES]
