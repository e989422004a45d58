"""Exhaustive verification of every library identity over one parameter set.

Each check scans the full Dyck enumeration (or every valid removal move of
every path) and records counterexamples.  The headline check is that dinv
of a path equals the area of its sweep image; the others cover the diagram
row structure, both statistic formulations, the green-line rank rule, the
removal-move recursions and their cross-identities, and the base case.

Statistic and sweep functions are resolved through their modules at call
time, so a deliberately broken implementation (installed, say, by a test
monkeypatch) is caught and reported rather than silently trusted.

Each path's dinv and image area are computed once per run (once per
worker with jobs > 1), also when the path is reached as the swapped word
of another path's removal move: the recursion checks and the path's own
checks read them from a table keyed by word text.

With jobs > 1 the per-path checks run in forked worker processes, each on
its own contiguous range of the enumeration.  The `fork` start method is
required, not merely a default: a forked worker inherits the caller's
modules as they are, monkeypatches included, where a `spawn` worker would
re-import and check the unpatched library.  Where `fork` is unavailable
the checks run serially.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from . import diagram, paths, recursion, stats
from . import sweeping


@dataclass(frozen=True)
class CheckResult:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _word_failures(params, words):
    """Per-path checks; returns ({check name: [message, ...]}, valid moves
    checked, steps checked)."""
    fails: dict[str, list[str]] = {name: [] for name in PER_WORD_CHECKS}
    move_total = step_total = 0
    # word text -> (dinv, image area) of swapped words not yet checked as
    # paths.  A swap turns NE into EN, so the swapped word comes later in
    # the N<E enumeration: its entry is taken when that path is reached.
    direct: dict[str, tuple[int, int]] = {}

    def note(check: str, message: str) -> None:
        fails[check].append(message)

    def direct_stats(swapped):
        known = direct.get(swapped.text)
        if known is None:
            # raises NotDyck when the swapped word's image is not Dyck
            image_area = stats.area_cells(sweeping.sweep(swapped))
            known = direct[swapped.text] = (stats.dinv_pairs(swapped), image_area)
        return known

    for word in words:
        # counted before the image check, which skips the rest of the word
        moves = recursion.valid_moves(word)
        move_total += len(moves)
        step_total += len(word)
        image = sweeping.sweep(word)
        known = direct.pop(word.text, None)
        if not paths.is_dyck(image):
            note("image-is-dyck", f"word={word.text} image={image.text}")
            continue
        area = stats.area_cells(word)
        if known is None:
            dinv, image_area = stats.dinv_pairs(word), stats.area_cells(image)
        else:
            dinv, image_area = known

        if dinv != image_area:
            note(
                "dinv-sweeps-to-area",
                f"word={word.text} dinv={dinv} image={image.text} area={image_area}",
            )
        area_formula = stats.area_rank_formula(word)
        if area != area_formula:
            note("area-formula", f"word={word.text} cells={area} formula={area_formula}")
        dinv_cells = stats.dinv_cells(word)
        if dinv_cells != dinv:
            note("dinv-formulations", f"word={word.text} cells={dinv_cells} pairs={dinv}")
        if not diagram.check_row_structure(diagram.build_diagram(word)):
            note("row-structure", f"word={word.text}")

        image_ranks = paths.start_ranks(image)
        for step, image_rank in zip(sweeping.sweep_order(word), image_ranks):
            if image_rank < 0:
                note(
                    "green-line-rank",
                    f"word={word.text} step={step} negative image rank {image_rank}",
                )
                break
            counted = sweeping.green_line_rank(word, step)
            if counted != image_rank:
                note(
                    "green-line-rank",
                    f"word={word.text} step={step} counted={counted} rank={image_rank}",
                )
                break

        if area > 0 and not moves:
            note("move-existence", f"word={word.text} area={area}")
        for move in moves:
            swapped = recursion.apply_move(word, move)
            swapped_dinv, swapped_image_area = direct_stats(swapped)
            counts = recursion.region_counts(word, move)
            direct_area = image_area - swapped_image_area
            area_delta = recursion.area_recursion_delta(word, move)
            if area_delta != direct_area:
                note(
                    "area-recursion",
                    f"word={word.text} p={move.position} "
                    f"delta={area_delta} direct={direct_area}",
                )
            direct_dinv = dinv - swapped_dinv
            dinv_delta = recursion.dinv_recursion_delta(word, move)
            if dinv_delta != direct_dinv:
                note(
                    "dinv-recursion",
                    f"word={word.text} p={move.position} "
                    f"delta={dinv_delta} direct={direct_dinv}",
                )
            if not recursion.rank_difference_check(word, move):
                note("rank-difference", f"word={word.text} p={move.position}")
            if (
                counts.red_top_left != counts.blue_top_left
                or counts.blue_bottom_right != counts.red_bottom_right + 1
            ):
                note("cross-identities", f"word={word.text} p={move.position}")
    return fails, move_total, step_total


def _shard(params, limit, lo, hi):
    """_word_failures on enumeration indices [lo, hi), enumerated here so
    that no word crosses a process boundary."""
    return _word_failures(
        params, itertools.islice(paths.enumerate_dyck(params, limit), lo, hi)
    )


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


PER_WORD_CHECKS = (
    "image-is-dyck",
    "area-formula",
    "dinv-formulations",
    "green-line-rank",
    "row-structure",
    "rank-difference",
    "area-recursion",
    "dinv-recursion",
    "cross-identities",
    "move-existence",
    "dinv-sweeps-to-area",
)

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


def _bijectivity_failures(words) -> list[str]:
    images: dict[str, str] = {}
    fails = []
    for word in words:
        image = sweeping.sweep(word)
        if image.text in images:
            fails.append(f"words {images[image.text]} and {word.text} both map to {image.text}")
        images[image.text] = word.text
    domain = {w.text for w in words}
    missing = sorted(domain - set(images))
    extra = sorted(set(images) - domain)
    fails.extend(f"word {t} is not a sweep image" for t in missing)
    fails.extend(f"image {t} is not a Dyck word of the set" for t in extra)
    return fails


def _base_case_failures(params, words) -> list[str]:
    fails = []
    base = paths.base_path(params)
    corner = paths.corner_path(params)
    top = stats.max_stat(params)
    zero_area = [w.text for w in words if stats.area_cells(w) == 0]
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

    With jobs > 1 the per-path checks are split into contiguous index
    ranges of the enumeration, one per forked worker process, and each
    worker returns only its failures and check counts; the parent merges
    them in index order, so the outcome never depends on scheduling.  The
    number of workers is jobs clamped to the available CPUs and to the
    path count; with one worker, or without `fork`, the checks run in this
    process.  Bijectivity and the base case always run in this process.
    A fork copies only the calling thread, so pass jobs > 1 only from a
    process that runs no other threads.
    """
    words = list(paths.enumerate_dyck(params, limit))
    workers = _worker_count(jobs, len(words))

    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        bounds = [len(words) * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            partials = list(
                pool.map(
                    _shard, [params] * workers, [limit] * workers, bounds[:-1], bounds[1:]
                )
            )
    else:
        partials = [_word_failures(params, words)]

    move_total = sum(moves for _, moves, _ in partials)
    step_total = sum(steps for _, _, steps in partials)
    checked = {
        "image-is-dyck": len(words),
        "bijectivity": len(words),
        "area-formula": len(words),
        "dinv-formulations": len(words),
        "green-line-rank": step_total,
        "row-structure": len(words),
        "rank-difference": move_total,
        "area-recursion": move_total,
        "dinv-recursion": move_total,
        "cross-identities": move_total,
        "move-existence": len(words),
        "base-case": 1,
        "dinv-sweeps-to-area": len(words),
    }

    results = []
    for name in CHECK_NAMES:
        if name == "bijectivity":
            fails = _bijectivity_failures(words)
        elif name == "base-case":
            fails = _base_case_failures(params, words)
        else:
            # shards are contiguous, so concatenation keeps enumeration order
            fails = [message for part, _, _ in partials for message in part[name]]
        results.append(CheckResult(name, checked[name], tuple(fails)))
    return results
