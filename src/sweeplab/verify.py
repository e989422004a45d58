"""Exhaustive verification of every library identity over one parameter set.

Each check scans the full Dyck enumeration (or every valid removal move of
every path) and records counterexamples.  The headline check is that dinv
of a path equals the area of its sweep image; the others cover the diagram
row structure, both statistic formulations, the green-line rank rule, the
removal-move recursions and their cross-identities, and the base case.

Statistic and sweep functions are resolved through their modules at call
time, so a deliberately broken implementation (installed, say, by a test
monkeypatch) is caught and reported rather than silently trusted.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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


def _word_failures(params, indexed_words):
    """Per-path checks; returns {check name: [(word index, message), ...]}."""
    fails: dict[str, list[tuple[int, str]]] = {name: [] for name in PER_WORD_CHECKS}

    def note(check: str, idx: int, message: str) -> None:
        fails[check].append((idx, message))

    for idx, word in indexed_words:
        image = sweeping.sweep(word)
        if not paths.is_dyck(image):
            note("image-is-dyck", idx, f"word={word.text} image={image.text}")
            continue
        area = stats.area_cells(word)
        dinv = stats.dinv_pairs(word)
        image_area = stats.area_cells(image)

        if dinv != image_area:
            note(
                "dinv-sweeps-to-area",
                idx,
                f"word={word.text} dinv={dinv} image={image.text} area={image_area}",
            )
        area_formula = stats.area_rank_formula(word)
        if area != area_formula:
            note("area-formula", idx, f"word={word.text} cells={area} formula={area_formula}")
        dinv_cells = stats.dinv_cells(word)
        if dinv_cells != dinv:
            note("dinv-formulations", idx, f"word={word.text} cells={dinv_cells} pairs={dinv}")
        if not diagram.check_row_structure(diagram.build_diagram(word)):
            note("row-structure", idx, f"word={word.text}")

        image_ranks = paths.start_ranks(image)
        for step, image_rank in zip(sweeping.sweep_order(word), image_ranks):
            if image_rank < 0:
                note(
                    "green-line-rank",
                    idx,
                    f"word={word.text} step={step} negative image rank {image_rank}",
                )
                break
            counted = sweeping.green_line_rank(word, step)
            if counted != image_rank:
                note(
                    "green-line-rank",
                    idx,
                    f"word={word.text} step={step} counted={counted} rank={image_rank}",
                )
                break

        moves = recursion.valid_moves(word)
        if area > 0 and not moves:
            note("move-existence", idx, f"word={word.text} area={area}")
        for move in moves:
            swapped = recursion.apply_move(word, move)
            counts = recursion.region_counts(word, move)
            direct_area = image_area - stats.area_cells(sweeping.sweep(swapped))
            area_delta = recursion.area_recursion_delta(word, move)
            if area_delta != direct_area:
                note(
                    "area-recursion",
                    idx,
                    f"word={word.text} p={move.position} "
                    f"delta={area_delta} direct={direct_area}",
                )
            direct_dinv = dinv - stats.dinv_pairs(swapped)
            dinv_delta = recursion.dinv_recursion_delta(word, move)
            if dinv_delta != direct_dinv:
                note(
                    "dinv-recursion",
                    idx,
                    f"word={word.text} p={move.position} "
                    f"delta={dinv_delta} direct={direct_dinv}",
                )
            if not recursion.rank_difference_check(word, move):
                note("rank-difference", idx, f"word={word.text} p={move.position}")
            if (
                counts.red_top_left != counts.blue_top_left
                or counts.blue_bottom_right != counts.red_bottom_right + 1
            ):
                note("cross-identities", idx, f"word={word.text} p={move.position}")
    return fails


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

    With jobs > 1 the per-path work is split over worker threads by a
    deterministic round-robin partition and the failures are merged back
    in enumeration order, so the outcome never depends on scheduling.
    """
    words = list(paths.enumerate_dyck(params, limit))
    indexed = list(enumerate(words))

    if jobs > 1:
        chunks = [indexed[i::jobs] for i in range(jobs)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(lambda c: _word_failures(params, c), chunks))
        per_word = {
            name: sorted(
                (item for part in partials for item in part[name]),
                key=lambda pair: pair[0],
            )
            for name in PER_WORD_CHECKS
        }
    else:
        per_word = _word_failures(params, indexed)

    move_total = sum(len(recursion.valid_moves(w)) for w in words)
    step_total = sum(len(w) for w in words)
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
            fails = [message for _, message in per_word[name]]
        results.append(CheckResult(name, checked[name], tuple(fails)))
    return results
