"""Acceptance gate: every criterion exercised at its exact tolerance.

All quantities here are integers and every comparison is exact equality.
Each criterion prints one PASS/FAIL line (visible with `pytest -s` or in
the failure report).  The parameter grid is the full desk-scale battery,
with the d > 1 sets exercising the rank-tie rules.
"""

import functools
import time

import pytest

import sweeplab.stats
from sweeplab import (
    apply_move,
    area_cells,
    area_rank_formula,
    base_path,
    check_row_structure,
    build_diagram,
    corner_path,
    count_dyck,
    dinv_cells,
    dinv_pairs,
    dinv_recursion_delta,
    area_recursion_delta,
    green_line_rank,
    image_start_rank,
    joint_distribution,
    make_params,
    max_stat,
    rank_difference_check,
    reduce_to_base,
    region_counts,
    sweep,
    sweep_order,
    valid_moves,
)
from sweeplab.cli import main
from sweeplab.diagram import BLUE, RED
from conftest import PARAM_SETS, all_dyck, golden_bytes, row_segments


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} {name}: FAIL")
                raise
            print(f"criterion {number:>2} {name}: PASS")

        return wrapper

    return decorate


@criterion(1, "dinv equals area of the sweep image")
def test_c01_dinv_sweeps_to_area():
    started = time.monotonic()
    for (m, n, d) in PARAM_SETS:
        for word in all_dyck(m, n, d):
            assert dinv_pairs(word) == area_cells(sweep(word)), word.text
    assert time.monotonic() - started < 10.0


@criterion(2, "sweep is a bijection on each Dyck set")
def test_c02_bijectivity():
    for (m, n, d) in PARAM_SETS:
        words = all_dyck(m, n, d)
        images = [sweep(w) for w in words]
        assert len(set(images)) == len(words), (m, n, d)
        assert set(images) == set(words), (m, n, d)


@criterion(3, "area formula agrees with the cell count")
def test_c03_area_formula():
    for (m, n, d) in PARAM_SETS:
        for word in all_dyck(m, n, d):
            # area_rank_formula raises NonIntegral on any divisibility
            # failure, so equality also certifies divisibility by n
            assert area_rank_formula(word) == area_cells(word), word.text


@criterion(4, "dinv cell count agrees with the pair count")
def test_c04_dinv_formulations():
    for (m, n, d) in PARAM_SETS:
        for word in all_dyck(m, n, d):
            assert dinv_cells(word) == dinv_pairs(word), word.text


@criterion(5, "green-line rank matches every image rank, all nonnegative")
def test_c05_green_line_rank():
    for (m, n, d) in PARAM_SETS:
        for word in all_dyck(m, n, d):
            order = sweep_order(word)
            for position, step in enumerate(order, start=1):
                rank = image_start_rank(word, position)
                assert rank >= 0, (word.text, step)
                assert green_line_rank(word, step) == rank, (word.text, step)


@criterion(6, "zero row counts and red-blue alternation")
def test_c06_diagram_structure():
    for (m, n, d) in PARAM_SETS:
        for word in all_dyck(m, n, d):
            diagram = build_diagram(word)
            assert check_row_structure(diagram), word.text
            for j, segs in row_segments(diagram).items():
                colors = [color for _, color in segs]
                assert colors.count(RED) == colors.count(BLUE), (word.text, j)


@criterion(7, "removal-move recursions and cross-identities")
def test_c07_recursions():
    for (m, n, d) in PARAM_SETS:
        for word in all_dyck(m, n, d):
            image_area = area_cells(sweep(word))
            for move in valid_moves(word):
                swapped = apply_move(word, move)
                assert area_recursion_delta(word, move) == image_area - area_cells(
                    sweep(swapped)
                ), (word.text, move)
                assert dinv_recursion_delta(word, move) == dinv_pairs(
                    word
                ) - dinv_pairs(swapped), (word.text, move)
                assert rank_difference_check(word, move), (word.text, move)
                counts = region_counts(word, move)
                assert counts.red_top_left == counts.blue_top_left, (word.text, move)
                assert counts.blue_bottom_right == counts.red_bottom_right + 1, (
                    word.text,
                    move,
                )


@criterion(8, "base case: extremes and the corner image")
def test_c08_base_case():
    for (m, n, d) in PARAM_SETS:
        params = make_params(m, n, d)
        base = base_path(params)
        corner = corner_path(params)
        top = max_stat(params)
        assert [w for w in all_dyck(m, n, d) if area_cells(w) == 0] == [base]
        assert dinv_pairs(base) == top
        assert sweep(base) == corner
        assert area_cells(corner) == top
    assert max_stat(make_params(3, 2, 1)) == 1
    assert max_stat(make_params(7, 5, 1)) == 12
    assert max_stat(make_params(1, 1, 2)) == 1


@criterion(9, "counting matches enumeration")
def test_c09_counting():
    for (m, n, d) in PARAM_SETS:
        assert count_dyck(make_params(m, n, d)) == len(all_dyck(m, n, d))
    assert count_dyck(make_params(3, 2, 1)) == 2
    assert count_dyck(make_params(5, 2, 1)) == 3
    assert count_dyck(make_params(7, 5, 1)) == 66


@criterion(10, "reduction chains of exact length")
def test_c10_reduction_chains():
    for (m, n, d) in PARAM_SETS:
        params = make_params(m, n, d)
        base = base_path(params)
        for word in all_dyck(m, n, d):
            area = area_cells(word)
            chain = reduce_to_base(word)
            assert len(chain) == area, word.text
            current = word
            for move in chain:
                following = apply_move(current, move)
                assert area_cells(following) == area_cells(current) - 1
                current = following
            assert current == base


@criterion(11, "joint distribution marginals agree")
def test_c11_distribution():
    for (m, n, d) in PARAM_SETS:
        table = joint_distribution(make_params(m, n, d))
        assert table.marginals_agree(), (m, n, d)
    assert dict(joint_distribution(make_params(3, 2, 1)).counts) == {
        (1, 0): 1,
        (0, 1): 1,
    }


@criterion(12, "CLI golden files, verify exit codes, mutation test")
def test_c12_cli(tmp_path, monkeypatch):
    cases = [
        ("stats_nenee.txt", ["stats", "--m", "3", "--n", "2", "--d", "1", "NENEE"]),
        ("enumerate.jsonl", ["enumerate", "--m", "3", "--n", "2", "--d", "1", "--format", "jsonl"]),
        ("table.csv", ["table", "--m", "3", "--n", "2", "--d", "1", "--format", "csv"]),
        ("render_grid_nenee.svg", ["render", "--m", "3", "--n", "2", "--d", "1", "NENEE"]),
        (
            "render_diagram_nenee_h3.svg",
            ["render", "--m", "3", "--n", "2", "--d", "1", "--style", "diagram",
             "--highlight", "3", "NENEE"],
        ),
    ]
    for golden, args in cases:
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == golden_bytes(golden), golden

    for (m, n, d) in PARAM_SETS:
        assert main(["verify", "--m", str(m), "--n", str(n), "--d", str(d),
                     "--out", str(tmp_path / "v")]) == 0

    true_dinv = sweeplab.stats.dinv_pairs
    monkeypatch.setattr(sweeplab.stats, "dinv_pairs", lambda w: true_dinv(w) + 1)
    out = tmp_path / "broken"
    assert main(["verify", "--m", "3", "--n", "2", "--d", "1", "--out", str(out)]) == 1
    report = out.read_text()
    assert "FAIL dinv-sweeps-to-area: word=" in report
    monkeypatch.setattr(sweeplab.stats, "dinv_pairs", true_dinv)
