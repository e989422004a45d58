"""Randomized properties over words drawn from small parameter pools."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sweeplab import (
    StepWord,
    apply_move,
    area_cells,
    build_diagram,
    check_row_structure,
    count_dyck,
    dinv_pairs,
    green_line_ranks,
    is_dyck,
    make_params,
    parse_word,
    rank_difference_check,
    region_counts,
    start_ranks,
    sweep,
    sweep_order,
    unsweep,
    valid_moves,
)
from sweeplab.sweeping import sweep_key
from conftest import all_dyck
from test_diagram import rows_alternate
from test_recursion import rank_difference_by_passes, region_counts_by_one_loop
from test_stats import area_by_cells, dinv_by_pairs
from test_sweep import _green_line_count

params_pool = st.sampled_from(
    [
        (m, n, d)
        for m in range(1, 6)
        for n in range(1, 5)
        for d in (1, 2)
        if math.gcd(m, n) == 1 and d * (m + n) <= 12
    ]
)


@st.composite
def dyck_words(draw):
    m, n, d = draw(params_pool)
    words = all_dyck(m, n, d)
    return words[draw(st.integers(0, len(words) - 1))]


long_params_pool = st.sampled_from(
    [
        (m, n, d)
        for m in range(1, 40)
        for n in range(1, 40)
        for d in (1, 2, 3)
        if math.gcd(m, n) == 1 and d * (m + n) <= 40
    ]
)


@st.composite
def long_dyck_words(draw):
    """Dyck words of up to 40 steps, built without enumerating their set.

    A random arrangement of the letters is rotated to start at a vertex of
    least rank; every vertex rank of the rotation is then nonnegative.
    """
    m, n, d = draw(long_params_pool)
    params = make_params(m, n, d)
    letters = ["N"] * params.north_count + ["E"] * params.east_count
    steps = draw(st.permutations(letters))
    ranks = start_ranks(parse_word("".join(steps), params)) + (0,)
    start = ranks.index(min(ranks))
    return parse_word("".join(steps[start:] + steps[:start]), params)


@st.composite
def arrangements(draw):
    """Any order of the dn North and dm East letters, d <= 3, up to 40
    steps; most are not Dyck, so ranks go negative and, for d > 1, tie."""
    m, n, d = draw(long_params_pool)
    params = make_params(m, n, d)
    letters = ["N"] * params.north_count + ["E"] * params.east_count
    return StepWord("".join(draw(st.permutations(letters))), params)


def ranks_by_loop(word):
    """Start ranks by a plain append loop, the reference for the running
    sum that StepWord computes."""
    m, n = word.params.m, word.params.n
    ranks = [0]
    for ch in word.steps[:-1]:
        ranks.append(ranks[-1] + (m if ch == "N" else -n))
    return tuple(ranks)


@st.composite
def complete_words(draw):
    """Words with the right letter counts but in arbitrary order."""
    m, n, d = draw(params_pool)
    params = make_params(m, n, d)
    letters = ["N"] * params.north_count + ["E"] * params.east_count
    shuffled = draw(st.permutations(letters))
    return parse_word("".join(shuffled), params)


@given(complete_words())
def test_rank_recurrence(word):
    m, n = word.params.m, word.params.n
    ranks = start_ranks(word) + (0,)
    assert ranks[0] == 0 and ranks[-1] == 0
    for i, ch in enumerate(word.steps):
        assert ranks[i + 1] - ranks[i] == (m if ch == "N" else -n)
    assert start_ranks(word) == ranks[:-1]


@given(complete_words())
def test_dyck_iff_vertex_ranks_nonnegative(word):
    assert is_dyck(word) == (min(start_ranks(word) + (0,)) >= 0)


@given(complete_words())
def test_row_structure_characterizes_dyck(word):
    assert check_row_structure(build_diagram(word)) == is_dyck(word)


@given(complete_words())
def test_sweep_preserves_letter_counts(word):
    image = sweep(word)
    assert sorted(image.steps) == sorted(word.steps)


@given(dyck_words())
def test_sweep_image_is_dyck(word):
    assert is_dyck(sweep(word))


@given(dyck_words())
def test_dinv_equals_image_area(word):
    assert dinv_pairs(word) == area_cells(sweep(word))


@given(long_dyck_words())
def test_kernels_equal_the_references_beyond_enumeration(word):
    assert is_dyck(word)
    assert area_cells(word) == area_by_cells(word)
    assert dinv_pairs(word) == dinv_by_pairs(word)


@given(long_dyck_words())
def test_green_line_ranks_equal_the_per_arrow_count_beyond_enumeration(word):
    counts = green_line_ranks(word)
    assert counts == tuple(_green_line_count(word, s) for s in range(1, len(word) + 1))


@given(long_dyck_words())
def test_move_kernels_equal_the_references_beyond_enumeration(word):
    # d <= 3, so the bands and the sweep comparisons meet tied ranks
    dinv, image_area = dinv_pairs(word), area_cells(sweep(word))
    for move in valid_moves(word):
        swapped = apply_move(word, move)
        # the ranks apply_move hands over equal those a fresh word computes
        assert start_ranks(swapped) == start_ranks(StepWord(swapped.steps, word.params))
        holds = rank_difference_check(word, move)
        assert holds and holds == rank_difference_by_passes(word, move)
        counts = region_counts(word, move)
        assert counts == region_counts_by_one_loop(word, move)
        assert counts.area_delta == image_area - area_cells(sweep(swapped))
        assert counts.dinv_delta == dinv - dinv_pairs(swapped)


@given(arrangements())
def test_row_walk_equals_the_list_compare(word):
    diagram = build_diagram(word)
    assert check_row_structure(diagram) == rows_alternate(diagram) == is_dyck(word)


@given(arrangements())
def test_ranks_equal_the_append_loop(word):
    assert start_ranks(word) == ranks_by_loop(word)


@given(arrangements())
def test_sweep_order_equals_the_keyed_sort(word):
    ranks = start_ranks(word)
    columns = range(1, len(word) + 1)
    expected = sorted(columns, key=lambda c: sweep_key(ranks[c - 1], c))
    assert sweep_order(word) == tuple(expected)


@given(dyck_words())
def test_unsweep_inverts_sweep(word):
    assert unsweep(sweep(word)) == word


@given(dyck_words())
def test_green_line_rank_equals_image_rank(word):
    from sweeplab import green_line_rank, image_start_rank, sweep_order

    order = sweep_order(word)
    for position, step in enumerate(order, start=1):
        assert green_line_rank(word, step) == image_start_rank(word, position)


@given(dyck_words())
def test_moves_drop_area_by_one(word):
    area = area_cells(word)
    for move in valid_moves(word):
        assert area_cells(apply_move(word, move)) == area - 1


@settings(max_examples=25)
@given(params_pool)
def test_count_matches_enumeration(triple):
    m, n, d = triple
    assert count_dyck(make_params(m, n, d)) == len(all_dyck(m, n, d))
