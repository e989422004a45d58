import pytest

import sweeplab.recursion
from sweeplab import (
    FIRST_VALID,
    SWEEP_LATEST_EAST,
    InvalidMove,
    NotDyck,
    RegionCounts,
    RemovalMove,
    StepWord,
    apply_move,
    area_cells,
    area_recursion_delta,
    base_path,
    corner_path,
    dinv_pairs,
    dinv_recursion_delta,
    is_dyck,
    make_params,
    max_stat,
    parse_word,
    rank_difference_check,
    reduce_to_base,
    region_counts,
    south_end_ranks,
    start_ranks,
    sweep,
    valid_moves,
)
from sweeplab.paths import NORTH
from sweeplab.sweeping import sweep_key
from conftest import PARAM_SETS, WIDE_SETS, all_dyck


def _sweep_keys(word):
    """sweep_key of every step, in column order, one call per step."""
    ranks = start_ranks(word)
    return [sweep_key(ranks[c - 1], c) for c in range(1, len(word) + 1)]


def _image_rank(word, keys, step):
    """Image start rank of `step`: b*m - a*n over the b North and a East
    steps swept before it."""
    m, n = word.params.m, word.params.n
    ref = keys[step - 1]
    return sum(
        m if letter == NORTH else -n
        for letter, key in zip(word.steps, keys)
        if key < ref
    )


def rank_difference_by_passes(word, move):
    """rank_difference_check in three passes over sweep_key tuples: each
    image rank over its own word's keys, then the band census with the
    displayed pair skipped by column."""
    swapped = sweeplab.recursion.apply_move(word, move)
    m, n = word.params.m, word.params.n
    p, k = move.position, move.level
    keys = _sweep_keys(word)
    rank_before = _image_rank(word, keys, p)
    rank_after = _image_rank(swapped, _sweep_keys(swapped), p + 1)
    low, high = sweep_key(k - n, p + 1), sweep_key(k, p)
    ups = downs = 0
    for c, (letter, key) in enumerate(zip(word.steps, keys), start=1):
        if low < key < high and c != p and c != p + 1:
            if letter == NORTH:
                ups += 1
            else:
                downs += 1
    return rank_before - rank_after == m * ups - n * downs


def region_counts_by_one_loop(word, move):
    """region_counts in its single-loop form: one pass over every column,
    each tested for its side of the displayed pair."""
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


class TestValidMoves:
    def test_nneee(self, p321):
        moves = valid_moves(parse_word("NNEEE", p321))
        assert moves == [RemovalMove(position=2, level=3)]

    def test_nenee_has_none(self, p321):
        assert valid_moves(parse_word("NENEE", p321)) == []

    def test_base_path_has_none(self):
        for (m, n, d) in PARAM_SETS:
            assert valid_moves(base_path(make_params(m, n, d))) == []

    def test_empty_iff_area_zero(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                assert bool(valid_moves(word)) == (area_cells(word) > 0)

    def test_requires_dyck(self, p321):
        with pytest.raises(NotDyck):
            valid_moves(parse_word("NEENE", p321))


class TestApplyMove:
    def test_examples(self, p321, p112):
        word = parse_word("NNEEE", p321)
        assert apply_move(word, valid_moves(word)[0]).text == "NENEE"
        word = parse_word("NNEE", p112)
        assert apply_move(word, valid_moves(word)[0]).text == "NENE"

    def test_area_drops_by_one_and_south_sum_by_n(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                before = sum(south_end_ranks(word))
                for move in valid_moves(word):
                    swapped = apply_move(word, move)
                    assert is_dyck(swapped)
                    assert area_cells(swapped) == area_cells(word) - 1
                    assert sum(south_end_ranks(swapped)) == before - n

    def test_invalid_level_rejected(self, p321):
        word = parse_word("NENEE", p321)
        # position 1 holds an N-E pair but its level 0 < n
        with pytest.raises(InvalidMove):
            apply_move(word, RemovalMove(position=1, level=0))

    def test_mismatched_move_rejected(self, p321):
        word = parse_word("NNEEE", p321)
        with pytest.raises(InvalidMove):
            apply_move(word, RemovalMove(position=3, level=6))  # E-E pair
        with pytest.raises(InvalidMove):
            apply_move(word, RemovalMove(position=2, level=5))  # wrong level

    @pytest.mark.parametrize(
        "move",
        [
            RemovalMove(2.0, 3),
            RemovalMove(2, 3.0),
            RemovalMove(True, 3),
            RemovalMove(2, True),
            RemovalMove("2", 3),
        ],
    )
    def test_non_int_move_rejected(self, move, p321):
        word = parse_word("NNEEE", p321)
        with pytest.raises(InvalidMove, match="must be integers"):
            apply_move(word, move)

    @pytest.mark.parametrize("fresh_word", [False, True])
    @pytest.mark.parametrize(
        "params,text,move,equal_move,swapped",
        [
            ((3, 2, 1), "NNEEE", RemovalMove(2, 3), RemovalMove(2.0, 3), "NENEE"),
            ((1, 1, 2), "NNEE", RemovalMove(2, 1), RemovalMove(2, True), "NENE"),
        ],
        ids=["float-position", "bool-level"],
    )
    def test_an_equal_move_after_a_valid_one_is_validated(
        self, params, text, move, equal_move, swapped, fresh_word
    ):
        # equal_move == move, but is no int move: the kept last result must
        # not answer it, for the same word or an equal one
        params = make_params(*params)
        word = parse_word(text, params)
        assert apply_move(word, move).text == swapped
        if fresh_word:
            word = parse_word(text, params)
        with pytest.raises(InvalidMove, match="must be integers"):
            apply_move(word, equal_move)

    def test_the_same_word_and_move_reuse_the_swapped_word(self, p321):
        word = parse_word("NNEEE", p321)
        move = RemovalMove(2, 3)
        swapped = apply_move(word, move)
        assert apply_move(word, move) is swapped
        # an equal move object is validated and swapped afresh
        again = apply_move(word, RemovalMove(2, 3))
        assert again == swapped and again is not swapped

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_swapped_word_inherits_its_ranks(self, m, n, d):
        params = make_params(m, n, d)
        for word in all_dyck(m, n, d):
            for move in valid_moves(word):
                swapped = apply_move(word, move)
                assert "_ranks" in vars(swapped)  # handed over, not computed
                fresh = StepWord(swapped.steps, params)
                assert start_ranks(swapped) == start_ranks(fresh), (word.text, move)


BAD_MOVES = [
    ("NENEE", RemovalMove(position=1, level=0)),  # level 0 < n
    ("NNEEE", RemovalMove(position=3, level=6)),  # E-E pair
    ("NNEEE", RemovalMove(position=2, level=5)),  # wrong level
]


@pytest.mark.parametrize("text,move", BAD_MOVES)
@pytest.mark.parametrize("caller", [apply_move, region_counts, rank_difference_check])
def test_every_move_reader_rejects_bad_moves(caller, text, move, p321):
    # region_counts and rank_difference_check validate through apply_move
    with pytest.raises(InvalidMove):
        caller(parse_word(text, p321), move)


class TestRegionCounts:
    def test_nneee(self, p321):
        word = parse_word("NNEEE", p321)
        rc = region_counts(word, valid_moves(word)[0])
        assert (rc.red_top_left, rc.blue_top_left, rc.red_top_right) == (0, 0, 0)
        assert (rc.blue_bottom_left, rc.blue_bottom_right, rc.red_bottom_right) == (
            0,
            1,
            0,
        )

    def test_nnee_dilated(self, p112):
        word = parse_word("NNEE", p112)
        rc = region_counts(word, valid_moves(word)[0])
        assert rc == type(rc)(0, 0, 0, 0, 1, 0)

    def test_equals_the_one_loop_form(self):
        for (m, n, d) in WIDE_SETS:
            for word in all_dyck(m, n, d):
                for move in valid_moves(word):
                    assert region_counts(word, move) == region_counts_by_one_loop(
                        word, move
                    ), (word.text, move)

    def test_corner_path_left_bands_empty(self):
        # on the corner path nothing sits in the bands left of the single
        # North-East descent
        for (m, n, d) in PARAM_SETS:
            word = corner_path(make_params(m, n, d))
            (move,) = valid_moves(word)
            assert move.position == d * n
            rc = region_counts(word, move)
            assert rc.red_top_left == rc.blue_top_left == rc.blue_bottom_left == 0


class TestRecursionDeltas:
    def test_frozen_examples(self, p321, p112):
        word = parse_word("NNEEE", p321)
        move = valid_moves(word)[0]
        assert area_recursion_delta(word, move) == -1
        assert dinv_recursion_delta(word, move) == -1
        word = parse_word("NNEE", p112)
        move = valid_moves(word)[0]
        assert area_recursion_delta(word, move) == -1
        assert dinv_recursion_delta(word, move) == -1

    def test_area_delta_matches_direct_difference(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                for move in valid_moves(word):
                    direct = area_cells(sweep(word)) - area_cells(
                        sweep(apply_move(word, move))
                    )
                    assert area_recursion_delta(word, move) == direct

    def test_dinv_delta_matches_direct_difference(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                for move in valid_moves(word):
                    direct = dinv_pairs(word) - dinv_pairs(apply_move(word, move))
                    assert dinv_recursion_delta(word, move) == direct

    def test_cross_identities(self):
        # each band is one row of the alternating diagram, which forces
        # the red and blue counts to pair up; this is what makes the two
        # deltas equal and reduces the main identity to the base case
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                for move in valid_moves(word):
                    rc = region_counts(word, move)
                    assert rc.red_top_left == rc.blue_top_left
                    assert rc.blue_bottom_right == rc.red_bottom_right + 1
                    assert area_recursion_delta(word, move) == dinv_recursion_delta(
                        word, move
                    )


class TestRankDifference:
    def test_examples(self, p321, p112):
        for text, params in [("NNEEE", p321), ("NNEE", p112)]:
            word = parse_word(text, params)
            assert rank_difference_check(word, valid_moves(word)[0])

    def test_holds_for_every_move(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                for move in valid_moves(word):
                    assert rank_difference_check(word, move)

    def test_equals_the_three_pass_form(self, monkeypatch):
        moves = [(word, move) for (m, n, d) in WIDE_SETS
                 for word in all_dyck(m, n, d) for move in valid_moves(word)]
        for word, move in moves:
            assert rank_difference_check(word, move) == rank_difference_by_passes(
                word, move
            ), (word.text, move)
        # the same with the swap left out, so that rank(S') is read off the
        # unswapped word: the identity then fails on most moves, and the
        # two forms must still agree move by move
        monkeypatch.setattr(sweeplab.recursion, "apply_move", lambda word, move: word)
        outcomes = [rank_difference_check(word, move) for word, move in moves]
        assert outcomes == [rank_difference_by_passes(word, move) for word, move in moves]
        assert set(outcomes) == {True, False}

    def test_rank_drop_against_independent_band_count(self):
        # recompute both sides from scratch: image ranks read off the
        # swept words, the band census written out longhand
        from sweeplab import image_start_rank, start_ranks, sweep, sweep_order

        for (m, n, d) in [(5, 3, 1), (2, 1, 2)]:
            params = make_params(m, n, d)
            for word in all_dyck(m, n, d):
                ranks = start_ranks(word)
                for move in valid_moves(word):
                    p, k = move.position, move.level
                    rank_before = start_ranks(sweep(word))[
                        sweep_order(word).index(p)
                    ]
                    swapped = apply_move(word, move)
                    rank_after = start_ranks(sweep(swapped))[
                        sweep_order(swapped).index(p + 1)
                    ]
                    ups = downs = 0
                    for c, ch in enumerate(word.steps, start=1):
                        if c in (p, p + 1):
                            continue
                        r = ranks[c - 1]
                        after_low = r > k - n or (r == k - n and c < p + 1)
                        before_high = r < k or (r == k and c > p)
                        if after_low and before_high:
                            if ch == "N":
                                ups += 1
                            else:
                                downs += 1
                    assert rank_before - rank_after == m * ups - n * downs
                    assert rank_difference_check(word, move)

    def test_corner_move_satisfies_identity(self):
        word = corner_path(make_params(5, 2, 1))
        (move,) = valid_moves(word)
        assert rank_difference_check(word, move)


class TestReduceToBase:
    def test_single_step(self, p321):
        word = parse_word("NNEEE", p321)
        chain = reduce_to_base(word)
        assert [m.position for m in chain] == [2]

    def test_base_path_empty_chain(self):
        for (m, n, d) in PARAM_SETS:
            assert reduce_to_base(base_path(make_params(m, n, d))) == []

    def test_corner_chain_has_max_length(self):
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            chain = reduce_to_base(corner_path(params))
            assert len(chain) == max_stat(params)

    @pytest.mark.parametrize("strategy", [FIRST_VALID, SWEEP_LATEST_EAST])
    def test_chain_length_equals_area(self, strategy):
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            base = base_path(params)
            for word in all_dyck(m, n, d):
                chain = reduce_to_base(word, strategy)
                assert len(chain) == area_cells(word)
                current = word
                for move in chain:
                    current = apply_move(current, move)
                assert current == base

    def test_unknown_strategy(self, p321):
        with pytest.raises(ValueError):
            reduce_to_base(parse_word("NNEEE", p321), "bogus")

    @pytest.mark.parametrize("path", [base_path, corner_path])
    def test_unknown_strategy_is_refused_before_any_move(self, path):
        # the base path has no move to pick, so only an up-front check sees
        # the strategy there
        for (m, n, d) in PARAM_SETS:
            with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
                reduce_to_base(path(make_params(m, n, d)), "bogus")

    def test_sweep_latest_east_breaks_ties_to_the_smaller_column(self):
        # the picked move is the one whose East step is swept last: highest
        # start rank, and among tied ranks (d > 1) the smaller column
        ties = 0
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                moves = valid_moves(word)
                if not moves:
                    continue
                top = max(mv.level for mv in moves)
                latest = [mv for mv in moves if mv.level == top]
                ties += len(latest) > 1
                assert reduce_to_base(word, SWEEP_LATEST_EAST)[0] == latest[0], word.text
        assert ties > 0
