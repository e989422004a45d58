import tracemalloc

import pytest

from sweeplab import (
    IndexOutOfRange,
    LimitExceeded,
    NotDyck,
    base_path,
    corner_path,
    green_line_rank,
    green_line_ranks,
    image_start_rank,
    is_dyck,
    make_params,
    parse_word,
    start_ranks,
    sweep,
    sweep_order,
    unsweep,
)
import sweeplab.sweeping
from sweeplab.paths import _unrank
from sweeplab.render import render_diagram
from sweeplab.sweeping import sweep_key
from conftest import PARAM_SETS, WIDE_SETS, all_dyck, arrangements


def decoded(table, params):
    """An unsweep table, (image codes to indices, completion counts), as
    {image text: preimage text}: each code's binary digits read as N for 1
    and E for 0, each index unranked."""
    codes, ups = table
    letters = str.maketrans("10", "NE")
    return {
        format(code, f"0{params.step_count}b").translate(letters): _unrank(params, index, ups)
        for code, index in codes.items()
    }


class TestSweepOrder:
    def test_coprime(self, p321):
        assert sweep_order(parse_word("NENEE", p321)) == (1, 3, 5, 2, 4)

    def test_tie_rule_rightmost_first(self, p112):
        # ranks (0, 1, 2, 1): columns 2 and 4 tie at level 1
        assert sweep_order(parse_word("NNEE", p112)) == (1, 4, 2, 3)

    def test_tie_rule_on_negative_ranks(self, p112):
        # not Dyck, ranks (0, -1, -2, -1): columns 2 and 4 tie at level -1
        assert sweep_order(parse_word("EENN", p112)) == (3, 4, 2, 1)

    def test_keys_strictly_increase_along_order(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                ranks = start_ranks(word)
                keys = [sweep_key(ranks[c - 1], c) for c in sweep_order(word)]
                assert keys == sorted(keys)
                assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_equals_the_keyed_sort_on_every_arrangement(self):
        # non-Dyck words included: negative ranks, and tied ranks for d > 1
        for (m, n, d) in PARAM_SETS:
            for word in arrangements(m, n, d):
                ranks = start_ranks(word)
                columns = range(1, len(word) + 1)
                expected = sorted(columns, key=lambda c: sweep_key(ranks[c - 1], c))
                assert sweep_order(word) == tuple(expected), word.text

    def test_no_ties_when_coprime(self):
        for (m, n, d) in PARAM_SETS:
            if d != 1:
                continue
            for word in all_dyck(m, n, d):
                ranks = start_ranks(word)
                assert len(set(ranks)) == len(ranks)


class TestSweep:
    def test_examples(self, p321, p112):
        assert sweep(parse_word("NENEE", p321)).text == "NNEEE"
        assert sweep(parse_word("NNEEE", p321)).text == "NENEE"
        assert sweep(parse_word("NENE", p112)).text == "NNEE"

    def test_image_is_dyck(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                assert is_dyck(sweep(word))

    def test_bijective_on_dyck_set(self):
        for (m, n, d) in PARAM_SETS:
            words = all_dyck(m, n, d)
            images = {sweep(w) for w in words}
            assert len(images) == len(words)
            assert images == set(words)

    def test_base_path_maps_to_corner(self):
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            assert sweep(base_path(params)) == corner_path(params)


class TestImageStartRank:
    def test_equals_image_ranks(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                image_ranks = start_ranks(sweep(word))
                for pos in range(1, len(word) + 1):
                    assert image_start_rank(word, pos) == image_ranks[pos - 1]

    def test_first_position_is_zero(self, p321):
        assert image_start_rank(parse_word("NENEE", p321), 1) == 0

    def test_preimage_column_example(self, p321):
        # position 4 of NENEE's sweep order is column 2, with two North
        # and one East step swept earlier: 2*3 - 1*2 = 4
        word = parse_word("NENEE", p321)
        assert sweep_order(word)[3] == 2
        assert image_start_rank(word, 4) == 4
        assert start_ranks(sweep(word))[3] == 4

    def test_rank_18_needs_4_norths_2_easts(self):
        # in the (7,5) grid a start rank of 18 = 4*7 - 2*5 can only come
        # from 4 North and 2 East steps swept earlier
        params = make_params(7, 5, 1)
        hits = 0
        for word in all_dyck(7, 5, 1):
            ranks = start_ranks(sweep(word))
            for pos, rank in enumerate(ranks, start=1):
                if rank != 18:
                    continue
                hits += 1
                order = sweep_order(word)
                earlier = [word.steps[c - 1] for c in order[: pos - 1]]
                assert earlier.count("N") == 4 and earlier.count("E") == 2
                assert image_start_rank(word, pos) == 18
        assert hits > 0

    def test_out_of_range(self, p321):
        with pytest.raises(IndexOutOfRange):
            image_start_rank(parse_word("NENEE", p321), 6)
        with pytest.raises(IndexOutOfRange):
            image_start_rank(parse_word("NENEE", p321), 0)


def _green_line_count(word, step):
    """The A + B count of green_line_rank in plain loop form: one line
    test per arrow, and clipping that assumes nothing about which side of
    the line an arrow starts on.  The arrow of column c with start rank r
    starts strictly below the line through the step's start iff r < level,
    or r == level and c > step."""
    m, n = word.params.m, word.params.n
    ranks = start_ranks(word)
    level = ranks[step - 1]
    above = below = 0
    for column, (letter, rank) in enumerate(zip(word.steps, ranks), start=1):
        starts_below = rank < level or (rank == level and column > step)
        if letter == "N":
            if starts_below:
                above += max(0, rank + m - max(level, rank))
        elif not starts_below:
            below += max(0, min(rank, level) - (rank - n))
    return above + below


class TestGreenLine:
    def test_worked_example(self, p321):
        # the up arrow of column 1 has two segments weakly above level 1
        # and the column-5 down arrow one segment below it: image rank 3
        assert green_line_rank(parse_word("NENEE", p321), 3) == 3

    def test_first_swept_step_counts_nothing(self):
        for (m, n, d) in PARAM_SETS[:5]:
            for word in all_dyck(m, n, d):
                first = sweep_order(word)[0]
                assert green_line_rank(word, first) == 0

    def test_equals_image_rank_everywhere(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                order = sweep_order(word)
                for position, step in enumerate(order, start=1):
                    assert green_line_rank(word, step) == image_start_rank(
                        word, position
                    )

    def test_equals_the_per_arrow_count(self):
        # includes the d > 1 sets, where a start can tie the line's level
        for (m, n, d) in WIDE_SETS:
            for word in all_dyck(m, n, d):
                counts = green_line_ranks(word)
                assert counts == tuple(
                    _green_line_count(word, step) for step in range(1, len(word) + 1)
                ), word.text

    def test_one_step_reads_the_whole_count(self):
        for word in all_dyck(3, 2, 2):
            counts = green_line_ranks(word)
            for step in range(1, len(word) + 1):
                assert green_line_rank(word, step) == counts[step - 1]

    def test_requires_dyck(self, p321):
        with pytest.raises(NotDyck):
            green_line_rank(parse_word("NEENE", p321), 1)
        with pytest.raises(NotDyck):
            green_line_ranks(parse_word("NEENE", p321))

    def test_step_out_of_range(self, p321):
        for step in (0, 6):
            with pytest.raises(IndexOutOfRange):
                green_line_rank(parse_word("NENEE", p321), step)

    def test_step_range_is_checked_before_counting(self, p321, monkeypatch):
        def uncalled(word):
            raise AssertionError("the whole path was counted")

        monkeypatch.setattr(sweeplab.sweeping, "green_line_ranks", uncalled)
        for step in (0, 6):
            with pytest.raises(IndexOutOfRange):
                green_line_rank(parse_word("NENEE", p321), step)


@pytest.mark.parametrize("value", [2.0, True, "2"])
@pytest.mark.parametrize(
    "reader", [image_start_rank, green_line_rank, render_diagram],
    ids=lambda reader: reader.__name__,
)
def test_non_int_position_refused(reader, value, p321, monkeypatch):
    # an int is required, so a bool is refused too, as for moves and jobs;
    # and before any green line is counted
    def uncalled(word):
        raise AssertionError("the whole path was counted")

    monkeypatch.setattr(sweeplab.sweeping, "green_line_ranks", uncalled)
    with pytest.raises(IndexOutOfRange, match="outside 1..5"):
        reader(parse_word("NENEE", p321), value)


class TestKeyOrder:
    def test_precedes(self):
        # the step with the smaller key, by (rank, column), is swept first
        assert sweep_key(0, 5) < sweep_key(1, 1)
        assert sweep_key(1, 4) < sweep_key(1, 2)  # rightmost first within a level
        assert not sweep_key(1, 2) < sweep_key(1, 4)
        assert not sweep_key(1, 2) < sweep_key(1, 2)


class TestUnsweep:
    def test_examples(self, p321):
        assert unsweep(parse_word("NNEEE", p321)).text == "NENEE"
        assert unsweep(parse_word("NENEE", p321)).text == "NNEEE"

    def test_corner_unsweeps_to_base(self):
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            assert unsweep(corner_path(params)) == base_path(params)

    def test_roundtrip(self):
        for (m, n, d) in WIDE_SETS:
            for word in all_dyck(m, n, d):
                assert unsweep(sweep(word)) == word

    def test_requires_dyck(self, p321):
        with pytest.raises(NotDyck):
            unsweep(parse_word("NEENE", p321))

    def test_limit_applies_on_a_cache_hit(self, p321):
        word = parse_word("NNEEE", p321)
        assert unsweep(word).text == "NENEE"
        # the table for (3,2,1) is cached now; the cap must still hold
        with pytest.raises(LimitExceeded):
            unsweep(word, limit=2)

    def test_table_equals_the_swept_enumeration(self):
        # built from the walk with no word, on the d = 2 and 3 sets too,
        # where rank ties go through the sort
        tables = sweeplab.sweeping._inverse_table
        tables.cache_clear()
        for (m, n, d) in WIDE_SETS:
            params = make_params(m, n, d)
            expected = {sweep(w).text: w.text for w in all_dyck(m, n, d)}
            assert decoded(tables(params), params) == expected

    def test_table_stays_small(self):
        # two ints per path: (13,8,1)'s 9,690 paths held 1.49 MiB as two
        # strings per path, and hold 0.79 MiB this way
        tables = sweeplab.sweeping._inverse_table
        tables.cache_clear()
        tracemalloc.start()
        try:
            tables(make_params(13, 8, 1))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20

    def test_unsweep_of_more_than_64_steps(self):
        # image codes are ints of any width, so a 66-step image is no overflow
        word = parse_word("N" + "E" * 65, make_params(65, 1))
        assert unsweep(word, limit=66) == word

    def test_a_wrong_sort_disagrees_with_the_walk_table(self, monkeypatch):
        # the table is the walk's counting sort, sweep is sweep_order's
        # comparison sort: a wrong tie rule, leftmost first, in the one no
        # longer reaches the other, so each is a check on the other
        params = make_params(3, 2, 2)
        true_table = {sweep(w).text: w.text for w in all_dyck(3, 2, 2)}

        def leftmost_first(word):
            ranks = start_ranks(word)
            return tuple(sorted(range(1, len(word) + 1), key=lambda c: ranks[c - 1]))

        tables = sweeplab.sweeping._inverse_table
        monkeypatch.setattr(sweeplab.sweeping, "sweep_order", leftmost_first)
        tables.cache_clear()
        try:
            table = decoded(tables(params), params)
            assert table == true_table
            assert any(
                sweep(parse_word(preimage, params)).text != image
                for image, preimage in table.items()
            )
        finally:
            tables.cache_clear()  # built under the fault, so not kept

    def test_cache_is_bounded(self):
        # one table, the latest set's: it hits, and the set before it misses
        tables = sweeplab.sweeping._inverse_table
        for (m, n, d) in PARAM_SETS[:3]:
            params = make_params(m, n, d)
            assert unsweep(corner_path(params)) == base_path(params)
        assert tables.cache_info().currsize == 1
        misses = tables.cache_info().misses
        unsweep(corner_path(make_params(*PARAM_SETS[2])))
        assert tables.cache_info().misses == misses
        unsweep(corner_path(make_params(*PARAM_SETS[1])))
        assert tables.cache_info().misses == misses + 1

    def test_one_table_is_held(self):
        # three sets in turn: four kept tables held all three, 2.81 MiB, and
        # one holds the last set's, 0.66 MiB
        sweeplab.sweeping._inverse_table.cache_clear()
        tracemalloc.start()
        try:
            for (m, n, d) in [(13, 8, 1), (7, 4, 2), (3, 2, 4)]:
                params = make_params(m, n, d)
                assert unsweep(corner_path(params)) == base_path(params)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20
