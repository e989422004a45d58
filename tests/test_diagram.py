import itertools

import pytest

from sweeplab import (
    PathDiagram,
    build_diagram,
    check_row_structure,
    is_dyck,
    make_params,
    parse_word,
    start_ranks,
)
from sweeplab.diagram import BLUE, RED
from conftest import PARAM_SETS, all_dyck, arrangements, row_segments


def _colors(segs):
    return [color for _, color in segs]


def rows_alternate(diagram):
    """check_row_structure in list-compare form: every row's colors, as
    row_segments lists them, equal (red, blue) repeated."""
    for segs in row_segments(diagram).values():
        if _colors(segs) != [RED, BLUE] * (len(segs) // 2):
            return False
    return True


def _arrow_tuples(word_text, m, n, d=1):
    word = parse_word(word_text, make_params(m, n, d))
    return [(a.column, a.color, a.start_rank) for a in build_diagram(word).arrows]


class TestBuildDiagram:
    def test_nneee(self):
        assert _arrow_tuples("NNEEE", 3, 2) == [
            (1, RED, 0),
            (2, RED, 3),
            (3, BLUE, 6),
            (4, BLUE, 4),
            (5, BLUE, 2),
        ]

    def test_nenee(self):
        assert _arrow_tuples("NENEE", 3, 2) == [
            (1, RED, 0),
            (2, BLUE, 3),
            (3, RED, 1),
            (4, BLUE, 4),
            (5, BLUE, 2),
        ]

    def test_nnee_dilated(self):
        assert _arrow_tuples("NNEE", 1, 1, 2) == [
            (1, RED, 0),
            (2, RED, 1),
            (3, BLUE, 2),
            (4, BLUE, 1),
        ]

    @pytest.mark.parametrize("m,n,d", PARAM_SETS)
    def test_equals_the_per_column_reference(self, m, n, d):
        for word in arrangements(m, n, d):
            ranks = start_ranks(word)
            expected = tuple(
                (c, RED if word.steps[c - 1] == "N" else BLUE, ranks[c - 1])
                for c in range(1, len(word) + 1)
            )
            assert build_diagram(word).arrows == expected, word.text


class TestSegmentsInRow:
    def test_row2(self, p321):
        diagram = build_diagram(parse_word("NNEEE", p321))
        assert row_segments(diagram)[2] == [(1, RED), (4, BLUE)]

    def test_row5(self, p321):
        diagram = build_diagram(parse_word("NNEEE", p321))
        assert row_segments(diagram)[5] == [(2, RED), (3, BLUE)]

    def test_empty_row_above_all_arrows(self, p321):
        # NENEE's arrows top out at level 4, so rows 4 and 5 are empty
        rows = row_segments(build_diagram(parse_word("NENEE", p321)))
        assert max(rows) == 3

    def test_column_crosses_row_at_most_once(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                for segs in row_segments(build_diagram(word)).values():
                    columns = [c for c, _ in segs]
                    assert len(set(columns)) == len(columns)
                    assert columns == sorted(columns)


class TestRowCounts:
    def test_rows_of_nneee(self, p321):
        rows = row_segments(build_diagram(parse_word("NNEEE", p321)))
        assert sorted(_colors(rows[2])) == [BLUE, RED]
        assert sorted(_colors(rows[0])) == [BLUE, RED]

    def test_total_segment_count(self):
        # every up arrow spans m rows and every down arrow n rows, so both
        # colors contribute dmn segments in total
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                colors = [
                    color
                    for segs in row_segments(build_diagram(word)).values()
                    for color in _colors(segs)
                ]
                assert colors.count(RED) == colors.count(BLUE) == d * m * n

    def test_zero_row_count_holds_even_off_dyck(self, p321):
        # the arrows chain into one closed zigzag from level 0 back to
        # level 0, so red and blue counts agree in every row for any
        # complete word; it is the alternation start color, not c(j),
        # that detects non-Dyck words
        rows = row_segments(build_diagram(parse_word("NEENE", p321)))
        assert min(rows) == -1
        for segs in rows.values():
            assert _colors(segs).count(RED) == _colors(segs).count(BLUE)


class TestRowStructure:
    def test_all_dyck_words_alternate(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                assert check_row_structure(build_diagram(word))

    def test_dilated_example(self, p112):
        assert check_row_structure(build_diagram(parse_word("NENE", p112)))

    def test_non_dyck_fails(self, p321):
        # NEENE dips to rank -1; its row at level -1 starts with a blue
        # segment, which the row walk catches
        word = parse_word("NEENE", p321)
        assert not is_dyck(word)
        diagram = build_diagram(word)
        rows = row_segments(diagram)
        assert min(rows) == -1 and rows[-1][0][1] == BLUE
        assert not check_row_structure(diagram)

    def test_equals_the_list_compare_on_every_arrangement(self):
        for (m, n, d) in PARAM_SETS:
            outcomes = set()
            for word in arrangements(m, n, d):
                diagram = build_diagram(word)
                assert check_row_structure(diagram) == rows_alternate(diagram), word.text
                outcomes.add(check_row_structure(diagram))
            assert outcomes == {True, False}

    def test_any_arrows_in_any_order(self, p321):
        # the walk reads the arrows in tuple order, as row_segments lists them;
        # a selection of a word's arrows can leave a row unbalanced, and
        # the empty selection passes
        outcomes = set()
        for text in ("NNEEE", "NEENE"):
            arrows = build_diagram(parse_word(text, p321)).arrows
            for size in range(len(arrows) + 1):
                for order in itertools.permutations(arrows, size):
                    diagram = PathDiagram(p321, order)
                    outcome = check_row_structure(diagram)
                    assert outcome == rows_alternate(diagram), order
                    outcomes.add(outcome)
        assert outcomes == {True, False}
        assert check_row_structure(PathDiagram(p321, ()))

    def test_alternation_prefix_suffix_balance(self):
        # before any red segment the row holds equally many reds and
        # blues; after it, exactly one more blue than red
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                for segs in row_segments(build_diagram(word)).values():
                    for i, (_, color) in enumerate(segs):
                        if color != RED:
                            continue
                        before = [c for _, c in segs[:i]]
                        after = [c for _, c in segs[i + 1 :]]
                        assert before.count(RED) == before.count(BLUE)
                        assert after.count(BLUE) == after.count(RED) + 1
