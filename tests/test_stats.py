import collections

import pytest

from sweeplab import (
    EAST,
    NORTH,
    NotDyck,
    area_cells,
    area_rank_formula,
    base_path,
    corner_path,
    dinv_cell_list,
    dinv_cells,
    dinv_pairs,
    enumerate_dyck,
    joint_distribution,
    make_params,
    max_stat,
    parse_word,
    south_end_ranks,
    start_ranks,
    sweep,
)
from sweeplab.stats import _walk_counts
from conftest import PARAM_SETS, WIDE_SETS, all_dyck


def area_by_cells(word):
    """Reference area: test every cell (x, y) of the grid on its own."""
    m, n = word.params.m, word.params.n
    norths = [i for i, ch in enumerate(word.steps) if ch == NORTH]
    easts = [i for i, ch in enumerate(word.steps) if ch == EAST]
    total = 0
    for y, npos in enumerate(norths):
        for x, epos in enumerate(easts):
            if npos < epos and m * y - n * (x + 1) >= 0:
                total += 1
    return total


def dinv_by_pairs(word):
    """Reference dinv: test every (East, later North) step pair on its own."""
    m, n = word.params.m, word.params.n
    ranks = start_ranks(word)
    total = 0
    for i, ch_i in enumerate(word.steps):
        if ch_i != EAST:
            continue
        a = ranks[i]
        for j in range(i + 1, len(word)):
            if word.steps[j] == NORTH and 0 <= a - ranks[j] < m + n:
                total += 1
    return total


class TestAreaCells:
    @pytest.mark.parametrize(
        "text,m,n,d,expected",
        [("NNEEE", 3, 2, 1, 1), ("NENEE", 3, 2, 1, 0), ("NNEE", 1, 1, 2, 1)],
    )
    def test_examples(self, text, m, n, d, expected):
        assert area_cells(parse_word(text, make_params(m, n, d))) == expected

    def test_requires_dyck(self, p321):
        with pytest.raises(NotDyck):
            area_cells(parse_word("NEENE", p321))

    def test_bounds(self):
        for (m, n, d) in PARAM_SETS:
            top = max_stat(make_params(m, n, d))
            for word in all_dyck(m, n, d):
                assert 0 <= area_cells(word) <= top

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_equals_the_per_cell_count(self, m, n, d):
        for word in all_dyck(m, n, d):
            assert area_cells(word) == area_by_cells(word), word.text


class TestAreaRankFormula:
    def test_examples(self, p321):
        assert area_rank_formula(parse_word("NNEEE", p321)) == 1
        corner75 = corner_path(make_params(7, 5, 1))
        assert south_end_ranks(corner75) == (0, 7, 14, 21, 28)
        assert area_rank_formula(corner75) == 12

    def test_base_path_has_area_zero(self):
        for (m, n, d) in PARAM_SETS:
            assert area_rank_formula(base_path(make_params(m, n, d))) == 0

    def test_agrees_with_cells(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                assert area_rank_formula(word) == area_cells(word)


class TestLeastRowRank:
    # the least nonnegative cell rank in grid row j is (m*j) mod n

    def test_sum_identity(self):
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            total = sum((m * j) % n for j in range(params.north_count))
            assert total == d * n * (n - 1) // 2

    def test_per_row_area_decomposition(self):
        # (south rank - least row rank)/n is a nonnegative integer per
        # grid row, and the contributions sum to the area
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            for word in all_dyck(m, n, d):
                souths = south_end_ranks(word)
                contributions = []
                for j in range(params.north_count):
                    q, r = divmod(souths[j] - (m * j) % n, n)
                    assert r == 0 and q >= 0
                    contributions.append(q)
                assert sum(contributions) == area_cells(word)


class TestDinv:
    @pytest.mark.parametrize(
        "text,m,n,d,expected",
        [("NENEE", 3, 2, 1, 1), ("NNEEE", 3, 2, 1, 0), ("NENE", 1, 1, 2, 1)],
    )
    def test_pairs_examples(self, text, m, n, d, expected):
        assert dinv_pairs(parse_word(text, make_params(m, n, d))) == expected

    def test_cells_examples(self, p321):
        assert dinv_cell_list(parse_word("NENEE", p321)) == [(0, 1)]
        assert dinv_cells(parse_word("NNEEE", p321)) == 0

    def test_cells_equal_pairs(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                assert dinv_cells(word) == dinv_pairs(word)

    def test_base_path_every_cell_above_contributes(self):
        # cells above the area-0 path: all dm*dn minus those below it
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            base = base_path(params)
            norths = [i for i, ch in enumerate(base.steps) if ch == "N"]
            easts = [i for i, ch in enumerate(base.steps) if ch == "E"]
            above = sum(
                1
                for npos in norths
                for epos in easts
                if epos < npos
            )
            assert dinv_cells(base) == above == max_stat(params)

    def test_requires_dyck(self, p321):
        with pytest.raises(NotDyck):
            dinv_pairs(parse_word("NEENE", p321))

    def test_bounds(self):
        for (m, n, d) in PARAM_SETS:
            top = max_stat(make_params(m, n, d))
            for word in all_dyck(m, n, d):
                assert 0 <= dinv_pairs(word) <= top

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_equals_the_per_pair_count(self, m, n, d):
        for word in all_dyck(m, n, d):
            assert dinv_pairs(word) == dinv_by_pairs(word), word.text


class TestMaxStat:
    @pytest.mark.parametrize(
        "m,n,d,expected", [(3, 2, 1, 1), (1, 1, 2, 1), (7, 5, 1, 12)]
    )
    def test_formula_instances(self, m, n, d, expected):
        assert max_stat(make_params(m, n, d)) == expected

    def test_extremes(self):
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            top = max_stat(params)
            assert dinv_pairs(base_path(params)) == top
            assert area_cells(corner_path(params)) == top
            observed_area = max(area_cells(w) for w in all_dyck(m, n, d))
            observed_dinv = max(dinv_pairs(w) for w in all_dyck(m, n, d))
            assert observed_area == observed_dinv == top


class TestDinvSweepsToArea:
    def test_dinv_sweeps_to_area(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                assert dinv_pairs(word) == area_cells(sweep(word))


class TestWalkCounts:
    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_running_sums_equal_the_word_kernels(self, m, n, d):
        # path by path, with d > 1 and its rank ties included: the word
        # kernels are the reference for the sums kept along the walk
        walked = [
            ("".join(steps), area, dinv)
            for steps, _, area, dinv in _walk_counts(make_params(m, n, d))
        ]
        assert walked == [
            (w.steps, area_cells(w), dinv_pairs(w)) for w in all_dyck(m, n, d)
        ]


class TestJointDistribution:
    def test_321_table(self, p321):
        table = joint_distribution(p321)
        assert dict(table.counts) == {(1, 0): 1, (0, 1): 1}
        assert sum(table.counts.values()) == 2

    def test_112_table(self, p112):
        assert dict(joint_distribution(p112).counts) == {(1, 0): 1, (0, 1): 1}

    def test_marginals_agree_everywhere(self):
        for (m, n, d) in PARAM_SETS:
            table = joint_distribution(make_params(m, n, d))
            assert table.marginals_agree()
            assert sum(table.counts.values()) == len(all_dyck(m, n, d))

    @pytest.mark.parametrize("m,n,d", PARAM_SETS)
    def test_counts_equal_the_word_level_tally(self, m, n, d):
        # the table reads the walk's running sums; the wrappers on each
        # enumerated word are the reference
        tally = collections.Counter(
            (area_cells(w), dinv_pairs(w)) for w in enumerate_dyck(make_params(m, n, d))
        )
        assert dict(joint_distribution(make_params(m, n, d)).counts) == tally

    def test_csv_shape(self, p321):
        assert joint_distribution(p321).to_csv() == (
            "area,dinv,count\n0,1,1\n1,0,1\n"
        )

    def test_matrix_text(self, p321):
        text = joint_distribution(p321).to_matrix_text()
        lines = text.splitlines()
        assert lines[0].startswith("area\\dinv")
        assert len(lines) == 1 + max_stat(p321) + 1
