import re

import pytest

import sweeplab.paths
from sweeplab import (
    BadCounts,
    BadLetter,
    LimitExceeded,
    NonCoprime,
    NonPositive,
    NotDyck,
    StepWord,
    area_cells,
    base_path,
    corner_path,
    count_dyck,
    dinv_cell_list,
    dinv_pairs,
    enumerate_dyck,
    green_line_ranks,
    is_dyck,
    make_params,
    parse_word,
    run_checks,
    south_end_ranks,
    start_ranks,
    sweep,
    unsweep,
    valid_moves,
)
from sweeplab.paths import (
    _completions,
    _unrank,
    _walk,
    check_step_limit,
    hand_over_ranks,
)
from conftest import PARAM_SETS, WIDE_SETS, all_dyck


class TestParams:
    def test_valid(self):
        p = make_params(3, 2, 1)
        assert (p.m, p.n, p.d) == (3, 2, 1)
        assert make_params(7, 5, 1).step_count == 12

    def test_non_coprime(self):
        with pytest.raises(NonCoprime):
            make_params(4, 2, 1)

    @pytest.mark.parametrize(
        "m,n,d", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-3, 2, 1), (True, 2, 1)]
    )
    def test_non_positive(self, m, n, d):
        with pytest.raises(NonPositive):
            make_params(m, n, d)

    def test_derived_sizes(self):
        p = make_params(3, 2, 2)
        assert (p.east_count, p.north_count, p.rect_height) == (6, 4, 12)


class TestParseWord:
    def test_plain(self, p321):
        word = parse_word("NENEE", p321)
        assert word.text == "NENEE"
        assert word.steps[:2] == "NE"

    def test_synonyms(self, p321):
        assert parse_word("SWSWW", p321) == parse_word("NENEE", p321)

    def test_bad_counts(self, p321):
        with pytest.raises(BadCounts):
            parse_word("NNEE", p321)

    def test_bad_letter(self, p321):
        with pytest.raises(BadLetter):
            parse_word("NXNEE", p321)

    @pytest.mark.parametrize("steps", ["NXNEE", "NNEEX", "NXNEEE"])
    def test_step_word_rejects_a_letter_when_built(self, p321, steps):
        # the letters are counted as N and E, and a count that falls short
        # of the length names the first other letter, the last too, and
        # before the counts are checked
        with pytest.raises(BadLetter) as exc:
            StepWord(steps, p321)
        assert str(exc.value) == "letter 'X' is not N or E"

    def test_step_word_needs_a_str(self, p321):
        # a tuple or a list would pass the letter counts but never equal the
        # parsed word: a word has one representation
        assert StepWord("NENEE", p321) == parse_word("NENEE", p321)
        with pytest.raises(BadLetter):
            StepWord(("N", "E", "N", "E", "E"), p321)
        with pytest.raises(BadLetter):
            StepWord(["N", "E", "N", "E", "E"], p321)


    def test_error_messages(self, p321):
        with pytest.raises(BadCounts) as exc:
            parse_word("NNEE", p321)
        assert str(exc.value) == "word needs 2 N and 3 E letters, got 2 N and 2 E"
        with pytest.raises(BadCounts) as exc:
            StepWord("NNNEE", p321)
        assert str(exc.value) == "word needs 2 N and 3 E letters, got 3 N and 2 E"
        with pytest.raises(BadLetter) as exc:
            StepWord(("N", "E", "N", "E", "E"), p321)
        assert str(exc.value) == "steps must be a str of N and E letters, got tuple"
        with pytest.raises(BadLetter) as exc:
            parse_word("NXNEE", p321)
        assert str(exc.value) == "letter 'X' is not one of N, E, S, W"
        with pytest.raises(BadLetter) as exc:
            StepWord("NXNEE", p321)
        assert str(exc.value) == "letter 'X' is not N or E"


class TestRanks:
    @pytest.mark.parametrize(
        "text,m,n,d,expected",
        [
            ("NENEE", 3, 2, 1, (0, 3, 1, 4, 2)),
            ("NNEEE", 3, 2, 1, (0, 3, 6, 4, 2)),
            ("NNEE", 1, 1, 2, (0, 1, 2, 1)),
        ],
    )
    def test_start_ranks(self, text, m, n, d, expected):
        word = parse_word(text, make_params(m, n, d))
        assert start_ranks(word) == expected

    def test_final_vertex_rank_is_zero(self):
        for (m, n, d) in PARAM_SETS:
            for word in all_dyck(m, n, d):
                # the last step leads from its start rank back to rank 0
                last_step = m if word.steps[-1] == "N" else -n
                assert start_ranks(word)[-1] + last_step == 0

    def test_rank_recurrence(self):
        word = parse_word("NEENEEE", make_params(5, 2, 1))
        ranks = start_ranks(word) + (0,)
        for i, ch in enumerate(word.steps):
            assert ranks[i + 1] - ranks[i] == (5 if ch == "N" else -2)

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_enumeration_hands_over_its_ranks(self, m, n, d):
        params = make_params(m, n, d)
        for word in enumerate_dyck(params):
            # cached by the walk, before anything reads them
            assert "_ranks" in vars(word)
            assert start_ranks(word) == start_ranks(StepWord(word.steps, params))

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_walk_yields_the_letters_and_ranks_of_each_path(self, m, n, d):
        # the walk yields the same two lists each time, so each is copied
        params = make_params(m, n, d)
        walked = [("".join(steps), tuple(ranks)) for steps, ranks, _, _ in _walk(params)]
        assert walked == [(w.steps, start_ranks(w)) for w in enumerate_dyck(params)]

    @pytest.mark.parametrize("m,n,d", PARAM_SETS)
    def test_walk_yields_only_dyck_paths_with_their_own_ranks(self, m, n, d):
        # enumerate, table and the unsweep table read the walk with no
        # per-path check, so the walk must guarantee what such a check tests
        params = make_params(m, n, d)
        for steps, ranks, _, _ in _walk(params):
            assert set(steps) <= {"N", "E"}
            assert steps.count("N") == d * n and steps.count("E") == d * m
            assert min(ranks) >= 0
            assert tuple(ranks) == start_ranks(StepWord("".join(steps), params))

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_walk_yields_the_first_letter_it_rewrote(self, m, n, d):
        # stats._walk_counts keeps its running sums below lo, so lo must be
        # the first letter that changed, and a North step of the previous
        # path: the counts before it, and the East ranks, stay valid
        previous = None
        for steps, _, lo, _ in _walk(make_params(m, n, d)):
            if previous is None:
                assert lo == 0
            else:
                changed = next(i for i, (a, b) in enumerate(zip(previous, steps)) if a != b)
                assert lo == changed
                assert previous[lo] == "N"
            previous = tuple(steps)

    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_walk_holds_each_image_in_its_rank_slots(self, m, n, d):
        # the unsweep table and enumerate read the image off this buffer,
        # a counting sort of the steps, with no sort of their own: it must
        # hold one letter per step, in the order that sweep's sort gives
        params = make_params(m, n, d)
        walked = _walk(params)
        for word, (_, ranks, _, swept) in zip(enumerate_dyck(params), walked, strict=True):
            assert len(swept) - swept.count(0) == params.step_count
            assert swept.translate(None, b"\0").decode() == sweep(word).text
            assert 0 <= min(ranks) and max(ranks) <= params.rect_height
            assert max(map(ranks.count, ranks)) <= d


class TestIsDyck:
    def test_examples(self, p321):
        assert is_dyck(parse_word("NENEE", p321))
        assert not is_dyck(parse_word("NEENE", p321))
        assert not is_dyck(parse_word("ENNEE", p321))

    def test_matches_vertex_ranks(self):
        for (m, n, d) in PARAM_SETS[:4]:
            for word in all_dyck(m, n, d):
                assert min(start_ranks(word) + (0,)) >= 0

    def test_the_verdict_is_computed_once_per_word(self, p321):
        word = parse_word("NEENE", p321)
        assert not is_dyck(word)
        hand_over_ranks(word, (0,) * len(word))  # ranks that would pass
        assert not is_dyck(word)

    def test_every_kernel_asks_is_dyck(self, monkeypatch, p321):
        # the verdict is cached on the word, but each kernel's Dyck check
        # still goes through is_dyck, so a broken verdict reaches them all
        monkeypatch.setattr(sweeplab.paths, "is_dyck", lambda word: False)
        word = parse_word("NENEE", p321)
        kernels = (area_cells, dinv_pairs, dinv_cell_list, south_end_ranks,
                   green_line_ranks, valid_moves)
        for kernel in kernels:
            with pytest.raises(NotDyck):
                kernel(word)


class TestEnumerate:
    def test_321(self):
        assert [w.text for w in all_dyck(3, 2, 1)] == ["NNEEE", "NENEE"]

    def test_112(self):
        assert [w.text for w in all_dyck(1, 1, 2)] == ["NNEE", "NENE"]

    def test_521(self):
        assert [w.text for w in all_dyck(5, 2, 1)] == [
            "NNEEEEE",
            "NENEEEE",
            "NEENEEE",
        ]

    def test_lexicographic_order(self):
        # N sorts before E
        key = {"N": 0, "E": 1}
        for (m, n, d) in PARAM_SETS:
            texts = [[key[c] for c in w.text] for w in all_dyck(m, n, d)]
            assert texts == sorted(texts)

    def test_all_results_are_dyck_and_distinct(self):
        for (m, n, d) in PARAM_SETS:
            words = all_dyck(m, n, d)
            assert len(set(words)) == len(words)
            assert all(is_dyck(w) for w in words)

    def test_long_paths_do_not_recurse(self):
        # 1200 steps: one stack frame per step would pass the recursion limit
        first = next(enumerate_dyck(make_params(1, 1, 600), limit=2000))
        assert first == corner_path(make_params(1, 1, 600))

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_dyck(make_params(23, 21, 1)))
        # an explicit limit overrides the default
        assert len(list(enumerate_dyck(make_params(3, 2, 1), limit=5))) == 2
        with pytest.raises(LimitExceeded):
            enumerate_dyck(make_params(3, 2, 1), limit=4)

    def test_non_positive_limit(self):
        # rejected before any step count; so are a bool and a float, a
        # misuse rather than a cap of 1 or 40
        for limit in (0, -5, True, 40.5):
            with pytest.raises(ValueError, match="limit must be a positive integer"):
                enumerate_dyck(make_params(3, 2, 1), limit=limit)

    @pytest.mark.parametrize(
        "limit,error,message",
        [
            (4, LimitExceeded, "5 steps exceed the enumeration limit 4"),
            (1, LimitExceeded, "5 steps exceed the enumeration limit 1"),
            (0, ValueError, "limit must be a positive integer, got 0"),
        ],
    )
    def test_every_enumerating_call_refuses_with_one_check(self, limit, error, message):
        params = make_params(3, 2, 1)
        calls = [
            lambda: check_step_limit(params, limit),
            lambda: enumerate_dyck(params, limit),
            lambda: run_checks(params, limit),
            lambda: unsweep(corner_path(params), limit),
        ]
        for call in calls:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call()


class TestCount:
    @pytest.mark.parametrize(
        "m,n,d,expected", [(3, 2, 1, 2), (5, 2, 1, 3), (7, 5, 1, 66), (1, 1, 2, 2)]
    )
    def test_frozen_counts(self, m, n, d, expected):
        assert count_dyck(make_params(m, n, d)) == expected

    def test_matches_enumeration(self):
        for (m, n, d) in PARAM_SETS:
            assert count_dyck(make_params(m, n, d)) == len(all_dyck(m, n, d))

    def test_no_limit_on_counting(self):
        assert count_dyck(make_params(23, 21, 1)) > 0

    def test_completion_table_counts_the_same_paths(self):
        # the unsweep table's counts and count_dyck's one-row DP check each other
        for (m, n, d) in PARAM_SETS + WIDE_SETS:
            params = make_params(m, n, d)
            assert _completions(params)[0] == count_dyck(params)


class TestUnrank:
    @pytest.mark.parametrize("m,n,d", WIDE_SETS)
    def test_unrank_rebuilds_each_enumerated_word(self, m, n, d):
        # unsweep keeps only an index per path, so every index, d = 2 and 3
        # included, must give back that word of the enumeration
        params = make_params(m, n, d)
        ups = _completions(params)[1:]
        for index, word in enumerate(all_dyck(m, n, d)):
            assert _unrank(params, index, ups) == word.text


class TestBasePath:
    @pytest.mark.parametrize(
        "m,n,d,expected",
        [(3, 2, 1, "NENEE"), (1, 1, 2, "NENE"), (5, 2, 1, "NEENEEE")],
    )
    def test_greedy_construction(self, m, n, d, expected):
        assert base_path(make_params(m, n, d)).text == expected

    def test_is_dyck(self):
        for (m, n, d) in PARAM_SETS:
            assert is_dyck(base_path(make_params(m, n, d)))

    def test_corner_path(self):
        assert corner_path(make_params(3, 2, 1)).text == "NNEEE"
        assert corner_path(make_params(2, 1, 3)).text == "NNNEEEEEE"


class TestSouthEndRanks:
    def test_examples(self, p321):
        assert south_end_ranks(parse_word("NNEEE", p321)) == (0, 3)
        assert south_end_ranks(parse_word("NENEE", p321)) == (0, 1)

    def test_not_dyck(self, p321):
        with pytest.raises(NotDyck):
            south_end_ranks(parse_word("NEENE", p321))

    def test_base_path_ranks_rearrange_residues(self):
        # the area-0 path's South ranks are 0..n-1, each d times
        for (m, n, d) in PARAM_SETS:
            params = make_params(m, n, d)
            ranks = south_end_ranks(base_path(params))
            assert sorted(ranks) == sorted(list(range(n)) * d)

    def test_distinct_ranks_when_coprime(self):
        for (m, n, d) in PARAM_SETS:
            if d != 1:
                continue
            for word in all_dyck(m, n, d):
                ranks = start_ranks(word)
                assert len(set(ranks)) == len(ranks)
