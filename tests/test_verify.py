import collections
import os
import subprocess
import sys
import time

import pytest

import sweeplab.diagram
import sweeplab.paths
import sweeplab.recursion
import sweeplab.stats
import sweeplab.sweeping
from sweeplab import (
    CHECK_NAMES,
    apply_move,
    base_path,
    corner_path,
    dinv_recursion_delta,
    make_params,
    parse_word,
    run_checks,
    start_ranks,
    valid_moves,
)
from sweeplab.cli import main
from conftest import PARAM_SETS, all_dyck, rebuilt, subprocess_env

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def test_thirteen_named_checks():
    assert len(CHECK_NAMES) == 13
    results = run_checks(make_params(3, 2, 1))
    assert [r.name for r in results] == list(CHECK_NAMES)


@pytest.mark.parametrize("m,n,d", PARAM_SETS)
def test_all_checks_pass(m, n, d):
    for result in run_checks(make_params(m, n, d)):
        assert result.passed, (result.name, result.failures[:1])
        assert result.checked > 0


def test_jobs_give_identical_results(monkeypatch):
    true_dinv = sweeplab.stats.dinv_pairs
    for broken in (False, True):
        if broken:
            # forked workers inherit the patch, so the failure messages
            # match the serial run one for one
            monkeypatch.setattr(
                sweeplab.stats, "dinv_pairs", lambda word: true_dinv(word) + 1
            )
        for m, n, d in [(7, 5, 1), (5, 3, 2)]:
            baseline = run_checks(make_params(m, n, d))
            assert all(r.passed for r in baseline) != broken
            for jobs in (2, 5):
                assert run_checks(make_params(m, n, d), jobs=jobs) == baseline


@needs_fork
def test_jobs_are_clamped(monkeypatch):
    forks = []
    true_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return true_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # plenty of CPUs, so the path count is the binding clamp
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    baseline = run_checks(make_params(3, 2, 1))
    assert forks == []
    assert run_checks(make_params(3, 2, 1), jobs=10**6) == baseline
    assert len(forks) == 1  # one worker per path, and this process runs the first

    # three CPUs bind at (7,5,1), 66 paths: two children and this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    params = make_params(7, 5, 1)
    assert run_checks(params, jobs=10**6) == run_checks(params)
    assert len(forks) == 3

    monkeypatch.delattr(os, "fork")
    assert run_checks(make_params(3, 2, 1), jobs=10**6) == baseline
    assert len(forks) == 3  # no fork: the pass runs serially


def _two_cpus(monkeypatch):
    """Two workers for jobs=2, also on a single CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _failing_on(monkeypatch, texts, failure):
    """Make area_rank_formula call failure(word) on the paths in texts."""
    true_formula = sweeplab.stats.area_rank_formula

    def formula(word):
        if word.text in texts:
            failure(word)
        return true_formula(word)

    monkeypatch.setattr(sweeplab.stats, "area_rank_formula", formula)


def _raise_value_error(word):
    raise ValueError(f"no formula for {word.text}")


@needs_fork
@pytest.mark.parametrize("first_range_too", [False, True])
def test_a_child_range_exception_is_raised_as_with_one_job(monkeypatch, first_range_too):
    _two_cpus(monkeypatch)
    words = all_dyck(7, 5, 1)
    # words[-2] is in the child's range; words[3] in the caller's, which
    # raises first and so must win, as with one job
    texts = {words[3].text, words[-2].text} if first_range_too else {words[-2].text}
    _failing_on(monkeypatch, texts, _raise_value_error)
    params = make_params(7, 5, 1)
    with pytest.raises(ValueError) as serial:
        run_checks(params)
    with pytest.raises(ValueError) as parallel:
        run_checks(params, jobs=2)
    first = words[3] if first_range_too else words[-2]
    assert str(parallel.value) == str(serial.value) == f"no formula for {first.text}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_child_that_exits_without_a_result_raises_runtime_error(monkeypatch):
    _two_cpus(monkeypatch)
    words = all_dyck(7, 5, 1)
    _failing_on(monkeypatch, {words[-2].text}, lambda word: os._exit(3))
    with pytest.raises(RuntimeError, match=r"paths \[33, None\) .*\(exit status 3\)"):
        run_checks(make_params(7, 5, 1), jobs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_exception_in_the_callers_range_leaves_no_child(monkeypatch, error):
    _two_cpus(monkeypatch)
    caller = os.getpid()
    words = all_dyck(7, 5, 1)

    def failure(word):
        if os.getpid() == caller:
            raise error(word.text)

    # the caller's first path raises while the child stops on its first
    # path for a minute: the caller kills it rather than join it
    _failing_on(monkeypatch, {words[0].text}, failure)
    true_valid_moves = sweeplab.recursion.valid_moves

    def valid_moves(word):
        if os.getpid() != caller and word == words[33]:
            time.sleep(60)
        return true_valid_moves(word)

    monkeypatch.setattr(sweeplab.recursion, "valid_moves", valid_moves)
    started = time.monotonic()
    with pytest.raises(error, match=words[0].text):
        run_checks(make_params(7, 5, 1), jobs=2)
    assert time.monotonic() - started < 30  # the sleeping child was killed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_calling_process_checks_the_step_limit_once(monkeypatch, jobs):
    _two_cpus(monkeypatch)
    calls = []
    true_check = sweeplab.paths.check_step_limit

    def counted_check(params, limit=None):
        calls.append(limit)  # a child appends to its own copy
        return true_check(params, limit)

    monkeypatch.setattr(sweeplab.paths, "check_step_limit", counted_check)
    assert all(result.passed for result in run_checks(make_params(7, 5, 1), jobs=jobs))
    assert calls == [None]


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5])
def test_non_positive_jobs_are_refused_before_any_work(jobs, monkeypatch):
    # the same ValueError as a non-positive limit, so the CLI exits 4; True
    # and 2.5 are refused as well, as Params refuses them, though a bare
    # comparison with 1 would let them run
    def no_enumeration(params, limit=None):
        raise AssertionError("enumerated before the jobs check")

    monkeypatch.setattr(sweeplab.paths, "enumerate_dyck", no_enumeration)
    with pytest.raises(ValueError, match="jobs must be a positive integer"):
        run_checks(make_params(3, 2, 1), jobs=jobs)


def test_import_does_not_load_multiprocessing():
    # render loads only for the render command; jobs > 1 forks with no
    # pool, and jobs=1 forks nothing and loads no fork machinery
    script = (
        "import os, sys, sweeplab, sweeplab.cli\n"
        "unwanted = ('multiprocessing', 'concurrent.futures', 'sweeplab.render')\n"
        "print([name for name in unwanted if name in sys.modules])\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "results = sweeplab.run_checks(sweeplab.make_params(7, 5, 1), jobs=1)\n"
        "assert all(result.passed for result in results)\n"
        "print([name for name in ('pickle', 'signal') if name in sys.modules], forks)\n"
        "results = sweeplab.run_checks(sweeplab.make_params(7, 5, 1), jobs=2)\n"
        "assert all(result.passed for result in results)\n"
        "print([name for name in unwanted[:2] if name in sys.modules], forks)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n[] []\n[] [1]\n"), proc.stderr


def test_import_does_not_load_dataclasses():
    # the records are named tuples; compared with the modules loaded before
    # the import, since site may load either module first
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sweeplab, sweeplab.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_checked_volumes(p321, monkeypatch):
    by_name = {r.name: r.checked for r in run_checks(p321)}
    assert by_name["dinv-sweeps-to-area"] == 2  # paths
    assert by_name["green-line-rank"] == 10  # steps
    assert by_name["area-recursion"] == 1  # valid moves

    # a word whose image is not Dyck skips its other checks, but its moves
    # and steps still count
    not_dyck = parse_word("ENNEE", p321)
    monkeypatch.setattr(sweeplab.sweeping, "sweep", lambda word: not_dyck)
    results = {r.name: r for r in run_checks(p321)}
    assert len(results["image-is-dyck"].failures) == 2
    for name in ("rank-difference", "area-recursion", "dinv-recursion",
                 "cross-identities", "green-line-rank"):
        assert results[name].checked == by_name[name]


def test_each_path_is_swept_and_its_area_counted_once(monkeypatch):
    calls = collections.Counter()

    def count_calls(module, name):
        true_fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return true_fn(*args)

        monkeypatch.setattr(module, name, counted)

    count_calls(sweeplab.sweeping, "sweep")
    count_calls(sweeplab.stats, "area_cells")
    count_calls(sweeplab.stats, "dinv_pairs")
    count_calls(sweeplab.sweeping, "green_line_ranks")
    assert all(r.passed for r in run_checks(make_params(7, 5, 1)))
    # one green-line count per path covers all of its steps
    assert calls["green_line_ranks"] == 66
    # 66 paths, each swept once whether first met as a path or as a swapped
    # word, and the base path
    assert calls["sweep"] == 67
    # 66 paths, their 66 images and the corner path
    assert calls["area_cells"] == 133
    # 66 paths and the base path
    assert calls["dinv_pairs"] == 67


def test_ranks_are_computed_only_for_new_words(monkeypatch):
    computed = []
    ranks_slot = sweeplab.paths.StepWord.__dict__["_ranks"]
    true_ranks = ranks_slot.func

    def counted(word):
        computed.append(word.text)
        return true_ranks(word)

    monkeypatch.setattr(ranks_slot, "func", counted)
    assert all(r.passed for r in run_checks(make_params(7, 5, 1)))
    # the 66 paths and their 144 swapped words are handed their ranks:
    # only the 66 images, the base path and the corner path compute theirs
    assert len(computed) == 68


def test_each_move_builds_one_swapped_word(monkeypatch):
    built = collections.Counter()
    true_step_word = sweeplab.recursion.StepWord

    def counted(steps, params):
        built["words"] += 1
        return true_step_word(steps, params)

    # _apply_move is the only StepWord constructor in recursion
    monkeypatch.setattr(sweeplab.recursion, "StepWord", counted)
    results = {r.name: r for r in run_checks(make_params(7, 5, 1))}
    assert all(r.passed for r in results.values())
    # one swapped word per move that rank_difference_check checks
    assert built["words"] == results["rank-difference"].checked == 144


def test_each_move_is_swapped_once(monkeypatch):
    # verify swaps each move through _apply_move, once; _region_counts and
    # _rank_band read the same checked move but build no word
    calls = collections.Counter()
    true_apply_move = sweeplab.recursion._apply_move
    true_step_word = sweeplab.recursion.StepWord

    def counted_apply_move(word, p, k):
        calls["apply_move"] += 1
        return true_apply_move(word, p, k)

    def counted_step_word(steps, params):
        calls["built"] += 1
        return true_step_word(steps, params)

    # verify resolves _apply_move through the module
    monkeypatch.setattr(sweeplab.recursion, "_apply_move", counted_apply_move)
    monkeypatch.setattr(sweeplab.recursion, "StepWord", counted_step_word)
    assert all(r.passed for r in run_checks(make_params(7, 5, 1)))
    # 144 valid moves over the 66 paths of (7,5,1)
    assert (calls["apply_move"], calls["built"]) == (144, 144)


def test_each_move_is_checked_once(monkeypatch):
    # verify checks each move once and hands the checked (p, k) to the
    # private forms, which run no check of their own
    calls = collections.Counter()
    true_check_move = sweeplab.recursion._check_move
    true_step_word = sweeplab.recursion.StepWord

    def counted_check_move(word, move):
        calls["checked"] += 1
        return true_check_move(word, move)

    def counted_step_word(steps, params):
        calls["built"] += 1
        return true_step_word(steps, params)

    # verify and the move readers resolve _check_move through the module
    monkeypatch.setattr(sweeplab.recursion, "_check_move", counted_check_move)
    monkeypatch.setattr(sweeplab.recursion, "StepWord", counted_step_word)
    results = {r.name: r for r in run_checks(make_params(7, 5, 1))}
    assert all(r.passed for r in results.values())
    assert results["rank-difference"].checked == 144
    assert (calls["checked"], calls["built"]) == (144, 144)


def _reversed_after_nne(params):
    """A broken sweep: the image reversed, so not Dyck, on every word that
    starts NNE except the corner path."""
    corner = corner_path(params)
    true_sweep = sweeplab.sweeping.sweep

    def broken(word):
        image = true_sweep(word)
        if word.text.startswith("NNE") and word != corner:
            return type(image)(image.steps[::-1], image.params)
        return image

    return broken


def test_non_dyck_image_of_a_swapped_word_is_recorded(monkeypatch, capsys):
    params = make_params(5, 3, 1)
    monkeypatch.setattr(sweeplab.sweeping, "sweep", _reversed_after_nne(params))
    results = run_checks(params)
    by_name = {r.name: r for r in results}
    assert not by_name["image-is-dyck"].passed
    assert any(f.endswith(" direct=undefined") for f in by_name["area-recursion"].failures)
    assert run_checks(params, jobs=2) == results
    # a counterexample, not an input error
    assert main(["verify", "--m", "5", "--n", "3"]) == 1
    assert "FAIL area-recursion: " in capsys.readouterr().out


@needs_fork
def test_last_range_runs_to_the_end_of_the_enumeration(monkeypatch):
    true_enumerate = sweeplab.paths.enumerate_dyck

    def last_path_twice(params, limit=None):
        words = list(true_enumerate(params, limit))
        return iter(words + words[-1:])

    monkeypatch.setattr(sweeplab.paths, "enumerate_dyck", last_path_twice)
    # two workers, also on a single CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    params = make_params(7, 5, 1)
    results = run_checks(params)
    by_name = {r.name: r for r in results}
    # the last path is the base path, one past count_dyck
    base, image = base_path(params).text, sweeplab.sweeping.sweep(base_path(params)).text
    assert by_name["bijectivity"].failures == (
        f"words {base} and {base} both map to {image}",
        "the pass saw 67 paths, count_dyck gives 66",
    )
    assert by_name["base-case"].failures == (
        f"area-0 paths {[base, base]} instead of [{base}]",
    )
    assert by_name["dinv-sweeps-to-area"].checked == 67
    assert run_checks(params, jobs=2) == results


@pytest.mark.parametrize(
    "m,n,d,path_count,move_count",
    [(11, 7, 1, 1768, 6240), (5, 3, 2, 525, 1582), (3, 2, 3, 377, 1091)],
)
def test_checked_volumes_of_the_benchmark_sets(m, n, d, path_count, move_count):
    per_path = ("image-is-dyck", "bijectivity", "area-formula", "dinv-formulations",
                "row-structure", "move-existence", "dinv-sweeps-to-area")
    per_move = ("rank-difference", "area-recursion", "dinv-recursion", "cross-identities")
    expected = {name: path_count for name in per_path}
    expected.update((name, move_count) for name in per_move)
    expected["green-line-rank"] = d * (m + n) * path_count
    expected["base-case"] = 1
    for jobs in (1, 2):
        results = run_checks(make_params(m, n, d), jobs=jobs)
        assert all(r.passed for r in results)
        assert {r.name: r.checked for r in results} == expected


def test_broken_region_counts_are_caught(monkeypatch):
    true_counts = sweeplab.recursion._region_counts

    def shifted(word, p, k):
        counts = true_counts(word, p, k)
        return counts._replace(red_top_left=counts.red_top_left + 1)

    # verify reads both predicted deltas from the one _region_counts call
    # per move, resolved through the module, so it sees the patch
    monkeypatch.setattr(sweeplab.recursion, "_region_counts", shifted)
    params = make_params(5, 3, 2)
    results = run_checks(params)
    by_name = {r.name: r for r in results}
    for name in ("area-recursion", "cross-identities"):
        assert len(by_name[name].failures) == by_name[name].checked > 0
    assert all(r.passed for name, r in by_name.items()
               if name not in ("area-recursion", "cross-identities"))
    assert run_checks(params, jobs=2) == results


def test_broken_dinv_is_caught_on_swapped_words(monkeypatch):
    true_dinv = sweeplab.stats.dinv_pairs

    def shift(word):
        return int(word.text.startswith("NE"))

    monkeypatch.setattr(
        sweeplab.stats, "dinv_pairs", lambda word: true_dinv(word) + shift(word)
    )
    # dinv-recursion fails exactly where the word and its swapped word
    # disagree on the prefix, so each swapped word's dinv must come from
    # the patched function, computed or looked up
    expected = []
    for word in all_dyck(7, 5, 1):
        for move in valid_moves(word):
            gap = shift(word) - shift(apply_move(word, move))
            if gap:
                delta = dinv_recursion_delta(word, move)
                expected.append(
                    f"word={word.text} p={move.position} delta={delta} direct={delta + gap}"
                )
    assert expected
    results = {r.name: r for r in run_checks(make_params(7, 5, 1))}
    assert list(results["dinv-recursion"].failures) == expected


def test_region_counts_do_not_depend_on_call_order():
    region_counts = sweeplab.recursion.region_counts
    pairs = [(w, move) for w in all_dyck(7, 5, 1) for move in valid_moves(w)]
    fresh = {}
    for word, move in pairs:
        fresh[word, move] = region_counts(word, move)
    assert len(set(fresh.values())) > 1
    # called again in two orders, one where consecutive calls share the
    # word (enumeration order) and one where they share the move (sorted
    # by move), every pair gets the counts it got first
    by_move = sorted(pairs, key=lambda pair: (pair[1].position, pair[1].level))
    for order in (pairs, by_move):
        for word, move in order:
            assert region_counts(word, move) == fresh[word, move]


def test_area_cells_does_not_share_the_ranks_of_the_formula(monkeypatch):
    # only area_rank_formula reads south_end_ranks; raising the first rank
    # by n raises its area by one on every path, and area_cells, which is
    # checked against it, must not move with it
    n = 5
    true_ranks = sweeplab.stats.south_end_ranks

    def raised(word):
        first, *rest = true_ranks(word)
        return (first + n, *rest)

    monkeypatch.setattr(sweeplab.stats, "south_end_ranks", raised)
    params = make_params(7, n, 1)
    results = {r.name: r for r in run_checks(params)}
    formula = results["area-formula"]
    assert len(formula.failures) == formula.checked == len(all_dyck(7, n, 1))
    assert all(r.passed for name, r in results.items() if name != "area-formula")


def dinv_cells_by_ranks(word):
    """Reference dinv cells: (x, y) above the path, where the start ranks a
    of East step x and b of North step y satisfy 0 <= a - b < m + n."""
    width = word.params.m + word.params.n
    ranks = start_ranks(word)
    norths = [i for i, ch in enumerate(word.steps) if ch == "N"]
    easts = [i for i, ch in enumerate(word.steps) if ch == "E"]
    return [
        (x, y)
        for y, npos in enumerate(norths)
        for x, epos in enumerate(easts)
        if epos < npos and 0 <= ranks[epos] - ranks[npos] < width
    ]


def test_dinv_cell_list_does_not_share_the_ranks_of_dinv_pairs(monkeypatch):
    # dinv-formulations checks dinv_pairs, which reads the start ranks,
    # against dinv_cell_list, which must list the same cells without them;
    # at d = 2 the hook rule meets equalities, which its split of the ties
    # must settle as the ranks do
    words = all_dyck(5, 3, 2)
    expected = [dinv_cells_by_ranks(word) for word in words]

    def no_ranks(word):
        raise AssertionError("dinv_cell_list read the start ranks")

    monkeypatch.setattr(sweeplab.stats, "start_ranks", no_ranks)
    assert [sweeplab.stats.dinv_cell_list(word) for word in words] == expected


def test_a_strict_hook_rule_fails_dinv_formulations_only_with_ties(monkeypatch):
    # dinv_cell_list rebuilt from its source with `<` for its `<=`: the
    # hook rule's tie convention shows at d > 1 and nowhere at d = 1
    strict = rebuilt(
        sweeplab.stats, "dinv_cell_list",
        "m * leg <= n * (arm + 1)", "m * leg < n * (arm + 1)",
    )
    monkeypatch.setattr(sweeplab.stats, "dinv_cell_list", strict)
    for params, failing in [((5, 3, 2), {"dinv-formulations"}), ((7, 5, 1), set())]:
        results = run_checks(make_params(*params))
        assert {r.name for r in results if not r.passed} == failing, params


def test_a_rank_sum_off_the_congruence_is_recorded(monkeypatch, capsys):
    # raising the first rank by 1 leaves a remainder in the formula's exact
    # division: every path is an area-formula counterexample, not a crash
    true_ranks = sweeplab.stats.south_end_ranks

    def raised(word):
        first, *rest = true_ranks(word)
        return (first + 1, *rest)

    monkeypatch.setattr(sweeplab.stats, "south_end_ranks", raised)
    params = make_params(7, 5, 1)
    results = run_checks(params)
    by_name = {r.name: r for r in results}
    formula = by_name["area-formula"]
    assert len(formula.failures) == formula.checked == len(all_dyck(7, 5, 1))
    assert all(f.endswith(" formula=undefined") for f in formula.failures)
    assert all(r.passed for name, r in by_name.items() if name != "area-formula")
    assert run_checks(params, jobs=2) == results
    assert main(["verify", "--m", "7", "--n", "5"]) == 1
    assert "FAIL area-formula: " in capsys.readouterr().out


def test_broken_green_line_is_caught(monkeypatch):
    true_ranks = sweeplab.sweeping.green_line_ranks
    monkeypatch.setattr(
        sweeplab.sweeping, "green_line_ranks",
        lambda w: tuple(rank + 1 for rank in true_ranks(w)),
    )
    results = {r.name: r for r in run_checks(make_params(3, 2, 1))}
    assert not results["green-line-rank"].passed
    assert "word=" in results["green-line-rank"].failures[0]
    # everything else still passes
    assert all(r.passed for name, r in results.items() if name != "green-line-rank")


def _starts_ne(word):
    return word.text.startswith("NE")


def _assert_only_failures(params, check, expected):
    """run_checks fails `check` alone, with exactly `expected` in order,
    and jobs 2 agrees with jobs 1."""
    assert expected
    results = run_checks(params)
    by_name = {r.name: r for r in results}
    assert list(by_name[check].failures) == expected
    assert all(r.passed for name, r in by_name.items() if name != check)
    assert run_checks(params, jobs=2) == results


def test_broken_row_structure_is_caught(monkeypatch):
    true_check = sweeplab.diagram.check_row_structure
    red, blue = sweeplab.diagram.RED, sweeplab.diagram.BLUE

    def broken(diagram):
        # the diagram of a word starting NE opens with a red, then a blue arrow
        colors = tuple(a.color for a in diagram.arrows[:2])
        return colors != (red, blue) and true_check(diagram)

    monkeypatch.setattr(sweeplab.diagram, "check_row_structure", broken)
    expected = [f"word={w.text}" for w in all_dyck(7, 5, 1) if _starts_ne(w)]
    _assert_only_failures(make_params(7, 5, 1), "row-structure", expected)


def test_broken_rank_difference_is_caught(monkeypatch):
    # a band sum off by one on the words that start NE: verify compares
    # the image-rank drop with the one _rank_band call per move
    true_band = sweeplab.recursion._rank_band
    monkeypatch.setattr(
        sweeplab.recursion, "_rank_band",
        lambda word, p, k: true_band(word, p, k) + _starts_ne(word),
    )
    expected = [f"word={w.text} p={move.position}"
                for w in all_dyck(7, 5, 1) if _starts_ne(w) for move in valid_moves(w)]
    _assert_only_failures(make_params(7, 5, 1), "rank-difference", expected)


def test_broken_sweep_breaks_bijectivity(monkeypatch):
    constant = base_path(make_params(3, 2, 1))
    monkeypatch.setattr(sweeplab.sweeping, "sweep", lambda word: constant)
    results = {r.name: r for r in run_checks(make_params(3, 2, 1))}
    assert not results["bijectivity"].passed
    assert not results["base-case"].passed


def _leftmost_first(word):
    """A wrong sweep order: rank ties broken leftmost-first."""
    ranks = start_ranks(word)
    return tuple(sorted(range(1, len(word) + 1), key=lambda c: (ranks[c - 1], c)))


def test_wrong_tie_break_is_recorded(monkeypatch):
    # the green line decides "swept before" from geometry alone, so a sweep
    # that breaks ties the wrong way is reported, not asserted away
    monkeypatch.setattr(sweeplab.sweeping, "sweep_order", _leftmost_first)
    failed = {r.name for r in run_checks(make_params(3, 2, 2)) if not r.passed}
    assert {"green-line-rank", "bijectivity"} <= failed


def test_wrong_tie_break_is_recorded_under_optimize():
    script = (
        "import sys, sweeplab.sweeping, test_verify\n"
        "from sweeplab import make_params, run_checks\n"
        "sweeplab.sweeping.sweep_order = test_verify._leftmost_first\n"
        "results = run_checks(make_params(3, 2, 2))\n"
        "print(sys.flags.optimize, *(r.name for r in results if not r.passed))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    optimize, *failed = proc.stdout.split()
    assert optimize == "1"
    assert {"green-line-rank", "bijectivity"} <= set(failed)
