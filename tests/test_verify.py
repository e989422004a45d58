import os
import subprocess
import sys
from pathlib import Path

import pytest

import sweeplab.stats
import sweeplab.sweeping
from sweeplab import CHECK_NAMES, make_params, run_checks, start_ranks
from conftest import PARAM_SETS


def test_thirteen_named_checks():
    assert len(CHECK_NAMES) == 13
    results = run_checks(make_params(3, 2, 1))
    assert [r.name for r in results] == list(CHECK_NAMES)


@pytest.mark.parametrize("m,n,d", PARAM_SETS)
def test_all_checks_pass(m, n, d):
    for result in run_checks(make_params(m, n, d)):
        assert result.passed, (result.name, result.failures[:1])
        assert result.checked > 0


def test_jobs_give_identical_results():
    baseline = run_checks(make_params(7, 5, 1))
    for jobs in (2, 5):
        assert run_checks(make_params(7, 5, 1), jobs=jobs) == baseline


def test_checked_volumes(p321):
    by_name = {r.name: r.checked for r in run_checks(p321)}
    assert by_name["dinv-sweeps-to-area"] == 2  # paths
    assert by_name["green-line-rank"] == 10  # steps
    assert by_name["area-recursion"] == 1  # valid moves


def test_broken_green_line_is_caught(monkeypatch):
    true_rank = sweeplab.sweeping.green_line_rank
    monkeypatch.setattr(
        sweeplab.sweeping, "green_line_rank", lambda w, s: true_rank(w, s) + 1
    )
    results = {r.name: r for r in run_checks(make_params(3, 2, 1))}
    assert not results["green-line-rank"].passed
    assert "word=" in results["green-line-rank"].failures[0]
    # everything else still passes
    assert all(r.passed for name, r in results.items() if name != "green-line-rank")


def test_broken_sweep_breaks_bijectivity(monkeypatch):
    from sweeplab import base_path

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
    here = Path(__file__).parent
    script = (
        "import sys, sweeplab.sweeping, test_verify\n"
        "from sweeplab import make_params, run_checks\n"
        "sweeplab.sweeping.sweep_order = test_verify._leftmost_first\n"
        "results = run_checks(make_params(3, 2, 2))\n"
        "print(sys.flags.optimize, *(r.name for r in results if not r.passed))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    optimize, *failed = proc.stdout.split()
    assert optimize == "1"
    assert {"green-line-rank", "bijectivity"} <= set(failed)
