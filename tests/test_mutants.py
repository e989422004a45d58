"""The mutant catalogue: one small edit in one library function, such as a
comparison flipped or a bound moved, must fail the checks or the call
listed for it.

Each entry rebuilds one function from its source with one text edit
(conftest.rebuilt) and monkeypatches it into its module.  verify resolves
the library's functions through their modules at call time, and so do the
calls within a module, so run_checks runs the mutant wherever it would run
the original.  SETS hold d = 1 and d > 1; only d > 1 has rank ties, and
most entries below fail there alone.

Not in the catalogue, each with its reason:
- Equivalent mutants, which no check can catch:
  - _rank_band, `column <= p` -> `column < p` in its lower test: column
    p holds the North step of rank k, never one of rank k - n.
  - green_line_ranks, `ups[up_lo] < up_floor` and
    `downs[down_hi] <= down_ceiling`: an arrow exactly on the window edge
    adds zero segments.
  - _walk, `pos <= 0`: the first step can never turn East.
  - _check_move, `1 < p`: p = 1 always has rank 0 < n, so the move is
    refused anyway; only the InvalidMove message differs.
"""

import pytest

from sweeplab import (
    InvalidMove,
    LimitExceeded,
    RemovalMove,
    apply_move,
    make_params,
    parse_word,
    paths,
    recursion,
    run_checks,
    stats,
    sweeping,
)
from conftest import rebuilt

SETS = [(7, 5, 1), (5, 3, 2), (3, 2, 3), (2, 1, 4)]

# (module, function, text, its replacement, the checks that must fail[, a
# message one of them must record]).  Between them the messages pin the exact
# text of every per-path check but image-is-dyck and row-structure, which no
# entry fails; test_verify pins those two.
CHECKED_MUTANTS = [
    (stats, "dinv_pairs", "bisect_left(seen, rank)", "bisect_right(seen, rank)",
     {"dinv-formulations", "dinv-recursion", "dinv-sweeps-to-area"},
     "word=NNENNNEEEENEEEEE dinv=3 image=NENENENEENEEENEE area=4"),
    (stats, "dinv_pairs", "bisect_left(seen, rank + width)",
     "bisect_right(seen, rank + width)",
     {"dinv-formulations", "dinv-recursion", "dinv-sweeps-to-area"},
     "word=NNNENNEEEEENEEEE cells=3 pairs=4"),
    (stats, "dinv_cell_list", "n * arm < m * (leg + 1)", "n * arm <= m * (leg + 1)",
     {"dinv-formulations"}),
    (stats, "dinv_cell_list", "m * leg <= n * (arm + 1)", "m * leg < n * (arm + 1)",
     {"dinv-formulations"}),
    (sweeping, "sweep_order", "range(len(word), 0, -1)", "range(1, len(word) + 1)",
     {"green-line-rank", "bijectivity", "area-recursion", "dinv-sweeps-to-area"},
     "word=NNNNNNEEEEEEEEEE step=4 counted=0 rank=3"),
    (stats, "area_cells", "m * y // n - x", "(m * y - 1) // n - x",
     {"area-formula", "base-case", "dinv-sweeps-to-area"},
     "word=NNNNNEEEEEEE cells=11 formula=12"),
    (recursion, "valid_moves", "r >= n", "r > n", {"move-existence"},
     "word=NENEENENEENEENEE area=1"),
    (recursion, "_region_counts", "k <= r < k + m", "k < r < k + m",
     {"area-recursion", "cross-identities"}, "word=NNNNNEEEEENEEEEE p=11"),
    (recursion, "_region_counts", "k - n < r <= k", "k - n <= r <= k",
     {"area-recursion", "cross-identities"}, "word=NNNNENNEEEEEEEEE p=4 delta=-1 direct=0"),
    (recursion, "_region_counts", "k < r <= k + m", "k <= r <= k + m",
     {"area-recursion", "dinv-recursion"}, "word=NNNENNEEEENEEEEE p=3 delta=1 direct=0"),
    # rank(S) and rank(S') are read off the sweep images, so a wrong bound
    # in the band's comparator no longer cancels out
    (recursion, "_rank_band", "r < k", "r <= k", {"rank-difference"},
     "word=NNNNNEEEEEEE p=5"),
    (recursion, "_rank_band", "column > p", "column >= p", {"rank-difference"}),
    # ties broken leftmost-first: only d > 1 has ties
    (recursion, "_rank_band", "column > p", "column < p", {"rank-difference"}),
    # a step of start rank k - n counted in every column, not only up to
    # column p: only d > 1 has such ties
    (recursion, "_rank_band", "r > low", "r >= low", {"rank-difference"}),
    # a count that leaves out the rank-0 vertices, the end included
    (paths, "count_dyck", "m * y - n * x < 0", "m * y - n * x <= 0",
     {"bijectivity"}, "the pass saw 66 paths, count_dyck gives 0"),
    # a walk that backtracks past the North steps of rank n
    (paths, "_walk", "ranks[pos] < n", "ranks[pos] <= n",
     {"bijectivity"}, "the pass saw 476 paths, count_dyck gives 525"),
]


def _entry_id(entry):
    _, name, old, new = entry[:4]
    return f"{name}: {old} -> {new}"


@pytest.mark.parametrize("entry", CHECKED_MUTANTS, ids=_entry_id)
def test_run_checks_fail_the_mutant(monkeypatch, entry):
    module, name, old, new, checks, *message = entry
    monkeypatch.setattr(module, name, rebuilt(module, name, old, new))
    failed, messages = set(), set()
    for params in SETS:
        for result in run_checks(make_params(*params)):
            if not result.passed:
                failed.add(result.name)
            if result.name in checks:
                messages.update(result.failures)
    assert checks <= failed
    assert set(message) <= messages


def _raises(call, error) -> bool:
    """Whether call() raises `error`; any other exception is False."""
    try:
        call()
    except error:
        return True
    except Exception:
        return False
    return False


# Input boundaries no run_checks pass reaches: (module, function, text, its
# replacement, a call, the error the library raises for it)
BOUNDARY_MUTANTS = [
    (recursion, "_check_move", "1 <= p < len(steps)", "1 <= p <= len(steps)",
     lambda: apply_move(parse_word("EEENN", make_params(3, 2)), RemovalMove(5, 0)),
     InvalidMove),
    (paths, "check_step_limit", "limit < 1", "limit <= 1",
     lambda: paths.check_step_limit(make_params(3, 2), 1),
     LimitExceeded),
]


@pytest.mark.parametrize("entry", BOUNDARY_MUTANTS, ids=_entry_id)
def test_the_boundary_call_fails_the_mutant(monkeypatch, entry):
    module, name, old, new, call, error = entry
    assert _raises(call, error)
    monkeypatch.setattr(module, name, rebuilt(module, name, old, new))
    assert not _raises(call, error)
