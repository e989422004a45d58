"""Run every check on every parameter set up to a step budget.

Usage: python scripts/frontier.py MAX_STEPS

Runs run_checks on every co-prime (m, n) and dilation d with
d(m + n) <= MAX_STEPS, serially, and prints one line per set with the
paths the pass checked beside count_dyck's count and the names of the
failing checks if any, then a total line.  Exits 1 if any set fails a
check (bijectivity fails when the pass sees other than count_dyck
paths), 0 otherwise.  tests/test_scripts.py pins MAX_STEPS = 16: 120
sets, 10,155 paths.
"""

import math
import sys

from sweeplab import count_dyck, make_params, run_checks


def frontier(max_steps: int) -> int:
    """The number of failing sets; each set and the total are printed."""
    sets = paths = counted = failed = 0
    for m in range(1, max_steps):
        for n in range(1, max_steps):
            if math.gcd(m, n) != 1:
                continue
            for d in range(1, max_steps // (m + n) + 1):
                params = make_params(m, n, d)
                results = run_checks(params, limit=max_steps)
                seen = results[0].checked  # image-is-dyck: one per path
                count = count_dyck(params)
                failing = [r.name for r in results if not r.passed]
                verdict = f"FAIL {', '.join(failing)}" if failing else "PASS"
                print(f"m={m} n={n} d={d}: {seen} paths (count_dyck {count}): {verdict}")
                sets += 1
                paths += seen
                counted += count
                failed += bool(failing)
    print(f"total: {sets} sets, {paths} paths (count_dyck {counted}), {failed} failed")
    return failed


if __name__ == "__main__":
    sys.exit(1 if frontier(int(sys.argv[1])) else 0)
