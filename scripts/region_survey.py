"""Exploratory check: do the top bands stay empty along the chains of
reduce_to_base?

reduce_to_base picks, among the valid removal moves of a path, the one
whose East step is swept last.  That choice is expected to leave both top
bands without segments (which collapses two terms of the recursions).
The library does not assert that claim, because its exact quantification
is unsettled; this script measures it.  tests/test_scripts.py pins the
measurement for paths of up to 7 steps, where all 36 chain moves leave the
top bands empty.

Usage: python scripts/region_survey.py [MAX_STEPS]
"""

import math
import sys

from sweeplab import (
    apply_move,
    make_params,
    enumerate_dyck,
    reduce_to_base,
    region_counts,
)


def survey(max_steps: int) -> None:
    grand_moves = grand_clean = 0
    for m in range(1, max_steps):
        for n in range(1, max_steps):
            if math.gcd(m, n) != 1:
                continue
            for d in (1, 2, 3):
                if d * (m + n) > max_steps:
                    continue
                params = make_params(m, n, d)
                moves = clean = 0
                for word in enumerate_dyck(params, limit=max_steps):
                    current = word
                    for move in reduce_to_base(word):
                        counts = region_counts(current, move)
                        moves += 1
                        if counts.red_top_left == 0 and counts.red_top_right == 0 \
                                and counts.blue_top_left == 0:
                            clean += 1
                        current = apply_move(current, move)
                print(
                    f"m={m} n={n} d={d}: {clean}/{moves} chain moves "
                    f"leave the top bands empty"
                )
                grand_moves += moves
                grand_clean += clean
    print(f"total: {grand_clean}/{grand_moves}")


if __name__ == "__main__":
    survey(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
