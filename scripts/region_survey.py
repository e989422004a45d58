"""Exploratory check: do the top bands stay empty under the
sweep-latest-east move choice?

Picking, among the valid removal moves of a path, the one whose East step
is swept last is expected to leave both top bands without segments (which
collapses two terms of the recursions).  That claim is not asserted
anywhere in the library or its tests because its exact quantification is
unsettled; this script measures it instead.

Usage: python scripts/region_survey.py [MAX_STEPS]
"""

import math
import sys

from sweeplab import (
    SWEEP_LATEST_EAST,
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
                    for move in reduce_to_base(word, SWEEP_LATEST_EAST):
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
