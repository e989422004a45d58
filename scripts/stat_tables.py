"""Print joint (area, dinv) tables for a range of parameters.

Usage: python scripts/stat_tables.py [MAX_STEPS]

Tabulates every coprime (m, n) with d in {1, 2} whose path length stays
within MAX_STEPS (default 12), and reports the marginal-equality verdict
for each table.
"""

import math
import sys

from sweeplab import joint_distribution, make_params


def survey(max_steps: int) -> None:
    for m in range(1, max_steps):
        for n in range(1, m + 1):
            if math.gcd(m, n) != 1:
                continue
            for d in (1, 2):
                if d * (m + n) > max_steps:
                    continue
                table = joint_distribution(make_params(m, n, d), limit=max_steps)
                verdict = "EQUAL" if table.marginals_agree() else "DIFFERENT"
                print(f"== m={m} n={n} d={d}: {table.total()} paths, marginals {verdict}")
                print(table.to_matrix_text())


if __name__ == "__main__":
    survey(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
