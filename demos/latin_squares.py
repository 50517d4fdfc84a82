"""Count Latin squares by counting zero-one cubes with unit line sums.

A Latin square of order m is equivalent to an m x m x m zero-one table
whose every axis-parallel line sums to one: cell (i, j, k) = 1 iff symbol k
sits at row i, column j.  So the importance sampling estimator doubles as a
Latin square counter.  This script counts exactly through order 6 (12,
576, 161280 and 812851200 for m = 3 to 6) and then estimates each order by
sampling, which keeps working at orders where exhaustive search is
hopeless.  It exits 1 if an exact count differs from the known value.

Run:  python3 demos/latin_squares.py [--samples N] [--max-order M]
"""

import argparse
import math
import sys
import time

from cptables import (
    SisConfig,
    estimate_log_count,
    exact_count,
    run_sis,
    semimagic_margins,
)

KNOWN = {3: 12, 4: 576, 5: 161280, 6: 812851200, 7: 61479419904000}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--max-order", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    wrong = []
    for order in range(3, args.max_order + 1):
        m = semimagic_margins(order, 1)
        line = f"order {order}:"
        if order <= 6:
            t0 = time.perf_counter()
            exact = exact_count(m)
            line += f" exact {exact} ({time.perf_counter() - t0:.2f}s),"
            if exact != KNOWN[order]:
                wrong.append(order)
        t0 = time.perf_counter()
        lw = run_sis(m, SisConfig(samples=args.samples, seed=args.seed))
        est = math.exp(estimate_log_count(lw))
        line += f" estimate {est:.4g} ({time.perf_counter() - t0:.2f}s)"
        if order in KNOWN:
            line += f", true value {KNOWN[order]}"
            line += f", error {100 * (est - KNOWN[order]) / KNOWN[order]:+.2f}%"
        print(line)
    if wrong:
        print(f"exact count differs from the known value at order(s) {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
