#!/usr/bin/env python3
"""How far the exact counter reaches: counts, nodes, time and memory.

Counts five inputs with known counts whose searches run from a few hundred
to some fifty thousand nodes, and prints for each the count, the nodes the
search expanded (calls of the counter's branch step, counted on the way),
the seconds the count took and its tracemalloc peak (a second, traced run
of the same count, which takes most of the tool's 20 s or so).
Exits 1 if any count differs from its known value.

Run:  python3 tools/exact_reach.py
"""

import sys
import time
import tracemalloc

from cptables import exact_count, oracle, semimagic_margins

# (name, m, s, count): semimagic_margins(m, s) admits `count` tables;
# L(m) = semimagic_margins(m, 1) counts the Latin squares of order m
CASES = (
    ("semimagic-4-2", 4, 2, 51678),
    ("semimagic-5-1", 5, 1, 161280),
    ("L(6)", 6, 1, 812_851_200),
    ("L(7)", 7, 1, 61_479_419_904_000),  # OEIS A002860
    ("semimagic-5-2", 5, 2, 25_509_317_760),
)


def main() -> int:
    branch = oracle._branch
    nodes = 0

    def counted(*args):
        nonlocal nodes
        nodes += 1
        return branch(*args)

    wrong = []
    print(f"{'input':<14} {'count':>20} {'nodes':>8} {'seconds':>8} {'peak MB':>8}")
    oracle._branch = counted
    try:
        for name, m, s, want in CASES:
            margins = semimagic_margins(m, s)
            nodes = 0
            t0 = time.perf_counter()
            count = exact_count(margins)
            seconds = time.perf_counter() - t0
            expanded = nodes
            tracemalloc.start()
            exact_count(margins)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            print(f"{name:<14} {count:>20,} {expanded:>8,} {seconds:>8.2f} {peak:>8.2f}")
            if count != want:
                wrong.append(f"{name}: counted {count:,}, known {want:,}")
    finally:
        oracle._branch = branch
    for line in wrong:
        print("WRONG", line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
