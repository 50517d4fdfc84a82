"""Tour of the conditional Poisson machinery behind the proposals.

A conditional Poisson draw picks a fixed-size subset of cells with
probability proportional to the product of their weights.  Everything
reduces to elementary symmetric functions R(s, w): inclusion
probabilities, the exact pmf, and the sequential procedure of Chen,
Dempster & Liu (1994, Biometrika 81:457) that decides item by item in one
pass.  This script shows each piece on a small weight vector:

  1. the R(s, w) table from the add-one-item recurrence,
  2. the exact pmf over all subsets of a given size (and that it sums to 1),
  3. cell success probabilities from line residuals, as used when filling
     one column of a table,
  4. 20000 sequential draws against the exact pmf (total variation distance).

Run:  python3 demos/cp_distribution.py
"""

import math
from itertools import combinations

import numpy as np

from cptables.cpdist import (
    cp_draft_sample,
    cp_log_pmf,
    log_esym_table,
    odds,
    success_prob_3way,
)


def main() -> None:
    w = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    print(f"weights: {w}")
    table = log_esym_table(w, len(w))
    print("elementary symmetric values R(s, w):")
    for s, logv in enumerate(table):
        print(f"  s={s}: {math.exp(logv):.4f}")

    size = 2
    print(f"\nexact pmf over size-{size} subsets:")
    total = 0.0
    for subset in combinations(range(len(w)), size):
        p = math.exp(cp_log_pmf(w, size, subset))
        total += p
        print(f"  {subset}: {p:.4f}")
    print(f"  sum = {total:.12f}")

    print("\ncell success probabilities from line residuals:")
    print("  a cell whose row still needs r of n slots and whose column")
    print("  still needs c of m slots succeeds with probability")
    print("  p = rc / (rc + (n - r)(m - c)); its CP weight is p/(1-p)")
    for r, c, n, m in [(1, 1, 3, 3), (2, 1, 3, 3), (2, 2, 3, 4)]:
        p = success_prob_3way(r, c, n, m)
        print(f"  r={r} c={c} n={n} m={m}: p = {p:.4f}, weight = {odds(p):.4f}")

    rng = np.random.default_rng(0)
    draws = 20000
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        s = cp_draft_sample(w, size, rng)
        counts[s.chosen] = counts.get(s.chosen, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(c, 0) / draws - math.exp(cp_log_pmf(w, size, c)))
        for c in combinations(range(len(w)), size)
    )
    print(f"\n{draws} sequential draws vs the exact pmf: total variation {tv:.4f}")


if __name__ == "__main__":
    main()
