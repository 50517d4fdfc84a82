"""Tour of the conditional Poisson machinery behind the proposals.

A conditional Poisson draw picks a fixed-size subset of cells with
probability proportional to the product of their weights.  Everything
reduces to elementary symmetric functions R(s, w): inclusion
probabilities, the exact pmf, and the sequential procedure of Chen,
Dempster & Liu (1994, Biometrika 81:457) that decides item by item in one
pass.  This script shows each piece on a small weight vector:

  1. the R(s, w) table from the add-one-item recurrence,
  2. the exact pmf over all subsets of a given size (and that it sums to 1),
  3. cell weights from line residuals, as line_weights computes them when
     a proposal fills one line of a table,
  4. 20000 sequential draws against the exact pmf (total variation distance).

Run:  python3 demos/cp_distribution.py
"""

import math
from itertools import combinations

import numpy as np

from cptables import BinaryTable, marginals_of
from cptables.cpdist import cp_draft_sample, cp_log_pmf, log_esym_table
from cptables.layers import line_weights
from cptables.reduction import TableState


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

    print("\ncell weights from line residuals:")
    print("  each cell of the drawn line lies on one crossing line per other")
    print("  axis; a crossing line that still needs rs ones and zs zeros")
    print("  multiplies the cell's CP weight by rs / zs")
    cells = np.array([[[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]],
                      [[0, 1, 1, 0], [1, 1, 0, 0], [1, 0, 1, 1]],
                      [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 1, 1]]])
    state = TableState.from_marginals(marginals_of(BinaryTable.from_array(cells)))
    geo = state.geo
    lid = geo.offset[2]  # the line (0, 0, .) along the last axis
    free_cids, weights, _ = line_weights(state, lid)
    for cid, wt in zip(free_cids, weights):
        factors = " * ".join(
            f"{state.rs[l]}/{state.zs[l]}"
            for a, l in enumerate(geo.cell_lines[cid]) if a != 2
        )
        where = tuple(int(i) for i in np.unravel_index(cid, geo.sizes))
        print(f"  cell {where}: weight = {factors} = {wt:.4f}")

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
