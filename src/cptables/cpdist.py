"""Conditional Poisson (CP) sampling machinery.

Take independent Bernoulli(p_k) indicators Z_1..Z_L and condition on their
sum being exactly s.  The conditional law of the indicator vector is the CP
distribution: it weights a size-s subset z by the product of the odds
w_k = p_k / (1 - p_k) over the chosen k, normalized by the elementary
symmetric function R(s, w) = sum over size-s subsets of their weight
products.

Everything here reads one table of R, built by _columns with the add-one-item
recurrence (never subset enumeration) over the positive weights normalized
to max 1; zero weights are allowed and never selected.

  * cp_draft_sample is the sequential sampler of Chen, Dempster & Liu (1994,
    Biometrika 81:457): over the table of the reversed weights, one pass
    includes item j with probability w_j * R(s-1, items after j) /
    R(s, items from j), and lands exactly on the CP distribution.  It takes
    one uniform per positive weight, from a numpy Generator or from
    UniformBlocks, which hands out a generator's uniforms a block at a time
    with the same bits.
  * cp_branches rebuilds that table once and gives subsets the draw's
    log_prob, bit for bit: the expander's branches, or cp_log_pmf's one.
"""

from __future__ import annotations

from itertools import accumulate, combinations
import math
from operator import mul
from typing import NamedTuple

import numpy as np

from .tables import CPTablesError


class CPInfeasibleError(CPTablesError):
    """No subset of the requested size has positive weight (R = 0)."""


class CPSample(NamedTuple):
    """One drawn subset (sorted item indices) and its exact log pmf."""

    chosen: tuple[int, ...]
    log_prob: float


class UniformBlocks:
    """A generator's uniforms, fetched 64 at a time: random(k) returns the
    next k as a list.  Generator.random(a) followed by random(b) gives the
    bits of one random(a + b), so these are the values of one
    rng.random(k) call per request, as long as nothing else draws from rng
    meanwhile; rng ends up to a block ahead."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf: list[float] = []
        self.pos = 0

    def random(self, k: int) -> list[float]:
        pos = self.pos
        if pos + k > len(self.buf):  # keep the leftover, append a block
            self.buf = self.buf[pos:] + self.rng.random(max(k, 64)).tolist()
            pos = 0
        self.pos = pos + k
        return self.buf[pos:pos + k]


def _positive(w) -> tuple[list, list[int]]:
    """The weights as a list (a list is used as it is, anything else is
    converted to floats) and the ids of the positive ones."""
    try:
        if type(w) is not list:
            w = [float(x) for x in w]
        pos = [j for j, x in enumerate(w) if x > 0.0]
        negative = len(pos) < len(w) and min(w) < 0.0
    except TypeError:
        raise ValueError("weights must be a flat vector") from None
    if negative:
        raise ValueError("weights must be nonnegative")
    return w, pos


def _columns(x: list[float], size: int) -> list[list[float]]:
    """cols[t][n] = R(t, the first n items of x) for t = 0..size.

    R(t, n + 1 items) = R(t, n) + x_n * R(t - 1, n) makes each column one
    running sum of products with the column before: the products and sums,
    in their order, that a row per item would take."""
    col = [1.0] * (len(x) + 1)
    cols = [col]
    for _ in range(size):
        col = list(accumulate(map(mul, x, col), initial=0.0))
        cols.append(col)
    return cols


def cp_log_pmf(w, size: int, subset) -> float:
    """Exact log probability of drawing `subset` (item indices) from the CP
    distribution over size-`size` subsets with weights w: the log_prob
    cp_draft_sample gives it, bit for bit."""
    w, pos = _positive(w)
    size = int(size)
    idx = sorted(int(i) for i in subset)
    if len(idx) != size:
        raise ValueError(f"subset has {len(idx)} items, expected {size}")
    if len(set(idx)) != size:
        raise ValueError("subset indices must be distinct")
    if idx and (idx[0] < 0 or idx[-1] >= len(w)):
        raise ValueError("subset index out of range")
    scored = cp_branches(w, size, [idx] if all(w[i] > 0.0 for i in idx) else [])
    return scored[0][1] if scored else -math.inf


def cp_branches(w, size: int, subsets=None) -> list[tuple[tuple[int, ...], float]]:
    """Each of `subsets` (ascending positive ids; by default every subset the
    draw can pick, in lexicographic order) with the draw's log_prob of it,
    bit for bit.  Raises CPInfeasibleError where cp_draft_sample does."""
    w, pos = _positive(w)
    k = len(pos)
    if k < size:
        raise CPInfeasibleError(f"only {k} positive weights, need {size}")
    subsets = combinations(pos, size) if subsets is None else subsets
    if size in (0, k):  # the draw's certain subsets
        return [(sub, 0.0) for sub in subsets]
    wmax = max(w)
    x = [w[j] / wmax for j in pos]
    r_all = _columns(x[::-1], size)[size][-1]
    if not r_all > 0.0:
        raise CPInfeasibleError(f"R({size}, w) underflows to zero")
    log_r = math.log(r_all)
    log_x = dict(zip(pos, map(math.log, x)))
    scored = []
    for sub in subsets:
        log_w = 0.0
        for i in sub:  # summed as the draw sums: ascending, from 0.0
            log_w += log_x[i]
        scored.append((sub, min(log_w - log_r, 0.0)))
    return scored


def cp_draft_sample(w, size: int, rng) -> CPSample:
    """Draw one CP subset with the sequential procedure of Chen, Dempster &
    Liu (1994, Biometrika 81:457).

    One forward pass over the backward table (_columns over the reversed
    weights) includes item j with probability w_j * R(s-1, items j+1..) /
    R(s, items j..), s being the units still needed, until s reaches 0; it
    reads two columns, s and s - 1.  log_prob is the closed-form pmf
    sum(log w_chosen) - log R(size, w) from the same table.  Unless the
    subset is certain, it takes rng.random(k), k the number of positive
    weights, from a numpy Generator or a UniformBlocks.
    """
    w, pos = _positive(w)
    size = int(size)
    if not (0 <= size <= len(w)):
        raise ValueError(f"size must be within 0..{len(w)}, got {size}")
    k = len(pos)
    if k < size:
        raise CPInfeasibleError(f"only {k} positive weights, need {size}")
    if size == 0:
        return CPSample((), 0.0)
    if size == k:
        return CPSample(tuple(pos), 0.0)

    wmax = max(w)
    if k < len(w):
        w = [w[j] for j in pos]
    # the positive weights normalized to max 1, last item first
    rev = [x / wmax for x in reversed(w)]
    cols = _columns(rev, size)
    col = cols[size]
    r_all = col[k]
    if not r_all > 0.0:
        raise CPInfeasibleError(f"R({size}, w) underflows to zero")

    u = rng.random(k)
    if type(u) is not list:
        u = u.tolist()
    chosen: list[int] = []
    log_w = 0.0
    s = size
    lower = cols[s - 1]
    n = k
    for j in range(k):
        # once only s items remain, R(s, rest) == 0 exactly and the ratio
        # is exactly 1, so the pass always ends with s == 0
        n -= 1  # the items after item j
        wj = rev[n]
        if u[j] * col[n + 1] < wj * lower[n]:
            chosen.append(pos[j])
            log_w += math.log(wj)
            s -= 1
            if s == 0:
                break
            col = lower
            lower = cols[s - 1]
    # float rounding can push a certain event a hair above probability 1
    return CPSample(tuple(chosen), min(log_w - math.log(r_all), 0.0))
