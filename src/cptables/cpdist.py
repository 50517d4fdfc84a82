"""Conditional Poisson (CP) sampling machinery.

Take independent Bernoulli(p_k) indicators Z_1..Z_L and condition on their
sum being exactly s.  The conditional law of the indicator vector is the CP
distribution: it weights a size-s subset z by the product of the odds
w_k = p_k / (1 - p_k) over the chosen k, normalized by the elementary
symmetric function R(s, w) = sum over size-s subsets of their weight
products.  Everything here works from the weights:

  * R(s, w) via the add-one-item recurrence, never subset enumeration,
  * the exact pmf of a subset, and
  * the sequential sampler of Chen, Dempster & Liu (1994, Biometrika
    81:457), which makes one pass over the items, including item j with
    probability w_j * R(s-1, items after j) / R(s, items from j), and
    lands exactly on the CP distribution.  Its backward R table is built
    one degree at a time, each column one running sum over the reversed
    weights, and its log-pmf comes from the same table.  It takes one
    uniform per positive weight, from a numpy Generator or from
    UniformBlocks, which hands out a generator's uniforms a block at a
    time with the same bits.

Weights of zero are allowed in the vectors (such items are simply never
selected).  Dynamic range is handled by normalizing weights to max 1 inside
the linear recurrences and carrying exact log corrections.
"""

from __future__ import annotations

from itertools import accumulate
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


def _as_weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be a flat vector")
    if w.size and w.min() < 0:
        raise ValueError("weights must be nonnegative")
    return w


def log_esym_table(w, smax: int) -> np.ndarray:
    """log R(s, w) for s = 0..smax via the add-one-item recurrence
    R(s, A) = R(s, A - {i}) + w_i * R(s-1, A - {i}); -inf where R = 0."""
    w = _as_weights(w)
    smax = int(smax)
    if smax < 0:
        raise ValueError("smax must be >= 0")
    # in linear space with the weights normalized to max 1: the true R(s)
    # is rows[s] * wmax ** s
    rows = np.zeros(smax + 1)
    rows[0] = 1.0
    wmax = float(w.max()) if w.size else 0.0
    if wmax > 0.0:
        for wi in w / wmax:
            if wi > 0.0:
                rows[1:] += wi * rows[:-1]
    with np.errstate(divide="ignore"):
        out = np.log(rows)
    if wmax > 0.0:
        out += math.log(wmax) * np.arange(smax + 1)
    return out


def log_esym(w, s: int) -> float:
    """log R(s, w) for a single degree s."""
    return float(log_esym_table(w, s)[s])


def cp_log_pmf(w, size: int, subset) -> float:
    """Exact log probability of drawing `subset` (item indices) from the CP
    distribution over size-`size` subsets with weights w."""
    w = _as_weights(w)
    size = int(size)
    idx = np.asarray(sorted(int(i) for i in subset), dtype=int)
    if idx.size != size:
        raise ValueError(f"subset has {idx.size} items, expected {size}")
    if idx.size != np.unique(idx).size:
        raise ValueError("subset indices must be distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= w.size):
        raise ValueError("subset index out of range")
    if size == 0:
        return 0.0
    log_r = log_esym(w, size)
    if log_r == -math.inf:
        raise CPInfeasibleError(
            f"no size-{size} subset has positive weight (R = 0)"
        )
    with np.errstate(divide="ignore"):
        val = float(np.log(w[idx]).sum()) - log_r
    # float rounding can push a certain event a hair above probability 1
    return min(val, 0.0)


def cp_draft_sample(w, size: int, rng) -> CPSample:
    """Draw one CP subset with the sequential procedure of Chen, Dempster &
    Liu (1994, Biometrika 81:457).

    A backward table holds R(t, items j..) for t <= size, one column per
    degree t: over the weights in reverse, R(t, n + 1 items) = R(t, n) +
    w * R(t - 1, n) makes each column one running sum of products with the
    column before (the products and sums, in their order, that a row per
    item would take).  One forward pass then includes item j with
    probability w_j * R(s-1, items j+1..) / R(s, items j..), s being the
    units still needed, until s reaches 0; it reads two columns, s and
    s - 1.  The subset is exactly CP(size, w) distributed, and log_prob,
    the closed-form pmf sum(log w_chosen) - log R(size, w), comes from the
    same table.  Runs on plain lists, as the vectors are short and the
    call is hot: a list of weights is used as it is, anything else is
    converted to floats.  Unless the subset is certain, it takes
    rng.random(k), k the number of positive weights, from a numpy
    Generator or a UniformBlocks.
    """
    try:
        if type(w) is not list:
            w = [float(x) for x in w]
        # zero-weight items can never be drawn; drop them, keep original ids
        pos = [j for j, x in enumerate(w) if x > 0.0]
        negative = len(pos) < len(w) and min(w) < 0.0
    except TypeError:
        raise ValueError("weights must be a flat vector") from None
    size = int(size)
    if not (0 <= size <= len(w)):
        raise ValueError(f"size must be within 0..{len(w)}, got {size}")
    if negative:
        raise ValueError("weights must be nonnegative")
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
    # the positive weights normalized to max 1, last item first;
    # cols[t][n] = R(t, the last n items)
    rev = [x / wmax for x in reversed(w)]
    col = [1.0] * (k + 1)
    cols = [col]
    for _ in range(size):
        col = list(accumulate(map(mul, rev, col), initial=0.0))
        cols.append(col)
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
