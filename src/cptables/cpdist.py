"""Conditional Poisson (CP) sampling machinery.

Take independent Bernoulli(p_k) indicators Z_1..Z_L and condition on their
sum being exactly s.  The conditional law of the indicator vector is the CP
distribution: it weights a size-s subset z by the product of the odds
w_k = p_k / (1 - p_k) over the chosen k, normalized by the elementary
symmetric function R(s, w) = sum over size-s subsets of their weight
products.  Everything here works from the weights:

  * success probabilities for single cells of a tableid column
    (success_prob_3way / success_prob_multiway) and their odds,
  * R(s, w) via the add-one-item recurrence, never subset enumeration,
  * the exact pmf of a subset, and
  * the sequential sampler of Chen, Dempster & Liu (1994, Biometrika
    81:457), which makes one pass over the items, including item j with
    probability w_j * R(s-1, items after j) / R(s, items from j), and
    lands exactly on the CP distribution.  Its log-pmf comes from the same
    backward R table.

Weights of zero are allowed in the vectors (such items are simply never
selected).  Dynamic range is handled by normalizing weights to max 1 inside
the linear recurrences and carrying exact log corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .tables import CPTablesError


class CPInfeasibleError(CPTablesError):
    """No subset of the requested size has positive weight (R = 0)."""


@dataclass(frozen=True)
class CPSample:
    """One drawn subset (sorted item indices) and its exact log pmf."""

    chosen: tuple[int, ...]
    log_prob: float


def _as_weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be a flat vector")
    if w.size and w.min() < 0:
        raise ValueError("weights must be nonnegative")
    return w


def success_prob_3way(r: int, c: int, n: int, m: int, g_r: int = 0, g_c: int = 0) -> float:
    """Bernoulli success probability for one cell of a column being sampled
    in a three-way table.

    r and c are the residual sums of the two lines through the cell that
    run across the column direction; n and m are those lines' lengths; g_r
    and g_c count structural zeros in them.  The cell is a one with
    probability r*c / (r*c + (n-r-g_r)*(m-c-g_c)).
    """
    if not (1 <= r <= n - 1 - g_r) or not (1 <= c <= m - 1 - g_c):
        raise ValueError(
            f"residuals must leave a genuine choice: r={r}, c={c}, "
            f"n={n}, m={m}, g_r={g_r}, g_c={g_c}"
        )
    num = r * c
    return num / (num + (n - r - g_r) * (m - c - g_c))


def success_prob_multiway(r, n, g=None) -> float:
    """d-way generalization of success_prob_3way.

    r, n, g are length-(d-1) sequences: residual sums, lengths, and
    structural-zero counts of the d-1 cross lines through the cell.  With a
    single factor this reduces to the two-way law r / (n - g).
    """
    r = [int(x) for x in r]
    n = [int(x) for x in n]
    g = [0] * len(r) if g is None else [int(x) for x in g]
    if not (len(r) == len(n) == len(g)) or not r:
        raise ValueError("r, n, g must be equal-length, nonempty sequences")
    num = 1
    den = 1
    for rk, nk, gk in zip(r, n, g):
        if not (1 <= rk <= nk - 1 - gk):
            raise ValueError(
                f"residuals must leave a genuine choice: r={rk}, n={nk}, g={gk}"
            )
        num *= rk
        den *= nk - rk - gk
    return num / (num + den)


def odds(p: float) -> float:
    """CP weight of a cell: p / (1 - p) for 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be strictly between 0 and 1, got {p}")
    return p / (1.0 - p)


def _esym_rows(w: np.ndarray, smax: int) -> tuple[np.ndarray, float]:
    """Linear-space elementary symmetric values for degrees 0..smax, with
    the weights normalized so their max is 1.  Returns (values, log_scale)
    where true R(s) = values[s] * exp(s * log_scale)."""
    rows = np.zeros(smax + 1)
    rows[0] = 1.0
    if w.size == 0 or smax == 0:
        return rows, 0.0
    wmax = float(w.max())
    if wmax <= 0.0:
        return rows, 0.0
    ws = w / wmax
    for wi in ws:
        if wi > 0.0:
            rows[1:] += wi * rows[:-1]
    return rows, math.log(wmax)


def log_esym_table(w, smax: int) -> np.ndarray:
    """log R(s, w) for s = 0..smax via the add-one-item recurrence
    R(s, A) = R(s, A - {i}) + w_i * R(s-1, A - {i}); -inf where R = 0."""
    w = _as_weights(w)
    smax = int(smax)
    if smax < 0:
        raise ValueError("smax must be >= 0")
    rows, log_scale = _esym_rows(w, smax)
    with np.errstate(divide="ignore"):
        out = np.log(rows)
    out += log_scale * np.arange(smax + 1)
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


def cp_draft_sample(w, size: int, rng: np.random.Generator) -> CPSample:
    """Draw one CP subset with the sequential procedure of Chen, Dempster &
    Liu (1994, Biometrika 81:457).

    One backward pass builds R(t, items j..) for t <= size; one forward pass
    then includes item j with probability w_j * R(s-1, items j+1..) /
    R(s, items j..), s being the units still needed, until s reaches 0.
    The subset is exactly CP(size, w) distributed, and log_prob, the
    closed-form pmf sum(log w_chosen) - log R(size, w), comes from the
    same table.  Runs on plain lists: the vectors are short and the call
    is hot, so one rng.random call is its only numpy work.
    """
    try:
        ws = [float(x) for x in w]
    except TypeError:
        raise ValueError("weights must be a flat vector") from None
    size = int(size)
    if not (0 <= size <= len(ws)):
        raise ValueError(f"size must be within 0..{len(ws)}, got {size}")
    if ws and min(ws) < 0.0:
        raise ValueError("weights must be nonnegative")
    # zero-weight items can never be drawn; drop them but keep original ids
    pos = [j for j, x in enumerate(ws) if x > 0.0]
    if len(pos) < size:
        raise CPInfeasibleError(f"only {len(pos)} positive weights, need {size}")
    if size == 0:
        return CPSample((), 0.0)
    if size == len(pos):
        return CPSample(tuple(pos), 0.0)

    wmax = max(ws)
    ws = [ws[j] / wmax for j in pos]
    k = len(ws)
    # back[j][t] = R(t, ws[j:]), weights normalized to max 1
    row = [1.0] + [0.0] * size
    back = [row] * (k + 1)
    for j in range(k - 1, -1, -1):
        wj = ws[j]
        row = [1.0] + [row[t] + wj * row[t - 1] for t in range(1, size + 1)]
        back[j] = row
    if not back[0][size] > 0.0:
        raise CPInfeasibleError(f"R({size}, w) underflows to zero")

    u = rng.random(k).tolist()
    chosen: list[int] = []
    log_w = 0.0
    s = size
    for j in range(k):
        # once only s items remain, R(s, rest) == 0 exactly and the ratio
        # is exactly 1, so the pass always ends with s == 0
        if u[j] * back[j][s] < ws[j] * back[j + 1][s - 1]:
            chosen.append(pos[j])
            log_w += math.log(ws[j])
            s -= 1
            if s == 0:
                break
    # float rounding can push a certain event a hair above probability 1
    return CPSample(tuple(chosen), min(log_w - math.log(back[0][size]), 0.0))
