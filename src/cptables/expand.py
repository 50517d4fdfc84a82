"""Exhaustive expansion of a proposal's decision tree on small problems.

The samplers in sis.py draw one random trajectory; here every conditional
Poisson draw is split into one branch per admissible subset of the line's
free cells, weighted by the exact CP probability.  Leaves are either
accepted tables (with their exact proposal probability q) or dead ends.
Branch probabilities over all leaves sum to one, giving with no Monte Carlo
noise:

  * the exact acceptance rate of the proposal,
  * q(X) for every table X the proposal can produce,
  * the exact moments of the importance weight Y = 1{accepted} / q, hence
    the exact estimator mean (the table count, when the proposal reaches
    every table) and the exact cv^2.

Tree size is bounded by the number of consistent partial fillings, not by
branching ^ depth: inconsistent branches die quickly under propagation.
Still, keep this to desk-scale problems; max_leaves guards the walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from .cpdist import log_esym
from .layers import line_weights
from .oracle import EnumerationBudgetError
from .reduction import TableState
from .sis import _Policy, _policy
from .tables import (
    Dims,
    InvariantError,
    MarginalSet,
    permute_marginal_axes,
    validate_marginals,
)


@dataclass(frozen=True)
class PathExpansion:
    """Full decision tree of one proposal distribution.

    tables maps each reachable table (C-order int8 bytes of the cell
    array) to its exact proposal probability q.  reject_mass is the total
    probability of the dead-end leaves.
    """

    dims: Dims
    tables: dict[bytes, float]
    reject_mass: float
    leaves: int

    @property
    def acceptance(self) -> float:
        return 1.0 - self.reject_mass

    @property
    def total_mass(self) -> float:
        return sum(self.tables.values()) + self.reject_mass

    def table_array(self, key: bytes) -> np.ndarray:
        return np.frombuffer(key, dtype=np.int8).reshape(self.dims.sizes)

    def weight_mean(self) -> float:
        """E[Y] = sum over accepted leaves of q * (1/q) = number of tables
        the proposal can reach.  Equals the true count iff none is missed."""
        return float(len(self.tables))

    def cv2(self) -> float:
        """Exact squared coefficient of variation of the weight conditional
        on acceptance, the quantity the running diagnostic estimates."""
        qs = np.array(list(self.tables.values()))
        if qs.size == 0:
            return math.nan
        acc = self.acceptance
        mean = qs.size / acc
        second = float(np.sum(1.0 / qs)) / acc
        return max(second / (mean * mean) - 1.0, 0.0)


def expand_paths(
    m: MarginalSet,
    *,
    layer_axis: int = 0,
    proposal: str = "classic",
    max_leaves: int = 2_000_000,
) -> PathExpansion:
    """Expand every trajectory of the three-way layered proposal."""
    validate_marginals(m)
    if m.dims.d != 3:
        raise ValueError("expand_paths needs a three-way marginal set")
    if not 0 <= layer_axis < 3:
        raise ValueError("layer_axis must be 0, 1 or 2")
    policy = _policy(proposal)
    if layer_axis != 0:
        perm = (layer_axis,) + tuple(a for a in range(3) if a != layer_axis)
        inner = _expand3(permute_marginal_axes(m, perm), policy, max_leaves)
        inv = tuple(int(i) for i in np.argsort(perm))
        tables = {
            np.ascontiguousarray(
                np.transpose(inner.table_array(k), inv)
            ).tobytes(): q
            for k, q in inner.tables.items()
        }
        return PathExpansion(m.dims, tables, inner.reject_mass, inner.leaves)
    return _expand3(m, policy, max_leaves)


def _expand3(m: MarginalSet, policy: _Policy, max_leaves: int) -> PathExpansion:
    state = TableState.from_marginals(m)
    tables: dict[bytes, float] = {}
    tally = {"leaves": 0, "reject": 0.0}

    def leaf_reject(logp: float) -> None:
        tally["leaves"] += 1
        tally["reject"] += math.exp(logp)

    if state.initial_reduce() >= 0:
        leaf_reject(0.0)
        return PathExpansion(m.dims, tables, tally["reject"], tally["leaves"])

    nlayers, n, _ = state.geo.sizes
    base = state.geo.offset[2]

    def next_layer() -> int:
        best_i = -1
        best_ones = -1
        for i in range(nlayers):
            lo = base + i * n
            ones_left = 0
            free_cnt = 0
            for lid in range(lo, lo + n):
                ones_left += state.rs[lid]
                free_cnt += state.free[lid]
            if free_cnt > 0 and ones_left > best_ones:
                best_ones = ones_left
                best_i = i
        return best_i

    def next_line(layer: int) -> int:
        lo = base + layer * n
        best_lid = -1
        best_rs = -1
        for lid in range(lo, lo + n):
            if state.free[lid] > 0 and state.rs[lid] > best_rs:
                best_rs = state.rs[lid]
                best_lid = lid
        return best_lid

    def recurse(layer: int, logp: float) -> None:
        if tally["leaves"] > max_leaves:
            raise EnumerationBudgetError(tally["leaves"], len(tables))
        if layer >= 0 and next_line(layer) < 0:
            if policy.layer_pass and policy.nosat_mid:
                mark = state.mark()
                if state.initial_reduce() >= 0:
                    state.undo_to(mark)
                    leaf_reject(logp)
                    return
                recurse(-1, logp)
                state.undo_to(mark)
                return
            layer = -1
        if layer < 0:
            layer = next_layer()
            if layer < 0:
                key = state.cells_array().tobytes()
                if key in tables:
                    raise InvariantError("two proposal paths reached one table")
                tables[key] = math.exp(logp)
                tally["leaves"] += 1
                return
        lid = next_line(layer)
        free_cids, weights, certain = line_weights(state, lid)
        size = state.rs[lid] - len(certain)
        positives = [i for i, w in enumerate(weights) if w > 0]
        if size < 0 or size > len(positives):
            leaf_reject(logp)
            return
        # CP pmf of each subset: sum of its log weights minus log R, with
        # R and the logs computed once per line
        log_r = log_esym(weights, size)
        log_w = [math.log(w) if w > 0 else -math.inf for w in weights]
        for picked in combinations(positives, size):
            lp = min(sum(log_w[i] for i in picked) - log_r, 0.0)
            mark = state.mark()
            pending: deque = deque()
            chosen = set(picked)
            for cid in certain:
                state.set_cell(cid, 1, pending)
            for pos, cid in enumerate(free_cids):
                state.set_cell(cid, 1 if pos in chosen else 0, pending)
            if state.propagate(pending, policy.nosat_mid) >= 0:
                leaf_reject(logp + lp)
            else:
                recurse(layer, logp + lp)
            state.undo_to(mark)

    try:
        recurse(-1, 0.0)
    finally:
        # recurse refers to itself through its closure; break that cycle so
        # the tables and the state are freed on return, not at the next
        # full garbage collection
        del recurse
    return PathExpansion(m.dims, tables, tally["reject"], tally["leaves"])
