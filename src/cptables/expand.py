"""Exhaustive expansion of a proposal's decision tree on small problems.

The sampler in sis.py draws one random trajectory; here the same walk
(the steps in layers.py, from the same prepared start, for any d) splits
every conditional Poisson draw into one branch per admissible subset of
the line's free cells, weighted by the exact CP probability.  Leaves are
either accepted tables (with their exact proposal probability q) or dead
ends.
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

The walk is memoized.  Below a node the subtree depends only on the current
layer, which cells are still free and every line's residual: the values
already placed act only through the residuals.  Keyed by those as bytes,
each node is expanded once and stored as its edges (branch log probability,
the cells the branch sets to one, the child node).  A later node with the
same key replays the stored edges with no propagation, passing the table
down as an int with one byte per cell.  Replay folds log q edge by edge and
emits accepts and rejects in the walk's order, so every q, the reject mass,
the leaf count and the budget checks are bit-for-bit those of the plain
walk.  On semimagic-4-2 the memo holds a few thousand nodes and adds about
3 MB to the 9 MB of reached tables.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from .cpdist import log_esym
from .layers import layer_shape, line_weights, next_layer, next_line, set_line
from .oracle import EnumerationBudgetError
from .sis import _masked_axes, _prepare, _Start
from .tables import Dims, InvariantError, MarginalSet, validate_marginals

# A memo node is a tuple of edges (lp, bits, child), one per branch in the
# walk's order: lp is the branch's log probability (None for a layer pass),
# bits the cells it sets to one (byte cid of an int), child the node below
# or None for a branch that dies in propagation.  _ACCEPT marks a finished
# table, _REJECT a node that dies on entry.
_ACCEPT = ()
_REJECT = ((None, 0, None),)
# memo keys mark free cells (-1, byte 0xff) with 1 and set cells with 0
_FREE = bytes(255) + b"\x01"


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
    """Expand every trajectory of the proposal that sample_table draws
    from with the same layer axis and preset."""
    validate_marginals(m)
    nosat = _masked_axes(proposal, m.dims.d)
    start = _prepare(m, layer_axis)
    inner = _expand(start, nosat, max_leaves)
    if start.inv is None:
        return inner
    # turn every reached table back in one pass: stack the keys as one
    # (tables, *sizes) array, transpose it once and cut the C-order bytes
    # into keys again
    stacked = np.frombuffer(b"".join(inner.tables), dtype=np.int8)
    stacked = stacked.reshape((len(inner.tables),) + inner.dims.sizes)
    flat = np.transpose(stacked, (0,) + tuple(1 + a for a in start.inv)).tobytes()
    size = m.dims.ncells
    tables = {
        flat[lo:lo + size]: q
        for lo, q in zip(range(0, len(flat), size), inner.tables.values())
    }
    return PathExpansion(m.dims, tables, inner.reject_mass, inner.leaves)


def _expand(start: _Start, nosat: tuple[int, ...], max_leaves: int) -> PathExpansion:
    dims = start.m.dims
    tables: dict[bytes, float] = {}
    tally = {"leaves": 0, "reject": 0.0}

    def leaf_reject(logp: float) -> None:
        tally["leaves"] += 1
        tally["reject"] += math.exp(logp)

    if start.root is None:
        leaf_reject(0.0)
        return PathExpansion(dims, tables, tally["reject"], tally["leaves"])

    state = start.fresh()
    ncells = state.geo.ncells
    # tables travel down the walk as ints, one byte per cell in C order
    one = [1 << 8 * cid for cid in range(ncells)]
    nlayers = layer_shape(state.geo)[0]
    layer_tag = [i.to_bytes(4, "little", signed=True) for i in range(-1, nlayers)]
    memo: dict[bytes, tuple] = {}

    def ones_since(mark: int) -> int:
        """The cells set to one since the trail mark, as table bits."""
        cells = state.cells
        bits = 0
        for cid in state.trail[mark:]:
            if cells[cid] == 1:
                bits |= one[cid]
        return bits

    def check_budget() -> None:
        if tally["leaves"] > max_leaves:
            raise EnumerationBudgetError(tally["leaves"], len(tables))

    def accept(out: int, logp: float) -> None:
        key = out.to_bytes(ncells, "little")
        if key in tables:
            raise InvariantError("two proposal paths reached one table")
        tables[key] = math.exp(logp)
        tally["leaves"] += 1

    def replay(node: tuple, out: int, logp: float) -> None:
        # the walk's leaf and reject events again, in the same order and
        # with logp folded edge by edge, so every q comes out bit-identical
        if node is _ACCEPT:
            accept(out, logp)
            return
        for lp, bits, child in node:
            p = logp if lp is None else logp + lp
            if child is None:
                leaf_reject(p)
            else:
                check_budget()
                replay(child, out | bits, p)

    def visit(layer: int, out: int, logp: float) -> tuple:
        """Enter the node below the current state: replay it if its key is
        in the memo, else expand it, store it and return it."""
        check_budget()
        key = (layer_tag[layer + 1] + state.residual_bytes()
               + array("b", state.cells).tobytes().translate(_FREE))
        node = memo.get(key)
        if node is not None:
            replay(node, out, logp)
            return node
        lid = next_line(state, layer) if layer >= 0 else -1
        if lid < 0 and layer >= 0 and nosat:
            # the layer is done: the classic layer-end pass is one edge
            mark = state.mark()
            if state.close_saturated() >= 0:
                leaf_reject(logp)
                node = _REJECT
            else:
                bits = ones_since(mark)
                node = ((None, bits, visit(-1, out | bits, logp)),)
            state.undo_to(mark)
        elif lid < 0:
            layer = next_layer(state)
            if layer < 0:
                accept(out, logp)
                node = _ACCEPT
            else:
                lid = next_line(state, layer)
        if node is None:
            free_cids, weights, certain = line_weights(state, lid)
            size = state.rs[lid] - len(certain)
            positives = [i for i, w in enumerate(weights) if w > 0]
            if size < 0 or size > len(positives):
                leaf_reject(logp)
                node = _REJECT
            else:
                # CP pmf of each subset: sum of its log weights minus log
                # R, with R and the logs computed once per line
                log_r = log_esym(weights, size)
                log_w = [math.log(w) if w > 0 else -math.inf for w in weights]
                edges = []
                for picked in combinations(positives, size):
                    lp = min(sum(log_w[i] for i in picked) - log_r, 0.0)
                    mark = state.mark()
                    if set_line(state, free_cids, certain, picked, nosat):
                        bits = ones_since(mark)
                        child = visit(layer, out | bits, logp + lp)
                        edges.append((lp, bits, child))
                    else:
                        leaf_reject(logp + lp)
                        edges.append((lp, 0, None))
                    state.undo_to(mark)
                node = tuple(edges)
        memo[key] = node
        return node

    try:
        # the root's table holds the ones the initial reduction forced
        visit(-1, int.from_bytes(bytes(c == 1 for c in state.cells), "little"),
              0.0)
    finally:
        # the walkers refer to each other and themselves through their
        # closures; break those cycles so the tables, the memo and the
        # state are freed on return, not at the next full garbage collection
        del visit, replay
    return PathExpansion(dims, tables, tally["reject"], tally["leaves"])
