"""Exhaustive expansion of a proposal's decision tree on small problems.

The sampler in sis.py draws one random trajectory; here the same walk
(the steps in layers.py, from the same prepared Walk, for any d) splits
every conditional Poisson draw into one branch per subset the draw can
pick, each edge carrying the draw's own log probability of it, bit for bit
(cpdist.cp_branches).  Leaves are either accepted tables (with their exact
proposal probability q) or dead ends.  On a one-layer walk (d != 3) q is
exp of the sampler's log q bit for bit; on a three-way table the sampler
sums log q per layer, here edge by edge, and the last bit may differ.
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
layer, which cells are still free and every line's residual (see
TableState.memo_key).  Keyed by those as bytes, each node is expanded once
and stored as its edges (branch log probability, the cells the branch sets
to one, the child node).  A later node with the same key replays the stored
edges with no propagation, passing the table down as an int with one byte
per cell.  Replay folds log q edge by edge and emits accepts and rejects in
the walk's order, so every q, the reject mass, the leaf count and the
budget checks are bit-for-bit those of the plain walk.  On semimagic-4-2
the memo holds a few thousand nodes and adds about 3 MB to the 9 MB of
reached tables.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .cpdist import cp_branches
from .layers import (SampleRejected, Walk, layer_shape, next_line, open_line,
                     set_line)
from .oracle import EnumerationBudgetError
from .tables import Dims, InvariantError, MarginalSet

# A memo node is a tuple of edges (lp, bits, child), one per branch in the
# walk's order: lp is the branch's log probability (0.0 for a layer-end
# pass), bits the cells it sets to one (byte cid of an int), child the node
# below or None for a branch that dies in propagation.  _ACCEPT marks a
# finished table, _REJECT a node that dies on entry.
_ACCEPT = ()
_REJECT = ((0.0, 0, None),)


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
    walk = Walk.prepare(m, layer_axis, proposal)
    tables, reject_mass, leaves = _expand(walk, max_leaves)
    if walk.inv is not None:
        # turn every reached table back in one pass: stack the keys as one
        # (tables, *sizes) array, turn it once and cut the C-order bytes
        # into keys again
        stacked = np.frombuffer(b"".join(tables), dtype=np.int8)
        stacked = stacked.reshape((len(tables),) + walk.m.dims.sizes)
        flat = walk.turn_back(stacked).tobytes()
        size = m.dims.ncells
        tables = {
            flat[lo:lo + size]: q
            for lo, q in zip(range(0, len(flat), size), tables.values())
        }
    return PathExpansion(m.dims, tables, reject_mass, leaves)


def _expand(walk: Walk, max_leaves: int) -> tuple[dict[bytes, float], float, int]:
    """The reached tables (in the walk's axis order) with their q, the
    reject mass and the leaf count."""
    try:
        state = walk.fresh()
    except SampleRejected:  # the initial reduction found no table
        return {}, 1.0, 1
    tables: dict[bytes, float] = {}
    tally = {"leaves": 0, "reject": 0.0}

    def leaf_reject(logp: float) -> None:
        tally["leaves"] += 1
        tally["reject"] += math.exp(logp)

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
            p = logp + lp
            if child is None:
                leaf_reject(p)
            else:
                check_budget()
                replay(child, out | bits, p)

    def visit(layer: int, out: int, logp: float) -> tuple:
        """Enter the node below the current state: replay it if its key is
        in the memo, else expand it, store it and return it."""
        check_budget()
        key = layer_tag[layer + 1] + state.memo_key()
        node = memo.get(key)
        if node is not None:
            replay(node, out, logp)
            return node
        entry = state.mark()
        lid = next_line(state, layer) if layer >= 0 else -1
        try:  # a dead end before any branch is a reject leaf
            if lid < 0:
                # a layer-end pass that sets ones is an edge, else go on here
                layer = walk.advance(state, layer)
                bits = ones_since(entry)
                if bits:
                    node = ((0.0, bits, visit(layer, out | bits, logp)),)
                elif layer < 0:
                    accept(out, logp)
                    node = _ACCEPT
                else:
                    lid = next_line(state, layer)
            if node is None:
                free_cids, certain, branches = open_line(state, lid,
                                                         cp_branches, "")
        except SampleRejected:
            leaf_reject(logp)
            node = _REJECT
        if node is None:
            edges = []
            for picked, lp in branches:
                mark = state.mark()
                if set_line(state, free_cids, certain, picked, walk.masked):
                    bits = ones_since(mark)
                    edges.append((lp, bits, visit(layer, out | bits, logp + lp)))
                else:
                    leaf_reject(logp + lp)
                    edges.append((lp, 0, None))
                state.undo_to(mark)
            node = tuple(edges)
        state.undo_to(entry)
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
    return tables, tally["reject"], tally["leaves"]
