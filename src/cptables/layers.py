"""The steps of one proposal walk, shared by the sampler and the expander.

A walk fills the table layer by layer and, inside a layer, line by line.
A three-way table's layers are its slices along the first axis, each made
of its lines along the last axis.  Any other table is a single layer made
of every line along its last axis.  next_layer picks the layer with the
most ones left (ties to the smallest index); next_line picks, inside it,
the line with the largest residual sum (ties to the smallest id).  Each
line is one conditional Poisson draw whose weights come from the residual
cross margins:

    w = prod over the crossing lines b of rs_b / zs_b

with rs/zs the ones and zeros still to place in the lines through the
cell that cross the drawn line (two factors in a three-way table, one in a
two-way table; the geometry lists them per cell of the line).  A crossing
line that is saturated (zs_b == 0) makes the cell a certain inclusion: it
is set to one with probability one before the conditional Poisson draw
over the remaining cells, adding nothing to log q.  set_line hands a
draw's cells to TableState.propagate: the certain and picked cells as its
ones and every free cell of the line as its zeros (the ones are set by
then, and propagate skips a cell that is set).  propagate places them and
re-runs the structure rules on the residual problem (the saturation rule
masked under the classic preset, see Walk); cells they force are
probability-1 events and also add nothing to log q.  The final line of a
layer (and the final layer of a table) is therefore filled
deterministically by propagation, and any residual mismatch surfaces as
infeasibility, i.e. a rejection.

Only Walk.advance picks the next layer and runs the layer-end pass (Walk.run
loops it with sample_layer), and only open_line sets up a line's draw.
sis.py runs a walk with one draw per line; expand.py takes the same steps
and branches over every subset the draw can pick instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .cpdist import CPInfeasibleError
from .reduction import TableState
from .tables import (CPTablesError, Dims, MarginalSet, permute_marginal_axes,
                     validate_marginals)

PROPOSALS = ("classic", "guided")


class WalkOptionError(CPTablesError, ValueError):
    """A walk option out of range: args (option, rule); str() joins them."""

    def __str__(self):
        return " ".join(self.args)


class SampleRejected(Exception):
    """Internal control flow: the current proposal ran into a dead end."""

    def __init__(self, stage: str):
        super().__init__(stage)
        self.stage = stage


@dataclass(frozen=True)
class Walk:
    """One proposal setting, prepared once for all its walks: m, the
    margins with the layers along axis 0; inv, the inverse of that turn
    (None if not turned); dims, the input's shape; root, the reduced root
    (None when the initial reduction finds m infeasible); and masked.

    Two proposal presets differ in how hard mid-run propagation forces:

      * "classic"  - between draws inside a layer, only the cheap rules fire
        (zero residual -> zero-fill, one free cell -> fill it); a line whose
        residual equals its free-cell count (>= 2) stays open.  When a later
        draw crosses such a line, its cells enter with probability one
        (certain inclusions: the conditional Poisson limit of infinite odds,
        contributing log 1 to log q).  Each time a layer completes, one
        full-strength reduction pass (TableState.close_saturated) closes out
        whatever the light rules left behind, and a contradiction there
        rejects the sample.
      * "guided"   - saturated lines are filled immediately everywhere (all
        remaining cells 1), so infeasibility surfaces as early as per-line
        bounds can see it.  Higher acceptance on hard instances, same
        estimator target.

    They are different proposal distributions, so per-sample weights (and the
    acceptance rate and cv^2) differ; both are supported on all tables with
    the requested margins, so both give unbiased counts.  Tables with d != 3
    have a single layer, so they have no layer pass to defer saturation to:
    both presets run the guided rules there and coincide.  So a preset's
    policy on a table is one flag, masked: true only under classic on a
    three-way table; a layer ends with the full-strength pass exactly when
    it is set.  Initial reduction always applies the saturation rule: full
    lines in the *input* margins are structural ones, not sampling events.
    """

    m: MarginalSet
    inv: tuple[int, ...] | None
    dims: Dims
    root: TableState | None
    masked: bool

    @classmethod
    def prepare(cls, m: MarginalSet, layer_axis: int = 0,
                proposal: str = "classic") -> "Walk":
        """Validate the margins, then the walk options (their one rule):
        layer_axis >= 0, and < 3 on a three-way table; proposal in
        PROPOSALS.  Turn a three-way table's layer axis to the front and
        reduce the root once.  Any other d ignores a nonnegative layer_axis."""
        validate_marginals(m)
        dims, inv = m.dims, None
        if layer_axis < 0:
            raise WalkOptionError("layer_axis", f"must be >= 0, got {layer_axis}")
        if m.dims.d == 3 and layer_axis > 2:
            raise WalkOptionError("layer_axis", "must be 0, 1 or 2 for a "
                                  f"three-way table, got {layer_axis}")
        if proposal not in PROPOSALS:
            raise WalkOptionError("proposal", f"must be one of {PROPOSALS}")
        if m.dims.d == 3 and layer_axis != 0:
            perm = (layer_axis,) + tuple(a for a in range(3) if a != layer_axis)
            inv = tuple(int(i) for i in np.argsort(perm))
            m = permute_marginal_axes(m, perm)
        root = TableState.from_marginals(m)
        if root.initial_reduce() >= 0:
            root = None
        return cls(m, inv, dims, root, proposal == "classic" and m.dims.d == 3)

    def fresh(self) -> TableState:
        """A walk's own copy of the reduced root."""
        if self.root is None:
            raise SampleRejected("initial-reduction")
        return self.root.copy()

    def advance(self, state: TableState, layer: int) -> int:
        """End a layer (-1: before the first one): run the layer-end pass
        when masked, raising SampleRejected on a contradiction, then return
        the next layer, -1 when none is left."""
        if self.masked and layer >= 0 and state.close_saturated() >= 0:
            raise SampleRejected(f"layer={layer} closing-pass")
        return next_layer(state)

    def run(self, state: TableState, choose) -> float:
        """Walk a fresh state to the end; return log q, the sum of the
        draws' log probabilities.  choose(weights, size) draws a line: the
        picked positions, ascending, and their log probability.  Raises
        SampleRejected at a dead end, leaving the state where it stopped."""
        log_q = 0.0
        layer = self.advance(state, -1)
        while layer >= 0:
            log_q += sample_layer(state, layer, choose, self.masked)
            layer = self.advance(state, layer)
        return log_q

    def turn_back(self, cells: np.ndarray) -> np.ndarray:
        """Tables in the walk's axis order, in the input's; a stack axis
        may lead."""
        if self.inv is None:
            return cells
        lead = tuple(range(cells.ndim - len(self.inv)))
        return np.transpose(cells, lead + tuple(len(lead) + a for a in self.inv))


def layer_shape(geo) -> tuple[int, int]:
    """(number of layers, lines per layer).  Layer i holds the lines from
    offset[d-1] + i * (lines per layer) on, all along the last axis."""
    if geo.d == 3:
        return geo.sizes[0], geo.sizes[1]
    return 1, geo.nlines - geo.offset[-1]


def next_layer(state: TableState) -> int:
    """The layer with the most ones left, ties to the smallest index; -1
    once every layer is fully determined."""
    nlayers, n = layer_shape(state.geo)
    lo = state.geo.offset[-1]
    rs = state.rs
    zs = state.zs
    best_i = -1
    best_ones = -1
    for i in range(nlayers):
        hi = lo + n
        ones_left = sum(rs[lo:hi])
        if ones_left > best_ones and (ones_left or any(zs[lo:hi])):
            best_ones = ones_left
            best_i = i
        lo = hi
    return best_i


def next_line(state: TableState, layer: int) -> int:
    """The open line of a layer with the largest residual sum, ties to the
    smallest id; -1 once every line of the layer is filled."""
    n = layer_shape(state.geo)[1]
    lo = state.geo.offset[-1] + layer * n
    return _next_line_in(state, lo, lo + n)


def _next_line_in(state: TableState, lo: int, hi: int) -> int:
    rs = state.rs
    zs = state.zs
    best_lid = -1
    best_rs = -1
    for lid in range(lo, hi):
        r = rs[lid]
        if r > best_rs and (r or zs[lid]):
            best_rs = r
            best_lid = lid
    return best_lid


def line_weights(
    state: TableState, lid: int
) -> tuple[list[int], list[float], list[int]]:
    """Free cells of a line, their CP odds from the residual cross margins,
    and the certain cells.

    A cell whose crossing line is saturated (no zeros left to place)
    must be a one; its inclusion probability is one, which the odds form
    cannot express (division by zero), so such cells are returned in the
    third slot instead: the draw includes them with certainty, at no cost
    to log q, and runs the CP over the remaining cells only.  This is the
    limit of the CP law as those odds grow without bound, so the proposal
    stays a proper distribution.  A crossing line with residual zero yields
    odds zero, which the CP handles natively (never chosen).  A cell pinned
    both ways (zero residual on one crossing line, saturation on the other)
    is a dead end that the bound check after the draw surfaces.

    The products are exact ints and one true division rounds them, which
    gives the bits of the same products taken in floats."""
    geo = state.geo
    rs = state.rs
    zs = state.zs
    cells = state.cells
    free_cids: list[int] = []
    weights: list[float] = []
    certain: list[int] = []
    for cid, cross in geo.crossing[lid] or geo.crossings(lid):
        if cells[cid] < 2:  # set
            continue
        num = den = 1
        for b in cross:
            num *= rs[b]
            den *= zs[b]
        if den == 0 and num > 0:
            certain.append(cid)
        else:
            free_cids.append(cid)
            weights.append(num / den if den > 0 else 0.0)
    return free_cids, weights, certain


def set_line(
    state: TableState, free_cids, certain, picked, masked=False
) -> bool:
    """Set a line's certain cells to one, the free cells at the picked
    positions to one and the other free cells to zero, in one propagate
    call.  Returns False when propagation finds a dead end.

    The ones go in as given: the certain cells, then the picked positions
    in their order (ascending from every chooser).  The zeros are all of
    free_cids, because propagate skips a cell that is already set."""
    ones = certain + [free_cids[p] for p in picked]
    return state.propagate(deque(), masked, ones, free_cids) < 0


def open_line(state: TableState, lid: int, draw, stage: str):
    """A line's free cells, its certain cells and draw(weights, size), size
    being the ones due after the certain cells.  Raises SampleRejected
    (`stage`, line id, overcommitted or cp-infeasible) before setting any."""
    free_cids, weights, certain = line_weights(state, lid)
    size = state.rs[lid] - len(certain)
    if size < 0 or size > len(free_cids):
        raise SampleRejected(f"{stage} line={lid} overcommitted")
    try:
        return free_cids, certain, draw(weights, size)
    except CPInfeasibleError:
        raise SampleRejected(f"{stage} line={lid} cp-infeasible") from None


def draw_line(
    state: TableState, lid: int, choose, stage: str, masked=False
) -> float:
    """Fill one line with a CP draw over its free cells; propagate; return
    the draw's log probability.  Raises SampleRejected on a dead end, its
    stage being `stage`, the line id and the kind of failure."""
    free_cids, certain, (picked, log_prob) = open_line(state, lid, choose, stage)
    if not set_line(state, free_cids, certain, picked, masked):
        raise SampleRejected(f"{stage} line={lid}")
    return log_prob


def sample_layer(
    state: TableState, layer: int, choose, masked=False
) -> float:
    """Draw every still-open line of one layer, in next_line order; return
    the layer's log q.

    The state must be at a fixpoint.  Mutates it in place; raises
    SampleRejected when a draw leads to an infeasible residual problem.
    """
    log_q = 0.0
    stage = f"layer={layer}"
    n = layer_shape(state.geo)[1]
    lo = state.geo.offset[-1] + layer * n
    while True:
        lid = _next_line_in(state, lo, lo + n)
        if lid < 0:
            return log_q
        log_q += draw_line(state, lid, choose, stage, masked)
