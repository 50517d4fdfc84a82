import math
from collections import deque

import numpy as np
import pytest

from cptables import (
    BinaryTable,
    CPInfeasibleError,
    cp_log_pmf,
    marginals_of,
    semimagic_margins,
)
from cptables.layers import (
    SampleRejected,
    draw_line,
    layer_shape,
    line_weights,
    next_layer,
    next_line,
    sample_layer,
)
from cptables.reduction import FREE, TableState


def _line(state, axis, index):
    """Flat id of the line along `axis` through `index`, the coordinates
    on the other axes in order."""
    geo = state.geo
    shape = geo.sizes[:axis] + geo.sizes[axis + 1:]
    return geo.offset[axis] + int(np.ravel_multi_index(index, shape))


def _state_of(cells):
    return TableState.from_marginals(marginals_of(BinaryTable.from_array(cells)))


def test_layer_shape_per_dimension():
    # three-way: slices along axis 0, each with its sizes[1] lines along
    # axis 2; any other d: one layer of every line along the last axis
    assert layer_shape(TableState.from_marginals(semimagic_margins(3, 1)).geo) == (3, 3)
    assert layer_shape(_state_of(np.zeros((4, 5, 2), dtype=int)).geo) == (4, 5)
    assert layer_shape(_state_of(np.zeros((3, 4), dtype=int)).geo) == (1, 3)
    assert layer_shape(_state_of(np.zeros((2, 3, 2, 4), dtype=int)).geo) == (1, 12)


def test_next_line_breaks_ties_by_index():
    # layer 0's depth lines hold residuals 1, 2, 2: the first of the two
    # largest goes first; filled lines drop out, a filled layer gives -1
    cells = np.array([[[1, 0, 0], [1, 1, 0], [0, 1, 1]],
                      [[1, 1, 1], [0, 0, 1], [1, 1, 0]]])
    state = _state_of(cells)
    assert next_line(state, 0) == _line(state, 2, (0, 1))
    pending = deque()
    for k in range(3):
        state.set_cell(int(np.ravel_multi_index((0, 1, k), cells.shape)),
                       int(cells[0, 1, k]), pending)
    assert next_line(state, 0) == _line(state, 2, (0, 2))
    for j in (0, 2):
        for k in range(3):
            state.set_cell(int(np.ravel_multi_index((0, j, k), cells.shape)),
                           int(cells[0, j, k]), pending)
    assert next_line(state, 0) == -1


def test_next_layer_ranks_by_ones_left_and_skips_filled_layers():
    # layer 1 holds 6 ones against layer 0's 5
    cells = np.array([[[1, 0, 0], [1, 1, 0], [0, 1, 1]],
                      [[1, 1, 1], [0, 0, 1], [1, 1, 0]]])
    state = _state_of(cells)
    assert next_layer(state) == 1
    pending = deque()
    for cid in range(9, 18):
        state.set_cell(cid, int(cells.flat[cid]), pending)
    assert next_layer(state) == 0
    # ties go to the smallest index
    assert next_layer(TableState.from_marginals(semimagic_margins(3, 1))) == 0
    # a single layer for any other d, until every cell is set
    two_way = _state_of(np.array([[1, 0], [0, 1]]))
    assert next_layer(two_way) == 0
    for cid in range(4):
        two_way.set_cell(cid, int(cid in (0, 3)), pending)
    assert next_layer(two_way) == -1


def test_line_weights_on_two_and_four_way_tables():
    # two-way: one crossing line per cell, odds r / (n - r) of its column
    cells = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 0]])
    state = _state_of(cells)
    free_cids, weights, certain = line_weights(state, _line(state, 1, (0,)))
    assert free_cids == [0, 1, 2, 3] and certain == []
    assert weights == [2.0, 0.5, 2.0, 0.5]
    # four-way, every line sum 1 over 3 cells: three crossing factors 1/2
    idx = np.indices((3, 3, 3, 3))
    state = _state_of((idx[3] == idx[:3].sum(axis=0) % 3).astype(int))
    free_cids, weights, certain = line_weights(state, _line(state, 3, (0, 0, 0)))
    assert free_cids == [0, 1, 2] and certain == []
    assert weights == [0.125] * 3


def test_line_weights_odds_formula():
    # 3x3x3 cube, every margin 2: first depth line has crossing residuals
    # r = 2 over 3 free cells both ways, so w = (2*2) / ((3-2)*(3-2)) = 4
    state = TableState.from_marginals(semimagic_margins(3, 2))
    lid = _line(state, 2, (0, 0))
    free_cids, weights, certain = line_weights(state, lid)
    assert free_cids == [0, 1, 2]
    assert weights == [4.0, 4.0, 4.0]
    assert certain == []


def test_line_weights_zero_residual_crossing_gives_zero_weight():
    # at propagation fixpoints every free cell has positive crossing
    # residuals, so exercise the defensive zero-odds branch on a state
    # that has not been re-propagated
    state = TableState.from_marginals(semimagic_margins(3, 1))
    state.set_cell(0, 1, deque())  # (0,0,0) = 1, propagation withheld
    lid = _line(state, 1, (0, 1))  # cells (0,0,1), (0,1,1), (0,2,1)
    free_cids, weights, certain = line_weights(state, lid)
    assert certain == []
    assert free_cids == [1, 4, 7]
    assert weights[0] == 0.0  # crosses the exhausted depth line (0,0,.)
    assert weights[1] > 0 and weights[2] > 0


def test_line_weights_saturated_crossing_is_certain():
    # mask the saturation rule and leave the depth line (0,0,.) saturated
    # (residual 2 over 2 free cells); the cell crossing it is a certain
    # inclusion, and the CP runs over the other two cells only
    state = TableState.from_marginals(semimagic_margins(3, 2))
    pending = deque()
    state.set_cell(2, 0, pending)  # (0,0,2) = 0
    assert state.propagate(pending, masked=True) < 0
    lid = _line(state, 0, (0, 0))  # cells (i, 0, 0)
    free_cids, weights, certain = line_weights(state, lid)
    assert certain == [0]
    assert free_cids == [9, 18]
    assert weights == [4.0, 4.0]


class ScriptedChoose:
    """Deterministic stand-in for the CP draw: returns scripted free-cell
    positions and the exact pmf value a real draw would report."""

    def __init__(self, picks):
        self.picks = list(picks)
        self.calls = []

    def __call__(self, weights, size):
        pick = self.picks.pop(0)
        assert len(pick) == size
        self.calls.append((tuple(weights), size))
        return pick, cp_log_pmf(weights, size, pick)


def test_draw_line_sets_cells_and_returns_log_prob():
    state = TableState.from_marginals(semimagic_margins(3, 2))
    lid = _line(state, 2, (0, 0))
    choose = ScriptedChoose([(0, 2)])
    log_prob = draw_line(state, lid, choose, "layer=0")
    assert state.cells[0] == 1 and state.cells[1] == 0 and state.cells[2] == 1
    # symmetric weights: every pair equally likely, three pairs
    assert math.isclose(log_prob, math.log(1.0 / 3.0))
    assert choose.calls == [((4.0, 4.0, 4.0), 2)]


def test_draw_line_includes_certain_cells_at_no_cost():
    state = TableState.from_marginals(semimagic_margins(3, 2))
    pending = deque()
    state.set_cell(2, 0, pending)  # (0,0,2) = 0; line (0,0,.) saturated
    assert state.propagate(pending, masked=True) < 0
    lid = _line(state, 0, (0, 0))
    choose = ScriptedChoose([(0,)])
    log_prob = draw_line(state, lid, choose, "layer=0", masked=True)
    # the certain cell went in with probability one; only the remaining
    # two cells took part in the residual size-1 draw
    assert state.cells[0] == 1
    assert state.cells[9] == 1 and state.cells[18] == 0
    assert choose.calls == [((4.0, 4.0), 1)]
    assert math.isclose(log_prob, math.log(0.5))


def test_draw_line_overcommit_rejects():
    # both cells of a residual-1 line forced certain by saturated
    # crossings (state deliberately left stale): the draw size goes
    # negative and the line is overcommitted
    state = TableState.from_marginals(semimagic_margins(2, 1))
    for cid in (2, 3, 4):
        state.set_cell(cid, 0, deque())
    lid = _line(state, 2, (1, 1))
    free_cids, weights, certain = line_weights(state, lid)
    assert certain == [6, 7]
    with pytest.raises(SampleRejected) as e:
        draw_line(state, lid, ScriptedChoose([()]), "layer=1 column=1")
    assert "overcommitted" in str(e.value)


def test_draw_line_cp_infeasible_rejects():
    state = TableState.from_marginals(semimagic_margins(3, 1))

    def broken_choose(weights, size):
        raise CPInfeasibleError("forced for the test")

    lid = _line(state, 2, (0, 0))
    with pytest.raises(SampleRejected) as e:
        draw_line(state, lid, broken_choose, "layer=0 column=0")
    assert "cp-infeasible" in str(e.value)


def test_draw_line_propagation_failure_rejects():
    # a poisoned state (one cell planted without propagation) makes the
    # draw's own propagation pass surface the contradiction
    state = TableState.from_marginals(semimagic_margins(2, 1))
    state.set_cell(2, 1, deque())  # (0,1,0) = 1, lines left stale
    lid = _line(state, 2, (0, 0))
    with pytest.raises(SampleRejected) as e:
        draw_line(state, lid, ScriptedChoose([(0,)]), "layer=0 column=0")
    assert "layer=0 column=0" in str(e.value)


def test_sample_layer_accumulates_log_q_and_fills_layer():
    state = TableState.from_marginals(semimagic_margins(3, 1))
    assert state.initial_reduce() < 0
    # layer 0 lines all start at residual 1 over 3 cells; after two draws
    # at probabilities 1/3 and 1/2 the last line is forced for free
    choose = ScriptedChoose([(0,), (1,)])
    log_q = sample_layer(state, 0, choose)
    assert math.isclose(log_q, math.log(1.0 / 3.0) + math.log(1.0 / 2.0))
    assert len(choose.calls) == 2
    layer = state.cells_array()[0]
    assert np.all(layer >= 0)
    assert np.array_equal(layer.sum(axis=1), [1, 1, 1])
    assert np.array_equal(layer.sum(axis=0), [1, 1, 1])


def _reference_line_weights(state, lid):
    """line_weights as the per-cell float-product loop over each cell's d
    lines, skipping the drawn line's own axis."""
    geo = state.geo
    axis = geo.line_axis[lid]
    free_cids, weights, certain = [], [], []
    for cid in geo.line_cells[lid]:
        if state.cells[cid] != FREE:
            continue
        num = 1.0
        den = 1.0
        for b, cross in enumerate(geo.cell_lines[cid]):
            if b == axis:
                continue
            num *= state.rs[cross]
            den *= state.zs[cross]
        if den == 0.0 and num > 0.0:
            certain.append(cid)
        else:
            free_cids.append(cid)
            weights.append(num / den if den > 0.0 else 0.0)
    return free_cids, weights, certain


@pytest.mark.parametrize("shape", [(5, 7), (4, 5, 6), (3, 3, 4, 3)])
def test_line_weights_matches_the_float_product_reference(shape):
    # random partial fillings of random tables, cells set directly (no
    # forcing rules), so lines with no ones left or no zeros left cross
    # lines that still have free cells; every line of every axis is checked
    rng = np.random.default_rng(len(shape))
    seen = {"certain": 0, "zero": 0, "odds": 0}
    for _ in range(40):
        truth = (rng.random(shape) < rng.uniform(0.2, 0.8)).astype(int)
        state = _state_of(truth)
        reveal = rng.random(truth.size) < rng.uniform(0.2, 0.8)
        for cid in np.flatnonzero(reveal).tolist():
            v = int(truth.flat[cid])
            state.cells[cid] = v
            for lid in state.geo.cell_lines[cid]:
                (state.rs if v else state.zs)[lid] -= 1
        for lid in range(state.geo.nlines):
            free_cids, weights, certain = line_weights(state, lid)
            ref_free, ref_weights, ref_certain = _reference_line_weights(state, lid)
            assert free_cids == ref_free and certain == ref_certain
            assert all(type(w) is float for w in weights)
            assert [w.hex() for w in weights] == [w.hex() for w in ref_weights]
            seen["certain"] += len(certain)
            seen["zero"] += weights.count(0.0)
            seen["odds"] += len(weights) - weights.count(0.0)
    assert min(seen.values()) > 0, seen
