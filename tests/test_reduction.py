from array import array
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from cptables import (
    BinaryTable,
    Dims,
    fixture,
    marginals3,
    marginals_of,
    semimagic_margins,
)
from cptables.layers import (SampleRejected, line_weights, next_layer, next_line,
                             sample_layer, set_line)
from cptables.reduction import FREE, TableState
from cptables.sis import _rng_chooser


def _reduced(m):
    state = TableState.from_marginals(m)
    assert state.initial_reduce() < 0
    return state


def test_latin_square_margins_pin_nothing():
    m = semimagic_margins(3, 1)
    state = _reduced(m)
    assert state.cells == [FREE] * 27 and state.trail == []
    assert state.rs == [1] * state.geo.nlines
    assert state.free == [3] * state.geo.nlines


def test_zero_and_full_lines_cascade_to_full_determination():
    # this table's margins hold a zero line (axis-0 line at j=0,k=0), a
    # saturated line (axis-0 at j=1,k=1), and zero/saturated depth lines;
    # the rules cascade (each fill reduces a crossing line to one free
    # cell) until every cell is pinned
    cells = np.array([[[0, 0], [1, 1]], [[0, 1], [0, 1]]])
    state = _reduced(marginals_of(BinaryTable.from_array(cells)))
    assert np.array_equal(state.cells_array(), cells)
    assert not any(state.rs) and not any(state.free)


def test_initial_reduce_cascades_from_one_corner():
    cells = np.array([[[1, 1], [1, 0]], [[1, 0], [0, 0]]])
    m = marginals_of(BinaryTable.from_array(cells))
    state = _reduced(m)
    assert state.cells.count(FREE) == 0
    got = marginals_of(BinaryTable.from_array(state.cells_array()))
    for a in range(3):
        assert np.array_equal(got.margins[a], m.margins[a])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3),
       st.integers(2, 4), st.floats(0.2, 0.8))
def test_pinned_cells_agree_with_any_generating_table(seed, a, b, c, dens):
    # structural cells are forced in *every* table with these margins, so
    # they must agree with the table the margins came from
    rng = np.random.default_rng(seed)
    cells = (rng.random((a, b, c)) < dens).astype(int)
    pinned = _reduced(marginals_of(BinaryTable.from_array(cells))).cells_array()
    det = pinned >= 0
    assert np.array_equal(pinned[det], cells[det])


def test_state_set_cell_and_undo_round_trip():
    state = TableState.from_marginals(fixture("ex5_2"))
    rs0 = list(state.rs)
    free0 = list(state.free)
    mark = state.mark()
    pending = deque()
    state.set_cell(0, 1, pending)
    state.set_cell(5, 0, pending)
    assert state.cells[0] == 1 and state.cells[5] == 0
    assert state.rs != rs0 and state.free != free0
    assert len(pending) == 6  # three lines touched per cell
    state.undo_to(mark)
    assert state.cells[0] == FREE and state.cells[5] == FREE
    assert list(state.rs) == rs0 and list(state.free) == free0


def test_propagate_reports_infeasible_line():
    # a 1x1x... style dead end: overfill a line, then propagate
    m = semimagic_margins(2, 1)
    state = TableState.from_marginals(m)
    pending = deque()
    state.set_cell(0, 1, pending)  # cell (0,0,0)
    state.set_cell(1, 1, pending)  # cell (0,0,1): line (0,0,.) now sums 2 > 1
    assert state.propagate(pending) >= 0


def test_saturation_mask_keeps_lines_open():
    # placing a zero leaves the depth line (0,0,.) with residual 2 over 2
    # free cells: saturated; full-strength rules fill it, masked rules defer
    m = semimagic_margins(3, 2)

    state = TableState.from_marginals(m)
    pending = deque()
    state.set_cell(2, 0, pending)  # (0,0,2) = 0
    assert state.propagate(pending) < 0
    assert state.cells[0] == 1 and state.cells[1] == 1

    state2 = TableState.from_marginals(m)
    pending = deque()
    state2.set_cell(2, 0, pending)
    assert state2.propagate(pending, masked=True) < 0
    assert state2.cells[0] == FREE and state2.cells[1] == FREE

    # bound checks still run when masked: overcommitting the open line dies
    pending = deque()
    state2.set_cell(0, 0, pending)
    state2.set_cell(1, 0, pending)
    assert state2.propagate(pending, masked=True) >= 0


def test_single_free_cell_rule_fires_even_when_masked():
    state = TableState.from_marginals(semimagic_margins(2, 1))
    pending = deque()
    state.set_cell(1, 1, pending)  # (0,0,1) = 1
    assert state.propagate(pending, masked=True) < 0
    # zero-residual and one-free-cell rules alone pin the whole cube
    assert state.cells.count(FREE) == 0
    assert state.cells[0] == 0 and state.cells[7] == 1  # (1,1,1) = 1


def test_initial_reduce_detects_root_infeasibility():
    si = [[0, 2], [2, 0]]
    sj = [[1, 1], [1, 1]]
    sk = [[2, 0], [0, 2]]
    state = TableState.from_marginals(marginals3(si, sj, sk))
    assert state.initial_reduce() >= 0


def test_rs_and_free_arrays_track_margins():
    # rs holds each axis's margin in C order, from that axis's offset on
    m = fixture("ex5_3")
    state = TableState.from_marginals(m)
    geo = state.geo
    for a in range(3):
        lo = geo.offset[a]
        hi = lo + m.margins[a].size
        assert state.rs[lo:hi] == m.margins[a].ravel().tolist()
        assert state.free[lo:hi] == [m.dims.sizes[a]] * (hi - lo)
    state.initial_reduce()
    assert all(0 <= r <= f for r, f in zip(state.rs, state.free))


def test_line_id_is_consistent_with_geometry():
    # a line's id is its axis's offset plus the C-order index of its cells'
    # coordinates on the other axes, and every cell lists it for that axis
    geo = TableState.from_marginals(fixture("ex5_2")).geo
    for lid in range(geo.nlines):
        axis = geo.line_axis[lid]
        rest = geo.sizes[:axis] + geo.sizes[axis + 1:]
        assert len(geo.line_cells[lid]) == geo.sizes[axis]
        for cid in geo.line_cells[lid]:
            idx = np.unravel_index(cid, geo.sizes)
            other = tuple(int(i) for b, i in enumerate(idx) if b != axis)
            assert geo.offset[axis] + np.ravel_multi_index(other, rest) == lid
            assert geo.cell_lines[cid][axis] == lid


def test_memo_key_packs_residuals_then_the_free_pattern():
    narrow = TableState.from_marginals(fixture("ex5_2"))
    nlines = narrow.geo.nlines
    key = narrow.memo_key()
    assert array("B", key[:nlines]).tolist() == narrow.rs
    assert key[nlines:] == bytes([1]) * narrow.geo.ncells
    # set cells read 0 whatever their value; a nonzero start drops the
    # cells before it, so the key's length pins the start
    narrow.cells[3] = 1
    narrow.cells[5] = 0
    assert narrow.memo_key()[nlines:] == bytes([1, 1, 1, 0, 1, 0]
                                                + [1] * (narrow.geo.ncells - 6))
    tail = narrow.memo_key(4)
    assert len(tail) == nlines + narrow.geo.ncells - 4
    assert tail[:nlines] == key[:nlines]
    assert tail[nlines:] == narrow.memo_key()[nlines + 4:]
    # a 300 x 2 table has lines of 300 cells: residuals up to 300 need a
    # wider code, and still unpack to the residuals
    cells = np.zeros((300, 2), dtype=np.int8)
    cells[:290, 0] = 1
    cells[::3, 1] = 1
    wide = TableState.from_marginals(marginals_of(BinaryTable(Dims((300, 2)), cells)))
    assert max(wide.rs) >= 256
    code = wide.geo.rs_code
    assert array(code).itemsize >= 2
    width = wide.geo.nlines * array(code).itemsize
    packed = wide.memo_key(wide.geo.ncells)
    assert len(packed) == width
    assert array(code, packed).tolist() == wide.rs
    assert wide.memo_key()[width:] == bytes([1]) * wide.geo.ncells


def _reference_memo_key(state, start):
    """The memo key spelled out: the residuals at the shape's width, then
    one byte per cell from start on, 1 if free and 0 if set."""
    return (array(state.geo.rs_code, state.rs).tobytes()
            + bytes(1 if v == FREE else 0 for v in state.cells[start:]))


def test_memo_key_matches_a_reference_on_random_partial_states():
    # fill seeded random tables' states cell by cell from the table, now
    # and then rewinding up to three marks; at every step the key matches
    # the reference, and the counters those of the cells still free.  The
    # 2 x 300 shape keys its residuals four bytes wide
    rng = np.random.default_rng(22)
    for sizes in [(5, 7), (3, 4, 5), (2, 3, 2, 3), (2, 300)]:
        for _ in range(4):
            table = (rng.random(sizes) < rng.uniform(0.2, 0.9)).astype(int)
            state = _reduced(marginals_of(BinaryTable.from_array(table)))
            geo = state.geo
            assert geo.rs_code == ("I" if max(sizes) >= 256 else "B")
            truth = table.ravel().tolist()
            marks = []
            while True:
                for start in (0, int(rng.integers(geo.ncells + 1)), geo.ncells):
                    assert state.memo_key(start) == _reference_memo_key(state, start)
                free = [c for c, v in enumerate(state.cells) if v == FREE]
                is_free = [v == FREE for v in state.cells]
                assert state.rs == [sum(truth[c] for c in cells if is_free[c])
                                    for cells in geo.line_cells]
                assert state.free == [sum(is_free[c] for c in cells)
                                      for cells in geo.line_cells]
                if not free:
                    break
                if marks and rng.random() < 0.2:
                    i = max(0, len(marks) - int(rng.integers(1, 4)))
                    state.undo_to(marks[i])
                    del marks[i:]
                    continue
                marks.append(state.mark())
                cid = int(rng.choice(free))
                pending = deque()
                state.set_cell(cid, truth[cid], pending)
                assert state.propagate(pending) < 0


def _check_closing_pass(seed, sizes, dens) -> tuple[int, int]:
    """Drive a classic proposal layer by layer; at each layer end (a fixpoint
    of the light rules) run the saturated closing pass and initial_reduce on
    two copies of the state and compare them.  Returns how many of those
    passes set a cell and how many found a contradiction."""
    rng = np.random.default_rng(seed)
    cells = (rng.random(sizes) < dens).astype(int)
    state = TableState.from_marginals(marginals_of(BinaryTable.from_array(cells)))
    assert state.initial_reduce() < 0
    choose = _rng_chooser(rng)
    fired = rejected = 0
    for layer in rng.permutation(sizes[0]).tolist():
        try:
            sample_layer(state, layer, choose, True)
        except SampleRejected:
            break
        before = (list(state.cells), list(state.rs), list(state.free))
        closed, full = state.copy(), state.copy()
        assert closed.trail == [] and full.trail == []
        v_closed, v_full = closed.close_saturated(), full.initial_reduce()
        assert (state.cells, state.rs, state.free) == before
        assert (v_closed >= 0) == (v_full >= 0)
        fired += bool(full.trail)
        if v_full >= 0:
            # on a contradiction the partial fill depends on the worklist
            # order; the proposal is rejected either way
            rejected += 1
            break
        assert closed.cells == full.cells
        assert closed.rs == full.rs
        assert closed.free == full.free
        state = full
    return fired, rejected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5),
       st.integers(2, 5), st.floats(0.2, 0.8))
def test_saturated_closing_pass_matches_initial_reduce(seed, a, b, c, dens):
    _check_closing_pass(seed, (a, b, c), dens)


def test_closing_pass_comparison_sees_fills_and_contradictions():
    # on 4-5 sided half-full cubes the closing pass often has work to do
    fired = rejected = 0
    for seed in range(150):
        f, r = _check_closing_pass(seed, (4 + seed % 2, 5, 4 + seed // 2 % 2), 0.5)
        fired += f
        rejected += r
    assert fired >= 100 and rejected >= 3


def _scan_seeds(state):
    """The layer-end pass's seeds by a scan of every line: the reference
    the held set must reproduce."""
    return [l for l, z in enumerate(state.zs) if not z and state.rs[l]]


def _check_held_set(seed) -> tuple[int, int]:
    """Walk a classic proposal tree of a random three-way table depth
    first, in the order expand._expand calls the state: per branch mark,
    set_line and undo_to; at a layer end mark, Walk.advance (the pass
    close_saturated, then next_layer), the next layer's lines and, once
    they are done, undo_to.  Two random subsets per line (weights ignored, so
    branches die too), and now and then the walk goes on in a copy().  At
    every layer end the saturated lines of the held set must be the scan's
    seeds, lines left there by rewound branches and all, and the pass must
    end as one seeded by the scan.  Returns (layer ends with seeds, layer
    ends in a copy with seeds)."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(3, 6, size=3))
    table = (rng.random(sizes) < rng.uniform(0.3, 0.7)).astype(int)
    root = TableState.from_marginals(marginals_of(BinaryTable.from_array(table)))
    if root.initial_reduce() >= 0:
        return 0, 0
    tally = {"nodes": 0, "seeded": 0, "copied": 0}

    def visit(state, layer, copied):
        tally["nodes"] += 1
        if tally["nodes"] > 400:
            return
        if rng.random() < 0.05:
            state, copied = state.copy(), True
        lid = next_line(state, layer) if layer >= 0 else -1
        if lid < 0 and layer >= 0:
            seeds = _scan_seeds(state)
            assert sorted(l for l in state.held
                          if not state.zs[l] and state.rs[l]) == seeds
            tally["seeded"] += bool(seeds)
            tally["copied"] += bool(seeds) and copied
            reference = state.copy()
            mark = state.mark()
            verdict = state.close_saturated()
            assert verdict == reference.propagate(deque(seeds))
            assert (state.cells, state.rs, state.zs) == (
                reference.cells, reference.rs, reference.zs)
            if verdict < 0:
                visit(state, -1, copied)
            state.undo_to(mark)
            return
        if lid < 0:
            layer = next_layer(state)
            if layer < 0:
                return
            lid = next_line(state, layer)
        free_cids, _, certain = line_weights(state, lid)
        size = state.rs[lid] - len(certain)
        if not 0 <= size <= len(free_cids):
            return
        for _ in range(2):
            picked = sorted(rng.choice(len(free_cids), size, replace=False).tolist())
            mark = state.mark()
            if set_line(state, free_cids, certain, picked, True):
                visit(state, layer, copied)
            state.undo_to(mark)

    visit(root, -1, False)
    return tally["seeded"], tally["copied"]


def test_held_set_seeds_the_layer_end_pass_as_a_full_scan():
    seeded = copied = 0
    for seed in range(100):
        s, c = _check_held_set(seed)
        seeded += s
        copied += c
    assert seeded >= 150 and copied >= 30


class _Reference:
    """The queue-everything engine, kept as the specification of
    TableState's propagation: every placement queues all lines of its cell,
    and the rules read each line's residual r and free count f.  It counts
    `hits`, the ones that a fill or a line placement puts into a masked
    saturated line with r == f == 2, leaving it at one free cell."""

    def __init__(self, state, masked):
        self.geo = state.geo
        self.cells = list(state.cells)
        self.rs = list(state.rs)
        self.free = list(state.free)
        self.masked = masked
        self.hits = 0

    def place(self, cid, value, pending, count_hits=True):
        self.cells[cid] = value
        for lid in self.geo.cell_lines[cid]:
            if (count_hits and value and self.rs[lid] == self.free[lid] == 2
                    and self.masked):
                self.hits += 1
            self.free[lid] -= 1
            self.rs[lid] -= value
            pending.append(lid)

    def propagate(self, pending) -> bool:
        while pending:
            lid = pending.popleft()
            r, f = self.rs[lid], self.free[lid]
            if r < 0 or r > f:
                return False
            if f == 0:
                continue
            if r == 0 or (r == f and (f == 1 or not self.masked)):
                for cid in self.geo.line_cells[lid]:
                    if self.cells[cid] == FREE:
                        self.place(cid, 0 if r == 0 else 1, pending)
        return True


def _check_engine(seed) -> tuple[int, int]:
    """Drive random partial fills of a random d = 2, 3 or 4 table through
    TableState (set_cell + propagate, or set_line) and the reference engine
    side by side, with the saturation rule masked or not at random (the
    flag is set when any of d fair coins comes up).  The verdicts must agree,
    and after a feasible round the cells and both counters too.  Values
    mostly follow the table the margins came from, so fills stay feasible
    for a while.  Returns (reference hits, contradictions)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    sizes = tuple(int(s) for s in rng.integers(2, {2: 7, 3: 5, 4: 4}[d], size=d))
    table = (rng.random(sizes) < rng.uniform(0.2, 0.8)).astype(int)
    state = TableState.from_marginals(marginals_of(BinaryTable.from_array(table)))
    masked = bool([a for a in range(d) if rng.random() < 0.5])
    truth = table.ravel().tolist()
    ref = _Reference(state, masked)
    assert state.propagate(deque(range(state.geo.nlines)), masked) < 0
    assert ref.propagate(deque(range(state.geo.nlines)))
    while FREE in state.cells:
        assert (state.cells, state.rs, state.free) == (ref.cells, ref.rs, ref.free)
        pending, ref_pending = deque(), deque()
        if rng.random() < 0.5:
            free_cids = [c for c, v in enumerate(state.cells) if v == FREE]
            for cid in rng.choice(free_cids, min(len(free_cids), 3),
                                  replace=False).tolist():
                value = truth[cid] if rng.random() < 0.85 else 1 - truth[cid]
                state.set_cell(cid, value, pending)
                ref.place(cid, value, ref_pending, count_hits=False)
            ok = state.propagate(pending, masked) < 0
        else:
            lo = state.geo.offset[-1]
            open_lines = [l for l in range(lo, state.geo.nlines)
                          if state.rs[l] or state.zs[l]]
            lid = open_lines[int(rng.integers(len(open_lines)))]
            free_cids, _, certain = line_weights(state, lid)
            size = state.rs[lid] - len(certain)
            if rng.random() < 0.15 or not 0 <= size <= len(free_cids):
                size = int(rng.integers(len(free_cids) + 1))
            picked = rng.choice(len(free_cids), size, replace=False).tolist()
            for cid in certain:
                ref.place(cid, 1, ref_pending)
            for pos, cid in enumerate(free_cids):
                ref.place(cid, int(pos in picked), ref_pending)
            ok = set_line(state, free_cids, certain, picked, masked)
        assert ok == ref.propagate(ref_pending)
        if not ok:
            # the partial fill after a contradiction depends on the
            # worklist order; every caller rewinds or rejects there
            return ref.hits, 1
    assert (state.cells, state.rs, state.free) == (ref.cells, ref.rs, ref.free)
    return ref.hits, 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decisive_worklist_matches_the_queue_everything_engine(seed):
    _check_engine(seed)


def test_engine_comparison_sees_masked_closes_and_contradictions():
    # the masked one-free-cell close is the case a decisive-only queue
    # reaches through its own clause, so the comparison must exercise it
    hits = contradictions = 0
    for seed in range(200):
        h, c = _check_engine(seed)
        hits += h
        contradictions += c
    assert hits >= 20 and contradictions >= 5
