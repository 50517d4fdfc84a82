"""Exact counting and enumeration of zero-one tables with fixed margins.

Depth-first search over the cells in lexicographic order, branching 0/1 and
running the structure-propagation rules after every assignment; a branch
whose residuals turn infeasible is cut immediately.  Counts are plain
Python integers, so they stay exact at any magnitude.

The counter memoizes: below a node every cell before the cursor is set, so
the number of completions depends only on which cells from the cursor on
are free and on the residual margins (see TableState.memo_key).  Keyed by
those as bytes, each subtree's count is stored when it closes and reused on
a hit.  When the margins have two interchangeable indices on some axis
b >= 1 (their slices are equal in every margin that holds axis b), a node
whose first free cell opens a later axis-0 slice than its parent's is keyed
instead on TableState.slice_key, in a memo of its own: the rest of the
table with the indices of axes 1..d-1 reordered by the state, so
subproblems that differ only by a relabelling of those indices are counted
once (semimagic-5-1, the 161280 order-5 Latin squares: 408 nodes instead
of 61,798).  The memo grows with the expanded nodes (about 0.1 MB on
semimagic-5-1 and 17 MB on semimagic-5-2, by tracemalloc peak).  The
enumerator keeps the plain search: it must visit every table.  Desk scale
only: the node budget guards against accidentally launching an
astronomically large search, and so also bounds the counter's memo.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .reduction import FREE, TableState
from .tables import BinaryTable, CPTablesError, MarginalSet, validate_marginals


class EnumerationBudgetError(CPTablesError):
    """The search passed its node budget before finishing."""

    def __init__(self, nodes: int, partial_count: int):
        super().__init__(
            f"enumeration budget exceeded after {nodes} nodes "
            f"({partial_count} tables found so far)"
        )
        self.nodes = nodes
        self.partial_count = partial_count


def exact_count(m: MarginalSet, budget: int | None = None) -> int:
    """The exact number of zero-one tables with margins m.  budget bounds the
    expanded nodes (memo hits cost none); the budget error's partial count
    covers the subtrees that have closed."""
    state, cursor = _root(m)
    if state is None:
        return 0
    ncells = state.geo.ncells
    if cursor == ncells:
        return 1
    # cells per axis-0 slice; without interchangeable indices every node
    # keys on memo_key (no branch leaves the one slice of width ncells)
    width = ncells // m.dims.sizes[0] if _interchangeable(m) else ncells
    memo: dict[bytes, int] = {}
    slice_memo: dict[bytes, int] = {}  # slice entries, on slice_key
    count = nodes = 0
    # explicit stack of (cursor, next_value, trail_mark, memo, key, count on
    # entry); a frame's subtree count is the growth of `count` while it is
    # open.  The root's key b"" is never looked up.
    stack = [(cursor, 0, state.mark(), memo, b"", 0)]
    while stack:
        cursor, value, mark, table, key, entry = stack.pop()
        if value > 1:
            table[key] = count - entry
            state.undo_to(mark)
            continue
        stack.append((cursor, value + 1, mark, table, key, entry))
        nodes += 1
        if budget is not None and nodes > budget:
            raise EnumerationBudgetError(nodes, count)
        branch_mark = state.mark()
        nxt = _branch(state, cursor, value)
        if nxt == ncells:
            count += 1
        elif nxt >= 0:
            if nxt // width > cursor // width:  # a slice entry
                table, key = slice_memo, state.slice_key(nxt // width)
            else:
                table, key = memo, state.memo_key(nxt)  # its length pins the cursor
            hit = table.get(key)
            if hit is None:
                stack.append((nxt, 0, branch_mark, table, key, count))
                continue
            count += hit
        state.undo_to(branch_mark)
    return count


def exact_enumerate(
    m: MarginalSet,
    limit: int | None = None,
    budget: int | None = None,
) -> list[BinaryTable]:
    """Up to `limit` distinct tables with margins m, in the deterministic
    order the search visits them."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    state, cursor = _root(m)
    if state is None:
        return []
    ncells = state.geo.ncells
    if cursor == ncells:
        return [BinaryTable(m.dims, state.cells_array())]
    tables: list[BinaryTable] = []
    nodes = 0
    # explicit stack of (cursor, next_value, trail_mark); cursor is the
    # first-free scan position, monotone along any root-to-leaf path
    stack = [(cursor, 0, state.mark())]
    while stack:
        cursor, value, mark = stack.pop()
        if value > 1:
            state.undo_to(mark)
            continue
        stack.append((cursor, value + 1, mark))
        nodes += 1
        if budget is not None and nodes > budget:
            raise EnumerationBudgetError(nodes, len(tables))
        branch_mark = state.mark()
        nxt = _branch(state, cursor, value)
        if nxt == ncells:
            tables.append(BinaryTable(m.dims, state.cells_array()))
            if limit is not None and len(tables) >= limit:
                return tables
        elif nxt >= 0:
            stack.append((nxt, 0, branch_mark))
            continue
        state.undo_to(branch_mark)
    return tables


def _root(m: MarginalSet) -> tuple[TableState | None, int]:
    """The reduced root state and its first free cell; None if infeasible."""
    validate_marginals(m)
    state = TableState.from_marginals(m)
    if state.initial_reduce() >= 0:
        return None, 0
    return state, _first_free(state.cells, 0)


def _interchangeable(m: MarginalSet) -> bool:
    """Whether some axis b >= 1 has two indices whose slices are equal in
    every margin that holds axis b.  Only then do subproblems that differ by
    a relabelling of indices arise often enough to pay for slice_key.
    Keying every slice entry on slice_key regardless (timeit, a 2-CPU Linux
    host) takes the 7 x 7 x 3 desk network from 194 nodes in 2.4 ms to 186
    in 5.0 ms, and slows the ex5 fixtures by up to 60% (ex5_5 0.18 to
    0.29 ms, ex5_6 0.40 to 0.58 ms with 32 nodes for 36); none got faster."""
    sizes = m.dims.sizes
    for b in range(1, m.dims.d):
        # one row per index of axis b: its slices of the margins over the
        # other axes, side by side (axis b sits one place lower in margins
        # over an axis before it)
        rows = np.concatenate([
            mg.swapaxes(0, b - (a < b)).reshape(sizes[b], -1)
            for a, mg in enumerate(m.margins) if a != b], axis=1)
        if len({r.tobytes() for r in rows}) < sizes[b]:
            return True
    return False


def _branch(state: TableState, cursor: int, value: int) -> int:
    """Set one cell and propagate; return the next free cell (ncells once the
    table is complete) or -1 if infeasible.  The caller undoes either way."""
    pending: deque = deque()
    state.set_cell(cursor, value, pending)
    if state.propagate(pending) >= 0:
        return -1
    return _first_free(state.cells, cursor + 1)


def _first_free(cells: list[int], start: int) -> int:
    try:
        return cells.index(FREE, start)
    except ValueError:
        return len(cells)
