"""Exact counting and enumeration of zero-one tables with fixed margins.

Depth-first search over the cells in lexicographic order, branching 0/1 and
running the structure-propagation rules after every assignment; a branch
whose residuals turn infeasible is cut immediately.  Counts are plain
Python integers, so they stay exact at any magnitude.

The counter memoizes: below a node every cell before the cursor is set, so
the number of completions depends only on the residual margins and the
cursor, which together fix the free cells (see TableState.memo_key).  Keyed
by those as bytes, each subtree's count is stored when it closes and
reused on a hit.  When the margins have two interchangeable indices on some
axis b >= 1 (their slices are equal in every margin that holds axis b), a
node whose first free cell starts a later last-axis row than its parent's
(every axis-0 slice entry is such a row start) is keyed instead, in the
same memo, on TableState.slice_key of the slice holding that cell: the
residuals of the rest of the table with the indices of axes 1..d-1
reordered by the state, so subproblems that differ only by a relabelling
of those indices are counted once (semimagic-5-1, the 161280 order-5 Latin
squares: 110 nodes, 408 with these keys at slice entries only and 61,798
with none; L(7) takes 27,906 and semimagic-5-2 52,114).  The memo grows
with the expanded nodes (tracemalloc peak: about 0.01 MB on semimagic-5-1,
3.0 MB on L(7) and 4.3 MB on semimagic-5-2; tools/exact_reach.py measures
these).  The enumerator keeps the plain search: it must visit every table.
Desk scale only: the node budget guards against accidentally launching an
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
    # cells per axis-0 slice and per last-axis row; without interchangeable
    # indices every node keys on memo_key (no branch leaves the one row of
    # ncells cells)
    width = row = ncells
    if _interchangeable(m):
        width, row = ncells // m.dims.sizes[0], m.dims.sizes[-1]
    # one memo for both keys: a memo_key (every line's residual, then the
    # cursor in 4 bytes) is at least 4 bytes longer than any slice_key
    memo: dict[bytes, int] = {}
    count = nodes = 0
    # explicit stack of (cursor, next_value, trail_mark, key, count on
    # entry); a frame's subtree count is the growth of `count` while it is
    # open.  The root's key b"" is never looked up.
    stack = [(cursor, 0, state.mark(), b"", 0)]
    while stack:
        cursor, value, mark, key, entry = stack.pop()
        if value > 1:
            memo[key] = count - entry
            state.undo_to(mark)
            continue
        stack.append((cursor, value + 1, mark, key, entry))
        nodes += 1
        if budget is not None and nodes > budget:
            raise EnumerationBudgetError(nodes, count)
        branch_mark = state.mark()
        nxt = _branch(state, cursor, value)
        if nxt == ncells:
            count += 1
        elif nxt >= 0:
            if nxt // row > cursor // row:  # a row start (slice entries too)
                key = state.slice_key(nxt // width)
            else:
                key = state.memo_key(nxt)
            hit = memo.get(key)
            if hit is None:
                stack.append((nxt, 0, branch_mark, key, count))
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
    Keying every row start on slice_key regardless (timeit, a 2-CPU Linux
    host) takes the 7 x 7 x 3 desk network from 194 nodes in 2.4 ms to 182
    in 5.8-6.0 ms, and the 13 ex5 fixtures from 144 nodes in 2.5 ms to 130
    in 3.3-3.5 ms in all.  With keys at slice entries only, it took the
    desk network to 186 nodes in 5.0 ms and slowed ex5_5 from 0.18 to
    0.29 ms; none got faster."""
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
