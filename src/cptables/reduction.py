"""Structure detection: cells pinned by the margins alone.

A cell holds 0, 1 or FREE = 255, each one byte, so one bytes() call
reads the cells.  A line is a 1-D fiber of the table (fix all indices but
one).  Each line keeps two counters: rs, the ones still to place, and zs,
the zeros still to place (its free-cell count is rs + zs).  Forcing rules
run to fixpoint over all lines of all axes:

  * rs == 0 -> every free cell in the line is a structural zero,
  * (saturation rule) zs == 0 -> every free cell is a forced one.

A line with rs < 0 or zs < 0 is infeasible: no completion exists.  A line
down to one free cell has rs == 0 or zs == 0, so the one-free-cell rule is
not a rule of its own.  The saturation rule can be masked mid-sampling
(one flag, `masked`, for every line): a line with zs == 0 and rs >= 2 then
stays open, and the sampler resolves its cells at draw time as certain
inclusions (see layers.Walk for the proposal presets built on this); at
rs == 1 it is filled all the same.  Propagation adds such a line to the
state's held set, which close_saturated seeds from; copy() keeps it and
undo_to leaves it, since the pass reads only the lines that are still
saturated among it.  The same propagation engine drives the SIS
sampler (re-reduction after every sampled column), the exact enumerator
and the path expander (both via an undo trail), so it is written as a
worklist over flat line ids rather than array scans.

TableState.propagate makes every placement of a walk in one loop: the
cells of a draw, passed in as its ones and zeros, and the cells the rules
force.  A placement decrements one counter on each of its d lines (rs for
a one, zs for a zero), and undo_to increments it back.  The worklist holds
only decisive lines: a placement queues a line when the counter it
decremented goes below 0, or reaches 0 while the other counter is not 0,
or when a one leaves a masked saturated line (zs == 0) at rs == 1.  A line
whose counters both reach 0 is complete and is not queued.  (set_cell, the
enumerator's branch step, and the seeds of initial_reduce and
close_saturated queue lines regardless.)
This reaches the fixpoint of a worklist that queues every line a
placement touches: the rules are monotone, a line with both counters
above 0 can neither fire nor fail, nor can a complete one, and a line
that is decisive stays so until it is filled.  So the cells, the counters
and the verdict are the same; only the trail order and, after a
contradiction, the partial fill differ, and every caller rewinds or
rejects there.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import cache
import math

import numpy as np

from .tables import MarginalSet

FREE = 255  # a free cell's value: one byte, and -1 read as int8


class _Geometry:
    """Static line tables for one table shape.

    Lines get flat ids: axis a's block starts at offset[a], ordered like the
    C-order flattening of the margin array over axis a (so the worklist seed
    scans axes 0,1,2,... deterministically).  line_cells lists a line's
    cells, cell_lines a cell's d lines in axis order (line_grid holds the
    same ids as an array of the table's shape by d), and crossing, filled
    per line on first use by crossings(), each cell of a line with the
    other lines through it: the pairs line_weights loops over.  Shared
    across states of the same shape.
    """

    __slots__ = ("sizes", "d", "ncells", "nlines", "offset", "line_cells",
                 "cell_lines", "line_grid", "crossing", "line_axis", "rs_code")

    def __init__(self, sizes: tuple[int, ...]):
        self.sizes = sizes
        self.d = d = len(sizes)
        self.ncells = ncells = math.prod(sizes)
        # array typecode wide enough for any residual: no line is longer
        # than the longest axis
        self.rs_code = "B" if max(sizes) < 256 else "I"
        self.offset: list[int] = []
        self.line_cells: list[list[int]] = []
        self.line_axis: list[int] = []
        cids = np.arange(ncells).reshape(sizes)
        lines = np.empty(sizes + (d,), dtype=np.int64)
        for a in range(d):
            # axis a's lines in the C order of the other axes, each one's
            # cells in id order; every cell learns its axis-a line
            lo = len(self.line_cells)
            along = np.moveaxis(cids, a, -1)
            self.offset.append(lo)
            self.line_cells += along.reshape(-1, sizes[a]).tolist()
            self.line_axis += [a] * (ncells // sizes[a])
            np.moveaxis(lines[..., a], a, -1)[...] = (
                lo + np.arange(ncells // sizes[a])).reshape(along.shape[:-1] + (1,))
        self.nlines = len(self.line_cells)
        self.line_grid = lines
        self.cell_lines: list[tuple[int, ...]] = list(
            map(tuple, lines.reshape(ncells, d).tolist()))
        self.crossing: list[list[tuple] | None] = [None] * self.nlines

    def crossings(self, lid: int) -> list[tuple[int, tuple[int, ...]]]:
        """Each cell of a line with the lines that cross it there (the
        cell's other d - 1 lines, in axis order).  Built on first use:
        only the lines that get drawn need it."""
        a = self.line_axis[lid]
        cell_lines = self.cell_lines
        cross = self.crossing[lid] = [
            (cid, cell_lines[cid][:a] + cell_lines[cid][a + 1:])
            for cid in self.line_cells[lid]
        ]
        return cross


@cache
def _geometry(sizes: tuple[int, ...]) -> _Geometry:
    return _Geometry(sizes)


class TableState:
    """Mutable partial assignment: cell values (FREE, 0, 1) and, per
    line, the ones still to place (rs) and the zeros still to place (zs).

    set_cell and propagate record every placement on an undo trail, which
    the exact counter, the exact enumerator and the path expander rewind
    with undo_to to backtrack.  The sampler never rewinds: a dead end
    rejects the whole proposal.
    """

    __slots__ = ("geo", "cells", "rs", "zs", "trail", "held")

    def __init__(self, geo: _Geometry, rs: list[int]):
        self.geo = geo
        self.cells = [FREE] * geo.ncells
        self.rs = rs
        self.zs = [len(geo.line_cells[l]) - r for l, r in enumerate(rs)]
        self.trail: list[int] = []
        self.held: set[int] = set()

    @classmethod
    def from_marginals(cls, m: MarginalSet) -> "TableState":
        rs = [int(v) for mg in m.margins for v in mg.ravel()]
        return cls(_geometry(m.dims.sizes), rs)

    @property
    def free(self) -> list[int]:
        """Each line's free-cell count, rs + zs (derived, read-only)."""
        return [r + z for r, z in zip(self.rs, self.zs)]

    def set_cell(self, cid: int, value: int, pending: deque) -> None:
        """Place a value in a free cell and queue all its lines."""
        self.cells[cid] = value
        self.trail.append(cid)
        count = self.rs if value else self.zs
        for lid in self.geo.cell_lines[cid]:
            count[lid] -= 1
            pending.append(lid)

    def propagate(self, pending: deque, masked=False, ones=(), zeros=()) -> int:
        """Set the free cells `ones` to 1 and then `zeros` to 0, and run the
        forcing rules until the worklist drains.  Returns -1 on success or
        the flat id of the first line proved unsatisfiable.

        masked exempts every line from the saturation rule: lines are still
        bound-checked and filled once down to a single free cell, but a line
        with no zeros left and two or more ones left stays unfilled and is
        left for the caller to handle."""
        cells = self.cells
        rs = self.rs
        zs = self.zs
        trail = self.trail
        push = pending.append
        line_cells = self.geo.line_cells
        cell_lines = self.geo.cell_lines
        # the job in hand is (value, cells, count, other): the given ones,
        # then the given zeros, then each decisive line's cells
        v, cids, count, other = 1, ones, rs, zs
        while True:
            for cid in cids:
                if cells[cid] > 1:
                    cells[cid] = v
                    trail.append(cid)
                    for l in cell_lines[cid]:
                        c = count[l] - 1
                        count[l] = c
                        if c <= 0:
                            if c or other[l]:
                                push(l)
                        elif v and c == 1 and not other[l]:
                            push(l)
            if zeros is not None:
                v, cids, count, other = 0, zeros, zs, rs
                zeros = None
                continue
            while True:
                if not pending:
                    return -1
                lid = pending.popleft()
                r = rs[lid]
                z = zs[lid]
                if r < 0 or z < 0:
                    return lid
                if r == 0:
                    if z:
                        v, count, other = 0, zs, rs
                        break
                elif z == 0:
                    if r == 1 or not masked:
                        v, count, other = 1, rs, zs
                        break
                    self.held.add(lid)
            cids = line_cells[lid]

    def initial_reduce(self) -> int:
        """Seed the worklist with every line (axes in order) and propagate."""
        return self.propagate(deque(range(self.geo.nlines)))

    def close_saturated(self) -> int:
        """Full-strength propagation from a fixpoint of the light rules
        (saturation masked): seed only the saturated lines, no zeros left
        and ones left, in ascending id.  At such a fixpoint no other line
        can fire until one of its cells is set, which queues it, and the
        forcing rules are monotone, so the cells and the verdict are those
        of initial_reduce().  The held set stands in for a scan of every
        line: the placement that saturates a line queues it."""
        rs, zs = self.rs, self.zs
        return self.propagate(deque(sorted(
            [lid for lid in self.held if not zs[lid] and rs[lid]])))

    def copy(self) -> "TableState":
        """The same partial assignment in fresh lists, with an empty trail."""
        new = TableState.__new__(TableState)
        new.geo = self.geo
        new.cells = self.cells.copy()
        new.rs = self.rs.copy()
        new.zs = self.zs.copy()
        new.trail = []
        new.held = self.held.copy()
        return new

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        """Free the cells placed since the mark, giving their lines the
        counts back in one pass (the increments commute); cut the trail."""
        cells = self.cells
        rs = self.rs
        zs = self.zs
        trail = self.trail
        cell_lines = self.geo.cell_lines
        for cid in trail[mark:]:
            count = rs if cells[cid] else zs
            cells[cid] = FREE
            for lid in cell_lines[cid]:
                count[lid] += 1
        del trail[mark:]

    def memo_key(self, start: int = 0) -> bytes:
        """A search node's identity, the exact counter's and the path
        expander's memo key (the expander puts its walk's layer in front):
        every line's residual at one fixed width, then `start` in 4 bytes.
        Below a fixpoint whose cells before `start` are all set, the subtree
        depends only on these.  A placed value acts on the search only
        through its lines' residuals, and a cell from `start` on is free
        exactly when all of its lines have residual > 0: only propagation
        and draws, which fill whole lines, set it, and at a fixpoint a line
        with residual 0 has no free cell.  bytes() builds the residuals but
        for lines of 256 cells or more."""
        rs = self.rs
        head = bytes(rs) if self.geo.rs_code == "B" else array("I", rs).tobytes()
        return head + start.to_bytes(4, "little")

    def slice_key(self, first: int) -> bytes:
        """The exact counter's key for a node whose first free cell starts
        a last-axis row in axis-0 slice `first` or later: the residual of
        every line through the slices from `first` on, axis by axis, at
        memo_key's width.  Their cells before the cursor fill whole rows, of
        residual 0, so there too a cell is free exactly when all of its
        lines have residual > 0 (see memo_key) and the residuals fix the
        subproblem.  Relabelling the indices of an axis maps it to an
        isomorphic one with as many completions, so before the key is
        written the indices of each axis 1..d-1 are reordered by the state:
        each axis's index slices, holding every cell's free flag and its
        lines' residuals, are sorted by their bytes, over all those axes,
        twice.  Two states with equal keys then have the same count; states
        that differ only by such a relabelling mostly share one.  Without
        the flag the sort picks other relabellings: semimagic-5-2 takes
        55,602 nodes, not 52,114.  With slice entries alone keyed here, one
        pass took semimagic-5-1 to 532 nodes (408 with two), L(6) 7,172
        (3,892) and semimagic-5-2 about 8 s (4 s); a third cut only L(6)'s
        nodes, to 3,700, and took semimagic-5-2 to about 5.5 s."""
        geo = self.geo
        dtype = np.uint8 if geo.rs_code == "B" else np.uint32
        # per cell of the slices from `first` on: its free flag, then the
        # residual of each of its d lines
        res = np.array(self.rs, dtype)[geo.line_grid[first:]]
        grid = np.concatenate(
            ((res > 0).all(-1, keepdims=True).astype(dtype), res), axis=-1)
        for _ in range(2):
            for b in range(1, geo.d):
                rows = [r.tobytes() for r in grid.swapaxes(0, b)]
                grid = grid.take(sorted(range(len(rows)), key=rows.__getitem__),
                                 axis=b)
        # each axis-a line crosses index 0 of axis a once
        return b"".join([grid[..., a + 1].take(0, axis=a).tobytes()
                         for a in range(geo.d)])

    def cells_array(self) -> np.ndarray:
        """The cells as a read-only int8 array of the table's shape, a
        free cell (FREE) as -1."""
        return np.frombuffer(bytes(self.cells), np.int8).reshape(self.geo.sizes)
