"""Structure detection: cells pinned by the margins alone.

A line is a 1-D fiber of the table (fix all indices but one).  Forcing rules
run to fixpoint over all lines of all axes:

  * residual margin 0  -> every free cell in the line is a structural zero,
  * a line down to one free cell -> that cell equals the residual,
  * (saturation rule) residual margin equal to the free-cell count -> every
    free cell is a forced one.

A residual outside [0, free] is infeasible: no completion exists.  The
saturation rule can be masked per axis mid-sampling (`nosat_axes`): a
still-unfilled saturated line then stays open, and the sampler resolves its
cells at draw time as certain inclusions (see sis.py for the proposal
presets built on this).  The same propagation engine drives the SIS
samplers (re-reduction after every sampled column), the exact enumerator,
and the path expander (both via an undo trail), so it is written as a
worklist over flat line ids rather than array scans.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

from .tables import MarginalSet


class _Geometry:
    """Static line tables for one table shape.

    Lines get flat ids: axis a's block starts at offset[a], ordered like the
    C-order flattening of the margin array over axis a (so the worklist seed
    scans axes 0,1,2,... deterministically).  Shared across states of the
    same shape.
    """

    __slots__ = ("sizes", "d", "ncells", "nlines", "offset", "line_cells",
                 "cell_lines", "line_axis", "rs_code")

    def __init__(self, sizes: tuple[int, ...]):
        self.sizes = sizes
        self.d = len(sizes)
        ncells = 1
        for s in sizes:
            ncells *= s
        self.ncells = ncells
        self.offset = []
        nlines = 0
        for a in range(self.d):
            self.offset.append(nlines)
            nlines += ncells // sizes[a]
        self.nlines = nlines
        # array typecode wide enough for any residual: no line is longer
        # than the longest axis
        self.rs_code = "B" if max(sizes) < 256 else "I"
        self.line_cells: list[list[int]] = [[] for _ in range(nlines)]
        self.cell_lines: list[tuple[int, ...]] = []
        self.line_axis: list[int] = [0] * nlines
        strides = [0] * self.d
        acc = 1
        for a in range(self.d - 1, -1, -1):
            strides[a] = acc
            acc *= sizes[a]
        for cid in range(ncells):
            idx = []
            rest = cid
            for a in range(self.d):
                idx.append(rest // strides[a])
                rest %= strides[a]
            lids = []
            for a in range(self.d):
                flat = 0
                for b in range(self.d):
                    if b != a:
                        flat = flat * sizes[b] + idx[b]
                lid = self.offset[a] + flat
                lids.append(lid)
                self.line_cells[lid].append(cid)
                self.line_axis[lid] = a
            self.cell_lines.append(tuple(lids))


_GEOMETRY_CACHE: dict[tuple[int, ...], _Geometry] = {}


def _geometry(sizes: tuple[int, ...]) -> _Geometry:
    geo = _GEOMETRY_CACHE.get(sizes)
    if geo is None:
        geo = _GEOMETRY_CACHE[sizes] = _Geometry(sizes)
    return geo


class TableState:
    """Mutable partial assignment: cell values (-1 free, 0, 1), per-line
    residual margins rs, and per-line free-cell counts.

    set_cell and propagate record every placement on an undo trail so the
    exact enumerator can backtrack; the samplers simply never rewind.
    """

    __slots__ = ("geo", "cells", "rs", "free", "trail")

    def __init__(self, geo: _Geometry, rs: list[int]):
        self.geo = geo
        self.cells = [-1] * geo.ncells
        self.rs = rs
        self.free = [len(geo.line_cells[l]) for l in range(geo.nlines)]
        self.trail: list[int] = []

    @classmethod
    def from_marginals(cls, m: MarginalSet) -> "TableState":
        geo = _geometry(m.dims.sizes)
        rs: list[int] = []
        for a in range(geo.d):
            rs.extend(int(v) for v in m.margins[a].ravel())
        return cls(geo, rs)

    def set_cell(self, cid: int, value: int, pending: deque) -> None:
        """Place a value in a free cell and queue its lines for re-check."""
        self.cells[cid] = value
        self.trail.append(cid)
        rs = self.rs
        free = self.free
        for lid in self.geo.cell_lines[cid]:
            free[lid] -= 1
            rs[lid] -= value
            pending.append(lid)

    def propagate(self, pending: deque, nosat_axes=()) -> int:
        """Run the forcing rules until the worklist drains.  Returns -1 on
        success or the flat id of the first line proved unsatisfiable.

        nosat_axes exempts axes from the saturation rule: their lines are
        still bound-checked and filled once down to a single free cell, but a
        line whose residual equals its free-cell count (>= 2) stays unfilled
        and is left for the caller to handle."""
        cells = self.cells
        rs = self.rs
        free = self.free
        line_cells = self.geo.line_cells
        line_axis = self.geo.line_axis
        while pending:
            lid = pending.popleft()
            r = rs[lid]
            f = free[lid]
            if r < 0 or r > f:
                return lid
            if f == 0:
                continue
            if r == 0 or (r == f and (f == 1 or line_axis[lid] not in nosat_axes)):
                v = 0 if r == 0 else 1
                for cid in line_cells[lid]:
                    if cells[cid] < 0:
                        self.set_cell(cid, v, pending)
        return -1

    def initial_reduce(self, nosat_axes=()) -> int:
        """Seed the worklist with every line (axes in order) and propagate."""
        return self.propagate(deque(range(self.geo.nlines)), nosat_axes)

    def close_saturated(self) -> int:
        """Full-strength propagation from a fixpoint of the light rules
        (saturation masked): seed only the saturated lines, free > 0 and
        residual == free, in ascending id.  At such a fixpoint no other
        line can fire until one of its cells is set, which queues it, and
        the forcing rules are monotone, so the cells and the verdict are
        those of initial_reduce()."""
        return self.propagate(deque([
            lid for lid, r, f in zip(range(self.geo.nlines), self.rs, self.free)
            if r == f and f
        ]))

    def copy(self) -> "TableState":
        """The same partial assignment in fresh lists, with an empty trail."""
        new = TableState.__new__(TableState)
        new.geo = self.geo
        new.cells = self.cells.copy()
        new.rs = self.rs.copy()
        new.free = self.free.copy()
        new.trail = []
        return new

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        cells = self.cells
        rs = self.rs
        free = self.free
        trail = self.trail
        while len(trail) > mark:
            cid = trail.pop()
            v = cells[cid]
            cells[cid] = -1
            for lid in self.geo.cell_lines[cid]:
                free[lid] += 1
                rs[lid] += v

    def residual_bytes(self) -> bytes:
        """Every line's residual packed at one fixed width, for memo keys.
        Residuals are in [0, free] at a fixpoint."""
        return array(self.geo.rs_code, self.rs).tobytes()

    def cells_array(self) -> np.ndarray:
        return np.asarray(self.cells, dtype=np.int8).reshape(self.geo.sizes)
