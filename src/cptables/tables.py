"""Core domain types: zero-one multiway tables and their fixed margins.

A d-way zero-one table has shape sizes = (n_1, ..., n_d).  Its margins are
the d arrays obtained by summing the table over one axis at a time:
margins[a] = table.sum(axis=a), shape = sizes with axis a removed.  Fixing
all d of these (d-1)-way margins defines the support set that the samplers
and the exact enumerator work over.

All value types here are immutable after construction (arrays are frozen),
so they are safe to share across samplers and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


class CPTablesError(Exception):
    """Base class for errors raised by this package."""


class InvariantError(CPTablesError):
    """An internal invariant of the samplers or the expander failed: a
    defect in the package, not in its input.  Raised, never asserted, so
    the check also runs under python -O."""


class MarginalValidationError(CPTablesError):
    """A marginal set violates a structural invariant.

    kind is one of: "shape", "negative", "bound", "total", "one-way".
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _frozen(a, dtype) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dims:
    """Table shape (n_1, ..., n_d) with d >= 2 axes."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("a table needs at least two axes")
        if any(s < 1 for s in sizes):
            raise ValueError("every axis size must be >= 1")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def ncells(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    def margin_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of the margin array summing over `axis`."""
        return self.sizes[:axis] + self.sizes[axis + 1:]


@dataclass(frozen=True)
class MarginalSet:
    """The d fixed (d-1)-way margins of a zero-one table.

    margins[a] is the array of line sums along axis a, indexed by the
    remaining axes in order.  Construction only coerces dtypes; structural
    checks live in validate_marginals so a violation can be reported by kind.
    """

    dims: Dims
    margins: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = tuple(_frozen(m, np.int64) for m in self.margins)
        object.__setattr__(self, "margins", frozen)

    @property
    def total(self) -> int:
        """Grand total of the table (number of ones)."""
        return int(self.margins[0].sum())


def marginals3(si, sj, sk) -> MarginalSet:
    """Build a three-way MarginalSet from the conventional margin triple.

    si = depth sums over axis 1 (shape n x l), sj = sums over axis 2
    (shape m x l), sk = sums over axis 3 (shape m x n), for an m x n x l
    table.  Shapes must agree on m, n, l.
    """
    si = np.asarray(si)
    sj = np.asarray(sj)
    sk = np.asarray(sk)
    if si.ndim != 2 or sj.ndim != 2 or sk.ndim != 2:
        raise ValueError("each margin must be a two-way array")
    m, n = sk.shape
    l = si.shape[1]
    if si.shape != (n, l) or sj.shape != (m, l):
        raise ValueError(
            f"inconsistent margin shapes: si {si.shape}, sj {sj.shape}, sk {sk.shape}"
        )
    return MarginalSet(Dims((m, n, l)), (si, sj, sk))


@dataclass(frozen=True)
class BinaryTable:
    """A concrete zero-one table."""

    dims: Dims
    cells: np.ndarray

    def __post_init__(self):
        cells = _frozen(self.cells, np.int8)
        object.__setattr__(self, "cells", cells)
        if cells.shape != self.dims.sizes:
            raise ValueError(f"cells shape {cells.shape} != dims {self.dims.sizes}")
        if cells.size and (cells.min() < 0 or cells.max() > 1):
            raise ValueError("cell values must be 0 or 1")

    @classmethod
    def from_array(cls, cells) -> "BinaryTable":
        cells = np.asarray(cells)
        return cls(Dims(tuple(cells.shape)), cells)


@dataclass(frozen=True)
class StructureMasks:
    """Cells pinned by the margins alone.

    determined marks every cell whose value is forced (structural zeros and
    forced ones); ones marks the forced ones, so ones <= determined holds
    cellwise.
    """

    determined: np.ndarray
    ones: np.ndarray

    def __post_init__(self):
        det = _frozen(self.determined, np.int8)
        ones = _frozen(self.ones, np.int8)
        object.__setattr__(self, "determined", det)
        object.__setattr__(self, "ones", ones)
        if det.shape != ones.shape:
            raise ValueError("mask shapes differ")
        if np.any(ones > det):
            raise ValueError("a forced one must also be marked determined")


@dataclass(frozen=True)
class SampleOutcome:
    """Result of one proposal draw: an accepted table with its log proposal
    probability, or a rejection tagged with the stage that failed."""

    status: str
    table: BinaryTable | None = None
    log_q: float | None = None
    reject_stage: str | None = None

    def __post_init__(self):
        if self.status == "accepted":
            if self.table is None or self.log_q is None:
                raise ValueError("accepted outcome needs table and log_q")
            if not (self.log_q <= 0.0):
                raise ValueError(f"log_q must be <= 0, got {self.log_q}")
        elif self.status == "rejected":
            if not self.reject_stage:
                raise ValueError("rejected outcome needs a reject_stage")
        else:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"


def validate_marginals(m: MarginalSet) -> None:
    """Check the margin invariants; raise MarginalValidationError on the
    first violation (kind: shape, negative, bound, total, one-way).

    one-way means: for every axis c, collapsing any margin down to the
    one-way totals along c must give the same vector.
    """
    d = m.dims.d
    if len(m.margins) != d:
        raise MarginalValidationError(
            "shape", f"expected {d} margin arrays, got {len(m.margins)}"
        )
    for a, mg in enumerate(m.margins):
        want = m.dims.margin_shape(a)
        if mg.shape != want:
            raise MarginalValidationError(
                "shape", f"margin over axis {a} has shape {mg.shape}, expected {want}"
            )
    for a, mg in enumerate(m.margins):
        if mg.size and mg.min() < 0:
            raise MarginalValidationError(
                "negative", f"margin over axis {a} has a negative entry"
            )
        if mg.size and mg.max() > m.dims.sizes[a]:
            raise MarginalValidationError(
                "bound",
                f"margin over axis {a} exceeds the line length {m.dims.sizes[a]}",
            )
    totals = [int(mg.sum()) for mg in m.margins]
    if len(set(totals)) > 1:
        raise MarginalValidationError(
            "total", f"margins disagree on the grand total: {totals}"
        )
    for c in range(d):
        vecs = []
        for a in range(d):
            if a == c:
                continue
            # margin over axis a has axes [0..d) minus a; find where c sits
            # and sum out everything else.
            kept = [ax for ax in range(d) if ax != a]
            pos = kept.index(c)
            other = tuple(t for t in range(d - 1) if t != pos)
            vecs.append(m.margins[a].sum(axis=other))
        for v in vecs[1:]:
            if not np.array_equal(vecs[0], v):
                raise MarginalValidationError(
                    "one-way",
                    f"margins disagree on the one-way totals along axis {c}",
                )
    return None


def marginals_of(t: BinaryTable) -> MarginalSet:
    """The d margin arrays of a concrete table."""
    margins = tuple(t.cells.sum(axis=a) for a in range(t.dims.d))
    return MarginalSet(t.dims, margins)


def permute_table_axes(t: BinaryTable, perm) -> BinaryTable:
    """Relabel table axes: new axis j is old axis perm[j]."""
    perm = tuple(int(p) for p in perm)
    return BinaryTable.from_array(np.transpose(t.cells, perm))


def permute_marginal_axes(m: MarginalSet, perm) -> MarginalSet:
    """Margins of the axis-permuted table, without materializing a table.

    If Y = X.transpose(perm) then Y's margin over its axis a is X's margin
    over axis perm[a], with the remaining axes reordered to match perm.
    """
    perm = tuple(int(p) for p in perm)
    d = m.dims.d
    if sorted(perm) != list(range(d)):
        raise ValueError(f"perm must permute 0..{d - 1}")
    sizes = tuple(m.dims.sizes[p] for p in perm)
    new_margins = []
    for a in range(d):
        p = perm[a]
        old = m.margins[p]
        kept_old = [ax for ax in range(d) if ax != p]  # axes of `old`, in order
        kept_new = [perm[j] for j in range(d) if j != a]  # wanted order
        tau = tuple(kept_old.index(ax) for ax in kept_new)
        new_margins.append(np.transpose(old, tau))
    return MarginalSet(Dims(sizes), tuple(new_margins))
