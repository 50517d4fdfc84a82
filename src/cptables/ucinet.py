"""UCINET DL ingestion for stacked social relations.

Supports the header-driven FULLMATRIX layout: a DL token, N= / NM= counts,
an optional FORMAT line (DIAGONAL PRESENT or ABSENT), optional label
sections, then DATA: with NM square matrices of whitespace-separated
numbers.  Entries are nomination ranks; any nonzero rank binarizes to 1, so
a "top three choices" relation becomes a zero-one layer.  The stack keeps
the relations in file order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .tables import BinaryTable, CPTablesError, Dims, MarginalSet, marginals_of


class UcinetFormatError(CPTablesError):
    """The DL file is malformed or uses an unsupported layout."""


@dataclass(frozen=True)
class RelationStack:
    """N x N x R zero-one array of R relations over N actors; no
    self-nominations, so every layer has a zero diagonal."""

    stack: np.ndarray
    relation_names: tuple[str, ...]

    def __post_init__(self):
        stack = np.ascontiguousarray(np.asarray(self.stack, dtype=np.int8))
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        if stack.ndim != 3 or stack.shape[0] != stack.shape[1]:
            raise ValueError("stack must be N x N x R")
        if stack.size and (stack.min() < 0 or stack.max() > 1):
            raise ValueError("stack entries must be 0 or 1")
        for r in range(stack.shape[2]):
            if np.any(np.diagonal(stack[:, :, r])):
                raise ValueError(f"relation {r} has self-nominations on the diagonal")
        names = tuple(self.relation_names)
        if len(names) != stack.shape[2]:
            raise ValueError("one name per relation required")
        object.__setattr__(self, "relation_names", names)

    @property
    def table(self) -> BinaryTable:
        return BinaryTable(Dims(tuple(self.stack.shape)), self.stack)

    def marginals(self) -> MarginalSet:
        return marginals_of(self.table)


_SECTION = re.compile(
    r"^(row\s+labels|column\s+labels|level\s+labels|labels|data)\s*:\s*$",
    re.IGNORECASE,
)


def parse_ucinet_dl_text(text: str) -> RelationStack:
    lines = text.splitlines()
    first = lines[0].split("#")[0].strip() if lines else ""
    head = first.split(None, 1)
    if not head or head[0].upper() not in ("DL", "DL:"):
        raise UcinetFormatError("missing DL header on the first line")
    # N= / NM= may share the DL line; feed the remainder back as a header line
    rest = [head[1]] if len(head) > 1 else []

    n = None
    nm = 1
    diagonal_present = True
    fullmatrix = True
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None

    for raw in rest + lines[1:]:
        line = raw.strip()
        if not line:
            continue
        msec = _SECTION.match(line)
        if msec:
            key = re.sub(r"\s+", " ", msec.group(1).lower())
            current = sections.setdefault(key, [])
            continue
        if current is not None:
            current.extend(line.replace(",", " ").split())
            continue
        # header assignments; commas and spaces around '=' are all legal
        for key, val in re.findall(r"([A-Za-z]+)\s*=\s*([A-Za-z0-9]+)", line):
            k = key.upper()
            if k in ("N", "NM") and not val.isdigit():
                raise UcinetFormatError(
                    f"header value {key}={val} is not a whole number"
                )
            if k == "N":
                n = int(val)
            elif k == "NM":
                nm = int(val)
            elif k == "FORMAT":
                fullmatrix = val.upper() == "FULLMATRIX"
        up = line.upper()
        if "EDGELIST" in up or "NODELIST" in up:
            fullmatrix = False
        if "ABSENT" in up:
            diagonal_present = False

    if n is None:
        raise UcinetFormatError("header does not declare N=")
    if not fullmatrix:
        raise UcinetFormatError("only FULLMATRIX layout is supported")
    data = sections.get("data")
    if not data:
        raise UcinetFormatError("no DATA: section")

    width = n if diagonal_present else n - 1
    want = nm * n * width
    if len(data) != want:
        raise UcinetFormatError(
            f"DATA holds {len(data)} entries, expected {want} "
            f"({nm} matrices of {n}x{width})"
        )
    try:
        vals = np.asarray([float(v) for v in data])
    except ValueError as e:
        raise UcinetFormatError(f"non-numeric DATA entry: {e}") from None
    raw_stack = vals.reshape(nm, n, width)
    full = np.zeros((nm, n, n))
    if diagonal_present:
        full[:] = raw_stack
    else:
        for i in range(n):
            cols = [c for c in range(n) if c != i]
            full[:, i, cols] = raw_stack[:, i, :]
    binary = (full != 0).astype(np.int8)
    # relations stack along the last axis: stack[i, j, r]
    stack = np.moveaxis(binary, 0, 2)

    names = sections.get("level labels") or sections.get("labels") or []
    if names and len(names) != nm:
        raise UcinetFormatError(
            f"{len(names)} level labels for {nm} relations"
        )
    if not names:
        names = [f"relation{r + 1}" for r in range(nm)]
    try:
        return RelationStack(stack, tuple(names))
    except ValueError as e:
        raise UcinetFormatError(str(e)) from None


def parse_ucinet_dl(path) -> RelationStack:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ucinet_dl_text(fh.read())
