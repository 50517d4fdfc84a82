"""Plain-text marginal files.

Grammar (tokens are whitespace separated; '#' starts a comment to end of
line; blank lines are ignored):

    dims: n1 n2 ... nd
    m1:                 # margin summing over axis 1; 'si' is an alias (d=3)
    ... prod(shape) integers, any line layout ...
    m2:                 # alias 'sj'
    ...
    m3:                 # alias 'sk'
    ...

Every margin section must appear exactly once (any order).  For d = 3 the
writer emits si/sj/sk with one margin row per line; higher-way margins are
flattened in C order.  Parsed files are validated, so a syntactically fine
file with inconsistent margins still fails loudly.
"""

from __future__ import annotations

import math

import numpy as np

from .tables import CPTablesError, Dims, MarginalSet, validate_marginals


class MarginalFileError(CPTablesError):
    """Syntax or layout problem in a marginal file."""

    def __init__(self, message: str, line: int, column: int = 0):
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


_ALIASES3 = {"si": 1, "sj": 2, "sk": 3}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _tokenize(text: str):
    """Yield (token, line, column) with comments stripped; 1-based."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        for piece in line.split():
            col = line.index(piece, col) + 1
            yield piece, ln, col
            col += len(piece) - 1


def parse_marginal_text(text: str) -> MarginalSet:
    toks = list(_tokenize(text))
    if not toks:
        raise MarginalFileError("empty file", 1)
    pos = 0

    def need(what: str):
        nonlocal pos
        if pos >= len(toks):
            last = toks[-1]
            raise MarginalFileError(f"unexpected end of file, wanted {what}", last[1])
        t = toks[pos]
        pos += 1
        return t

    tok, ln, col = need("'dims:'")
    if tok != "dims:":
        raise MarginalFileError(f"expected 'dims:' first, got {tok!r}", ln, col)
    sizes = []
    while pos < len(toks) and not toks[pos][0].endswith(":"):
        tok, ln, col = need("an axis size")
        try:
            sizes.append(int(tok))
        except ValueError:
            raise MarginalFileError(f"bad axis size {tok!r}", ln, col) from None
    if len(sizes) < 2:
        raise MarginalFileError("dims needs at least two axis sizes", ln, col)
    try:
        dims = Dims(tuple(sizes))
    except ValueError as e:
        raise MarginalFileError(str(e), ln, col) from None

    margins: dict[int, np.ndarray] = {}
    while pos < len(toks):
        tok, ln, col = need("a margin header")
        if not tok.endswith(":"):
            raise MarginalFileError(f"expected a margin header, got {tok!r}", ln, col)
        name = tok[:-1]
        if name in _ALIASES3 and dims.d == 3:
            axis = _ALIASES3[name]
        elif name.startswith("m") and name[1:].isdigit():
            axis = int(name[1:])
        else:
            raise MarginalFileError(f"unknown margin name {name!r}", ln, col)
        if not (1 <= axis <= dims.d):
            raise MarginalFileError(f"margin axis {axis} out of range 1..{dims.d}", ln, col)
        if axis in margins:
            raise MarginalFileError(f"margin over axis {axis} given twice", ln, col)
        shape = dims.margin_shape(axis - 1)
        wanted = math.prod(shape)  # exact: an int64 product can wrap
        values = []
        for _ in range(wanted):
            tok, ln, col = need(f"{wanted} integers for margin axis {axis}")
            try:
                v = int(tok)
            except ValueError:
                raise MarginalFileError(f"bad margin entry {tok!r}", ln, col) from None
            if not _INT64_MIN <= v <= _INT64_MAX:
                raise MarginalFileError(f"margin entry {tok!r} out of range", ln, col)
            values.append(v)
        margins[axis] = np.asarray(values, dtype=np.int64).reshape(shape)
    missing = [a for a in range(1, dims.d + 1) if a not in margins]
    if missing:
        raise MarginalFileError(
            f"missing margin sections for axes {missing}", toks[-1][1]
        )
    m = MarginalSet(dims, tuple(margins[a] for a in range(1, dims.d + 1)))
    validate_marginals(m)
    return m


def parse_marginal_file(path) -> MarginalSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_marginal_text(fh.read())


def format_marginals(m: MarginalSet, comments: list[str] | None = None) -> str:
    """Render a MarginalSet in the marginal-file grammar (round-trips
    through parse_marginal_text)."""
    out = [f"# {c}" for c in comments or []]
    out.append("dims: " + " ".join(str(s) for s in m.dims.sizes))
    names = (
        ["si", "sj", "sk"]
        if m.dims.d == 3
        else [f"m{a}" for a in range(1, m.dims.d + 1)]
    )
    for name, mg in zip(names, m.margins):
        out.append(f"{name}:")
        rows = mg.reshape(-1, mg.shape[-1])
        for row in rows:
            out.append(" ".join(str(int(v)) for v in row))
    return "\n".join(out) + "\n"


def write_marginal_file(m: MarginalSet, path, comments: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_marginals(m, comments))
