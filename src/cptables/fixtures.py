"""Bundled example margin sets.

ex5_1 .. ex5_13 are small three-way instances used throughout the tests and
demos; ex5_1 is the 3x3x3 cube with every margin entry 1.  semimagic-<m>-<s>
names are generated on demand: the m x m x m cube with every margin entry
equal to s (s = 1 gives the Latin-square family).
"""

from __future__ import annotations

import numpy as np

from .tables import Dims, MarginalSet, marginals3


def semimagic_margins(m: int, s: int) -> MarginalSet:
    """Margins of the m x m x m cube with every line sum equal to s."""
    m = int(m)
    s = int(s)
    if m < 2:
        raise ValueError("cube side must be >= 2")
    if not (0 <= s <= m):
        raise ValueError(f"line sum must be within 0..{m}")
    mg = np.full((m, m), s, dtype=np.int64)
    return MarginalSet(Dims((m, m, m)), (mg, mg.copy(), mg.copy()))


_EXAMPLES: dict[str, tuple[list, list, list]] = {
    "ex5_2": (
        [[2, 2, 2, 2], [1, 3, 2, 2], [2, 3, 3, 2]],
        [[2, 3, 2, 2], [1, 3, 3, 3], [2, 2, 2, 1]],
        [[3, 3, 3], [3, 3, 4], [2, 2, 3]],
    ),
    "ex5_3": (
        [[2, 2, 2, 1], [1, 1, 1, 0], [1, 1, 1, 2], [1, 1, 2, 3]],
        [[3, 3, 2, 1], [1, 0, 2, 2], [1, 2, 2, 3]],
        [[3, 2, 2, 2], [1, 0, 2, 2], [3, 1, 1, 3]],
    ),
    "ex5_4": (
        [[1, 2, 2, 1], [0, 1, 1, 2], [1, 0, 2, 1], [0, 1, 3, 2]],
        [[1, 2, 3, 2], [1, 1, 2, 3], [0, 1, 3, 1]],
        [[3, 1, 1, 3], [1, 2, 2, 2], [2, 1, 1, 1]],
    ),
    "ex5_5": (
        [[2, 3, 3, 2], [1, 3, 2, 1], [1, 2, 3, 0], [4, 2, 2, 2]],
        [[2, 2, 4, 1], [3, 2, 2, 2], [2, 3, 3, 1], [1, 3, 1, 1]],
        [[2, 2, 3, 2], [3, 2, 1, 3], [3, 2, 2, 2], [2, 1, 0, 3]],
    ),
    "ex5_6": (
        [[2, 3, 2, 3], [1, 2, 3, 2], [2, 2, 3, 2], [3, 2, 3, 2]],
        [[1, 4, 1, 3], [4, 2, 4, 2], [1, 2, 4, 3], [2, 1, 2, 1]],
        [[2, 2, 2, 3], [3, 3, 3, 3], [3, 2, 2, 3], [2, 1, 2, 1]],
    ),
    "ex5_7": (
        [[1, 2, 3, 1], [2, 3, 2, 3], [2, 4, 2, 1], [2, 1, 4, 1]],
        [[2, 3, 2, 0], [3, 2, 3, 2], [1, 3, 3, 1], [1, 2, 3, 3]],
        [[2, 1, 2, 2], [3, 2, 3, 2], [1, 4, 2, 1], [1, 3, 2, 3]],
    ),
    "ex5_8": (
        [[2, 4, 1, 3], [1, 2, 1, 2], [1, 1, 0, 3], [4, 1, 0, 2]],
        [[2, 1, 1, 2], [3, 1, 1, 3], [1, 2, 0, 2], [2, 4, 0, 3]],
        [[3, 1, 1, 1], [3, 1, 2, 2], [1, 2, 1, 1], [3, 2, 1, 3]],
    ),
    "ex5_9": (
        [[1, 3, 1, 3], [1, 1, 2, 2], [2, 3, 1, 0], [3, 2, 2, 3]],
        [[2, 2, 2, 2], [2, 1, 2, 1], [1, 3, 1, 2], [2, 3, 1, 3]],
        [[3, 1, 1, 3], [1, 2, 1, 2], [2, 0, 3, 2], [2, 3, 1, 3]],
    ),
    "ex5_10": (
        [[2, 1, 0, 1], [2, 3, 1, 2], [3, 1, 2, 1], [1, 3, 2, 2]],
        [[2, 3, 2, 1], [2, 1, 2, 3], [2, 1, 0, 1], [2, 3, 1, 1]],
        [[1, 2, 2, 3], [1, 1, 3, 3], [1, 3, 0, 0], [1, 2, 2, 2]],
    ),
    "ex5_11": (
        [[2, 0, 3, 3, 1], [0, 0, 1, 0, 2], [1, 0, 1, 1, 1], [0, 1, 0, 1, 0]],
        [[1, 0, 0, 2, 0], [1, 0, 2, 1, 1], [1, 1, 1, 1, 2], [0, 0, 2, 1, 1]],
        [[2, 0, 0, 1], [3, 1, 1, 0], [2, 1, 2, 1], [2, 1, 1, 0]],
    ),
    "ex5_12": (
        [[1, 0, 1, 1, 1], [2, 1, 0, 1, 0], [0, 1, 1, 1, 0], [1, 1, 1, 1, 1]],
        [[2, 1, 0, 0, 0], [1, 2, 1, 2, 1], [1, 0, 1, 1, 1], [0, 0, 1, 1, 0]],
        [[1, 2, 0, 0], [2, 2, 2, 1], [0, 0, 1, 3], [1, 0, 0, 1]],
    ),
    "ex5_13": (
        [[1, 1, 1, 1, 1], [1, 1, 1, 1, 0], [1, 2, 0, 0, 1], [2, 0, 1, 1, 2]],
        [[0, 0, 1, 1, 0], [1, 0, 1, 0, 2], [2, 2, 0, 1, 1], [2, 2, 1, 1, 1]],
        [[0, 2, 0, 0], [1, 0, 1, 2], [2, 2, 1, 1], [2, 0, 2, 3]],
    ),
}


def fixture_names() -> list[str]:
    """The named bundled fixtures (the semimagic family is open-ended)."""
    return ["ex5_1"] + sorted(_EXAMPLES, key=lambda s: int(s.split("_")[1]))


def fixture(name: str) -> MarginalSet:
    """Look up a bundled margin set by name: ex5_1..ex5_13 or
    semimagic-<m>-<s>."""
    if name == "ex5_1":
        return semimagic_margins(3, 1)
    if name in _EXAMPLES:
        si, sj, sk = _EXAMPLES[name]
        return marginals3(si, sj, sk)
    if name.startswith("semimagic-"):
        parts = name.split("-")
        if len(parts) == 3:
            try:
                return semimagic_margins(int(parts[1]), int(parts[2]))
            except ValueError as e:
                raise KeyError(f"bad semimagic fixture name {name!r}: {e}") from None
    raise KeyError(f"unknown fixture {name!r}")
