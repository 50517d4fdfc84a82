import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cptables import (
    BinaryTable,
    MarginalFileError,
    MarginalValidationError,
    RelationStack,
    UcinetFormatError,
    fixture,
    fixture_names,
    format_marginals,
    marginals_of,
    parse_marginal_file,
    parse_marginal_text,
    parse_ucinet_dl,
    parse_ucinet_dl_text,
    write_marginal_file,
)


def test_marginal_text_round_trips_every_bundled_set():
    for name in fixture_names():
        m = fixture(name)
        back = parse_marginal_text(format_marginals(m))
        assert back.dims == m.dims
        for a in range(3):
            assert np.array_equal(back.margins[a], m.margins[a])


@pytest.mark.parametrize("name, reason", [
    ("semimagic-1-1", "cube side"),
    ("semimagic-3-5", "line sum"),
])
def test_bad_semimagic_fixture_name_raises_key_error(name, reason):
    with pytest.raises(KeyError, match=reason):
        fixture(name)


def test_marginal_text_round_trips_four_way():
    rng = np.random.default_rng(2)
    cells = (rng.random((2, 3, 2, 2)) < 0.5).astype(int)
    m = marginals_of(BinaryTable.from_array(cells))
    text = format_marginals(m)
    assert "m1:" in text and "m4:" in text and "si:" not in text
    back = parse_marginal_text(text)
    assert back.dims == m.dims
    for a in range(4):
        assert np.array_equal(back.margins[a], m.margins[a])


def test_marginal_file_round_trip_with_comments(tmp_path):
    m = fixture("ex5_6")
    path = tmp_path / "ex.margins"
    write_marginal_file(m, path, comments=["origin: bundled set"])
    text = path.read_text()
    assert text.startswith("# origin: bundled set\n")
    back = parse_marginal_file(path)
    for a in range(3):
        assert np.array_equal(back.margins[a], m.margins[a])


def test_marginal_parser_accepts_flexible_layout():
    text = """
    # any token layout works, comments anywhere
    dims: 2 2 2
    sj: 1 1
        1 1   # trailing comment
    si:
    1 1 1 1
    sk: 1 1 1 1
    """
    m = parse_marginal_text(text)
    assert m.dims.sizes == (2, 2, 2)
    assert m.total == 4
    # numeric margin names are interchangeable with the aliases
    same = parse_marginal_text(
        "dims: 2 2 2\nm1: 1 1 1 1\nm2: 1 1 1 1\nm3: 1 1 1 1\n"
    )
    for a in range(3):
        assert np.array_equal(same.margins[a], m.margins[a])


def _parse_error(text):
    with pytest.raises(MarginalFileError) as info:
        parse_marginal_text(text)
    return info.value


def test_marginal_parser_reports_position():
    err = _parse_error("")
    assert err.line == 1
    err = _parse_error("size: 2 2\n")
    assert "dims" in str(err) and err.line == 1 and err.column == 1
    err = _parse_error("dims: 2 x\n")
    assert "bad axis size" in str(err) and err.line == 1 and err.column == 9
    err = _parse_error("dims: 4\nsi: 1\n")
    assert "at least two" in str(err)
    err = _parse_error("dims: 2 2 2\nsx: 1 1 1 1\n")
    assert "unknown margin name" in str(err) and err.line == 2
    err = _parse_error("dims: 2 2 2\nm4: 1 1 1 1\n")
    assert "out of range" in str(err)
    err = _parse_error("dims: 2 2 2\nsi: 1 1 1 1\nsi: 1 1 1 1\n")
    assert "twice" in str(err) and err.line == 3
    err = _parse_error("dims: 2 2 2\nsi: 1 1 one 1\n")
    assert "bad margin entry" in str(err) and err.line == 2
    err = _parse_error("dims: 2 2 2\nsi: 1 1 1\n")
    assert "unexpected end of file" in str(err)
    err = _parse_error("dims: 2 2 2\nsi: 1 1 1 1 7\n")
    assert "expected a margin header" in str(err) and err.column == 13
    err = _parse_error("dims: 2 2 2\nsi: 1 1 1 1\n")
    assert "missing margin sections for axes [2, 3]" in str(err)


def test_marginal_parser_validates_margin_consistency():
    # parses fine, but the three totals disagree
    text = "dims: 2 2 2\nsi: 1 1 1 1\nsj: 1 1 1 1\nsk: 2 1 1 1\n"
    with pytest.raises(MarginalValidationError):
        parse_marginal_text(text)


SAMPLE_DL = """DL N=4 NM=2
FORMAT = FULLMATRIX DIAGONAL PRESENT
LEVEL LABELS:
advice
friendship
DATA:
0 1 2 0
3 0 0 1
0 1 0 1
1 0 2 0
0 1 0 0
1 0 1 0
0 0 0 1
0 1 1 0
"""


def test_ucinet_fullmatrix_parses_and_binarizes():
    rs = parse_ucinet_dl_text(SAMPLE_DL)
    assert rs.stack.shape == (4, 4, 2)
    assert rs.relation_names == ("advice", "friendship")
    # ranks 2 and 3 binarize to ones
    assert rs.stack[0, 2, 0] == 1 and rs.stack[1, 0, 0] == 1
    first = np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int8
    )
    assert np.array_equal(rs.stack[:, :, 0], first)
    m = rs.marginals()
    assert m.dims.sizes == (4, 4, 2)
    assert np.array_equal(m.margins[2], rs.stack.sum(axis=2))


def test_ucinet_diagonal_absent_restores_zero_diagonal():
    text = "dl n=3 nm=1\nformat=fullmatrix diagonal absent\ndata:\n1 0\n2 1\n0 3\n"
    rs = parse_ucinet_dl_text(text)
    want = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
    assert np.array_equal(rs.stack[:, :, 0], want)
    assert rs.relation_names == ("relation1",)


def test_ucinet_labels_section_as_fallback():
    text = "DL N=2 NM=1\nLABELS:\nwho\nDATA:\n0 1\n1 0\n"
    rs = parse_ucinet_dl_text(text)
    assert rs.relation_names == ("who",)


def test_ucinet_file_round_trip(tmp_path):
    path = tmp_path / "net.dl"
    path.write_text(SAMPLE_DL)
    rs = parse_ucinet_dl(path)
    assert rs.stack.shape == (4, 4, 2)


def test_ucinet_error_paths():
    with pytest.raises(UcinetFormatError, match="missing DL header"):
        parse_ucinet_dl_text("N=3\nDATA:\n")
    with pytest.raises(UcinetFormatError, match="declare N="):
        parse_ucinet_dl_text("DL NM=1\nDATA:\n0\n")
    with pytest.raises(UcinetFormatError, match="FULLMATRIX"):
        parse_ucinet_dl_text("DL N=2 FORMAT=EDGELIST1\nDATA:\n1 2\n")
    with pytest.raises(UcinetFormatError, match="no DATA"):
        parse_ucinet_dl_text("DL N=2\nLABELS:\na\n")
    with pytest.raises(UcinetFormatError, match="expected"):
        parse_ucinet_dl_text("DL N=2\nDATA:\n0 1 1\n")
    with pytest.raises(UcinetFormatError, match="non-numeric"):
        parse_ucinet_dl_text("DL N=2\nDATA:\n0 1 x 0\n")
    with pytest.raises(UcinetFormatError, match="level labels"):
        parse_ucinet_dl_text("DL N=2 NM=2\nLEVEL LABELS:\nonly_one\nDATA:\n" + "0 1\n1 0\n" * 2)
    with pytest.raises(UcinetFormatError, match="self-nominations"):
        parse_ucinet_dl_text("DL N=2\nDATA:\n1 0\n0 0\n")


def test_relation_stack_validation():
    ok = np.zeros((3, 3, 2), dtype=np.int8)
    rs = RelationStack(ok, ("a", "b"))
    assert rs.table.cells.shape == (3, 3, 2)
    with pytest.raises(ValueError, match="N x N x R"):
        RelationStack(np.zeros((2, 3, 1), dtype=np.int8), ("a",))
    with pytest.raises(ValueError, match="0 or 1"):
        RelationStack(np.full((2, 2, 1), 2, dtype=np.int8), ("a",))
    bad = np.zeros((2, 2, 1), dtype=np.int8)
    bad[1, 1, 0] = 1
    with pytest.raises(ValueError, match="diagonal"):
        RelationStack(bad, ("a",))
    with pytest.raises(ValueError, match="one name per relation"):
        RelationStack(ok, ("a",))


def test_ucinet_header_value_must_be_a_whole_number():
    with pytest.raises(UcinetFormatError, match="N=3NM"):
        parse_ucinet_dl_text("DL N=3NM=1\nDATA:\n" + "0 0 0\n" * 3)
    with pytest.raises(UcinetFormatError, match="NM=x"):
        parse_ucinet_dl_text("DL N=2 NM=x\nDATA:\n0 1\n1 0\n")


def test_marginal_parser_rejects_entries_beyond_int64():
    with pytest.raises(MarginalFileError, match="out of range"):
        parse_marginal_text("dims: 2 2\nm1: 99999999999999999999 1\nm2: 1 1\n")
    # margin sizes multiply exactly, so a huge shape asks for more entries
    # than the file holds instead of wrapping around
    with pytest.raises(MarginalFileError, match="unexpected end of file"):
        parse_marginal_text("dims: 4294967296 4294967296 4294967296\nm1: 1\n")


# parser fuzzing: valid files mutated token by token, and token soup
_FUZZ_TOKENS = (
    "dims:", "margin", "m1:", "m2:", "m3:", "m4:", "m0:", "si:", "sj:", "sk:",
    "DL", "dl", "N=", "NM=", "N=3NM=1", "=", "DATA:", "LABELS:",
    "LEVEL LABELS:", "FORMAT=", "FULLMATRIX", "EDGELIST1", "DIAGONAL",
    "ABSENT", "0", "1", "2", "3", "7", "-1", "+2", "-0", "1.5", "1e3", "nan",
    "99999999999999999999", str(2**63), str(-(2**63) - 1), "x", "#", ",",
)
_FUZZ_SEPS = (" ", "\n", "", "\t", ",", "=", ":")
_MARGIN_SEEDS = (
    format_marginals(fixture("ex5_2")),
    "dims: 2 3\nm1: 1 2 0\nm2: 2 1\n",
    "dims: 2 2 2 2\nm1:" + " 1" * 8 + "\nm2:" + " 1" * 8
    + "\nm3:" + " 1" * 8 + "\nm4:" + " 1" * 8 + "\n",
)
_DL_SEEDS = (
    "DL N=4 NM=2\nFORMAT = FULLMATRIX DIAGONAL PRESENT\nLEVEL LABELS:\n"
    "advice\nfriendship\nDATA:\n" + "0 1 2 0\n3 0 0 1\n" * 4,
    "dl n=3 nm=1\nformat=fullmatrix diagonal absent\ndata:\n1 0\n2 1\n0 3\n",
    "DL N=2 NM=1\nLABELS:\nwho\nDATA:\n0 1\n1 0\n",
)


@st.composite
def _fuzzed_text(draw, seeds):
    tokens = st.sampled_from(_FUZZ_TOKENS)
    seps = st.sampled_from(_FUZZ_SEPS)
    if draw(st.booleans()):
        soup = draw(st.lists(st.tuples(tokens, seps), max_size=30))
        return "".join(t + sep for t, sep in soup)
    pieces = re.split(r"(\s+)", draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(pieces)))
        op = draw(st.sampled_from(("replace", "insert", "delete", "glue", "cut")))
        if op == "insert" or i == len(pieces):
            pieces.insert(i, draw(tokens) + draw(seps))
        elif op == "replace":
            pieces[i] = draw(tokens)
        elif op == "delete":
            del pieces[i]
        elif op == "glue":
            pieces[i] = pieces[i].strip()
        else:
            del pieces[i:]
    return "".join(pieces)


@settings(max_examples=400, deadline=None)
@given(_fuzzed_text(_MARGIN_SEEDS))
def test_marginal_parser_fuzz_raises_only_its_own_errors(text):
    # a syntax error is a MarginalFileError (CLI exit 2); well-formed but
    # inconsistent margins are a MarginalValidationError (CLI exit 1)
    try:
        parse_marginal_text(text)
    except (MarginalFileError, MarginalValidationError):
        pass


@settings(max_examples=400, deadline=None)
@given(_fuzzed_text(_DL_SEEDS))
def test_ucinet_parser_fuzz_raises_only_its_own_errors(text):
    try:
        parse_ucinet_dl_text(text).marginals()
    except UcinetFormatError:
        pass
