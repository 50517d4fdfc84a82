import gc
from itertools import product

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from cptables import (
    BinaryTable,
    Dims,
    MarginalSet,
    exact_count,
    exact_enumerate,
    expand_paths,
    fixture,
    fixture_names,
    marginals3,
    marginals_of,
    semimagic_margins,
)
from cptables.oracle import EnumerationBudgetError
from cptables.layers import PROPOSALS

KNOWN_COUNTS = {
    "ex5_1": 12,
    "ex5_2": 3,
    "ex5_3": 5,
    "ex5_4": 8,
    "ex5_5": 8,
    "ex5_6": 28,
    "ex5_7": 4,
    "ex5_8": 2,
    "ex5_9": 12,
    "ex5_10": 9,
    "ex5_11": 5,
    "ex5_12": 2,
    "ex5_13": 5,
}


def test_counts_on_all_bundled_margin_sets():
    assert set(KNOWN_COUNTS) == set(fixture_names())
    for name, want in KNOWN_COUNTS.items():
        assert exact_count(fixture(name)) == want


def test_enumeration_yields_distinct_valid_tables():
    for name in ("ex5_2", "ex5_6", "ex5_9"):
        m = fixture(name)
        tables = exact_enumerate(m)
        assert len(tables) == KNOWN_COUNTS[name]
        keys = {t.cells.tobytes() for t in tables}
        assert len(keys) == len(tables)
        for t in tables:
            got = marginals_of(t)
            for a in range(3):
                assert np.array_equal(got.margins[a], m.margins[a])


def test_enumeration_order_is_deterministic_and_limit_truncates():
    m = fixture("ex5_6")
    full = exact_enumerate(m)
    head = exact_enumerate(m, limit=10)
    assert len(head) == 10
    for a, b in zip(head, full):
        assert np.array_equal(a.cells, b.cells)
    with pytest.raises(ValueError):
        exact_enumerate(m, limit=0)


def test_budget_error_carries_partial_progress():
    with pytest.raises(EnumerationBudgetError) as info:
        exact_count(fixture("ex5_6"), budget=20)
    assert info.value.nodes >= 20
    assert 0 <= info.value.partial_count < 28
    assert "budget" in str(info.value)


def test_infeasible_margins_count_zero():
    m = marginals3([[0, 2], [2, 0]], [[1, 1], [1, 1]], [[2, 0], [0, 2]])
    assert exact_count(m) == 0
    assert exact_enumerate(m) == []


def test_two_way_agrees_with_brute_force():
    rows = np.array([2, 1, 2])
    cols = np.array([1, 2, 2])
    m = MarginalSet(Dims((3, 3)), (cols, rows))
    brute = 0
    for bits in product((0, 1), repeat=9):
        t = np.array(bits).reshape(3, 3)
        if np.array_equal(t.sum(axis=0), cols) and np.array_equal(
            t.sum(axis=1), rows
        ):
            brute += 1
    assert exact_count(m) == brute


def test_three_way_agrees_with_brute_force_on_a_random_instance():
    rng = np.random.default_rng(123)
    cells = (rng.random((2, 2, 3)) < 0.5).astype(int)
    m = marginals_of(BinaryTable.from_array(cells))
    brute = 0
    for bits in product((0, 1), repeat=12):
        t = np.array(bits).reshape(2, 2, 3)
        if all(np.array_equal(t.sum(axis=a), m.margins[a]) for a in range(3)):
            brute += 1
    assert brute >= 1
    assert exact_count(m) == brute


def test_semimagic_count_with_many_memo_hits():
    assert exact_count(semimagic_margins(4, 2)) == 51678


def test_memo_keys_on_the_free_pattern_not_the_set_values():
    # keyed on free cells and residuals the count expands 12,924 nodes;
    # keying on the set cells' values as well takes 23,328
    assert exact_count(fixture("semimagic-4-2"), budget=15_000) == 51678
    with pytest.raises(EnumerationBudgetError) as err:
        exact_count(fixture("semimagic-4-2"), budget=12_923)
    assert err.value.nodes == 12_924


def test_latin_square_counts():
    assert exact_count(semimagic_margins(3, 1)) == 12
    assert exact_count(semimagic_margins(4, 1)) == 576


def test_four_way_count():
    cells = np.zeros((2, 2, 2, 2), dtype=int)
    cells[0, 0, 0, 0] = 1
    cells[1, 1, 1, 1] = 1
    m = marginals_of(BinaryTable.from_array(cells))
    tables = exact_enumerate(m)
    assert exact_count(m) == len(tables) >= 1
    for t in tables:
        got = marginals_of(t)
        for a in range(4):
            assert np.array_equal(got.margins[a], m.margins[a])


def _shifted_permutation_sum(rng):
    """A four-way n^4 table (n = 2 or 3) that is the sum of 1 to n - 1
    shifted copies of one permutation table, cell x set where x[3] ==
    p0[x0] + p1[x1] + p2[x2] + shift (mod n), with at most one cell then
    flipped.  Random four-way tables almost never admit a second table
    with their margins; these mostly do."""
    n = int(rng.integers(2, 4))
    idx = np.indices((n,) * 4)
    line = sum(rng.permutation(n)[i] for i in idx[:3])
    cells = np.zeros((n,) * 4, dtype=np.int8)
    for shift in rng.choice(n, size=int(rng.integers(1, n)), replace=False):
        cells |= idx[3] == (line + shift) % n
    for flip in rng.integers(0, n, size=(int(rng.integers(0, 2)), 4)):
        cells[tuple(flip)] ^= 1
    return cells


@st.composite
def small_tables(draw):
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if d == 4 and draw(st.booleans()):
        return _shifted_permutation_sum(rng)
    sizes = tuple(draw(st.integers(2, 5 if d == 2 else 3)) for _ in range(d))
    return (rng.random(sizes) < draw(st.floats(0.2, 0.8))).astype(np.int8)


def test_shifted_permutation_sums_mostly_branch():
    counts = [
        exact_count(marginals_of(BinaryTable.from_array(
            _shifted_permutation_sum(np.random.default_rng(seed)))))
        for seed in range(40)
    ]
    assert sum(c >= 2 for c in counts) >= 30


@settings(max_examples=300, deadline=None)
@given(small_tables())
def test_count_matches_enumeration_and_expansion(cells):
    m = marginals_of(BinaryTable.from_array(cells))
    count = exact_count(m)
    assert count == len(exact_enumerate(m)) >= 1
    # the proposal reaches every table: mass 1 and as many tables as exist;
    # the layer axis only matters for three-way tables
    for proposal in PROPOSALS:
        for axis in range(3 if m.dims.d == 3 else 1):
            px = expand_paths(m, proposal=proposal, layer_axis=axis)
            assert abs(px.total_mass - 1.0) <= 1e-12
            assert len(px.tables) == count
            assert all(q > 0 for q in px.tables.values())


def test_count_leaves_no_cyclic_garbage():
    # the memo must be freed on return, not at the next full collection
    m = semimagic_margins(4, 1)
    gc.collect()
    gc.disable()
    try:
        assert exact_count(m) == 576
        with pytest.raises(EnumerationBudgetError):
            exact_count(m, budget=100)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deep_search_ends_on_the_budget_not_the_recursion_limit():
    # half-full 72 x 72 margins: the first complete table lies more than
    # 1000 branch levels below the root
    half = np.full(72, 36)
    m = MarginalSet(Dims((72, 72)), (half, half))
    with pytest.raises(EnumerationBudgetError) as info:
        exact_count(m, budget=3000)
    assert info.value.partial_count >= 1
