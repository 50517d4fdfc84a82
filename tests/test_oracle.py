from collections import deque
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
from cptables.oracle import EnumerationBudgetError, _interchangeable
from cptables.reduction import FREE, TableState
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
    # keyed on free cells and residuals the count expands 672 nodes;
    # keying memo_key on the set cells' values as well takes 796
    assert exact_count(fixture("semimagic-4-2"), budget=700) == 51678
    with pytest.raises(EnumerationBudgetError) as err:
        exact_count(fixture("semimagic-4-2"), budget=671)
    assert err.value.nodes == 672


def test_inputs_without_interchangeable_indices_keep_the_plain_memo():
    # no slice keys: ex5_6 and a seeded 4 x 5 x 6 table expand as many
    # nodes as a count keyed on memo_key alone (slice keys would save ex5_6
    # four nodes and cost it half as much time again; see _interchangeable)
    rng = np.random.default_rng(3)
    cells = (rng.random((4, 5, 6)) < 0.5).astype(np.int8)
    for m, nodes in ((fixture("ex5_6"), 36),
                     (marginals_of(BinaryTable.from_array(cells)), 618)):
        assert not _interchangeable(m)
        with pytest.raises(EnumerationBudgetError) as err:
            exact_count(m, budget=nodes - 1)
        assert err.value.nodes == nodes


def _with_copied_slice(rng, d):
    """A random d-way table (sides 2 to 5, 4 or 3 as d is 2, 3 or 4) with
    one index slice copied onto another along an axis >= 1, so the two
    indices are interchangeable in its margins."""
    sizes = tuple(int(rng.integers(2, 8 - d)) for _ in range(d))
    cells = (rng.random(sizes) < rng.uniform(0.2, 0.8)).astype(np.int8)
    b = int(rng.integers(1, d))
    src, dst = rng.choice(sizes[b], size=2, replace=False)
    cells = np.moveaxis(cells, b, 0)
    cells[dst] = cells[src]
    return np.moveaxis(cells, 0, b)


def test_slice_keys_count_tables_with_interchangeable_indices():
    rng = np.random.default_rng(25)
    for d in (2, 3, 4):
        for _ in range(40):
            m = marginals_of(BinaryTable.from_array(_with_copied_slice(rng, d)))
            assert _interchangeable(m)
            assert exact_count(m) == len(exact_enumerate(m)) >= 1


def _slice_entry_states(table, tables, rng, picks):
    """Reduced states of the table's margins with every cell of the axis-0
    slices before `first` set as in one of `tables`, each with its `first`
    and its number of completions among `tables`."""
    sizes = table.shape
    width = table.size // sizes[0]
    flat = [t.ravel() for t in tables]
    for _ in range(picks):
        first = int(rng.integers(1, sizes[0]))
        fill = flat[int(rng.integers(len(flat)))][:first * width]
        state = TableState.from_marginals(marginals_of(BinaryTable.from_array(table)))
        assert state.initial_reduce() < 0
        pending = deque()
        for cid, v in enumerate(fill.tolist()):
            if state.cells[cid] == FREE:
                state.set_cell(cid, v, pending)
        assert state.propagate(pending) < 0
        cells = np.array(state.cells)
        set_ = cells != FREE
        completions = sum(np.array_equal(t[set_], cells[set_]) for t in flat)
        yield state, first, completions


def test_slice_keys_are_shared_only_by_subproblems_with_equal_counts():
    # random slice-entry states of tables with interchangeable indices and
    # of copies relabelled along axes 1..d-1: states with equal keys have
    # as many completions, and relabelled copies do share keys
    rng = np.random.default_rng(26)
    shared = 0
    for d in (2, 3, 4):
        for _ in range(12):
            table = _with_copied_slice(rng, d)
            seen: dict[bytes, tuple[int, int]] = {}
            for copy in range(3):
                for b in range(1, d):
                    table = np.take(table, rng.permutation(table.shape[b]), axis=b)
                m = marginals_of(BinaryTable.from_array(table))
                tables = [t.cells for t in exact_enumerate(m)]
                for state, first, n in _slice_entry_states(table, tables, rng, 8):
                    key = state.slice_key(first)
                    was, n_was = seen.setdefault(key, (copy, n))
                    assert n_was == n
                    shared += was != copy
    assert shared >= 100


def test_slice_keys_write_wide_residuals_in_full():
    # 3 x 300 tables with an empty first row and one 1 per column below it:
    # the second and third rows' residuals 1 and 299, or 257 and 43, agree
    # modulo 256, and everything else in the two slice keys is the same
    keys = []
    for ones in (1, 257):
        cells = np.zeros((3, 300), dtype=np.int8)
        cells[1, :ones] = 1
        cells[2, ones:] = 1
        state = TableState.from_marginals(marginals_of(BinaryTable.from_array(cells)))
        assert state.initial_reduce() < 0
        assert state.geo.rs_code == "I"
        assert state.cells.index(FREE) == 300  # row 0 set, rows 1 and 2 free
        keys.append(state.slice_key(1))
    assert keys[0] != keys[1]
    assert len(keys[0]) == 2 * 300 + 4 * (300 + 2)


def test_latin_square_counts():
    assert exact_count(semimagic_margins(3, 1)) == 12
    assert exact_count(semimagic_margins(4, 1)) == 576
    assert exact_count(semimagic_margins(6, 1)) == 812_851_200


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
            exact_count(m, budget=50)  # the count takes 68 nodes
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
