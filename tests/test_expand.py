import gc
import hashlib
from itertools import combinations, product
import math

import numpy as np
import pytest

from cptables import (
    BinaryTable,
    InvariantError,
    draw_accepted_tables,
    exact_count,
    exact_enumerate,
    expand_paths,
    fixture,
    marginals3,
    marginals_of,
    sample_table,
    semimagic_margins,
)
from cptables.oracle import EnumerationBudgetError
from cptables.layers import PROPOSALS
from cptables.sis import stream_rng

SMALL = ("ex5_1", "ex5_2", "ex5_3", "ex5_8", "ex5_12")


def _two_way():
    cells = (np.random.default_rng(0).random((5, 6)) < 0.5).astype(int)
    return marginals_of(BinaryTable.from_array(cells))


def _cube():
    # on every layer axis, its classic layer-end passes set ones, find
    # nothing to do and reject
    cells = (np.random.default_rng(0).random((4, 4, 4)) < 0.5).astype(int)
    return marginals_of(BinaryTable.from_array(cells))


def _four_way():
    # 3 x 3 x 3 x 3 with every line sum 1: 24 tables
    idx = np.indices((3, 3, 3, 3))
    cells = (idx[3] == idx[:3].sum(axis=0) % 3).astype(int)
    return marginals_of(BinaryTable.from_array(cells))


def _identity_cases():
    """(margins, layer axis): the bundled three-way sets and a random cube
    on every layer axis, then a two-way and a four-way table."""
    for m in [fixture(name) for name in SMALL] + [_cube()]:
        for axis in range(3):
            yield m, axis
    yield _two_way(), 0
    yield _four_way(), 0


def test_branch_probabilities_sum_to_one():
    for m, axis in _identity_cases():
        for proposal in PROPOSALS:
            px = expand_paths(m, layer_axis=axis, proposal=proposal)
            assert abs(px.total_mass - 1.0) < 1e-9


def test_every_reachable_weight_is_unbiased():
    # sum over accepted leaves of q * (1/q) must equal the table count
    # exactly: the proposal reaches every valid table
    for m, axis in _identity_cases():
        truth = exact_count(m)
        for proposal in PROPOSALS:
            px = expand_paths(m, layer_axis=axis, proposal=proposal)
            assert px.weight_mean() == truth


def test_reachable_tables_match_the_enumeration():
    m = fixture("ex5_2")
    px = expand_paths(m)
    keys = {t.cells.tobytes() for t in exact_enumerate(m)}
    assert set(px.tables) == keys
    for key in px.tables:
        arr = px.table_array(key)
        assert arr.shape == m.dims.sizes
        for a in range(3):
            assert np.array_equal(arr.sum(axis=a), m.margins[a])


def test_guided_proposal_never_rejects_on_bundled_sets():
    for name in SMALL:
        px = expand_paths(fixture(name), proposal="guided")
        assert px.reject_mass == 0.0
        assert px.acceptance == 1.0


def test_classic_acceptance_exact_values():
    # easy sets never dead-end; the two hard ones lose known mass
    for name in ("ex5_1", "ex5_2", "ex5_3", "ex5_8"):
        assert expand_paths(fixture(name)).acceptance == 1.0
    acc9 = expand_paths(fixture("ex5_9")).acceptance
    acc13 = expand_paths(fixture("ex5_13")).acceptance
    assert abs(acc9 - 0.8455) < 5e-4
    assert abs(acc13 - 0.8462) < 5e-4


def test_sampler_log_q_agrees_with_expansion():
    for m in (fixture("ex5_2"), fixture("ex5_9"), _two_way(), _four_way()):
        for axis, proposal in product(range(3) if m.dims.d == 3 else (0,),
                                      PROPOSALS):
            px = expand_paths(m, layer_axis=axis, proposal=proposal)
            seen = 0
            for i in range(200):
                out = sample_table(m, stream_rng(7, i), layer_axis=axis,
                                   proposal=proposal)
                if not out.accepted:
                    continue
                q = px.tables[out.table.cells.tobytes()]
                assert abs(out.log_q - math.log(q)) < 1e-9
                seen += 1
            assert seen > 100


@pytest.mark.parametrize("proposal", PROPOSALS)
@pytest.mark.parametrize("m", [_two_way(), _four_way()], ids=["d2", "d4"])
def test_single_layer_q_is_the_samplers_bit_for_bit(m, proposal):
    # one layer: the expander folds the same draw scores in the same order
    # as the sampler, so q is exp of the sampler's log q exactly
    px = expand_paths(m, proposal=proposal)
    outs, _ = draw_accepted_tables(m, 300, seed=5, proposal=proposal)
    assert len(outs) == 300
    for o in outs:
        assert px.tables[o.table.cells.tobytes()] == math.exp(o.log_q)


def test_monte_carlo_acceptance_matches_exact_mass():
    m = fixture("ex5_9")
    exact = expand_paths(m).acceptance
    n = 2000
    hits = sum(sample_table(m, stream_rng(3, i)).accepted for i in range(n))
    se = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(hits / n - exact) < 4.0 * se


def test_layer_axis_keys_come_back_in_original_orientation():
    m = fixture("ex5_2")
    base = expand_paths(m)
    for axis in (1, 2):
        px = expand_paths(m, layer_axis=axis)
        assert set(px.tables) == set(base.tables)
        assert abs(px.total_mass - 1.0) < 1e-9
        assert px.weight_mean() == base.weight_mean()


def test_exact_cv2_conditional_on_acceptance():
    # zero-variance set: both valid tables drawn with equal probability
    px = expand_paths(fixture("ex5_8"))
    assert px.weight_mean() == 2
    assert px.cv2() < 1e-12
    qs = np.array(list(px.tables.values()))
    assert np.allclose(qs, 0.5)
    # semimagic 3x3x3: all 12 Latin squares at q = 1/12
    sm = expand_paths(semimagic_margins(3, 1))
    assert sm.weight_mean() == 12
    assert sm.acceptance == 1.0
    assert sm.cv2() < 1e-12


def test_expansion_budget_and_validation():
    with pytest.raises(EnumerationBudgetError):
        expand_paths(fixture("ex5_9"), max_leaves=3)
    with pytest.raises(ValueError):
        expand_paths(fixture("ex5_2"), layer_axis=5)
    infeasible = marginals3([[0, 2], [2, 0]], [[1, 1], [1, 1]], [[2, 0], [0, 2]])
    px = expand_paths(infeasible)
    assert px.tables == {} and px.reject_mass == 1.0
    assert math.isnan(px.cv2())


def test_expansion_leaves_no_cyclic_garbage():
    # the reached-table dict must be freed when the result is dropped, not
    # only at the next full collection: repeated expansions otherwise pile
    # up in memory
    m = fixture("ex5_2")
    gc.collect()
    gc.disable()
    try:
        for proposal in PROPOSALS:
            expand_paths(m, proposal=proposal, layer_axis=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_two_paths_to_one_table_raise(monkeypatch):
    # a draw that offers every subset twice reaches each table twice; the
    # expander's subsets come from cpdist.cp_branches
    def twice(items, size):
        for picked in combinations(items, size):
            yield picked
            yield picked

    monkeypatch.setattr("cptables.cpdist.combinations", twice)
    with pytest.raises(InvariantError, match="two proposal paths"):
        expand_paths(fixture("ex5_2"))


def _expansion_digest(px) -> str:
    h = hashlib.sha256()
    for key, qhex in sorted((k, q.hex()) for k, q in px.tables.items()):
        h.update(key)
        h.update(qhex.encode())
    h.update(px.reject_mass.hex().encode())
    h.update(str(px.leaves).encode())
    return h.hexdigest()


# every q, the reject mass and the leaf count must stay bit-for-bit the
# same; the plain (unmemoized) walk gives these digests too.  The ex5_6
# and semimagic-4-2 digests were re-recorded when the edges took the draw's
# own scores (cpdist.cp_branches): the same tables and leaf counts, each q
# within 2e-15 relative of the forward-table sums it replaced
EXPANSION_DIGESTS = {
    ("semimagic-4-1", "classic", 0): "974ef8792dd20f4ff556b356edc914945b9a05c8397d123790f4ae60318426e7",
    ("semimagic-4-1", "classic", 1): "5587e18b9a095f59e7a9947b3912d65cdceb387f5e5b2d766a7ab52f797a3480",
    ("semimagic-4-1", "classic", 2): "86e33fe6ee67226e7dd9c13f6226796c0e1c031fe33957c5e3b09eb2120cb313",
    ("semimagic-4-1", "guided", 0): "974ef8792dd20f4ff556b356edc914945b9a05c8397d123790f4ae60318426e7",
    ("semimagic-4-1", "guided", 1): "5587e18b9a095f59e7a9947b3912d65cdceb387f5e5b2d766a7ab52f797a3480",
    ("semimagic-4-1", "guided", 2): "86e33fe6ee67226e7dd9c13f6226796c0e1c031fe33957c5e3b09eb2120cb313",
    ("ex5_6", "classic", 0): "b12bdd3077c5d461de325df0a11b35d4216ed15b625baf6113004640860fbd25",
    ("ex5_6", "classic", 1): "a3f176988434c8eddcd450b481e6b33162c1a9c58fe55ce3ca8a6c29a2ad5187",
    ("ex5_6", "classic", 2): "1ce0f5fd3b2ae4824ab6b6def4881b63dd48b6c1631ea13082aef73bb226b266",
    ("ex5_6", "guided", 0): "70c242c5fdb15943d3c33c4c3dd19fb1db0c92408ac601eb3506b59b56bc41fc",
    ("ex5_6", "guided", 1): "949256ed957e51a659e12b9c8d00f9cddab376d5f7de5e46b9c4109dd670648c",
    ("ex5_6", "guided", 2): "5e5f55289abeec9f1cb553c8d877b46b98383ca7f58119a2d243da0796f1ec93",
    ("semimagic-4-2", "classic", 0): "a56f5b44f90fadb58c212bec16b120229f7e8c6e0e425ee90f635fd79e77b65d",
}


@pytest.mark.parametrize("name,proposal,axis", sorted(EXPANSION_DIGESTS))
def test_expansion_is_pinned_bit_for_bit(name, proposal, axis):
    px = expand_paths(fixture(name), proposal=proposal, layer_axis=axis)
    assert _expansion_digest(px) == EXPANSION_DIGESTS[name, proposal, axis]


@pytest.mark.parametrize("proposal", PROPOSALS)
def test_expansion_budget_error_points_are_pinned(proposal):
    # the budget is checked on entry to every node, memo hits included
    for max_leaves, point in ((1000, (1001, 949)), (20000, (20001, 19147))):
        with pytest.raises(EnumerationBudgetError) as err:
            expand_paths(fixture("semimagic-4-2"), proposal=proposal,
                         max_leaves=max_leaves)
        assert (err.value.nodes, err.value.partial_count) == point
