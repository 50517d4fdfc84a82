import gc
import hashlib
from itertools import combinations, product
import math

import numpy as np
import pytest

from cptables import (
    BinaryTable,
    InvariantError,
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
from cptables.sis import PROPOSALS, _per_sample_rng

SMALL = ("ex5_1", "ex5_2", "ex5_3", "ex5_8", "ex5_12")


def test_branch_probabilities_sum_to_one():
    for name in SMALL:
        for proposal in PROPOSALS:
            px = expand_paths(fixture(name), proposal=proposal)
            assert abs(px.total_mass - 1.0) < 1e-9


def test_every_reachable_weight_is_unbiased():
    # sum over accepted leaves of q * (1/q) must equal the table count
    # exactly: the proposal reaches every valid table
    for name in SMALL:
        truth = exact_count(fixture(name))
        for proposal in PROPOSALS:
            px = expand_paths(fixture(name), proposal=proposal)
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


def _two_way():
    cells = (np.random.default_rng(0).random((5, 6)) < 0.5).astype(int)
    return marginals_of(BinaryTable.from_array(cells))


def _four_way():
    # 3 x 3 x 3 x 3 with every line sum 1: 24 tables
    idx = np.indices((3, 3, 3, 3))
    cells = (idx[3] == idx[:3].sum(axis=0) % 3).astype(int)
    return marginals_of(BinaryTable.from_array(cells))


def test_sampler_log_q_agrees_with_expansion():
    for m in (fixture("ex5_2"), fixture("ex5_9"), _two_way(), _four_way()):
        for axis, proposal in product(range(3) if m.dims.d == 3 else (0,),
                                      PROPOSALS):
            px = expand_paths(m, layer_axis=axis, proposal=proposal)
            seen = 0
            for i in range(200):
                out = sample_table(m, _per_sample_rng(7, i), layer_axis=axis,
                                   proposal=proposal)
                if not out.accepted:
                    continue
                q = px.tables[out.table.cells.tobytes()]
                assert abs(out.log_q - math.log(q)) < 1e-9
                seen += 1
            assert seen > 100


def test_monte_carlo_acceptance_matches_exact_mass():
    m = fixture("ex5_9")
    exact = expand_paths(m).acceptance
    n = 2000
    hits = sum(sample_table(m, _per_sample_rng(3, i)).accepted for i in range(n))
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
    # a chooser that offers every subset twice reaches each table twice
    def twice(items, size):
        for picked in combinations(items, size):
            yield picked
            yield picked

    monkeypatch.setattr("cptables.expand.combinations", twice)
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


# recorded from the plain (unmemoized) walk: every q, the reject mass and
# the leaf count must stay bit-for-bit the same
EXPANSION_DIGESTS = {
    ("semimagic-4-1", "classic", 0): "974ef8792dd20f4ff556b356edc914945b9a05c8397d123790f4ae60318426e7",
    ("semimagic-4-1", "classic", 1): "5587e18b9a095f59e7a9947b3912d65cdceb387f5e5b2d766a7ab52f797a3480",
    ("semimagic-4-1", "classic", 2): "86e33fe6ee67226e7dd9c13f6226796c0e1c031fe33957c5e3b09eb2120cb313",
    ("semimagic-4-1", "guided", 0): "974ef8792dd20f4ff556b356edc914945b9a05c8397d123790f4ae60318426e7",
    ("semimagic-4-1", "guided", 1): "5587e18b9a095f59e7a9947b3912d65cdceb387f5e5b2d766a7ab52f797a3480",
    ("semimagic-4-1", "guided", 2): "86e33fe6ee67226e7dd9c13f6226796c0e1c031fe33957c5e3b09eb2120cb313",
    ("ex5_6", "classic", 0): "69ca7ee846eadcaf4b71f4a7a6a05e20a63e1d8b71d95181a0848f2073863155",
    ("ex5_6", "classic", 1): "ef78e26c83a4a656c11fa7ee379aaff2fba11bd348bf22da0de9ec3da870aee8",
    ("ex5_6", "classic", 2): "fe22503b94acddd36784b8bbb325190146da9286eb7875bf8d72cd4fce34211d",
    ("ex5_6", "guided", 0): "a65566950929f515aaadb6ca24c2a4a6725b7e1f2befc629d957b7f421535999",
    ("ex5_6", "guided", 1): "f1ad7d25eff7a4d75f59e72bc0f3f2d6ea230ef6e1adec056bc99df0b63dcd91",
    ("ex5_6", "guided", 2): "98f9d658728831adadcfa259e4d574409f61bb6361b66dfa98aa0186de8c1a82",
    ("semimagic-4-2", "classic", 0): "8a0ea97f61188c19a13045f296a26b4a1516177a378660e2f3fa1011d7f8aadd",
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
