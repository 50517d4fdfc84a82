import gc
import math

import numpy as np
import pytest

from cptables import (
    exact_count,
    exact_enumerate,
    expand_paths,
    fixture,
    marginals3,
    sample_table3,
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


def test_sampler_log_q_agrees_with_expansion():
    for name in ("ex5_2", "ex5_9"):
        m = fixture(name)
        px = expand_paths(m)
        seen = 0
        for i in range(200):
            out = sample_table3(m, _per_sample_rng(7, i))
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
    hits = sum(sample_table3(m, _per_sample_rng(3, i)).accepted for i in range(n))
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
