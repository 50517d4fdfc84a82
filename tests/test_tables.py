import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cptables import (
    BinaryTable,
    Dims,
    MarginalSet,
    MarginalValidationError,
    SampleOutcome,
    marginals3,
    marginals_of,
    permute_marginal_axes,
    validate_marginals,
)


def test_dims_basics():
    d = Dims((3, 4, 5))
    assert d.d == 3
    assert d.ncells == 60
    assert d.margin_shape(0) == (4, 5)
    assert d.margin_shape(1) == (3, 5)
    assert d.margin_shape(2) == (3, 4)


def test_dims_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        Dims((5,))
    with pytest.raises(ValueError):
        Dims((3, 0))


def test_marginals3_shapes():
    m = marginals3(np.ones((3, 5)), np.ones((2, 5)), np.ones((2, 3)))
    assert m.dims.sizes == (2, 3, 5)
    with pytest.raises(ValueError):
        marginals3(np.ones((3, 5)), np.ones((2, 4)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        marginals3(np.ones(3), np.ones((2, 5)), np.ones((2, 3)))


def test_marginal_set_total_and_frozen():
    m = marginals3([[1, 1], [0, 1]], [[1, 1], [0, 1]], [[1, 1], [0, 1]])
    assert m.total == 3
    with pytest.raises(ValueError):
        m.margins[0][0, 0] = 5


def test_binary_table_validation():
    t = BinaryTable.from_array(np.eye(3, dtype=int))
    assert t.dims.sizes == (3, 3)
    with pytest.raises(ValueError):
        BinaryTable(Dims((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        BinaryTable.from_array(np.full((2, 2), 2))
    with pytest.raises(ValueError):
        BinaryTable.from_array(-np.eye(2, dtype=int))


def test_sample_outcome_invariants():
    t = BinaryTable.from_array(np.eye(2, dtype=int))
    ok = SampleOutcome("accepted", table=t, log_q=-0.5)
    assert ok.accepted
    rej = SampleOutcome("rejected", reject_stage="layer=0")
    assert not rej.accepted
    with pytest.raises(ValueError):
        SampleOutcome("accepted", table=t, log_q=0.25)
    with pytest.raises(ValueError):
        SampleOutcome("accepted", table=t)
    with pytest.raises(ValueError):
        SampleOutcome("rejected")
    with pytest.raises(ValueError):
        SampleOutcome("bogus")


def _margins_of_random_table(rng, sizes):
    cells = (rng.random(sizes) < 0.5).astype(int)
    return marginals_of(BinaryTable.from_array(cells)), cells


def test_validate_marginals_detects_each_kind():
    # margins of [[[0,0],[1,1]],[[0,1],[0,1]]]: si=[[0,1],[1,2]],
    # sj=[[1,1],[0,2]], sk=[[0,2],[1,1]]; perturb one margin at a time
    cells = np.array([[[0, 0], [1, 1]], [[0, 1], [0, 1]]])
    m = marginals_of(BinaryTable.from_array(cells))
    validate_marginals(m)

    def patched(values):
        return MarginalSet(m.dims, (np.array(values), m.margins[1], m.margins[2]))

    wrong_count = MarginalSet(m.dims, m.margins[:2])
    with pytest.raises(MarginalValidationError) as e:
        validate_marginals(wrong_count)
    assert e.value.kind == "shape"

    bad_shape = MarginalSet(m.dims, (m.margins[0].reshape(4, 1), m.margins[1], m.margins[2]))
    with pytest.raises(MarginalValidationError) as e:
        validate_marginals(bad_shape)
    assert e.value.kind == "shape"

    with pytest.raises(MarginalValidationError) as e:
        validate_marginals(patched([[0, 1], [1, -1]]))
    assert e.value.kind == "negative"

    with pytest.raises(MarginalValidationError) as e:
        validate_marginals(patched([[0, 1], [1, 3]]))
    assert e.value.kind == "bound"

    # totals disagree across margins
    with pytest.raises(MarginalValidationError) as e:
        validate_marginals(patched([[1, 1], [1, 2]]))
    assert e.value.kind == "total"

    # bump one entry and compensate in the same margin: totals agree but
    # the one-way projections no longer do
    with pytest.raises(MarginalValidationError) as e:
        validate_marginals(patched([[1, 1], [1, 1]]))
    assert e.value.kind == "one-way"


def test_marginal_validation_error_survives_pickling():
    # a pool worker hands it back to the parent this way
    err = pickle.loads(pickle.dumps(MarginalValidationError("total", "x")))
    assert type(err) is MarginalValidationError
    assert err.kind == "total" and str(err) == "x"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3),
       st.integers(2, 4))
def test_margins_of_real_tables_always_validate(seed, a, b, c):
    rng = np.random.default_rng(seed)
    m, _ = _margins_of_random_table(rng, (a, b, c))
    validate_marginals(m)


def test_validate_marginals_four_way():
    rng = np.random.default_rng(3)
    cells = (rng.random((2, 3, 2, 2)) < 0.5).astype(int)
    m = marginals_of(BinaryTable.from_array(cells))
    validate_marginals(m)
    assert len(m.margins) == 4
    assert m.margins[1].shape == (2, 2, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations([0, 1, 2]))
def test_permuted_margins_match_permuted_table(seed, perm):
    rng = np.random.default_rng(seed)
    m, cells = _margins_of_random_table(rng, (2, 3, 4))
    direct = marginals_of(BinaryTable.from_array(np.transpose(cells, perm)))
    via_margins = permute_marginal_axes(m, perm)
    assert direct.dims.sizes == via_margins.dims.sizes
    for a in range(3):
        assert np.array_equal(direct.margins[a], via_margins.margins[a])


def test_permute_marginal_axes_rejects_bad_perm():
    m, _ = _margins_of_random_table(np.random.default_rng(0), (2, 2, 2))
    with pytest.raises(ValueError):
        permute_marginal_axes(m, (0, 1, 1))
