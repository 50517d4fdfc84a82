import math
import os
from pathlib import Path
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cptables import (
    BinaryTable,
    InvariantError,
    SisConfig,
    draw_accepted_tables,
    exact_count,
    fixture,
    marginals_of,
    marginals3,
    run_sis,
    sample_table3,
    sample_table_d,
    semimagic_margins,
)
from cptables.estimator import estimate_log_count
from cptables.sis import PROPOSALS, _per_sample_rng, _rng_chooser


def test_sis_config_validation():
    with pytest.raises(ValueError):
        SisConfig(samples=0)
    with pytest.raises(ValueError):
        SisConfig(samples=10, workers=0)
    with pytest.raises(ValueError):
        SisConfig(samples=10, layer_axis=-1)
    with pytest.raises(ValueError):
        SisConfig(samples=10, proposal="unknown")
    assert set(PROPOSALS) == {"classic", "guided"}


def test_run_sis_is_deterministic_given_seed():
    m = fixture("ex5_9")
    a = run_sis(m, SisConfig(samples=300, seed=11))
    b = run_sis(m, SisConfig(samples=300, seed=11))
    c = run_sis(m, SisConfig(samples=300, seed=12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_sis_is_worker_count_invariant():
    m = fixture("ex5_9")
    one = run_sis(m, SisConfig(samples=240, seed=4, workers=1))
    four = run_sis(m, SisConfig(samples=240, seed=4, workers=4))
    assert np.array_equal(one, four)


def test_per_sample_streams_are_independent_of_position():
    # sample index i always gets the same generator state, so prefixes agree
    m = fixture("ex5_4")
    short = run_sis(m, SisConfig(samples=50, seed=9))
    long = run_sis(m, SisConfig(samples=120, seed=9))
    assert np.array_equal(short, long[:50])
    g1 = _per_sample_rng(9, 17).random(3)
    g2 = _per_sample_rng(9, 17).random(3)
    assert np.array_equal(g1, g2)


def test_sample_table3_accepts_valid_tables():
    m = fixture("ex5_2")
    for proposal in PROPOSALS:
        out = sample_table3(m, _per_sample_rng(0, 0), proposal=proposal)
        assert out.accepted
        got = marginals_of(out.table)
        for a in range(3):
            assert np.array_equal(got.margins[a], m.margins[a])
        assert out.log_q <= 0.0


def test_sample_table3_validates_input():
    rng = _per_sample_rng(0, 0)
    with pytest.raises(ValueError):
        sample_table3(fixture("ex5_2"), rng, layer_axis=3)
    with pytest.raises(ValueError):
        sample_table3(fixture("ex5_2"), rng, proposal="nope")
    four_way = marginals_of(BinaryTable.from_array(np.ones((2, 2, 2, 2), dtype=int)))
    with pytest.raises(ValueError):
        sample_table3(four_way, rng)


def test_layer_axis_choices_stay_unbiased():
    # ex5_3 has 5 tables; each layer orientation is a different proposal
    # over the same support, so all estimates must agree with the count
    m = fixture("ex5_3")
    for axis in (0, 1, 2):
        lw = run_sis(m, SisConfig(samples=4000, seed=21, layer_axis=axis))
        est = math.exp(estimate_log_count(lw))
        assert abs(est - 5.0) / 5.0 < 0.05
        for i in np.flatnonzero(np.isfinite(lw))[:5]:
            out = sample_table3(m, _per_sample_rng(21, int(i)), layer_axis=axis)
            got = marginals_of(out.table)
            for a in range(3):
                assert np.array_equal(got.margins[a], m.margins[a])


def test_classic_rejections_show_up_on_hard_margins():
    lw = run_sis(fixture("ex5_9"), SisConfig(samples=400, seed=2))
    rejected = int(np.sum(~np.isfinite(lw)))
    assert 0 < rejected < 120  # exact rate is 15.45%


def test_guided_accepts_everything_on_the_bundled_sets():
    for name in ("ex5_2", "ex5_9", "ex5_13"):
        lw = run_sis(fixture(name), SisConfig(samples=300, seed=3, proposal="guided"))
        assert np.all(np.isfinite(lw))


def test_proposals_agree_on_the_estimate():
    m = fixture("ex5_9")
    est = {}
    for proposal in PROPOSALS:
        lw = run_sis(m, SisConfig(samples=6000, seed=8, proposal=proposal))
        est[proposal] = math.exp(estimate_log_count(lw))
    assert abs(est["classic"] - 12.0) / 12.0 < 0.06
    assert abs(est["guided"] - 12.0) / 12.0 < 0.06


def test_sample_table_d_general_engine():
    rng = np.random.default_rng(0)
    cells = (rng.random((2, 2, 2, 3)) < 0.5).astype(int)
    m = marginals_of(BinaryTable.from_array(cells))
    truth = exact_count(m)
    assert truth >= 1
    outs = [sample_table_d(m, _per_sample_rng(5, i)) for i in range(3000)]
    for out in outs[:5]:
        if out.accepted:
            got = marginals_of(out.table)
            for a in range(4):
                assert np.array_equal(got.margins[a], m.margins[a])
    lw = np.array([-o.log_q if o.accepted else -np.inf for o in outs])
    est = math.exp(estimate_log_count(lw))
    assert abs(est - truth) / truth < 0.1


def test_sample_table_d_covers_two_way_tables():
    from cptables import Dims, MarginalSet

    rows = np.array([2, 1, 2])
    cols = np.array([1, 2, 2])
    m2 = MarginalSet(Dims((3, 3)), (cols, rows))
    truth = exact_count(m2)
    outs = [sample_table_d(m2, _per_sample_rng(1, i)) for i in range(4000)]
    lw = np.array([-o.log_q if o.accepted else -np.inf for o in outs])
    est = math.exp(estimate_log_count(lw))
    assert abs(est - truth) / truth < 0.1


def test_infeasible_margins_reject_every_proposal():
    si = [[0, 2], [2, 0]]
    sj = [[1, 1], [1, 1]]
    sk = [[2, 0], [0, 2]]
    m = marginals3(si, sj, sk)
    out = sample_table3(m, _per_sample_rng(0, 0))
    assert not out.accepted
    assert out.reject_stage == "initial-reduction"
    lw = run_sis(m, SisConfig(samples=20, seed=0))
    assert not np.any(np.isfinite(lw))
    assert math.exp(estimate_log_count(lw)) == 0.0


def test_draw_accepted_tables_reproducible_and_budgeted():
    m = fixture("ex5_9")
    outs1, att1 = draw_accepted_tables(m, 5, seed=14)
    outs2, att2 = draw_accepted_tables(m, 5, seed=14)
    assert att1 == att2
    assert [o.table.cells.tobytes() for o in outs1] == [
        o.table.cells.tobytes() for o in outs2
    ]
    infeasible = marginals3([[0, 2], [2, 0]], [[1, 1], [1, 1]], [[2, 0], [0, 2]])
    outs, attempts = draw_accepted_tables(infeasible, 2, seed=0, max_attempts=30)
    assert outs == [] and attempts == 30
    with pytest.raises(ValueError):
        draw_accepted_tables(m, 0)


def test_margin_check_survives_python_O():
    # the final margin check must raise, not assert: run it under -O with
    # marginals_of patched to report the margins of the all-zero table
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import cptables.sis as sis
        from cptables import BinaryTable, InvariantError, fixture

        assert False, "asserts must be stripped in this run"
        real = sis.marginals_of
        sis.marginals_of = lambda t: real(
            BinaryTable(t.dims, np.zeros(t.dims.sizes, dtype=np.int8)))
        try:
            sis.sample_table3(fixture("ex5_2"), np.random.default_rng(0),
                              proposal="guided")
        except InvariantError as e:
            print(e)
            sys.exit(0)
        sys.exit(1)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "violates the margin" in proc.stdout


def test_log_q_overshoot_is_clamped_only_within_tolerance():
    m = fixture("ex5_2")

    def overshooting(per_draw):
        base = _rng_chooser(_per_sample_rng(0, 0))

        def choose(weights, size):
            chosen, _ = base(weights, size)
            return chosen, per_draw
        return choose

    out = sample_table3(m, proposal="guided", _choose=overshooting(1e-15))
    assert out.accepted and out.log_q == 0.0
    with pytest.raises(InvariantError, match="above 1"):
        sample_table3(m, proposal="guided", _choose=overshooting(1e-6))
