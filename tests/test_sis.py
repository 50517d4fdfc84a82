import hashlib
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
    Dims,
    InvariantError,
    MarginalSet,
    SisConfig,
    draw_accepted_tables,
    exact_count,
    fixture,
    fixture_names,
    marginals_of,
    marginals3,
    run_sis,
    sample_table,
    semimagic_margins,
)
from cptables.cpdist import UniformBlocks, cp_draft_sample
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


def test_run_sis_with_more_workers_than_samples():
    # three one-sample chunks; the pool starts one process per chunk
    m = fixture("ex5_9")
    one = run_sis(m, SisConfig(samples=3, seed=4, workers=1))
    four = run_sis(m, SisConfig(samples=3, seed=4, workers=4))
    assert one.tobytes() == four.tobytes()


def test_per_sample_streams_are_independent_of_position():
    # sample index i always gets the same generator state, so prefixes agree
    m = fixture("ex5_4")
    short = run_sis(m, SisConfig(samples=50, seed=9))
    long = run_sis(m, SisConfig(samples=120, seed=9))
    assert np.array_equal(short, long[:50])
    g1 = _per_sample_rng(9, 17).random(3)
    g2 = _per_sample_rng(9, 17).random(3)
    assert np.array_equal(g1, g2)


def test_sample_table_accepts_valid_tables():
    m = fixture("ex5_2")
    for proposal in PROPOSALS:
        out = sample_table(m, _per_sample_rng(0, 0), proposal=proposal)
        assert out.accepted
        got = marginals_of(out.table)
        for a in range(3):
            assert np.array_equal(got.margins[a], m.margins[a])
        assert out.log_q <= 0.0


def test_sample_table_validates_input():
    rng = _per_sample_rng(0, 0)
    with pytest.raises(ValueError):
        sample_table(fixture("ex5_2"), rng, layer_axis=3)
    with pytest.raises(ValueError):
        sample_table(fixture("ex5_2"), rng, proposal="nope")
    # a table with d != 3 is one layer whatever the layer axis, as in
    # expand_paths and the command line
    two_way = marginals_of(BinaryTable.from_array(np.eye(3, dtype=int)))
    four_way = _multiway_margins("four-way-4-2")
    for m in (two_way, four_way):
        want = sample_table(m, _per_sample_rng(0, 1))
        got = sample_table(m, _per_sample_rng(0, 1), layer_axis=5)
        assert got.accepted == want.accepted
        assert got.reject_stage == want.reject_stage
        if want.accepted:
            assert got.log_q.hex() == want.log_q.hex()
            assert got.table.cells.tobytes() == want.table.cells.tobytes()


def test_layer_axis_choices_stay_unbiased():
    # ex5_3 has 5 tables; each layer orientation is a different proposal
    # over the same support, so all estimates must agree with the count
    m = fixture("ex5_3")
    for axis in (0, 1, 2):
        lw = run_sis(m, SisConfig(samples=4000, seed=21, layer_axis=axis))
        est = math.exp(estimate_log_count(lw))
        assert abs(est - 5.0) / 5.0 < 0.05
        for i in np.flatnonzero(np.isfinite(lw))[:5]:
            out = sample_table(m, _per_sample_rng(21, int(i)), layer_axis=axis)
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


def test_sample_table_general_engine():
    rng = np.random.default_rng(0)
    cells = (rng.random((2, 2, 2, 3)) < 0.5).astype(int)
    m = marginals_of(BinaryTable.from_array(cells))
    truth = exact_count(m)
    assert truth >= 1
    outs = [sample_table(m, _per_sample_rng(5, i)) for i in range(3000)]
    for out in outs[:5]:
        if out.accepted:
            got = marginals_of(out.table)
            for a in range(4):
                assert np.array_equal(got.margins[a], m.margins[a])
    lw = np.array([-o.log_q if o.accepted else -np.inf for o in outs])
    est = math.exp(estimate_log_count(lw))
    assert abs(est - truth) / truth < 0.1


def test_sample_table_covers_two_way_tables():
    rows = np.array([2, 1, 2])
    cols = np.array([1, 2, 2])
    m2 = MarginalSet(Dims((3, 3)), (cols, rows))
    truth = exact_count(m2)
    outs = [sample_table(m2, _per_sample_rng(1, i)) for i in range(4000)]
    lw = np.array([-o.log_q if o.accepted else -np.inf for o in outs])
    est = math.exp(estimate_log_count(lw))
    assert abs(est - truth) / truth < 0.1


def test_infeasible_margins_reject_every_proposal():
    si = [[0, 2], [2, 0]]
    sj = [[1, 1], [1, 1]]
    sk = [[2, 0], [0, 2]]
    m = marginals3(si, sj, sk)
    out = sample_table(m, _per_sample_rng(0, 0))
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
    # the final margin check must raise, not assert: run it under -O on a
    # fully set state whose cells are all 0, then on one with a free cell
    script = textwrap.dedent("""
        import sys
        import cptables.sis as sis
        from cptables import InvariantError, fixture
        from cptables.reduction import TableState

        assert False, "asserts must be stripped in this run"
        m = fixture("ex5_2")
        state = TableState.from_marginals(m)
        state.cells = [0] * len(state.cells)
        try:
            sis._finish(m, state, 0.0)
            sys.exit(1)
        except InvariantError as e:
            print(e)
        state.cells[0] = -1
        try:
            sis._finish(m, state, 0.0)
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
    assert "outside {0, 1}" in proc.stdout


def test_log_q_overshoot_is_clamped_only_within_tolerance():
    m = fixture("ex5_2")

    def overshooting(per_draw):
        base = _rng_chooser(_per_sample_rng(0, 0))

        def choose(weights, size):
            chosen, _ = base(weights, size)
            return chosen, per_draw
        return choose

    out = sample_table(m, proposal="guided", _choose=overshooting(1e-15))
    assert out.accepted and out.log_q == 0.0
    with pytest.raises(InvariantError, match="above 1"):
        sample_table(m, proposal="guided", _choose=overshooting(1e-6))


# sha256 digests recorded from the sampler before the start state was
# prepared once per run and the closing pass was narrowed to saturated
# lines; weights, accepted tables and their log q must stay bit-for-bit
PIN_SAMPLES = 64
PIN_SEED = 7
PIN_NAMES = fixture_names() + ["semimagic-4-1"]


def _multiway_margins(name):
    if name == "two-way-6x7":
        rng = np.random.default_rng(0)
        cells = (rng.random((6, 7)) < 0.5).astype(int)
        return marginals_of(BinaryTable.from_array(cells))
    # the 4 x 4 x 4 x 4 table with every line sum 2; classic rejects here
    assert name == "four-way-4-2"
    mg = np.full((4, 4, 4), 2, dtype=np.int64)
    return MarginalSet(Dims((4, 4, 4, 4)), tuple(mg.copy() for _ in range(4)))


def _weights_digest(margins, proposal, axis=0):
    h = hashlib.sha256()
    for m in margins:
        cfg = SisConfig(PIN_SAMPLES, PIN_SEED, layer_axis=axis, proposal=proposal)
        h.update(run_sis(m, cfg).tobytes())
    return h.hexdigest()


def _accepted_digest(m, proposal, axis):
    outs, attempts = draw_accepted_tables(m, 20, seed=5, layer_axis=axis,
                                          proposal=proposal)
    h = hashlib.sha256(str(attempts).encode())
    for o in outs:
        h.update(o.table.cells.tobytes())
        h.update(o.log_q.hex().encode())
    return h.hexdigest()


RUN_SIS_DIGESTS = {
    ("classic", 0): "ffea7c0ae6124a1a2a6e4b53da6816351908c8650b856c1260a583e78065e63e",
    ("classic", 1): "59c3c41a3d3dd47ad6e95a98d9881c0639aee58f78e3b2590e1059339ee70a6f",
    ("classic", 2): "1ecdea29749f738026c84dd0d8ea409d045b107aa592c39390f5ed391b030763",
    ("guided", 0): "58d3c7283fb158fbb4dba1cec734fb34f71ad0f2f57f9153244880b5de100c07",
    ("guided", 1): "128f99cfbf11080cccd48977375870bf600158cf00d35637306c8ebeb1e570cc",
    ("guided", 2): "5792aa2f9c16db1d67babe28284d202fed6b23f676a1f8f2a56acd9210f8341b",
}


@pytest.mark.parametrize("proposal,axis", sorted(RUN_SIS_DIGESTS))
def test_run_sis_is_pinned_bit_for_bit(proposal, axis):
    margins = [fixture(n) for n in PIN_NAMES]
    assert _weights_digest(margins, proposal, axis) == RUN_SIS_DIGESTS[proposal, axis]


MULTIWAY_DIGESTS = {
    ("two-way-6x7", "classic"): "8face1a72645a31ae3f40c0456f9564ad93af81a6c27c92933e0020589d6adba",
    ("two-way-6x7", "guided"): "8face1a72645a31ae3f40c0456f9564ad93af81a6c27c92933e0020589d6adba",
    ("four-way-4-2", "classic"): "ccdb6f4b8be8ea9bd369425dc60a7825d54e480a45c4a061a2a9ca6d0b8e3797",
    ("four-way-4-2", "guided"): "ccdb6f4b8be8ea9bd369425dc60a7825d54e480a45c4a061a2a9ca6d0b8e3797",
}


@pytest.mark.parametrize("name,proposal", sorted(MULTIWAY_DIGESTS))
def test_multiway_run_sis_is_pinned_bit_for_bit(name, proposal):
    m = _multiway_margins(name)
    assert _weights_digest([m], proposal) == MULTIWAY_DIGESTS[name, proposal]


ACCEPTED_DIGESTS = {
    ("ex5_6", "classic", 0): "3bf939a31474f85e9c6015e50c7e63ae0f09e8736cf3abaf261183f350ccf644",
    ("ex5_6", "classic", 1): "4e2bed8f653d67a28d925525ca59bfef4ba60f23afe84616ec05eab7944ae767",
    ("ex5_6", "guided", 2): "bf575fd5c357c90f2fb0901fd6ca1205fd6cdbbe3059f077cf3c420a6929cb4e",
    ("semimagic-4-1", "classic", 0): "f4258eeefd8620b10f18d62eff8d2ef5dffab38ab71a33f9529507661ec94eaf",
    ("semimagic-4-1", "classic", 1): "073f0918ead0f938e47da1c16fe1601eb3470756f12b6c02f6e2a52d23b9dfe5",
    ("semimagic-4-1", "guided", 2): "dbfc356cc06aeb019ff9825dc3beea19813d6284b05e952e0d5a344c7f486220",
}


@pytest.mark.parametrize("name,proposal,axis", sorted(ACCEPTED_DIGESTS))
def test_draw_accepted_tables_is_pinned_bit_for_bit(name, proposal, axis):
    got = _accepted_digest(fixture(name), proposal, axis)
    assert got == ACCEPTED_DIGESTS[name, proposal, axis]


@pytest.mark.parametrize("name,axis", [
    ("ex5_5", 1), ("ex5_13", 2), ("four-way-4-2", 0),
])
def test_prepared_start_is_worker_count_invariant(name, axis):
    # every chunk prepares its own start, in the pool's workers as well
    m = _multiway_margins(name) if name == "four-way-4-2" else fixture(name)
    one = run_sis(m, SisConfig(60, 6, layer_axis=axis, workers=1))
    two = run_sis(m, SisConfig(60, 6, layer_axis=axis, workers=2))
    assert not np.all(np.isfinite(one))  # rejections included
    assert one.tobytes() == two.tobytes()


def test_generator_calls_concatenate_and_blocks_keep_the_stream():
    # random(a) then random(b) gives the bits of one random(a + b): what
    # lets a proposal take its uniforms in blocks
    for index in range(5):
        whole = _per_sample_rng(3, index).random(40)
        rng = _per_sample_rng(3, index)
        parts = np.concatenate([rng.random(k) for k in (7, 0, 13, 1, 19)])
        assert parts.tobytes() == whole.tobytes()
    # the same through UniformBlocks (blocks of 64), with requests that
    # straddle a refill, end a block exactly and exceed a whole block
    sizes = [3, 7, 50, 0, 1, 7, 60, 5, 100, 4, 23, 64, 9]
    for index in range(5):
        ref = _per_sample_rng(9, index)
        blocks = UniformBlocks(_per_sample_rng(9, index))
        for k in sizes:
            got = blocks.random(k)
            assert type(got) is list and len(got) == k
            assert np.array(got).tobytes() == ref.random(k).tobytes()


def _survey_margins(seed, actors=9, relations=4, picks=2):
    """A sociometric-survey-shaped input: every actor nominates `picks`
    others per relation, nobody nominates themselves."""
    rng = np.random.default_rng(seed)
    cells = np.zeros((actors, actors, relations), dtype=int)
    for r in range(relations):
        for i in range(actors):
            others = [j for j in range(actors) if j != i]
            for p in rng.choice(len(others), size=picks, replace=False):
                cells[i, others[p], r] = 1
    return marginals_of(BinaryTable.from_array(cells))


@pytest.mark.parametrize("name", ["semimagic-7-3", "survey"])
def test_block_chooser_matches_a_fresh_generator_call_per_line(name):
    m = _survey_margins(4) if name == "survey" else fixture(name)
    for proposal in PROPOSALS:
        for i in range(50):
            rng = _per_sample_rng(13, i)

            def per_line(weights, size):
                return cp_draft_sample(weights, size, rng)

            want = sample_table(m, proposal=proposal, _choose=per_line)
            got = sample_table(m, _per_sample_rng(13, i), proposal=proposal)
            assert got.accepted == want.accepted
            assert got.reject_stage == want.reject_stage
            if want.accepted:
                assert got.log_q.hex() == want.log_q.hex()
                assert got.table.cells.tobytes() == want.table.cells.tobytes()


def test_a_proposal_calls_the_traced_draw_and_line_weights(monkeypatch):
    # the benchmark's tracer wraps cpdist.cp_draft_sample and
    # layers.line_weights by name, in every cptables namespace that binds
    # them; a proposal must still reach both through those names
    import cptables.cpdist
    import cptables.layers

    calls = {}
    for fn in (cptables.cpdist.cp_draft_sample, cptables.layers.line_weights):
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == "cptables" or modname.startswith("cptables."):
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, key, counted)
    out = sample_table(fixture("semimagic-4-1"), _per_sample_rng(0, 0))
    assert out.accepted
    assert calls["cp_draft_sample"] == calls["line_weights"] > 0
