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
    MarginalValidationError,
    SisConfig,
    WalkOptionError,
    draw_accepted_tables,
    estimate_table_count,
    exact_count,
    expand_paths,
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
from cptables.layers import PROPOSALS
from cptables.sis import _rng_chooser, stream_rng


def test_sis_config_validation():
    with pytest.raises(ValueError):
        SisConfig(samples=0)
    with pytest.raises(ValueError):
        SisConfig(samples=10, workers=0)
    # the walk options are checked by each chunk's Walk.prepare
    with pytest.raises(WalkOptionError):
        run_sis(fixture("ex5_2"), SisConfig(samples=10, layer_axis=-1))
    with pytest.raises(WalkOptionError):
        run_sis(fixture("ex5_2"), SisConfig(samples=10, proposal="unknown"))
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
    g1 = stream_rng(9, 17).random(3)
    g2 = stream_rng(9, 17).random(3)
    assert np.array_equal(g1, g2)


def _numpy_stream(seed, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def test_stream_rng_matches_numpy_seed_sequence():
    # seeds of 1, 2 and 5 uint32 words; indices of 1 and 2 words, the
    # bootstrap stream among them
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 9, 2**130 + 7, np.int64(5)]
    indices = [0, 1, 63, 2**32 - 1, 2**32, 1 << 40]
    for seed in seeds:
        for index in indices:
            got, want = stream_rng(seed, index), _numpy_stream(seed, index)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random(5).tobytes() == want.random(5).tobytes()
            assert got.integers(0, 2**63, 3).tobytes() == \
                want.integers(0, 2**63, 3).tobytes()
    for bad, error in ((-1, ValueError), (1.5, TypeError)):
        for seed, index in ((bad, 0), (0, bad)):
            with pytest.raises(error):
                _numpy_stream(seed, index)
            with pytest.raises(error):
                stream_rng(seed, index)


@pytest.mark.parametrize("name", ["ex5_9", "semimagic-4-1"])
def test_reused_stream_generator_leaks_nothing_between_proposals(name):
    # run_sis and draw_accepted_tables re-seed one generator per proposal;
    # each proposal must draw as on a generator built for it alone
    m, n, seed = fixture(name), 200, 3
    want = [sample_table(m, _numpy_stream(seed, i)) for i in range(n)]
    weights = np.array([-o.log_q if o.accepted else -np.inf for o in want])
    if name == "ex5_9":
        assert not all(o.accepted for o in want)
    for workers in (1, 2):
        got = run_sis(m, SisConfig(samples=n, seed=seed, workers=workers))
        assert got.tobytes() == weights.tobytes()
    outs, attempts = draw_accepted_tables(m, n, seed=seed, max_attempts=n)
    kept = [o for o in want if o.accepted]
    assert attempts == n and len(outs) == len(kept)
    for o, w in zip(outs, kept):
        assert o.table.cells.tobytes() == w.table.cells.tobytes()
        assert o.log_q.hex() == w.log_q.hex()


def test_sample_table_accepts_valid_tables():
    m = fixture("ex5_2")
    for proposal in PROPOSALS:
        out = sample_table(m, stream_rng(0, 0), proposal=proposal)
        assert out.accepted
        got = marginals_of(out.table)
        for a in range(3):
            assert np.array_equal(got.margins[a], m.margins[a])
        assert out.log_q <= 0.0


def test_sample_table_without_a_generator_draws_from_a_fresh_one():
    # no path of ex5_6 on layer axis 0 rejects (the exact expansion has
    # reject mass 0), so every unseeded draw is accepted
    m = fixture("ex5_6")
    for proposal in PROPOSALS:
        out = sample_table(m, proposal=proposal)
        assert out.accepted and out.log_q <= 0.0
        got = marginals_of(out.table)
        for a in range(3):
            assert np.array_equal(got.margins[a], m.margins[a])


def test_sample_table_validates_input():
    rng = stream_rng(0, 0)
    with pytest.raises(ValueError):
        sample_table(fixture("ex5_2"), rng, layer_axis=3)
    with pytest.raises(ValueError):
        sample_table(fixture("ex5_2"), rng, proposal="nope")
    # a table with d != 3 is one layer whatever the layer axis, as in
    # expand_paths and the command line
    two_way = marginals_of(BinaryTable.from_array(np.eye(3, dtype=int)))
    four_way = _multiway_margins("four-way-4-2")
    for m in (two_way, four_way):
        want = sample_table(m, stream_rng(0, 1))
        got = sample_table(m, stream_rng(0, 1), layer_axis=5)
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
            out = sample_table(m, stream_rng(21, int(i)), layer_axis=axis)
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
    outs = [sample_table(m, stream_rng(5, i)) for i in range(3000)]
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
    outs = [sample_table(m2, stream_rng(1, i)) for i in range(4000)]
    lw = np.array([-o.log_q if o.accepted else -np.inf for o in outs])
    est = math.exp(estimate_log_count(lw))
    assert abs(est - truth) / truth < 0.1


def test_infeasible_margins_reject_every_proposal():
    si = [[0, 2], [2, 0]]
    sj = [[1, 1], [1, 1]]
    sk = [[2, 0], [0, 2]]
    m = marginals3(si, sj, sk)
    out = sample_table(m, stream_rng(0, 0))
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


@pytest.mark.parametrize("max_attempts", [0, -4])
def test_draw_accepted_tables_rejects_a_budget_below_one(max_attempts):
    with pytest.raises(ValueError, match="max_attempts must be >= 1"):
        draw_accepted_tables(fixture("ex5_6"), 2, max_attempts=max_attempts)


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
            sis._finish(sis.Walk.prepare(m), state, 0.0)
            sys.exit(1)
        except InvariantError as e:
            print(e)
        state.cells[0] = -1
        try:
            sis._finish(sis.Walk.prepare(m), state, 0.0)
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
        base = _rng_chooser(stream_rng(0, 0))

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
        whole = stream_rng(3, index).random(40)
        rng = stream_rng(3, index)
        parts = np.concatenate([rng.random(k) for k in (7, 0, 13, 1, 19)])
        assert parts.tobytes() == whole.tobytes()
    # the same through UniformBlocks (blocks of 64), with requests that
    # straddle a refill, end a block exactly and exceed a whole block
    sizes = [3, 7, 50, 0, 1, 7, 60, 5, 100, 4, 23, 64, 9]
    for index in range(5):
        ref = stream_rng(9, index)
        blocks = UniformBlocks(stream_rng(9, index))
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


# run_sis and draw_accepted_tables digests on a survey-shaped input, 10
# actors x 10 x 4 relations with 2 picks: layers of 10 lines, rejections
# and non-empty layer-end passes under classic; recorded before the
# layer-end pass was seeded from the held set, which must keep every bit
SURVEY_DIGESTS = {
    ("classic", 0): ("c3b3afb2fd53d92726732a7504c6aa3e4b654c2ccd0750198e1693e794328488",
                     "63382761c130359699842d0ed33f70c97879fac27e92aa94a4b3fdd068e75a05"),
    ("classic", 1): ("da9c750c84319f344e447ea4875c9c9efd8243e200ee5a7e37b5dea6967a95b4",
                     "f137c077201acceae9756b5778b0bbea5619c980eeeb1d78779b3dbfea3e3e02"),
    ("classic", 2): ("484693460ccc1b283606e46283ff9f28191111ebb29138acfd4901a131628f8f",
                     "e418fc2f950a223e1dc64219654ffc95711c406f1753c4548de1107456d60fa2"),
    ("guided", 0): ("b3d8b3961dbfaa3f29e8775bb08024569a0f4b710c134859e0a7e93c99d762bf",
                    "b784c1aa21a93f9417cca1fa4a450ba4bd06b073a14dbc746d47f117a7faeba4"),
    ("guided", 1): ("de9a2dee72b63ae044df164a409df29c69fb32c2c5a4b2a6c875a6eb3fb8a443",
                    "8948d36e79ea5b41dda2bc8f281354a7503925b6e56185cdd40cd7ed9a7b6b52"),
    ("guided", 2): ("eb3b76bb001def70966e1b4e4e2180eb22995eda0afae6c991d69b0959fefc76",
                    "9d8e8db6ef041b7cd4a7b65c99412af3c447ba295a87a7de343826289c4a8f5c"),
}


@pytest.mark.parametrize("proposal,axis", sorted(SURVEY_DIGESTS))
def test_survey_walk_is_pinned_bit_for_bit(proposal, axis):
    m = _survey_margins(3, actors=10, relations=4, picks=2)
    weights, accepted = SURVEY_DIGESTS[proposal, axis]
    assert _weights_digest([m], proposal, axis) == weights
    assert _accepted_digest(m, proposal, axis) == accepted


@pytest.mark.parametrize("name", ["semimagic-7-3", "survey"])
def test_block_chooser_matches_a_fresh_generator_call_per_line(name):
    m = _survey_margins(4) if name == "survey" else fixture(name)
    for proposal in PROPOSALS:
        for i in range(50):
            rng = stream_rng(13, i)

            def per_line(weights, size):
                return cp_draft_sample(weights, size, rng)

            want = sample_table(m, proposal=proposal, _choose=per_line)
            got = sample_table(m, stream_rng(13, i), proposal=proposal)
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
    out = sample_table(fixture("semimagic-4-1"), stream_rng(0, 0))
    assert out.accepted
    assert calls["cp_draft_sample"] == calls["line_weights"] > 0


# sha256 of "index stage" for every rejected proposal of indices 0..299
# (seed 17), recorded before draw_line learned to add its line id only
# when it raises; an empty digest means no rejection
REJECT_STAGE_DIGESTS = {
    ("ex5_9", "classic"): "c4e2ae9265cffc2191a045e5c3e772e04cc51091b7f0ab659c88372e88f3cf9b",
    ("ex5_9", "guided"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ex5_13", "classic"): "43fb6c52a7c84d04cf09c42942f64d6c5cb00723d2252b0d020b275dc0a6e729",
    ("ex5_13", "guided"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("survey", "classic"): "3105f1199e02df7f68918c77d683a3029bfb16563b80ee181ed1740d5da26971",
    ("survey", "guided"): "1c7df9b0c105e89e883bed2273b318a44188d1035506ff6fec46accec635bf6c",
}


@pytest.mark.parametrize("name,proposal", sorted(REJECT_STAGE_DIGESTS))
def test_reject_stages_are_pinned(name, proposal):
    m = _survey_margins(4) if name == "survey" else fixture(name)
    h = hashlib.sha256()
    for i in range(300):
        stage = sample_table(m, stream_rng(17, i),
                             proposal=proposal).reject_stage
        if stage:
            h.update(f"{i} {stage}\n".encode())
    assert h.hexdigest() == REJECT_STAGE_DIGESTS[name, proposal]


def test_a_draw_that_finds_no_subset_names_its_layer_and_line():
    from cptables.cpdist import CPInfeasibleError

    for proposal in PROPOSALS:
        base = _rng_chooser(stream_rng(17, 0))
        draws = []

        def failing_fifth(weights, size):
            draws.append(size)
            if len(draws) == 5:
                raise CPInfeasibleError("forced for the test")
            return base(weights, size)

        out = sample_table(_survey_margins(4), proposal=proposal,
                           _choose=failing_fifth)
        assert out.reject_stage == "layer=2 line=95 cp-infeasible"


# the margins of tests/test_cli.py's INVALID_TEXT, which disagree on the
# grand total; layer axis 5 would fail its own check on a three-way table
INVALID_MARGINS = marginals3([[1, 1], [1, 1]], [[1, 1], [1, 1]], [[2, 1], [1, 1]])


@pytest.mark.parametrize("call", [
    lambda m: sample_table(m, np.random.default_rng(0), layer_axis=5),
    lambda m: draw_accepted_tables(m, 1, layer_axis=5),
    lambda m: expand_paths(m, layer_axis=5),
    lambda m: run_sis(m, SisConfig(samples=4, layer_axis=5)),
    lambda m: run_sis(m, SisConfig(samples=4, layer_axis=5, workers=2)),
], ids=["sample_table", "draw_accepted_tables", "expand_paths", "run_sis-1",
        "run_sis-2"])
def test_walk_entry_points_reject_invalid_margins_first(call):
    with pytest.raises(MarginalValidationError) as err:
        call(INVALID_MARGINS)
    assert err.value.kind == "total"


WALK_ENTRY_POINTS = {
    "sample_table": lambda m, axis, proposal: sample_table(
        m, np.random.default_rng(0), layer_axis=axis, proposal=proposal),
    "draw_accepted_tables": lambda m, axis, proposal: draw_accepted_tables(
        m, 1, layer_axis=axis, proposal=proposal),
    "expand_paths": lambda m, axis, proposal: expand_paths(
        m, layer_axis=axis, proposal=proposal),
    "run_sis-1": lambda m, axis, proposal: run_sis(
        m, SisConfig(samples=4, layer_axis=axis, proposal=proposal)),
    "run_sis-2": lambda m, axis, proposal: run_sis(
        m, SisConfig(samples=4, layer_axis=axis, proposal=proposal, workers=2)),
    "estimate_table_count": lambda m, axis, proposal: estimate_table_count(
        m, 4, layer_axis=axis, proposal=proposal),
}

# small tables of each d; the walk's option rule runs before any draw
OPTION_MARGINS = {
    2: marginals_of(BinaryTable.from_array(np.eye(3, dtype=int))),
    3: marginals3([[1, 1], [1, 1]], [[1, 1], [1, 1]], [[1, 1], [1, 1]]),
    4: marginals_of(BinaryTable.from_array(np.eye(4, dtype=int).reshape(2, 2, 2, 2))),
}

BAD_WALK_OPTIONS = [
    *[(d, -1, "classic", ("layer_axis", "must be >= 0, got -1")) for d in (2, 3, 4)],
    (3, 3, "classic", ("layer_axis", "must be 0, 1 or 2 for a three-way table, got 3")),
    *[(d, 0, "unknown", ("proposal", "must be one of ('classic', 'guided')"))
      for d in (2, 3, 4)],
]


@pytest.mark.parametrize("entry", list(WALK_ENTRY_POINTS))
@pytest.mark.parametrize("d, axis, proposal, args", BAD_WALK_OPTIONS,
                         ids=[f"d{d}-axis{a}-{p}" for d, a, p, _ in BAD_WALK_OPTIONS])
def test_walk_entry_points_share_one_option_rule(entry, d, axis, proposal, args):
    with pytest.raises(WalkOptionError) as err:
        WALK_ENTRY_POINTS[entry](OPTION_MARGINS[d], axis, proposal)
    assert type(err.value) is WalkOptionError and err.value.args == args
    assert str(err.value) == " ".join(args)
