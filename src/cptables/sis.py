"""Sequential importance sampling of zero-one multiway tables.

sample_table draws one proposal: layers.Walk.run walks the table with one
conditional Poisson draw per line (the walk, its presets and q are
described in layers.py).  A draw that propagates into a dead end is a
rejection: it carries weight zero in the estimator rather than being
resampled, which keeps the importance weights unbiased for the number of
tables.

A completed proposal passes one final check before it counts: the cells
themselves, read into one int8 array, must all be 0 or 1 and sum over
each axis to the walk's margins.  It sums the cells rather than trusting
the residual bookkeeping, and it raises InvariantError, so it also runs
under python -O.  The accepted outcome's table is that same array, turned
back to the input's axis order.

run_sis gives each sample index its own RNG stream of the master seed, so
results are reproducible and independent of the worker count.  numpy
defines the stream: stream i of seed s is the PCG64 generator of
np.random.SeedSequence(entropy=s, spawn_key=(i,)), which stream_rng
builds.  _streams only batches it: it derives the same states for a run of
indices at once and re-seeds one generator per proposal rather than
building one; tests check it against numpy state for state.  Each chunk of
proposals (in its own pool worker) prepares one Walk, which checks the
margins, the layer axis and the preset once; each proposal starts from a
copy of its reduced root.  run_sis runs min(workers, samples) chunks: a
lone one itself, more in a pool of at most one process per CPU, after it
prepares one walk itself, so bad input raises before the pool starts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import os

import numpy as np

from .cpdist import UniformBlocks, cp_draft_sample
from .layers import SampleRejected, Walk
from .reduction import TableState
from .tables import BinaryTable, InvariantError, MarginalSet, SampleOutcome


@dataclass(frozen=True)
class SisConfig:
    """Run settings: samples, master seed, layer axis, preset and workers.
    Only samples and workers are checked here; Walk.prepare checks the rest."""

    samples: int
    seed: int = 0
    layer_axis: int = 0
    proposal: str = "classic"
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _rng_chooser(rng: np.random.Generator):
    """One CP draw per line, its uniforms taken from rng in blocks.  A
    proposal's generator serves that proposal alone, so the blocks give the
    bits of one rng.random call per draw."""
    uniforms = UniformBlocks(rng)

    def choose(weights, size):
        return cp_draft_sample(weights, size, uniforms)
    return choose


# a proposal's log q may exceed 0 only by float rounding of certain draws
_LOG_Q_OVERSHOOT_TOL = 1e-12


def _finish(walk: Walk, state: TableState, log_q: float) -> SampleOutcome:
    try:
        # BinaryTable rejects any cell outside {0, 1}, a free one (-1) too
        cells = state.cells_array()
        table = BinaryTable(walk.dims, walk.turn_back(cells))
    except ValueError:
        raise InvariantError("sampled table has a cell outside {0, 1}") from None
    for a, want in enumerate(walk.m.margins):  # int64 in C order, as the sums
        if cells.sum(axis=a, dtype=np.int64).tobytes() != want.tobytes():
            raise InvariantError(
                f"sampled table violates the margin over axis {a}"
            )
    if log_q > _LOG_Q_OVERSHOOT_TOL:
        raise InvariantError(f"proposal probability above 1: log q = {log_q!r}")
    return SampleOutcome("accepted", table=table, log_q=min(log_q, 0.0))


def sample_table(
    m: MarginalSet,
    rng: np.random.Generator | None = None,
    *,
    layer_axis: int = 0,
    proposal: str = "classic",
    _choose=None,
    _walk: Walk | None = None,
) -> SampleOutcome:
    """Draw one proposal for a d-way table, in m's axis order: Walk.run
    from a fresh copy of the reduced root, then _finish.  A run passes its
    prepared walk (which then fixes the layer axis and the preset); a
    direct call prepares one.  The draws take rng's uniforms in blocks, so
    rng ends up to a block past the last uniform they use; with neither
    rng nor a chooser, they draw from a fresh np.random.default_rng()."""
    if _walk is None:
        _walk = Walk.prepare(m, layer_axis, proposal)
    if _choose is None:
        _choose = _rng_chooser(np.random.default_rng() if rng is None else rng)
    try:
        state = _walk.fresh()
        return _finish(_walk, state, _walk.run(state, _choose))
    except SampleRejected as r:
        return SampleOutcome("rejected", reject_stage=r.stage)


# perfbench/spans.py binds its sis.proposal span by this name
# (getattr(sis, "sample_table3")); the tracer then patches every binding
# of the same function, sample_table included
sample_table3 = sample_table


# numpy's SeedSequence hash (a pool of 4 uint32 words) and PCG64's seeding
# step, which _streams reproduces for a batch of indices
_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing words into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashing the pool out
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """A hash's first count constants, init * mult**k mod 2**32: call k
    xors with the k-th and multiplies by the next.  They advance the same
    way whatever the data is."""
    h = [init]
    while len(h) < count:
        h.append(h[-1] * mult & _M32)
    return h


def _hash(v, xor, mult):
    """SeedSequence's word hash, on uint32 arrays."""
    v = (v ^ xor) * mult & _M32
    return v ^ v >> 16


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _M32
    return r ^ r >> 16


# word t of the seeding words hashes pool word t % 4 with call t's constants
_OUT_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 9), np.uint32)[:, None]


def _streams(seed: int, start: int, stop: int):
    """Streams start..stop-1 of seed (see stream_rng), in order, on one
    generator that each step re-seeds, so a stream is good until the next
    one is taken.  numpy mixes the seed into SeedSequence's pool once, and
    checks it; then, for a batch of indices at a time (64, doubling up to
    1024), uint32 arrays with one row per pool word mix in each index's
    words and hash out its PCG64 seeding words.  A spawn key pads the
    seed's words to the pool's 4, so 16 hash calls, plus 4 per seed word
    past the fourth, come before the index's."""
    pool = np.random.SeedSequence(seed).pool[:, None]
    seed_words = max(1, (int(seed).bit_length() + 31) // 32)
    calls = 16 + 4 * max(0, seed_words - 4)
    rng = np.random.Generator(np.random.PCG64())
    bits = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg,
             "has_uint32": 0, "uinteger": 0}
    lo, batch = start, 64
    while lo < stop:
        width = max(1, (lo.bit_length() + 31) // 32)  # the index's words
        hi = min(stop, lo + batch, 1 << 32 * width)
        h = _hash_consts(_INIT_A, _MULT_A, calls + 4 * width + 1)[calls:]
        h = np.array(h, np.uint32)[:, None]
        p = pool
        for w in range(width):
            word = np.array([i >> 32 * w & _M32 for i in range(lo, hi)],
                            np.uint32)
            k = 4 * w  # this word's hash calls: one per pool word
            p = _mix(p, _hash(word, h[k:k + 4], h[k + 1:k + 5]))
        out = _hash(np.vstack([p, p]), _OUT_CONSTS[:-1], _OUT_CONSTS[1:])
        out = out.astype(np.uint64)
        # the seeding words, from little-endian pairs: a state s and an
        # increment i, high then low.  PCG64 sets inc = 2i + 1 and
        # state = (s + inc) * _PCG_MULT + inc, both mod 2**128
        words = (out[0::2] | out[1::2] << 32).tolist()
        for s_hi, s_lo, i_hi, i_lo in zip(*words):
            pcg["inc"] = inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
            pcg["state"] = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _M128
            bits.state = state
            yield rng
        lo, batch = hi, min(2 * batch, 1024)


def stream_rng(seed: int, index: int) -> np.random.Generator:
    """Stream index of a master seed (ints >= 0): its own PCG64 generator,
    as numpy defines it.  _streams derives the same states in batches."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _proposals(m: MarginalSet, seed: int, layer_axis: int, proposal: str,
               lo: int, hi: int):
    """Proposals lo..hi-1 of seed, each drawn on its own stream by one
    prepared walk; the walk checks its options before any stream is taken."""
    walk = Walk.prepare(m, layer_axis, proposal)
    for rng in _streams(seed, lo, hi):
        yield sample_table(m, rng, _walk=walk)


def _weight_chunk(
    m: MarginalSet, seed: int, layer_axis: int, proposal: str, lo: int, hi: int
):
    return np.array([-o.log_q if o.accepted else -np.inf for o in
                     _proposals(m, seed, layer_axis, proposal, lo, hi)])


def run_sis(m: MarginalSet, cfg: SisConfig) -> np.ndarray:
    """Run N independent proposals; return the log importance weights
    log Y_i = -log q(X_i), with -inf marking rejections."""
    n = cfg.samples
    nchunks = min(cfg.workers, n)
    if nchunks == 1:
        return _weight_chunk(m, cfg.seed, cfg.layer_axis, cfg.proposal, 0, n)
    # bad margins or walk options raise here, before a pool starts
    Walk.prepare(m, cfg.layer_axis, cfg.proposal)
    bounds = [n * i // nchunks for i in range(nchunks + 1)]  # none empty
    args = [(m, cfg.seed, cfg.layer_axis, cfg.proposal, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(min(nchunks, os.cpu_count() or 1)) as pool:
        chunks = list(pool.map(_weight_chunk, *zip(*args)))
    return np.concatenate(chunks)


def draw_accepted_tables(
    m: MarginalSet,
    count: int,
    seed: int = 0,
    *,
    layer_axis: int = 0,
    proposal: str = "classic",
    max_attempts: int | None = None,
) -> tuple[list[SampleOutcome], int]:
    """Keep drawing proposals (per-index RNG streams, so the same seed
    reproduces the same tables) until `count` are accepted or the attempt
    budget runs out.  Returns (accepted outcomes, attempts used)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_attempts is None:
        max_attempts = 1000 * count
    elif max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    accepted: list[SampleOutcome] = []
    attempt = 0
    for attempt, o in enumerate(
        _proposals(m, seed, layer_axis, proposal, 0, max_attempts), 1
    ):
        if o.accepted:
            accepted.append(o)
            if len(accepted) == count:
                break
    return accepted, attempt
