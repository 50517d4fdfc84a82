"""Sequential importance sampling of zero-one multiway tables.

Each proposal builds a table column by column with conditional Poisson
draws, interleaved with structure propagation; q(X) is the product of the
draw probabilities (forced cells contribute probability 1).  A draw that
propagates into a dead end is a rejection: it carries weight zero in the
estimator rather than being resampled, which keeps the importance weights
unbiased for the number of tables.

sample_table draws one proposal for a table of any d.  It walks the table
with the steps in layers.py: layers largest remaining sum first, and
within a layer, lines along the last axis largest residual sum first,
propagating structure updates after every draw.  A three-way table's
layers are its slices along the layer axis (turned to the front for the
walk and back for the result); any other table is one layer of every line
along its last axis, and ignores the layer axis.  The two presets,
"classic" and "guided", are described on layers.Walk.

A completed proposal passes one final check before it counts: the cells
themselves, read into one int8 array, must all be 0 or 1 and sum over
each axis to the walk's margins.  It sums the cells rather than trusting
the residual bookkeeping, and it raises InvariantError, so it also runs
under python -O.  The accepted outcome's table is that same array, turned
back to the input's axis order.

run_sis derives one RNG stream per sample index from the master seed, so
results are reproducible and independent of the worker count.  Stream i of
seed s starts in the PCG64 state that
np.random.PCG64(np.random.SeedSequence(entropy=s, spawn_key=(i,))) starts
in.  _streams derives that state itself: it mixes the seed's words into
SeedSequence's pool once, then only each index's words, hashes the pool
out to PCG64's four seeding words and takes PCG64's seeding step; a chunk
re-seeds one generator for each proposal rather than building one.  Tests
check these states against numpy's SeedSequence.  Each chunk of proposals
(in its own pool worker) prepares one Walk, which checks the margins, the
layer axis and the preset once; each proposal starts from a copy of its
reduced root.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import operator

import numpy as np

from .cpdist import UniformBlocks, cp_draft_sample
from .layers import SampleRejected, Walk, next_layer, sample_layer
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
    """Draw one proposal for a d-way table, in m's axis order: the layers
    in next_layer order, each followed by the layer-end pass when the
    walk is masked.  layer_axis picks a three-way table's layers; any
    other d is one layer of every line along the last axis (for d = 2 the
    column law reduces to r / (n - r)) and ignores it.  A run passes its
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
        log_q = 0.0
        while True:
            layer = next_layer(state)
            if layer < 0:
                break
            log_q += sample_layer(state, layer, _choose, _walk.masked)
            if _walk.masked and state.close_saturated() >= 0:
                raise SampleRejected(f"layer={layer} closing-pass")
        return _finish(_walk, state, log_q)
    except SampleRejected as r:
        return SampleOutcome("rejected", reject_stage=r.stage)


# perfbench/spans.py binds its sis.proposal span by this name
# (getattr(sis, "sample_table3")); the tracer then patches every binding
# of the same function, sample_table included
sample_table3 = sample_table


# numpy's SeedSequence hash (a pool of 4 uint32 words) and PCG64's seeding
# step, which _streams reproduces
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
    """SeedSequence's word hash, on ints or on uint32 arrays."""
    v = (v ^ xor) * mult & _M32
    return v ^ v >> 16


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _M32
    return r ^ r >> 16


# word t of the seeding words hashes pool word t % 4 with call t's constants
_OUT_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 9), np.uint32)[:, None]


def _uint(n) -> int:
    n = operator.index(n)  # TypeError for a float, as in SeedSequence
    if n < 0:
        raise ValueError("expected non-negative integer")
    return n


def _seed_pool(seed) -> tuple[list[int], int]:
    """The pool of SeedSequence(entropy=seed, spawn_key=...) once the
    seed's words are mixed in, and the number of hash calls made so far.
    A spawn key pads the seed's words with zeros to the pool's 4."""
    seed = _uint(seed)
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    h = _hash_consts(_INIT_A, _MULT_A, 4 * len(words) + 1)
    pairs = zip(h, h[1:])

    def hashmix(v):
        return _hash(v, *next(pairs))
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    return pool, len(h) - 1


def _streams(seed: int, start: int, stop: int):
    """Streams start..stop-1 of seed, in order, on one generator that each
    step re-seeds, so a stream is good until the next one is taken.  The
    seed's pool is mixed once; then, for a batch of indices at a time (64,
    doubling up to 1024), uint32 arrays with one row per pool word mix in
    each index's words and hash out its 4 uint64 seeding words."""
    rng = np.random.Generator(np.random.PCG64())
    bits = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg,
             "has_uint32": 0, "uinteger": 0}
    pool, calls = _seed_pool(seed)
    lo, batch = _uint(start), 64
    while lo < stop:
        width = max(1, (lo.bit_length() + 31) // 32)  # the index's words
        hi = min(stop, lo + batch, 1 << 32 * width)
        h = _hash_consts(_INIT_A, _MULT_A, calls + 4 * width + 1)[calls:]
        h = np.array(h, np.uint32)[:, None]
        p = np.array(pool, np.uint32)[:, None]
        for w in range(width):
            word = np.array([i >> 32 * w & _M32 for i in range(lo, hi)],
                            np.uint32)
            k = 4 * w  # this word's hash calls: one per pool word
            p = _mix(p, _hash(word, h[k:k + 4], h[k + 1:k + 5]))
        out = _hash(np.vstack([p, p]), _OUT_CONSTS[:-1], _OUT_CONSTS[1:])
        out = out.astype(np.uint64)
        # the seeding words, from little-endian pairs: a state s and an
        # increment i, high then low.  PCG64 sets inc = 2i + 1 (mod 2**128)
        # and state = (s + inc) * _PCG_MULT + inc
        s_hi, s_lo, i_hi, i_lo = out[0::2] | out[1::2] << 32
        i_hi, i_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
        a_lo = s_lo + i_lo
        a_hi = s_hi + i_hi + (a_lo < s_lo)
        for ah, al, ih, il in zip(a_hi.tolist(), a_lo.tolist(),
                                  i_hi.tolist(), i_lo.tolist()):
            pcg["inc"] = inc = ih << 64 | il
            pcg["state"] = ((ah << 64 | al) * _PCG_MULT + inc) & _M128
            bits.state = state
            yield rng
        lo, batch = hi, min(2 * batch, 1024)


def stream_rng(seed: int, index: int) -> np.random.Generator:
    """Stream index of a master seed (ints >= 0): its own PCG64 generator,
    in the state that
    np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    starts in.  _streams derives the state with SeedSequence's hash: the
    seed's words mixed into its pool, then the index's words, the pool
    hashed out to PCG64's seeding words and PCG64's seeding step taken.
    Tests check it against numpy's SeedSequence."""
    return next(_streams(seed, index, index + 1))


def _weight_chunk(
    m: MarginalSet, seed: int, layer_axis: int, proposal: str, lo: int, hi: int
):
    out = np.empty(hi - lo)
    walk = Walk.prepare(m, layer_axis, proposal)
    for j, rng in enumerate(_streams(seed, lo, hi)):
        o = sample_table(m, rng, _walk=walk)
        out[j] = -o.log_q if o.accepted else -np.inf
    return out


def run_sis(m: MarginalSet, cfg: SisConfig) -> np.ndarray:
    """Run N independent proposals; return the log importance weights
    log Y_i = -log q(X_i), with -inf marking rejections."""
    n = cfg.samples
    if cfg.workers == 1:
        return _weight_chunk(m, cfg.seed, cfg.layer_axis, cfg.proposal, 0, n)
    bounds = np.linspace(0, n, cfg.workers + 1).astype(int)
    args = [
        (m, cfg.seed, cfg.layer_axis, cfg.proposal, int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    with ProcessPoolExecutor(max_workers=len(args)) as pool:
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
    walk = Walk.prepare(m, layer_axis, proposal)
    accepted: list[SampleOutcome] = []
    attempt = 0
    for rng in _streams(seed, 0, max_attempts):
        o = sample_table(m, rng, _walk=walk)
        attempt += 1
        if o.accepted:
            accepted.append(o)
            if len(accepted) == count:
                break
    return accepted, attempt
