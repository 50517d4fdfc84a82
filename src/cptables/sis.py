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
along its last axis, and ignores the layer axis.

Two proposal presets differ in how hard mid-run propagation forces:

  * "classic"  - between draws inside a layer, only the cheap rules fire
    (zero residual -> zero-fill, one free cell -> fill it); a line whose
    residual equals its free-cell count (>= 2) stays open.  When a later
    draw crosses such a line, its cells enter with probability one
    (certain inclusions: the conditional Poisson limit of infinite odds,
    contributing log 1 to log q).  Each time a layer completes, one
    full-strength reduction pass closes out whatever the light rules left
    behind, and a contradiction there rejects the sample.  That pass
    seeds only the saturated lines: at a fixpoint of the light rules no
    other line can fire before one of its cells is set, and the rules are
    monotone, so it ends in the cells and verdict of a pass over all lines.
  * "guided"   - saturated lines are filled immediately everywhere (all
    remaining cells 1), so infeasibility surfaces as early as per-line
    bounds can see it.  Higher acceptance on hard instances, same
    estimator target.

They are different proposal distributions, so per-sample weights (and the
acceptance rate and cv^2) differ; both are supported on all tables with
the requested margins, so both give unbiased counts.  Tables with d != 3
have a single layer, so they have no layer pass to defer saturation to:
both presets run the guided rules there and coincide.  So a preset's
policy on a table is one value, the axes it masks (_masked_axes): all
three under classic on a three-way table, none otherwise; a layer ends
with the full-strength pass exactly when some axis is masked.  Initial
reduction always applies the saturation rule on every axis: full lines in
the *input* margins are structural ones, not sampling events.

A completed proposal passes one final check before it counts: the cells
themselves, read into one int8 array, must all be 0 or 1 and sum over
each axis to the margins.  It sums the cells rather than trusting the
residual bookkeeping, and it raises InvariantError, so it also runs under
python -O.  The accepted outcome's table is that same array.

run_sis derives one RNG stream per sample index from the master seed, so
results are reproducible and independent of the worker count.  What is the
same for every proposal is done once: run_sis validates the margins, and
each chunk of proposals (in its own pool worker) turns them so the layers
run along axis 0 and reduces the root; each proposal starts from a copy of
that reduced state.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cpdist import UniformBlocks, cp_draft_sample
from .layers import SampleRejected, next_layer, sample_layer
from .reduction import TableState
from .tables import (
    BinaryTable,
    InvariantError,
    MarginalSet,
    SampleOutcome,
    permute_marginal_axes,
    validate_marginals,
)


PROPOSALS = ("classic", "guided")


def _masked_axes(proposal: str, d: int) -> tuple[int, ...]:
    """The preset's policy on a d-way table: the axes whose saturated lines
    stay open between draws inside a layer (their cells become certain
    inclusions when a draw reaches them).  Each layer ends with one
    full-strength pass exactly when some axis is masked."""
    if proposal not in PROPOSALS:
        raise ValueError(f"proposal must be one of {PROPOSALS}")
    return (0, 1, 2) if proposal == "classic" and d == 3 else ()


@dataclass(frozen=True)
class SisConfig:
    """Run settings: sample count, master seed, layer axis (0-based; it
    picks a three-way table's layers, other d ignore it), proposal preset,
    and worker processes."""

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
        if self.layer_axis < 0:
            raise ValueError("layer_axis must be >= 0")
        _masked_axes(self.proposal, 3)  # rejects an unknown preset


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


def _finish(m: MarginalSet, state: TableState, log_q: float) -> SampleOutcome:
    try:
        # bytes() rejects a cell still free (-1); BinaryTable any other
        # value outside {0, 1}
        table = BinaryTable(m.dims, np.frombuffer(
            bytes(state.cells), np.int8).reshape(m.dims.sizes))
    except ValueError:
        raise InvariantError("sampled table has a cell outside {0, 1}") from None
    cells = table.cells
    for a, want in enumerate(m.margins):
        if not (cells.sum(axis=a) == want).all():
            raise InvariantError(
                f"sampled table violates the margin over axis {a}"
            )
    if log_q > _LOG_Q_OVERSHOOT_TOL:
        raise InvariantError(f"proposal probability above 1: log q = {log_q!r}")
    return SampleOutcome("accepted", table=table, log_q=min(log_q, 0.0))


@dataclass(frozen=True)
class _Start:
    """What every proposal of one run starts from: the margins with the
    layers along axis 0, the inverse of that axis permutation (None when
    the layers already run along axis 0), and the root state after the
    initial reduction (None when the margins are infeasible there)."""

    m: MarginalSet
    inv: tuple[int, ...] | None
    root: TableState | None

    def fresh(self) -> TableState:
        """A proposal's own copy of the reduced root."""
        if self.root is None:
            raise SampleRejected("initial-reduction")
        return self.root.copy()


def _prepare(m: MarginalSet, layer_axis: int = 0) -> _Start:
    """Turn a three-way table's layer axis to the front and reduce the
    root once.  The caller has validated the margins; d != 3 ignores
    layer_axis."""
    inv = None
    if m.dims.d == 3:
        if not 0 <= layer_axis < 3:
            raise ValueError("layer_axis must be 0, 1 or 2")
        if layer_axis != 0:
            perm = (layer_axis,) + tuple(a for a in range(3) if a != layer_axis)
            inv = tuple(int(i) for i in np.argsort(perm))
            m = permute_marginal_axes(m, perm)
    root = TableState.from_marginals(m)
    if root.initial_reduce() >= 0:
        root = None
    return _Start(m, inv, root)


def sample_table(
    m: MarginalSet,
    rng: np.random.Generator | None = None,
    *,
    layer_axis: int = 0,
    proposal: str = "classic",
    _choose=None,
    _start: _Start | None = None,
) -> SampleOutcome:
    """Draw one proposal for a d-way table, in m's axis order: the layers
    in next_layer order, each followed by the layer-end pass when the
    preset masks an axis.  layer_axis picks a three-way table's layers;
    any other d is one layer of every line along the last axis (for d = 2
    the column law reduces to r / (n - r)) and ignores it.  A run passes its prepared start (which then fixes
    the layer axis); a direct call prepares one.  The draws take rng's
    uniforms in blocks, so rng ends up to a block past the last uniform
    they use."""
    if _start is None:
        validate_marginals(m)
        _start = _prepare(m, layer_axis)
    nosat = _masked_axes(proposal, m.dims.d)
    if _choose is None:
        _choose = _rng_chooser(rng)
    try:
        state = _start.fresh()
        log_q = 0.0
        while True:
            layer = next_layer(state)
            if layer < 0:
                break
            log_q += sample_layer(state, layer, _choose, nosat)
            if nosat and state.close_saturated() >= 0:
                raise SampleRejected(f"layer={layer} closing-pass")
        out = _finish(_start.m, state, log_q)
    except SampleRejected as r:
        return SampleOutcome("rejected", reject_stage=r.stage)
    if _start.inv is None:
        return out
    table = BinaryTable(m.dims, np.transpose(out.table.cells, _start.inv))
    return SampleOutcome("accepted", table=table, log_q=out.log_q)


# perfbench/spans.py binds its sis.proposal span by this name
# (getattr(sis, "sample_table3")); the tracer then patches every binding
# of the same function, sample_table included
sample_table3 = sample_table


def _per_sample_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _weight_chunk(
    m: MarginalSet, seed: int, layer_axis: int, proposal: str, lo: int, hi: int
):
    out = np.empty(hi - lo)
    start = _prepare(m, layer_axis)
    for i in range(lo, hi):
        o = sample_table(m, _per_sample_rng(seed, i), proposal=proposal,
                         _start=start)
        out[i - lo] = -o.log_q if o.accepted else -np.inf
    return out


def run_sis(m: MarginalSet, cfg: SisConfig) -> np.ndarray:
    """Run N independent proposals; return the log importance weights
    log Y_i = -log q(X_i), with -inf marking rejections."""
    validate_marginals(m)
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
    validate_marginals(m)
    start = _prepare(m, layer_axis)
    accepted: list[SampleOutcome] = []
    attempt = 0
    while len(accepted) < count and attempt < max_attempts:
        o = sample_table(m, _per_sample_rng(seed, attempt),
                         proposal=proposal, _start=start)
        if o.accepted:
            accepted.append(o)
        attempt += 1
    return accepted, attempt
