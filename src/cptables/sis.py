"""Sequential importance sampling of zero-one multiway tables.

Each proposal builds a table column by column with conditional Poisson
draws, interleaved with structure propagation; q(X) is the product of the
draw probabilities (forced cells contribute probability 1).  A draw that
propagates into a dead end is a rejection: it carries weight zero in the
estimator rather than being resampled, which keeps the importance weights
unbiased for the number of tables.

The three-way engine follows the nested ordering heuristic: layers along
the first axis largest remaining sum first, and within a layer, lines along
the last axis largest residual sum first, propagating structure updates
after every draw.  The d-way engine flattens this: all columns along the
last axis, largest residual sum first.

Two proposal presets differ in how hard mid-run propagation forces:

  * "classic"  - between draws inside a layer, only the cheap rules fire
    (zero residual -> zero-fill, one free cell -> fill it); a line whose
    residual equals its free-cell count (>= 2) stays open.  When a later
    draw crosses such a line, its cells enter with probability one
    (certain inclusions: the conditional Poisson limit of infinite odds,
    contributing log 1 to log q).  Each time a layer completes, one
    full-strength reduction pass closes out whatever the light rules left
    behind, and a contradiction there rejects the sample.
  * "guided"   - saturated lines are filled immediately everywhere (all
    remaining cells 1), so infeasibility surfaces as early as per-line
    bounds can see it.  Higher acceptance on hard instances, same
    estimator target.

They are different proposal distributions, so per-sample weights (and the
acceptance rate and cv^2) differ; both are supported on all tables with
the requested margins, so both give unbiased counts.  Initial reduction
always applies the saturation rule on every axis: full lines in the
*input* margins are structural ones, not sampling events.

run_sis derives one RNG stream per sample index from the master seed, so
results are reproducible and independent of the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cpdist import cp_draft_sample
from .layers import SampleRejected, draw_line, sample_layer
from .reduction import TableState
from .tables import (
    BinaryTable,
    InvariantError,
    MarginalSet,
    SampleOutcome,
    marginals_of,
    permute_marginal_axes,
    validate_marginals,
)


PROPOSALS = ("classic", "guided")


@dataclass(frozen=True)
class _Policy:
    """How hard re-detection forces between draws of the three-way engine.

    nosat_mid lists the axes whose saturated lines stay open between draws
    inside a layer (their cells become certain inclusions when a draw
    reaches them); layer_pass adds one full-strength propagation pass each
    time a layer completes."""

    nosat_mid: tuple[int, ...]
    layer_pass: bool


_POLICIES = {
    "classic": _Policy(nosat_mid=(0, 1, 2), layer_pass=True),
    "guided": _Policy(nosat_mid=(), layer_pass=False),
}


def _policy(proposal: str) -> _Policy:
    if proposal not in PROPOSALS:
        raise ValueError(f"proposal must be one of {PROPOSALS}")
    return _POLICIES[proposal]


@dataclass(frozen=True)
class SisConfig:
    """Run settings: sample count, master seed, layer axis for the
    three-way engine (0-based), proposal preset, and worker processes."""

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
        _policy(self.proposal)


def _rng_chooser(rng: np.random.Generator):
    def choose(weights, size):
        s = cp_draft_sample(weights, size, rng)
        return s.chosen, s.log_prob
    return choose


# a proposal's log q may exceed 0 only by float rounding of certain draws
_LOG_Q_OVERSHOOT_TOL = 1e-12


def _finish(m: MarginalSet, state: TableState, log_q: float) -> SampleOutcome:
    table = BinaryTable(m.dims, state.cells_array())
    got = marginals_of(table)
    for a in range(m.dims.d):
        if not np.array_equal(got.margins[a], m.margins[a]):
            raise InvariantError(
                f"sampled table violates the margin over axis {a}"
            )
    if log_q > _LOG_Q_OVERSHOOT_TOL:
        raise InvariantError(f"proposal probability above 1: log q = {log_q!r}")
    return SampleOutcome("accepted", table=table, log_q=min(log_q, 0.0))


def sample_table3(
    m: MarginalSet,
    rng: np.random.Generator | None = None,
    *,
    layer_axis: int = 0,
    proposal: str = "classic",
    _choose=None,
) -> SampleOutcome:
    """Draw one proposal for a three-way table, layer by layer."""
    validate_marginals(m)
    if m.dims.d != 3:
        raise ValueError("sample_table3 needs a three-way marginal set")
    if not 0 <= layer_axis < 3:
        raise ValueError("layer_axis must be 0, 1 or 2")
    policy = _policy(proposal)
    choose = _choose if _choose is not None else _rng_chooser(rng)
    if layer_axis != 0:
        perm = (layer_axis,) + tuple(a for a in range(3) if a != layer_axis)
        out = _sample3_core(permute_marginal_axes(m, perm), choose, policy)
        if not out.accepted:
            return out
        inv = tuple(int(i) for i in np.argsort(perm))
        table = BinaryTable(m.dims, np.transpose(out.table.cells, inv))
        return SampleOutcome("accepted", table=table, log_q=out.log_q)
    return _sample3_core(m, choose, policy)


def _sample3_core(m: MarginalSet, choose, policy: _Policy) -> SampleOutcome:
    state = TableState.from_marginals(m)
    try:
        if state.initial_reduce() >= 0:
            raise SampleRejected("initial-reduction")
        nlayers, n, _ = state.geo.sizes
        base = state.geo.offset[2]
        log_q = 0.0
        while True:
            # layers ranked by remaining ones, ties to the smallest index;
            # fully determined layers drop out
            best_i = -1
            best_ones = -1
            for i in range(nlayers):
                lo = base + i * n
                ones_left = 0
                free_cnt = 0
                for lid in range(lo, lo + n):
                    ones_left += state.rs[lid]
                    free_cnt += state.free[lid]
                if free_cnt > 0 and ones_left > best_ones:
                    best_ones = ones_left
                    best_i = i
            if best_i < 0:
                break
            log_q += sample_layer(state, best_i, choose, policy.nosat_mid)
            if policy.layer_pass and policy.nosat_mid:
                if state.initial_reduce() >= 0:
                    raise SampleRejected(f"layer={best_i} closing-pass")
        return _finish(m, state, log_q)
    except SampleRejected as r:
        return SampleOutcome("rejected", reject_stage=r.stage)


def sample_table_d(
    m: MarginalSet,
    rng: np.random.Generator | None = None,
    *,
    proposal: str = "classic",
    _choose=None,
) -> SampleOutcome:
    """Draw one proposal for a d-way table: columns along the last axis,
    largest residual sum first.  Three-way input delegates to the layered
    engine; d = 2 works as well (the column law reduces to r / (n - g))."""
    validate_marginals(m)
    if m.dims.d == 3:
        return sample_table3(m, rng, proposal=proposal, _choose=_choose)
    _policy(proposal)  # validate; no layer nesting, so both presets coincide
    choose = _choose if _choose is not None else _rng_chooser(rng)
    state = TableState.from_marginals(m)
    try:
        if state.initial_reduce() >= 0:
            raise SampleRejected("initial-reduction")
        geo = state.geo
        lo = geo.offset[geo.d - 1]
        hi = geo.nlines
        log_q = 0.0
        while True:
            best_lid = -1
            best_rs = -1
            for lid in range(lo, hi):
                if state.free[lid] > 0 and state.rs[lid] > best_rs:
                    best_rs = state.rs[lid]
                    best_lid = lid
            if best_lid < 0:
                break
            log_q += draw_line(
                state, best_lid, choose, f"column={best_lid - lo}"
            )
        return _finish(m, state, log_q)
    except SampleRejected as r:
        return SampleOutcome("rejected", reject_stage=r.stage)


def _per_sample_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _weight_chunk(
    m: MarginalSet, seed: int, layer_axis: int, proposal: str, lo: int, hi: int
):
    out = np.empty(hi - lo)
    three_way = m.dims.d == 3
    for i in range(lo, hi):
        rng = _per_sample_rng(seed, i)
        if three_way:
            o = sample_table3(m, rng, layer_axis=layer_axis, proposal=proposal)
        else:
            o = sample_table_d(m, rng, proposal=proposal)
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
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        chunks = list(pool.map(_weight_chunk_star, args))
    return np.concatenate(chunks)


def _weight_chunk_star(args):
    return _weight_chunk(*args)


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
    three_way = m.dims.d == 3
    accepted: list[SampleOutcome] = []
    attempt = 0
    while len(accepted) < count and attempt < max_attempts:
        rng = _per_sample_rng(seed, attempt)
        if three_way:
            o = sample_table3(m, rng, layer_axis=layer_axis, proposal=proposal)
        else:
            o = sample_table_d(m, rng, proposal=proposal)
        if o.accepted:
            accepted.append(o)
        attempt += 1
    return accepted, attempt
