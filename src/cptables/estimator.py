"""Count estimation from importance weights, with dispersion diagnostics
and bootstrap percentile confidence intervals.

The weight stream from run_sis holds log Y_i where Y_i = 1/q(X_i) for an
accepted proposal and 0 (log -inf) for a rejection.  The table count is
estimated by the stream mean; everything here stays in log space so counts
around 1e144 remain exact to float precision.

cv^2, the squared coefficient of variation of the weights, is the standard
quality diagnostic: it is computed over the accepted weights only, while
the estimate itself keeps the zeros.  The bootstrap resamples the full
stream (zeros included) N at a time, B times, and takes nearest-rank
percentiles of the replicated estimates and cv^2 values.  Replications are
resampled in blocks, and within a block their cv^2 values are computed per
group of replications with the same number of accepted entries, with the
same operations in the same order as cv_squared, so each value is bitwise
the one a replication-by-replication loop gives.  Replications that drew
no rejection (all of them on a stream without rejections) take their rows
of the block as they are; only the others gather their accepted entries.

The log-sum-exp is in-house, numpy only, and follows the algorithm of
scipy.special.logsumexp step for step, so it returns the same bits: the
maxima of each row are set aside, and with m of them and s the sum of
exp(a - max) over the rest the result is log1p(s/m) + log(m) + max.
(scipy recomputes a non-finite result as log(sum(exp(a))); without nan
entries that gives the same -inf or +inf, so the step is left out.)  The
bootstrap computes exp(picks - rowmax) once per block and takes both the
replicated estimate and cv^2 from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BOOTSTRAP_STREAM = 1 << 40  # spawn key; never collides with sample indices
# replications resampled per numpy call: at most 256, and at most 2**14
# drawn entries (128 KB per float array), so blocking adds little peak memory
_BOOTSTRAP_BLOCK_ROWS = 256
_BOOTSTRAP_BLOCK_CELLS = 1 << 14


def _logsumexp_tail(a: np.ndarray, top: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) of each row of the 2-D array a, given its row maxima
    top (shape (rows, 1)) and z = exp(a - top); z is overwritten."""
    at_top = a == top
    m = np.add.reduce(at_top, 1)
    np.copyto(z, 0.0, where=at_top)
    with np.errstate(divide="ignore", invalid="ignore"):  # nan rows: m = 0
        return np.log1p(np.add.reduce(z, 1) / m) + np.log(m) + top[:, 0]


def _exp_from_top(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(top, z): the row maxima of the 2-D array a and exp(a - top)."""
    top = a.max(axis=1, keepdims=True)
    z = np.empty_like(a)
    with np.errstate(invalid="ignore"):  # -inf - -inf on all -inf rows
        np.subtract(a, top, out=z)
    np.exp(z, out=z)
    return top, z


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) of each row of a 2-D array, bitwise equal to
    scipy.special.logsumexp(a, axis=1)."""
    top, z = _exp_from_top(a)
    return _logsumexp_tail(a, top, z)


def estimate_log_count(log_weights) -> float:
    """log of the estimated table count: log(mean of Y_i).  A stream with
    no acceptances estimates zero tables (-inf)."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise ValueError("empty weight stream")
    return float(_logsumexp_rows(lw.reshape(1, -1))[0] - math.log(lw.size))


def cv_squared(log_weights) -> float:
    """Squared coefficient of variation of the accepted weights.

    Scale-invariant by construction (weights are shifted by their max in
    log space first).  A single accepted weight has no dispersion: 0.  No
    accepted weights at all is an error; there is nothing to diagnose.
    """
    lw = np.asarray(log_weights, dtype=float)
    acc = lw[np.isfinite(lw)]
    if acc.size == 0:
        raise ValueError("cv^2 needs at least one accepted weight")
    if acc.size == 1:
        return 0.0
    z = np.exp(acc - acc.max())
    mean = z.mean()
    return float(z.var(ddof=1) / (mean * mean))


def percentile_nearest_rank(sorted_vals: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the ceil(q * B)-th smallest value (1-based),
    clamped to the observed range."""
    b = sorted_vals.size
    rank = min(max(math.ceil(q * b), 1), b)
    return float(sorted_vals[rank - 1])


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile intervals for the estimate (log space) and for cv^2."""

    estimate_log: tuple[float, float]
    cv2: tuple[float, float]
    replications: int
    alpha: float


def _bootstrap_replicates(
    lw: np.ndarray, replications: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The replicated log estimates and cv^2 values, in replication order.

    Per block, z = exp(picks - rowmax) is computed once.  For cv^2 the
    replications are grouped by their number c of accepted entries; each
    group's entries of z form one (rows, c) array, on which the ufuncs of
    z.mean() and z.var(ddof=1) run row by row in the same order (for
    c = n, the group's rows of z as they are).  The estimate is then the
    log-sum-exp finished from z with the maxima zeroed.  Every value is
    bitwise what cv_squared and scipy.special.logsumexp give on that
    replication."""
    n = lw.size
    est = np.empty(replications)
    cv2 = np.empty(replications)
    # rng.integers(size=(rows, n)) consumes the stream exactly as `rows`
    # calls with size=n would, so the blocking leaves the output unchanged
    rows = max(1, min(_BOOTSTRAP_BLOCK_ROWS, _BOOTSTRAP_BLOCK_CELLS // n))
    for lo in range(0, replications, rows):
        hi = min(lo + rows, replications)
        picks = lw[rng.integers(0, n, size=(hi - lo, n))]
        top, z = _exp_from_top(picks)
        finite = np.isfinite(picks)
        counts = finite.sum(axis=1)
        if counts.min() < n:
            vals = z[finite]  # each row's accepted entries, row after row
            starts = np.cumsum(counts) - counts
        for c in np.unique(counts).tolist():
            at = np.flatnonzero(counts == c)
            if c <= 1:
                cv2[lo + at] = 0.0
                continue
            if c < n:
                f = vals[starts[at, None] + np.arange(c)]
            else:  # rows without a rejection are already contiguous in z
                f = z if at.size == z.shape[0] else z[at]
            mu = np.add.reduce(f, 1) / c
            x = f - mu[:, None]
            x *= x
            cv2[lo + at] = (np.add.reduce(x, 1) / (c - 1)) / (mu * mu)
        est[lo:hi] = _logsumexp_tail(picks, top, z) - math.log(n)
    return est, cv2


def bootstrap_ci(
    log_weights,
    replications: int = 1000,
    alpha: float = 0.05,
    rng: np.random.Generator | None = None,
) -> BootstrapCI:
    """Resample the full stream with replacement, N entries per replication,
    B times; return the [alpha/2, 1 - alpha/2] nearest-rank percentile
    intervals of the replicated log estimates and cv^2 values.  Every log
    weight must be finite or -inf (a rejection).

    Replications that happen to draw no accepted entry contribute estimate
    -inf and cv^2 0 (unreachable at the acceptance rates these runs see).
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise ValueError("empty weight stream")
    if not (lw < math.inf).all():
        raise ValueError("log weights must be finite or -inf")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if rng is None:
        rng = np.random.default_rng()
    est, cv2 = _bootstrap_replicates(lw, replications, rng)
    est.sort()
    cv2.sort()
    lo, hi = alpha / 2.0, 1.0 - alpha / 2.0
    return BootstrapCI(
        estimate_log=(
            percentile_nearest_rank(est, lo),
            percentile_nearest_rank(est, hi),
        ),
        cv2=(
            percentile_nearest_rank(cv2, lo),
            percentile_nearest_rank(cv2, hi),
        ),
        replications=replications,
        alpha=alpha,
    )


def format_count_from_log(log_value: float) -> str:
    """Render exp(log_value) as d.dddddde+EE scientific notation straight
    from the log, so astronomically large counts never overflow."""
    if log_value == -math.inf:
        return "0"
    log10 = log_value / math.log(10.0)
    exp10 = math.floor(log10)
    mant = 10.0 ** (log10 - exp10)
    if round(mant, 6) >= 10.0:
        mant /= 10.0
        exp10 += 1
    return f"{mant:.6f}e{exp10:+03d}"


@dataclass(frozen=True)
class EstimateReport:
    """Everything one run produces: stream size and acceptance count, the
    log-space estimate, cv^2, and (when bootstrapped) the intervals."""

    n: int
    accepted: int
    estimate_log: float
    cv2: float | None
    ci_estimate_log: tuple[float, float] | None = None
    ci_cv2: tuple[float, float] | None = None
    alpha: float | None = None
    bootstrap_b: int | None = None

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.n

    @property
    def estimate_display(self) -> str:
        return format_count_from_log(self.estimate_log)


def summarize(
    log_weights,
    *,
    bootstrap_b: int | None = None,
    alpha: float = 0.05,
    rng: np.random.Generator | None = None,
) -> EstimateReport:
    """Assemble an EstimateReport from a weight stream; bootstrap_b turns on
    the percentile intervals."""
    lw = np.asarray(log_weights, dtype=float)
    accepted = int(np.isfinite(lw).sum())
    est = estimate_log_count(lw)
    cv2 = cv_squared(lw) if accepted > 0 else None
    ci = None
    if bootstrap_b is not None and accepted > 0:
        ci = bootstrap_ci(lw, bootstrap_b, alpha, rng)
    return EstimateReport(
        n=int(lw.size),
        accepted=accepted,
        estimate_log=est,
        cv2=cv2,
        ci_estimate_log=ci.estimate_log if ci else None,
        ci_cv2=ci.cv2 if ci else None,
        alpha=alpha if ci else None,
        bootstrap_b=bootstrap_b if ci else None,
    )


def estimate_table_count(
    m,
    samples: int,
    seed: int = 0,
    *,
    layer_axis: int = 0,
    proposal: str = "classic",
    workers: int = 1,
    bootstrap_b: int | None = None,
    alpha: float = 0.05,
) -> EstimateReport:
    """One-call convenience: run the sampler and summarize the stream.  The
    bootstrap RNG is derived from the same master seed on a stream that can
    never collide with the per-sample streams."""
    from .sis import SisConfig, run_sis, stream_rng  # keeps module load light

    cfg = SisConfig(
        samples=samples,
        seed=seed,
        layer_axis=layer_axis,
        proposal=proposal,
        workers=workers,
    )
    lw = run_sis(m, cfg)
    return summarize(lw, bootstrap_b=bootstrap_b, alpha=alpha,
                     rng=stream_rng(seed, _BOOTSTRAP_STREAM))
