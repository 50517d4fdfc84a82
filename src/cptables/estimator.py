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
percentiles of the replicated estimates and cv^2 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

_BOOTSTRAP_STREAM = 1 << 40  # spawn key; never collides with sample indices
# replications resampled per numpy call: at most 256, and at most 2**13
# drawn entries (64 KB per float array), so blocking adds no peak memory
_BOOTSTRAP_BLOCK_ROWS = 256
_BOOTSTRAP_BLOCK_CELLS = 1 << 13


def estimate_log_count(log_weights) -> float:
    """log of the estimated table count: log(mean of Y_i).  A stream with
    no acceptances estimates zero tables (-inf)."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise ValueError("empty weight stream")
    return float(logsumexp(lw) - math.log(lw.size))


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


def bootstrap_ci(
    log_weights,
    replications: int = 1000,
    alpha: float = 0.05,
    rng: np.random.Generator | None = None,
) -> BootstrapCI:
    """Resample the full stream with replacement, N entries per replication,
    B times; return the [alpha/2, 1 - alpha/2] nearest-rank percentile
    intervals of the replicated log estimates and cv^2 values.

    Replications that happen to draw no accepted entry contribute estimate
    -inf and cv^2 0 (unreachable at the acceptance rates these runs see).
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise ValueError("empty weight stream")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if rng is None:
        rng = np.random.default_rng()
    n = lw.size
    est = np.empty(replications)
    cv2 = np.empty(replications)
    # rng.integers(size=(rows, n)) consumes the stream exactly as `rows`
    # calls with size=n would, so the blocking leaves the output unchanged
    rows = max(1, min(_BOOTSTRAP_BLOCK_ROWS, _BOOTSTRAP_BLOCK_CELLS // n))
    for lo in range(0, replications, rows):
        hi = min(lo + rows, replications)
        picks = lw[rng.integers(0, n, size=(hi - lo, n))]
        est[lo:hi] = logsumexp(picks, axis=1) - math.log(n)
        for b, pick in enumerate(picks, lo):
            finite = pick[np.isfinite(pick)]
            if finite.size <= 1:
                cv2[b] = 0.0
            else:
                z = np.exp(finite - finite.max())
                mu = z.mean()
                cv2[b] = z.var(ddof=1) / (mu * mu)
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


def format_count_from_log(log_value: float, digits: int = 6) -> str:
    """Render exp(log_value) as d.dddddde+EE scientific notation straight
    from the log, so astronomically large counts never overflow."""
    if log_value == -math.inf:
        return "0"
    log10 = log_value / math.log(10.0)
    exp10 = math.floor(log10)
    mant = 10.0 ** (log10 - exp10)
    if round(mant, digits) >= 10.0:
        mant /= 10.0
        exp10 += 1
    return f"{mant:.{digits}f}e{exp10:+03d}"


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
    from .sis import SisConfig, run_sis  # local import keeps module load light

    cfg = SisConfig(
        samples=samples,
        seed=seed,
        layer_axis=layer_axis,
        proposal=proposal,
        workers=workers,
    )
    lw = run_sis(m, cfg)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(_BOOTSTRAP_STREAM,)))
    )
    return summarize(lw, bootstrap_b=bootstrap_b, alpha=alpha, rng=rng)
