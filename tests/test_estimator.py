import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp  # test-only reference

from cptables import (
    BootstrapCI,
    EstimateReport,
    bootstrap_ci,
    cv_squared,
    estimate_log_count,
    estimate_table_count,
    fixture,
    fixture_names,
    format_count_from_log,
    summarize,
)
from cptables.estimator import (
    _BOOTSTRAP_BLOCK_CELLS,
    _BOOTSTRAP_BLOCK_ROWS,
    _bootstrap_replicates,
    _logsumexp_rows,
    percentile_nearest_rank,
)

NEG_INF = -math.inf


def test_estimate_log_count_is_the_log_mean():
    assert abs(estimate_log_count([math.log(2), math.log(4)]) - math.log(3)) < 1e-12
    # rejections enter the mean as zeros
    got = estimate_log_count([math.log(4), NEG_INF])
    assert abs(got - math.log(2)) < 1e-12
    assert estimate_log_count([NEG_INF, NEG_INF]) == NEG_INF
    with pytest.raises(ValueError):
        estimate_log_count([])


def test_cv_squared_known_values_and_scale_invariance():
    assert cv_squared([math.log(5)] * 8) == 0.0
    # weights 2 and 4: mean 3, var (ddof=1) 2, cv^2 = 2/9
    assert abs(cv_squared([math.log(2), math.log(4)]) - 2.0 / 9.0) < 1e-12
    base = [math.log(2), NEG_INF, math.log(4), NEG_INF]
    assert abs(cv_squared(base) - 2.0 / 9.0) < 1e-12  # zeros are excluded
    shifted = [lw + 500.0 for lw in (math.log(2), math.log(4))]
    assert abs(cv_squared(shifted) - 2.0 / 9.0) < 1e-10
    assert cv_squared([math.log(7), NEG_INF]) == 0.0
    with pytest.raises(ValueError):
        cv_squared([NEG_INF, NEG_INF])


# entries from a small pool tie often; the pool holds -inf and +inf and
# magnitudes up to 1e3, where a plain log(sum(exp(a))) overflows
_LSE_ENTRY = st.one_of(
    st.sampled_from([NEG_INF, math.inf, -1e3, -2.5, 0.0, 1e-300, 7.0, 1e3]),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=400, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 40)),
                  elements=_LSE_ENTRY),
       st.lists(st.integers(0, 5), max_size=3))
@example(np.array([[3.0, 3.0, 1.0], [NEG_INF] * 3, [NEG_INF, 2.0, 2.0]]), [])
@example(np.array([[5.0], [NEG_INF], [1e3]]), [])
@example(np.array([[1e3, 1e3 - 1e-13, 999.0, NEG_INF]]), [])
def test_logsumexp_rows_is_scipys_bit_for_bit(a, dead_rows):
    a[[r for r in dead_rows if r < a.shape[0]]] = NEG_INF  # rows all -inf
    with np.errstate(all="ignore"):
        want = logsumexp(a, axis=1)
    assert _logsumexp_rows(a.copy()).tobytes() == want.tobytes()
    for row in a[np.all(a < math.inf, axis=1)]:
        got = estimate_log_count(row)
        assert got.hex() == float(logsumexp(row) - math.log(row.size)).hex()


def test_no_scipy_module_on_the_cli_path():
    code = (
        "import sys\n"
        "import cptables, cptables.cli\n"
        "rc = cptables.cli.main(['estimate', 'ex5_6', '--samples', '20', "
        "'--bootstrap', '50'])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_percentile_nearest_rank_semantics():
    vals = np.array([10.0, 20.0, 30.0, 40.0])
    assert percentile_nearest_rank(vals, 0.5) == 20.0  # ceil(2) -> 2nd
    assert percentile_nearest_rank(vals, 0.51) == 30.0
    assert percentile_nearest_rank(vals, 0.025) == 10.0
    assert percentile_nearest_rank(vals, 0.975) == 40.0
    assert percentile_nearest_rank(vals, 0.0) == 10.0  # clamped to rank 1
    assert percentile_nearest_rank(vals, 1.0) == 40.0
    big = np.arange(1.0, 1001.0)
    assert percentile_nearest_rank(big, 0.025) == 25.0
    assert percentile_nearest_rank(big, 0.975) == 975.0


def test_bootstrap_ci_deterministic_given_generator_seed():
    lw = np.log(np.arange(1.0, 40.0))
    lw[::5] = NEG_INF
    a = bootstrap_ci(lw, replications=200, rng=np.random.default_rng(42))
    b = bootstrap_ci(lw, replications=200, rng=np.random.default_rng(42))
    c = bootstrap_ci(lw, replications=200, rng=np.random.default_rng(43))
    assert a == b
    assert a != c
    assert a.estimate_log[0] <= a.estimate_log[1]
    assert a.cv2[0] <= a.cv2[1]


def test_bootstrap_ci_pinned_to_the_per_replication_resampler():
    # values recorded from the one-replication-per-call resampler; 600
    # replications of an odd-length stream with rejections span several
    # resampling blocks, the last one partial
    rng = np.random.default_rng(2024)
    lw = rng.normal(10.0, 1.5, size=151)
    lw[rng.random(151) < 0.3] = NEG_INF
    ci = bootstrap_ci(lw, replications=600, rng=np.random.default_rng(99))
    assert ci.estimate_log == (10.214072172338618, 10.967887032249358)
    assert ci.cv2 == (2.212452915203058, 5.204072614761692)


def _reference_replicates(lw, replications, rng):
    # the resampler with one cv^2 computation per replication, as it was
    # before the replications were grouped by their accepted count
    n = lw.size
    est = np.empty(replications)
    cv2 = np.empty(replications)
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
    return est, cv2


def _reference_ci(lw, replications, alpha, rng):
    est, cv2 = _reference_replicates(lw, replications, rng)
    est.sort()
    cv2.sort()
    lo, hi = alpha / 2.0, 1.0 - alpha / 2.0
    return BootstrapCI(
        (percentile_nearest_rank(est, lo), percentile_nearest_rank(est, hi)),
        (percentile_nearest_rank(cv2, lo), percentile_nearest_rank(cv2, hi)),
        replications,
        alpha,
    )


# (stream length n, rejection rate, replications B): no, some and almost
# all rejections; n = 1 and 2; B = 1 and B off the block size (54 rows of
# 151 entries, 256 rows of 1 or 2); at 97% rejection many replications
# draw zero or one accepted entries
BOOTSTRAP_CASES = [
    (151, 0.0, 600),
    (151, 0.3, 1000),
    (151, 0.97, 777),
    (40, 0.97, 300),
    (151, 0.3, 1),
    (1, 0.0, 1),
    (1, 0.0, 300),
    (1, 1.0, 5),
    (2, 0.0, 257),
    (2, 0.5, 700),
]


@pytest.mark.parametrize("n,reject,b", BOOTSTRAP_CASES)
def test_grouped_bootstrap_matches_the_per_replication_loop(n, reject, b):
    for seed in range(4):
        rng = np.random.default_rng([seed, n, b])
        lw = rng.normal(8.0, 1.0 + seed, size=n)
        lw[rng.random(n) < reject] = NEG_INF
        est, cv2 = _bootstrap_replicates(lw, b, np.random.default_rng(seed))
        ref_est, ref_cv2 = _reference_replicates(lw, b, np.random.default_rng(seed))
        assert est.tobytes() == ref_est.tobytes()
        assert cv2.tobytes() == ref_cv2.tobytes()
        alpha = (0.05, 0.1, 0.5, 0.01)[seed]
        got = bootstrap_ci(lw, b, alpha, np.random.default_rng(seed + 10))
        assert got == _reference_ci(lw, b, alpha, np.random.default_rng(seed + 10))


def test_bootstrap_ci_degenerate_on_a_constant_stream():
    lw = np.full(50, math.log(3.0))
    ci = bootstrap_ci(lw, replications=100, rng=np.random.default_rng(0))
    assert ci.estimate_log[0] == ci.estimate_log[1]
    assert abs(ci.estimate_log[0] - math.log(3.0)) < 1e-12
    assert ci.cv2 == (0.0, 0.0)


def test_bootstrap_ci_brackets_the_point_estimate():
    rng = np.random.default_rng(7)
    lw = np.log(rng.uniform(1.0, 9.0, size=400))
    point = estimate_log_count(lw)
    ci = bootstrap_ci(lw, replications=500, rng=np.random.default_rng(1))
    assert ci.estimate_log[0] <= point <= ci.estimate_log[1]
    cv = cv_squared(lw)
    assert ci.cv2[0] <= cv <= ci.cv2[1]


def test_bootstrap_ci_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], replications=10)
    with pytest.raises(ValueError):
        bootstrap_ci([0.0], replications=0)
    with pytest.raises(ValueError):
        bootstrap_ci([0.0], replications=10, alpha=0.0)
    with pytest.raises(ValueError):
        bootstrap_ci([0.0], replications=10, alpha=1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            bootstrap_ci([0.0, bad], replications=10)


def test_format_count_from_log():
    assert format_count_from_log(math.log(12.0)) == "1.200000e+01"
    assert format_count_from_log(NEG_INF) == "0"
    assert format_count_from_log(math.log(2.0)) == "2.000000e+00"
    assert format_count_from_log(144.0 * math.log(10.0)) == "1.000000e+144"
    # mantissa that rounds up to 10 must carry into the exponent
    assert format_count_from_log(math.log(9.9999996e5)) == "1.000000e+06"
    assert format_count_from_log(math.log(0.5)) == "5.000000e-01"


def test_summarize_fields():
    lw = [math.log(2), NEG_INF, math.log(4), math.log(6)]
    r = summarize(lw)
    assert isinstance(r, EstimateReport)
    assert r.n == 4 and r.accepted == 3
    assert abs(r.estimate_log - math.log(3.0)) < 1e-12
    assert r.cv2 is not None and r.cv2 > 0.0
    assert r.ci_estimate_log is None and r.ci_cv2 is None
    assert r.alpha is None and r.bootstrap_b is None
    assert r.acceptance_rate == 0.75
    assert r.estimate_display == "3.000000e+00"

    rb = summarize(lw, bootstrap_b=50, rng=np.random.default_rng(3))
    assert rb.bootstrap_b == 50 and rb.alpha == 0.05
    assert rb.ci_estimate_log is not None and rb.ci_cv2 is not None

    dead = summarize([NEG_INF, NEG_INF], bootstrap_b=50)
    assert dead.accepted == 0 and dead.estimate_log == NEG_INF
    assert dead.cv2 is None and dead.ci_estimate_log is None
    assert dead.estimate_display == "0"


def test_estimate_table_count_reports_are_reproducible():
    m = fixture("ex5_6")
    a = estimate_table_count(m, 400, seed=5, bootstrap_b=100)
    b = estimate_table_count(m, 400, seed=5, bootstrap_b=100)
    c = estimate_table_count(m, 400, seed=6, bootstrap_b=100)
    assert a == b
    assert a != c
    assert a.n == 400
    est = math.exp(a.estimate_log)
    assert abs(est - 28.0) / 28.0 < 0.15
    assert a.ci_estimate_log[0] <= a.estimate_log <= a.ci_estimate_log[1]


# sha256 digests of estimate_table_count reports (estimate_log, cv2 and
# both CIs as float.hex), recorded from the scipy-logsumexp estimator
# before the in-house log-sum-exp replaced it
REPORT_PANELS = {
    "fixtures": (fixture_names() + ["semimagic-4-1"], 150, 2000),
    "semimagic-7-3": (["semimagic-7-3"], 400, 1000),
}
REPORT_DIGESTS = {
    "fixtures": "9714823ca80bd80bbb04aa58f3a01b796ca09d871ed3a1cf063220411f57449b",
    "semimagic-7-3": "829fe9647a4a2beaaac617350362ddeb0cd6dc226aad19f6eea571522b37abee",
}


def _report_digest(names, samples, b):
    h = hashlib.sha256()
    for name in names:
        r = estimate_table_count(fixture(name), samples, seed=3, bootstrap_b=b)
        for v in (r.estimate_log, r.cv2, *r.ci_estimate_log, *r.ci_cv2):
            h.update(float(v).hex().encode())
    return h.hexdigest()


@pytest.mark.parametrize("panel", sorted(REPORT_DIGESTS))
def test_estimate_reports_are_pinned_bit_for_bit(panel):
    assert _report_digest(*REPORT_PANELS[panel]) == REPORT_DIGESTS[panel]


# Latin squares of order n are the semimagic-n-1 cubes.  Their published
# counts L(n) (OEIS A002860; McKay & Wanless 2005, Ann. Comb. 9:335) and
# reduced-square counts R(n) (OEIS A000315), with L(n) = n! (n-1)! R(n)
LATIN_COUNTS = {
    6: (812851200, 9408),
    7: (61479419904000, 16942080),
    8: (108776032459082956800, 535281401856),
    9: (5524751496156892842531225600, 377597570964258816),
    10: (9982437658213039871725064756920320000,
         7580721483160132811489280),
}


@pytest.mark.parametrize("n", sorted(LATIN_COUNTS))
def test_latin_square_estimates_match_the_published_counts(n):
    count, reduced = LATIN_COUNTS[n]
    assert count == math.factorial(n) * math.factorial(n - 1) * reduced
    r = estimate_table_count(fixture(f"semimagic-{n}-1"), 3000, seed=11)
    # the run's own standard error of estimate / count, from its acceptance
    # and cv^2, as perfbench's desk check takes it
    rel_var = (1.0 + r.cv2) / r.acceptance_rate - 1.0
    se = math.sqrt(rel_var / r.n)
    z = (math.exp(r.estimate_log - math.log(count)) - 1.0) / se
    assert abs(z) <= 4.0, f"order {n}: z = {z:+.2f}"
